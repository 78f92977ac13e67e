"""System parameters, message indexing and the access structure.

An (N, D, K) system has N attributes, each taking one of K values; a user
holds an attribute vector v* of length N. Attributes 1..D are sensitive and
each is verified by its own dedicated server; attributes D+1..N are public
and verified once by the central server (server D+1). After verification,
dedicated server n can serve exactly the messages whose n-th attribute
matches v*_n (public part fixed), and the central server can serve every
message whose public part matches.

Attribute values are represented as 1-based indices into each position's
alphabet; display labels are presentation-side metadata and never enter
the protocol. Messages are identified by the lexicographic index of their
full attribute vector, so there are K^N message ids and the participating
space (public part pinned to v*) has size K^D.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConfigError
from .field import is_prime


@dataclass(frozen=True)
class SystemParams:
    """Shape of one deployment: attribute counts, alphabet size, field, length.

    n_attrs: N, total attributes.
    d:       D, number of dedicated (sensitive-attribute) servers.
    k:       alphabet size per attribute, K >= 2.
    q:       field modulus, prime.
    length:  L, symbols per message. Divisibility against the sub-packet
             count is a per-scheme concern checked by the scheme engines.
    """

    n_attrs: int
    d: int
    k: int
    q: int = 65537
    length: int = 1

    def __post_init__(self):
        if self.d < 1 or self.n_attrs < self.d:
            raise ConfigError(f"need 1 <= D <= N, got D={self.d}, N={self.n_attrs}")
        if self.k < 2:
            raise ConfigError(f"alphabet size must be at least 2, got {self.k}")
        if not is_prime(self.q):
            raise ConfigError(f"q must be prime, got {self.q}")
        if self.length < 1:
            raise ConfigError(f"message length must be positive, got {self.length}")

    @property
    def central(self) -> int:
        """Server id of the central server."""
        return self.d + 1

    @property
    def has_central(self) -> bool:
        """Whether any public attributes exist for the central server to verify."""
        return self.n_attrs > self.d

    @property
    def message_count(self) -> int:
        return self.k ** self.n_attrs

    def servers(self) -> range:
        """All server ids, dedicated then central."""
        return range(1, self.d + 2)


def check_vector(v: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Validate an attribute vector: length N, entries in [1, K]."""
    v = tuple(v)
    if len(v) != params.n_attrs:
        raise ConfigError(f"attribute vector must have {params.n_attrs} entries, got {len(v)}")
    for x in v:
        if not 1 <= x <= params.k:
            raise ConfigError(f"attribute value {x} outside alphabet [1, {params.k}]")
    return v


def public_part(v: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    return tuple(v[params.d:])


def message_index(v: tuple[int, ...], params: SystemParams) -> int:
    """Lexicographic id of the message with attribute vector v, 0-based."""
    v = check_vector(v, params)
    idx = 0
    for x in v:
        idx = idx * params.k + (x - 1)
    return idx


def vector_of_index(idx: int, params: SystemParams) -> tuple[int, ...]:
    """Inverse of message_index."""
    if not 0 <= idx < params.message_count:
        raise ConfigError(f"message id {idx} out of range [0, {params.message_count})")
    out = []
    for _ in range(params.n_attrs):
        out.append(idx % params.k + 1)
        idx //= params.k
    return tuple(reversed(out))


def participating_vectors(params: SystemParams, public: tuple[int, ...]):
    """All attribute vectors whose public part equals the given one, in lex order."""
    if len(public) != params.n_attrs - params.d:
        raise ConfigError("public part has wrong length")
    for sens in itertools.product(range(1, params.k + 1), repeat=params.d):
        yield sens + tuple(public)


def participating_ids(params: SystemParams, public: tuple[int, ...]) -> list[int]:
    """Ids of the K^D participating messages for a public part, ascending."""
    return sorted(message_index(v, params) for v in participating_vectors(params, public))


def accessible_messages(server: int, v_star: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Message ids server `server` may serve after verifying v*, sorted.

    Dedicated server n holds the K^(D-1) messages agreeing with v* on
    attribute n and on the public part; the central server holds all K^D
    messages agreeing on the public part.
    """
    v_star = check_vector(v_star, params)
    if not 1 <= server <= params.d + 1:
        raise ConfigError(f"server id {server} out of range [1, {params.d + 1}]")
    pub = public_part(v_star, params)
    ids = []
    for v in participating_vectors(params, pub):
        if server == params.central or v[server - 1] == v_star[server - 1]:
            ids.append(message_index(v, params))
    return tuple(sorted(ids))


def match_set(n: int, k: int, v_star: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Ids of participating messages whose attribute n has value index k, sorted.

    This is the candidate set a dedicated server n would hold if the user's
    n-th attribute were k; the central server's query groups range over
    these sets for all (n, k).
    """
    v_star = check_vector(v_star, params)
    if not 1 <= n <= params.d:
        raise ConfigError(f"attribute position {n} out of range [1, {params.d}]")
    if not 1 <= k <= params.k:
        raise ConfigError(f"value index {k} out of range [1, {params.k}]")
    pub = public_part(v_star, params)
    ids = [message_index(v, params)
           for v in participating_vectors(params, pub) if v[n - 1] == k]
    return tuple(sorted(ids))


def pair_set(n: int, m: int, k: int, k2: int,
             v_star: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Ids of participating messages with attribute n at k and attribute m at k2.

    Symmetric in its two constraints: pair_set(n, m, k, k2) == pair_set(m, n, k2, k).
    Size K^(D-2).
    """
    if n == m:
        raise ConfigError("pair_set needs two distinct attribute positions")
    v_star = check_vector(v_star, params)
    for pos, val in ((n, k), (m, k2)):
        if not 1 <= pos <= params.d:
            raise ConfigError(f"attribute position {pos} out of range [1, {params.d}]")
        if not 1 <= val <= params.k:
            raise ConfigError(f"value index {val} out of range [1, {params.k}]")
    pub = public_part(v_star, params)
    ids = [message_index(v, params)
           for v in participating_vectors(params, pub)
           if v[n - 1] == k and v[m - 1] == k2]
    return tuple(sorted(ids))


def ordered_complement(n: int, d: int) -> tuple[int, ...]:
    """The other dedicated-server ids, ascending: bar(n)."""
    if not 1 <= n <= d:
        raise ConfigError(f"server {n} out of range [1, {d}]")
    return tuple(m for m in range(1, d + 1) if m != n)


@dataclass(frozen=True)
class PairPartition:
    """Split of the 2-subsets of [D] used by the two-subpacket scheme.

    pairs:    all 2-subsets of [D], each as (n, m) with n < m, sorted.
    cycle:    a subset of `pairs` covering every server exactly twice
              (a 1-design with block size 2 and replication 2).
    rest:     pairs \\ cycle, sorted.
    oriented: the cycle pairs oriented so that first components cover [D]
              exactly once and second components cover [D] exactly once.
    """

    d: int
    pairs: tuple[tuple[int, int], ...]
    cycle: tuple[tuple[int, int], ...]
    rest: tuple[tuple[int, int], ...]
    oriented: tuple[tuple[int, int], ...]

    def outgoing(self, n: int) -> int:
        """The partner m with (n, m) in the oriented cycle."""
        for a, b in self.oriented:
            if a == n:
                return b
        raise ConfigError(f"server {n} has no oriented partner")


def all_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((n, m) for n in range(1, d + 1) for m in range(n + 1, d + 1))


def _orient_cycle(cycle: tuple[tuple[int, int], ...], d: int) -> tuple[tuple[int, int], ...]:
    # the cycle pairs form a 2-regular graph on [D]; walk each connected
    # cycle once, orienting edges head-to-tail, so every server appears
    # exactly once as a source and once as a target
    adjacency: dict[int, list[int]] = {n: [] for n in range(1, d + 1)}
    for a, b in cycle:
        adjacency[a].append(b)
        adjacency[b].append(a)
    oriented = []
    visited_edges = set()
    for start in range(1, d + 1):
        if all((min(start, b), max(start, b)) in visited_edges for b in adjacency[start]):
            continue
        cur = start
        while True:
            nxt = next(b for b in adjacency[cur]
                       if (min(cur, b), max(cur, b)) not in visited_edges)
            oriented.append((cur, nxt))
            visited_edges.add((min(cur, nxt), max(cur, nxt)))
            cur = nxt
            if cur == start:
                break
    return tuple(sorted(oriented))


def validate_cycle(cycle, d: int) -> tuple[tuple[int, int], ...]:
    """Check that `cycle` covers every server exactly twice with distinct pairs."""
    canon = []
    for pair in cycle:
        a, b = pair
        if a == b or not (1 <= a <= d and 1 <= b <= d):
            raise ConfigError(f"invalid pair {pair} for D={d}")
        canon.append((min(a, b), max(a, b)))
    if len(set(canon)) != len(canon):
        raise ConfigError("duplicate pairs in cycle")
    degree = {n: 0 for n in range(1, d + 1)}
    for a, b in canon:
        degree[a] += 1
        degree[b] += 1
    if any(deg != 2 for deg in degree.values()):
        raise ConfigError(f"cycle must cover each server exactly twice, got degrees {degree}")
    return tuple(sorted(canon))


def build_partition(d: int, cycle=None) -> PairPartition:
    """Default pair partition for D >= 3: consecutive pairs plus {1, D}.

    A different covering design can be supplied as `cycle`; it is validated
    and oriented here. Rate and load counts do not depend on the choice.
    """
    if d < 3:
        raise ConfigError(f"pair partition needs D >= 3, got {d}")
    if cycle is None:
        cycle = [(n, n + 1) for n in range(1, d)] + [(1, d)]
    canon = validate_cycle(cycle, d)
    pairs = all_pairs(d)
    rest = tuple(p for p in pairs if p not in set(canon))
    oriented = _orient_cycle(canon, d)
    return PairPartition(d=d, pairs=pairs, cycle=canon, rest=rest, oriented=oriented)
