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
space (public part pinned to v*) has size K^D. An id travels as one
32-bit word, so `SystemParams` refuses K^N above 2^32.

Every id set (participating, accessible, match and pair sets) is read
from one bounded memo keyed by (N, D, K, public part, pinned attributes),
and returned as a tuple. q and the message length are not in the key, so
the schemes, lengths and mix segments of one deployment share entries,
and so do the user's build and every server's label table. The memo pays
only when an (N, D, K, public part) repeats: the first use of a set
builds it, and every later use, by any scheme, length or server, reads it.
`id_set` memoizes each set's frozenset the same way, for the label tables.
A server calls the set helpers only on the first install of a view: its
accessible ids and label table are memoized above this memo, by view
(`schemes.base.MEMO`), so a warm install calls none.
The set helpers take the public part, not a whole v*: a server knows only
that part and its own value, and a v* is validated once, by the build that
indexes it. `all_pairs` lists the 2-subsets of [D] that the pairwise
schemes index their pads by; how a scheme uses them (het2's cycle) is
defined in its engine module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import ConfigError
from .field import MAX_MODULUS, is_prime


@dataclass(frozen=True)
class SystemParams:
    """Shape of one deployment: attribute counts, alphabet size, field, length.

    n_attrs: N, total attributes.
    d:       D, number of dedicated (sensitive-attribute) servers.
    k:       alphabet size per attribute, K >= 2.
    q:       field modulus, prime, 2 <= q < 2^32: a symbol is one
             unsigned 32-bit word. So is a message id, so K^N <= 2^32.
    length:  L, symbols per message. Divisibility against the sub-packet
             count is a per-scheme concern checked by the scheme engines.

    Every field is an int, not a bool, as an attribute value is.
    """

    n_attrs: int
    d: int
    k: int
    q: int = 65537
    length: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if self.d < 1 or self.n_attrs < self.d:
            raise ConfigError(f"need 1 <= D <= N, got D={self.d}, N={self.n_attrs}")
        if self.k < 2:
            raise ConfigError(f"alphabet size must be at least 2, got {self.k}")
        if not 2 <= self.q < MAX_MODULUS:
            raise ConfigError(f"q must lie in [2, 2^32), got {self.q}")
        # K >= 2, so N > 32 exceeds the bound without the power being taken
        if self.n_attrs > 32 or self.k ** self.n_attrs > 1 << 32:
            raise ConfigError(f"K^N = {self.k}^{self.n_attrs} messages exceed 2^32: "
                              "message ids travel as 32-bit words")
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


def check_params(params) -> SystemParams:
    """`params`, refused unless it is a SystemParams."""
    if not isinstance(params, SystemParams):
        raise ConfigError(f"params must be a SystemParams, got {params!r}")
    return params


def check_vector(v: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Validate an attribute vector: a sequence of N entries, ints (not
    bools) in [1, K], under a SystemParams."""
    try:
        v = tuple(v)
    except TypeError:
        raise ConfigError(f"attribute vector must be a sequence, got {v!r}") from None
    if len(v) != check_params(params).n_attrs:
        raise ConfigError(f"attribute vector must have {params.n_attrs} entries, got {len(v)}")
    for x in v:
        if type(x) is not int or not 1 <= x <= params.k:
            raise ConfigError(f"attribute value {x!r} outside alphabet [1, {params.k}]")
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
    if type(idx) is not int or not 0 <= idx < check_params(params).message_count:
        raise ConfigError(f"message id {idx} out of range [0, {params.message_count})")
    out = []
    for _ in range(params.n_attrs):
        out.append(idx % params.k + 1)
        idx //= params.k
    return tuple(reversed(out))


@lru_cache(maxsize=1024)
def _participating_ids(n_attrs: int, d: int, k: int, public: tuple[int, ...],
                       fixed: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Ascending ids of the participating messages with attribute n at
    value x for each (n, x) in `fixed`, sorted by n. Ids are base-K
    numerals, attribute 1 most significant, so expanding positions in
    order keeps them sorted. Memoized: q and the message length are not
    part of the key, so every scheme and length on one (N, D, K, public
    part) shares an entry.

    A pinned set makes no id of its own: the participating id
    base[0] + j·K^(N−D) is entry j of the unpinned tuple of its key,
    which it looks up, so it holds that tuple's int objects, and every
    set of one key shares them."""
    if len(public) != n_attrs - d:
        raise ConfigError("public part has wrong length")
    if fixed:
        pinned = dict(fixed)
        places = [0]  # j over the D sensitive digits, attribute 1 most significant
        for pos in range(1, d + 1):
            stride = k ** (d - pos)
            values = (pinned[pos],) if pos in pinned else range(1, k + 1)
            places = [j + (x - 1) * stride for j in places for x in values]
        return tuple(map(_participating_ids(n_attrs, d, k, public, ()).__getitem__, places))
    ids = [0]
    for pos in range(1, n_attrs + 1):
        stride = k ** (n_attrs - pos)
        values = (public[pos - d - 1],) if pos > d else range(1, k + 1)
        ids = [i + (x - 1) * stride for i in ids for x in values]
    return tuple(ids)


@lru_cache(maxsize=1024)
def id_set(ids: tuple[int, ...]) -> frozenset[int]:
    """The frozenset of an id tuple the set helpers returned, memoized
    beside them: the label tables of every server, scheme and length on
    one (N, D, K, public part) key their groups by the same objects."""
    return frozenset(ids)


def _ids(params: SystemParams, public: tuple[int, ...], fixed: dict[int, int]) -> tuple[int, ...]:
    return _participating_ids(params.n_attrs, params.d, params.k, public,
                              tuple(sorted(fixed.items())))


def participating_ids(params: SystemParams, public: tuple[int, ...]) -> tuple[int, ...]:
    """Ids of the K^D participating messages for a public part, ascending."""
    return _ids(params, tuple(public), {})


def accessible_messages(server: int, v_star: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Message ids server `server` may serve after verifying v*, sorted.

    Dedicated server n holds the K^(D-1) messages agreeing with v* on
    attribute n and on the public part; the central server holds all K^D
    messages agreeing on the public part.
    """
    v_star = check_vector(v_star, params)
    if type(server) is not int or not 1 <= server <= params.d + 1:
        raise ConfigError(f"server id {server!r} out of range [1, {params.d + 1}]")
    fixed = {} if server == params.central else {server: v_star[server - 1]}
    return _ids(params, public_part(v_star, params), fixed)


def match_set(n: int, k: int, public: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Ids of participating messages whose attribute n has value index k, sorted.

    This is the candidate set a dedicated server n would hold if the user's
    n-th attribute were k; the central server's query groups range over
    these sets for all (n, k). `public` is the public part, a tuple.
    """
    if not 1 <= n <= params.d:
        raise ConfigError(f"attribute position {n} out of range [1, {params.d}]")
    if not 1 <= k <= params.k:
        raise ConfigError(f"value index {k} out of range [1, {params.k}]")
    return _ids(params, public, {n: k})


def pair_set(n: int, m: int, k: int, k2: int,
             public: tuple[int, ...], params: SystemParams) -> tuple[int, ...]:
    """Ids of participating messages with attribute n at k and attribute m at k2.

    Symmetric in its two constraints: pair_set(n, m, k, k2) == pair_set(m, n, k2, k).
    Size K^(D-2). `public` is the public part, a tuple.
    """
    if n == m:
        raise ConfigError("pair_set needs two distinct attribute positions")
    for pos, val in ((n, k), (m, k2)):
        if not 1 <= pos <= params.d:
            raise ConfigError(f"attribute position {pos} out of range [1, {params.d}]")
        if not 1 <= val <= params.k:
            raise ConfigError(f"value index {val} out of range [1, {params.k}]")
    return _ids(params, public, {n: k, m: k2})


def ordered_complement(n: int, d: int) -> tuple[int, ...]:
    """The other dedicated-server ids, ascending: bar(n)."""
    if not 1 <= n <= d:
        raise ConfigError(f"server {n} out of range [1, {d}]")
    return tuple(m for m in range(1, d + 1) if m != n)


def all_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((n, m) for n in range(1, d + 1) for m in range(n + 1, d + 1))
