"""Machinery shared by the three retrieval engines.

Query construction is user-side and touches only (v*, params, randomness):
fresh sub-packet bookkeeping, private permutations, and combining-vector
sampling. Answer computation is server-side and touches only (query,
accessible store slice, pool): the share for a group is the vector-weighted
sum of the named sub-packets plus the group's pad.

Combining vectors are drawn through a VectorSource so the privacy auditor
can swap in a tracing source and recover the exact wiring of draws and
unit-vector offsets instead of concrete values. Builders must therefore
manipulate vectors only through the source they were given.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from ..access import SystemParams, accessible_messages
from ..errors import AccessRefusal, ConfigError
from ..field import sample_uniform_vector, unit_vector
from ..randomness import RandomnessPool
from ..wire import AnswerShare, MessageGroupDescriptor, QueryGroup, QueryTuple


class DecodeRetry(Exception):
    """Decode hit a zero coefficient; the retrieval should be redrawn."""

    def __init__(self, detail: str):
        super().__init__(detail)


# ---------------------------------------------------------------- vectors

@dataclass(frozen=True)
class SymBlock:
    """One contiguous run of a symbolic vector: a draw plus a fixed offset."""

    draw: int
    dim: int
    offset: tuple[int, ...]


@dataclass(frozen=True)
class SymVector:
    blocks: tuple[SymBlock, ...]

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)


class VectorSource:
    """Concrete combining-vector sampler over F_q."""

    def __init__(self, q: int, rng):
        self.q = q
        self.rng = rng

    def fresh(self, dim: int):
        return sample_uniform_vector(dim, self.rng, self.q)

    def add_unit(self, vec, l: int):
        return tuple((a + b) % self.q for a, b in zip(vec, unit_vector(l, len(vec))))

    def concat(self, vecs):
        out = []
        for v in vecs:
            out.extend(v)
        return tuple(out)


class TracingSource(VectorSource):
    """Symbolic sampler: records draw identities and offsets for the auditor."""

    def __init__(self, q: int):
        super().__init__(q, rng=None)
        self._next = 0

    def fresh(self, dim: int) -> SymVector:
        self._next += 1
        return SymVector((SymBlock(self._next, dim, tuple(0 for _ in range(dim))),))

    def add_unit(self, vec: SymVector, l: int) -> SymVector:
        if not 1 <= l <= vec.dim:
            raise ValueError(f"unit position {l} out of range [1, {vec.dim}]")
        blocks = []
        at = 0
        for b in vec.blocks:
            if at < l <= at + b.dim:
                off = list(b.offset)
                off[l - at - 1] = (off[l - at - 1] + 1) % self.q
                blocks.append(SymBlock(b.draw, b.dim, tuple(off)))
            else:
                blocks.append(b)
            at += b.dim
        return SymVector(tuple(blocks))

    def concat(self, vecs) -> SymVector:
        blocks = []
        for v in vecs:
            blocks.extend(v.blocks)
        return SymVector(tuple(blocks))


# ---------------------------------------------------------------- plans

class FreshIndexCounter:
    """Hands out each message's sub-packet indices 1, 2, ... in demand order."""

    def __init__(self, subpackets: int):
        self.subpackets = subpackets
        self._used: dict[int, int] = {}

    def next(self, msg: int) -> int:
        used = self._used.get(msg, 0)
        if used >= self.subpackets:
            raise ConfigError(
                f"message {msg} exhausted its {self.subpackets} sub-packets")
        self._used[msg] = used + 1
        return used + 1


def draw_permutations(messages, subpackets: int, rng) -> dict[int, tuple[int, ...]]:
    """One private uniform permutation of [subpackets] per message."""
    perms = {}
    for msg in messages:
        order = list(range(1, subpackets + 1))
        rng.shuffle(order)
        perms[msg] = tuple(order)
    return perms


@dataclass
class PlanGroup:
    """User-side view of one query group: logical indices, not wire ones."""

    label: tuple
    rows: list[tuple[int, int]]   # (message id, logical sub-packet index)
    vector: object                # concrete tuple or SymVector

    def row_of(self, msg: int) -> int:
        hits = [i for i, (m, _) in enumerate(self.rows, start=1) if m == msg]
        if len(hits) != 1:
            raise ValueError(f"message {msg} appears {len(hits)} times")
        return hits[0]

    def logical_of(self, msg: int) -> int:
        return self.rows[self.row_of(msg) - 1][1]


@dataclass
class RetrievalPlan:
    scheme: str
    params: SystemParams
    v_star: tuple[int, ...]
    subpackets: int
    perms: dict[int, tuple[int, ...]] = dc_field(repr=False)
    groups: dict[int, list[PlanGroup]] = dc_field(repr=False)
    decode_info: object = None

    def wire_queries(self) -> dict[int, QueryTuple]:
        """Project the plan onto the wire: permute indices, keep vectors."""
        queries = {}
        for server, groups in self.groups.items():
            qgroups = []
            for g in groups:
                rows = tuple((msg, self.perms[msg][logical - 1])
                             for msg, logical in g.rows)
                qgroups.append(QueryGroup(MessageGroupDescriptor(rows), g.vector))
            queries[server] = QueryTuple(server=server, groups=tuple(qgroups))
        return queries

    def assemble(self, decoded: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
        """Place decoded sub-packets (by logical index) into message order."""
        L = self.params.length
        sub_len = L // self.subpackets
        if sorted(decoded) != list(range(1, self.subpackets + 1)):
            raise ValueError(f"decoded indices {sorted(decoded)} are not 1..{self.subpackets}")
        perm = self.perms[self._desired_id()]
        out = [None] * L
        for logical, payload in decoded.items():
            wire = perm[logical - 1]
            out[(wire - 1) * sub_len: wire * sub_len] = list(payload)
        return tuple(out)

    def _desired_id(self) -> int:
        from ..access import message_index
        return message_index(self.v_star, self.params)


# ---------------------------------------------------------------- servers

@dataclass
class ServerContext:
    """Everything one server knows when answering: no user secrets inside."""

    scheme: str
    server: int
    params: SystemParams
    public: tuple[int, ...]
    own_value: Optional[int]          # verified attribute value; None for central
    store: dict[int, tuple[int, ...]]  # accessible slice only
    pool: RandomnessPool
    partition: object = None

    @property
    def is_central(self) -> bool:
        return self.server == self.params.central


def server_context(scheme: str, server: int, params: SystemParams, public,
                   own_value: Optional[int], store, pool: RandomnessPool,
                   partition=None) -> ServerContext:
    """The context `server` answers from once it has verified its view.

    The view is the public part plus, on a dedicated server, its own
    attribute value; the store is cut down to the slice that view grants.
    """
    ref = [1] * params.d + list(public)
    if server != params.central:
        ref[server - 1] = own_value
    ids = accessible_messages(server, tuple(ref), params)
    return ServerContext(scheme=scheme, server=server, params=params,
                         public=tuple(public), own_value=own_value,
                         store={m: store[m] for m in ids}, pool=pool,
                         partition=partition)


def _pad_sum(pool: RandomnessPool, labels, q: int) -> tuple[int, ...]:
    total = [0] * pool.chunk_len
    for label in labels:
        for j, x in enumerate(pool.chunk(label)):
            total[j] = (total[j] + x) % q
    return tuple(total)


def answer_with_labels(ctx: ServerContext, query: QueryTuple,
                       table: dict) -> tuple[list[AnswerShare], list[list[tuple]]]:
    """Generic server answer path.

    table maps the message set of every group the server may be asked for
    to the pad chunks it names; the share is the combined sub-packet plus
    the sum of those chunks. A group matching no entry is refused, and so
    is any reference to a message outside the accessible slice.
    """
    if query.server != ctx.server:
        raise ConfigError(f"query for server {query.server} sent to {ctx.server}")
    q = ctx.params.q
    sub_len = ctx.pool.chunk_len
    subpackets = ctx.params.length // sub_len
    shares = []
    all_labels = []
    for gi, group in enumerate(query.groups):
        if len(group.vector) != len(group.descriptor.rows):
            raise ConfigError("vector length does not match group rows")
        labels = table.get(frozenset(group.descriptor.messages()))
        if labels is None:
            raise ConfigError(f"group does not match any candidate set on server {ctx.server}")
        total = list(_pad_sum(ctx.pool, labels, q))
        for coeff, (msg, widx) in zip(group.vector, group.descriptor.rows):
            if msg not in ctx.store:
                raise AccessRefusal(
                    f"server {ctx.server} asked for inaccessible message {msg}")
            if not 1 <= widx <= subpackets:
                raise ConfigError(f"sub-packet index {widx} out of range")
            seg = ctx.store[msg][(widx - 1) * sub_len: widx * sub_len]
            for j, s in enumerate(seg):
                total[j] = (total[j] + coeff * s) % q
        shares.append(AnswerShare(ctx.server, gi, tuple(total)))
        all_labels.append(list(labels))
    return shares, all_labels


def pseudo_vstar(ctx: ServerContext) -> tuple[int, ...]:
    """A vector with the right public part for set computations server-side.

    The sensitive entries are placeholders; every set helper the servers
    call only reads the public part.
    """
    return tuple(1 for _ in range(ctx.params.d)) + tuple(ctx.public)
