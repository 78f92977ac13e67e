"""Machinery shared by the three retrieval engines.

Query construction is user-side and touches only (v*, params, randomness):
fresh sub-packet bookkeeping, private permutations, and combining-vector
sampling. All of a plan's randomness comes from one `field.WordStream` on
the plan's private user stream (`user_draws`), in the order the per-call
draws took: one permutation per participating message, then the vectors
in the order the builder asks for them. The stream reads ahead, which is
safe because it is thrown away with the plan. A group's rows are two
columns from the plan to the server's answer: the message ids (the set
helpers' own tuple) and the sub-packet indices, which a
`FreshIndexCounter` hands out a whole group at a time; no row is ever a
tuple of its own.

Answer computation is server-side and touches only the server's context:
its accessible store slice, its pool and its label table, all fixed by
its verified view (public part, plus its own value on a dedicated
server) when the pool is installed. Each engine's `label_table` builds the
table once there; `answer_query`, which every engine re-exports, reads it.
The share for a group is the vector-weighted sum of the named sub-packets
plus the sum of the pad chunks its table entry names. Decoding is user-side
and touches only (plan, answer shares): every scheme cancels interference
by a signed combination of shares, so a plan lists, per logical sub-packet,
the (server, group index, coefficient) terms that recover it, and one
`decode` evaluates them all.

The access and index checks of a group run over the whole group at once
(a subset test of its message set, the minimum and maximum of its
indices); only a group that fails them is walked row by row, to raise
the same first error, in row order, as a per-row check would.

A share is computed by one of two kernels, chosen by sub-packet length.
From PACK_MIN_SYMBOLS symbols on, every named row and pad chunk becomes
one Python int with a symbol per lane of w 32-bit words, so a group costs
one big-int multiply-add per row and one reduction mod q per symbol.
Below that, the gather kernel makes one pass in C over the rows per
symbol and slices no row. The two kernels take the same arguments and
return the same share, an `array('I')` that goes on the wire as it is,
and `combine` picks between them for the answer path and for decode
alike.

Combining vectors are drawn through a VectorSource so the privacy auditor
can swap in a tracing source and recover the exact wiring of draws and
unit-vector offsets instead of concrete values. Builders must therefore
manipulate vectors only through the source they were given.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import chain, repeat
from operator import add, getitem, length_hint, mul
from typing import Optional

from ..access import SystemParams, match_set, message_index, participating_ids
from ..errors import AccessRefusal, ConfigError
from ..field import WordStream, little_endian
from ..randomness import RandomnessPool
from ..wire import AnswerShare, MessageGroupDescriptor, QueryGroup, QueryTuple


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
    """Concrete combining vectors over F_q, read from the user's stream.

    `redraws` counts the zeros `fresh` has skipped at a coordinate that
    must be nonzero. het2 asks that of one coordinate in each of D
    distinct draws; the condition factorizes over the draws, so its plan
    is exactly the uniform plan conditioned on all D being nonzero.
    """

    def __init__(self, q: int, stream: Optional[WordStream]):
        self.q = q
        self.stream = stream
        self.redraws = 0

    def fresh(self, dim: int, nonzero: Optional[int] = None):
        """`dim` symbols from the stream. With `nonzero=l`, a 0 at
        coordinate l is replaced by the stream's next nonzero symbol, so
        that coordinate is uniform on F_q \\ {0} and the vector is the
        uniform draw conditioned on it being nonzero."""
        vec = self.stream.take(dim)
        if nonzero is not None:
            while not vec[nonzero - 1]:
                self.redraws += 1
                vec[nonzero - 1] = self.stream.take(1)[0]
        return tuple(vec)

    def add_unit(self, vec, l: int):
        if not 1 <= l <= len(vec):
            raise ValueError(f"unit position {l} out of range [1, {len(vec)}]")
        lifted = list(vec)
        lifted[l - 1] = (lifted[l - 1] + 1) % self.q
        return tuple(lifted)

    def concat(self, vecs):
        out = []
        for v in vecs:
            out.extend(v)
        return tuple(out)

    def inverse(self, vec, l: int) -> int:
        """The inverse of vec's coordinate at l, which must be nonzero."""
        return pow(vec[l - 1], -1, self.q)


class TracingSource(VectorSource):
    """Symbolic sampler: records draw identities and offsets for the auditor."""

    def __init__(self, q: int):
        super().__init__(q, stream=None)
        self._next = 0

    def fresh(self, dim: int, nonzero: Optional[int] = None) -> SymVector:
        """A new draw; `nonzero` is ignored, so the auditor sees the
        unconditioned draw."""
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

    def inverse(self, vec: SymVector, l: int) -> None:
        """None: a symbolic plan is audited, never decoded."""
        return None


# ---------------------------------------------------------------- plans

class FreshIndexCounter:
    """Hands out each message's sub-packet indices 1, 2, ... in demand
    order, a group's column of them per call."""

    def __init__(self, subpackets: int):
        self.subpackets = subpackets
        # one iterator over 1..subpackets per message, made on first demand
        self._next = defaultdict(partial(iter, range(1, subpackets + 1)))

    def indices(self, members) -> array:
        """One fresh index per member, in member order."""
        its = self._next
        try:
            return array("I", [next(its[m]) for m in members])
        except StopIteration:
            # each member before the one that ran out took an index, so the
            # last member left with none had none before this call either
            spent = [m for m in members if not length_hint(its[m])]
            raise ConfigError(f"message {spent[-1]} exhausted its "
                              f"{self.subpackets} sub-packets") from None


def user_draws(rng, params: SystemParams, public, subpackets: int, source=None):
    """The user's draws for one plan, all from the private stream `rng`.

    First one uniform permutation of [subpackets] per participating
    message, then the combining vectors, which `source` reads from the
    same stream unless another source (a TracingSource) is given. Every
    fresh vector coordinate belongs to a distinct (message, sub-packet)
    pair, so the plan asks for at most count * subpackets symbols, and
    the stream's first batch is sized for that. Returns (perms, source).
    """
    ids = participating_ids(params, public)
    stream = WordStream(rng, params.q, len(ids) * subpackets, len(ids), subpackets)
    perms = dict(zip(ids, stream.permutations(len(ids), subpackets)))
    return perms, source or VectorSource(params.q, stream)


@dataclass
class PlanGroup:
    """User-side view of one query group: row r is message ids[r] at
    logical (not wire) sub-packet index logical[r]. `ids` is the set
    helper's tuple itself, or a concatenation of them; `logical` is an
    `array('I')`. Twins share either column rather than copy it."""

    label: tuple
    ids: tuple[int, ...]
    logical: array
    vector: object                # concrete tuple or SymVector

    @property
    def rows(self) -> list[tuple[int, int]]:
        """The (message id, logical index) rows, read-only."""
        return list(zip(self.ids, self.logical))

    def row_of(self, msg: int) -> int:
        """The 1-based row of `msg`, which must appear exactly once."""
        hits = self.ids.count(msg)
        if hits != 1:
            raise ValueError(f"message {msg} appears {hits} times")
        return self.ids.index(msg) + 1


@dataclass
class RetrievalPlan:
    scheme: str
    params: SystemParams
    v_star: tuple[int, ...]
    subpackets: int
    perms: dict[int, tuple[int, ...]] = dc_field(repr=False)
    groups: dict[int, list[PlanGroup]] = dc_field(repr=False)
    # logical index -> ((server, group index, coefficient), ...): the
    # sub-packet is the sum of coefficient * share over the terms
    decoding: dict[int, tuple] = dc_field(repr=False)
    redraws: int = 0  # zeros the source skipped at nonzero coordinates

    def wire_queries(self) -> dict[int, QueryTuple]:
        """Project the plan onto the wire: permute indices, keep vectors."""
        perms = self.perms
        queries = {}
        for server, groups in self.groups.items():
            qgroups = []
            for g in groups:
                wire = array("I", [perms[m][i - 1] for m, i in zip(g.ids, g.logical)])
                qgroups.append(QueryGroup(MessageGroupDescriptor(array("I", g.ids), wire),
                                          g.vector))
            queries[server] = QueryTuple(server=server, groups=tuple(qgroups))
        return queries

    def assemble(self, decoded: dict[int, array]) -> array:
        """Place decoded sub-packets (by logical index) into message order,
        as an `array('I')` like the stored message."""
        L = self.params.length
        sub_len = L // self.subpackets
        if sorted(decoded) != list(range(1, self.subpackets + 1)):
            raise ValueError(f"decoded indices {sorted(decoded)} are not 1..{self.subpackets}")
        perm = self.perms[message_index(self.v_star, self.params)]
        out = array("I", [0]) * L
        for logical, payload in decoded.items():
            wire = perm[logical - 1]
            out[(wire - 1) * sub_len: wire * sub_len] = payload
        return out


# ---------------------------------------------------------------- servers

@dataclass(frozen=True)
class ServerContext:
    """Everything one server answers from: no user secrets inside.

    `table` maps the message set of every group the server may be asked
    for to the pad labels it names; None when the scheme asks the server
    nothing.
    """

    server: int
    params: SystemParams
    store: dict[int, array]           # accessible slice only, array('I') per message
    pool: RandomnessPool
    table: Optional[dict[frozenset, list]]

    @property
    def is_central(self) -> bool:
        return self.server == self.params.central


def server_context(server: int, public: tuple[int, ...], own_value: Optional[int],
                   store, pool: RandomnessPool) -> ServerContext:
    """The context `server` answers from once it has verified its view.

    The view is the public part plus, on a dedicated server, its own
    attribute value (None on the central server). It cuts the store down
    to the slice it grants, and the pool's scheme builds the label table
    from it, once; the central server of a scheme that never queries it
    gets no table.
    """
    from . import engine
    params = pool.params
    eng = engine(pool.scheme)
    ids = (participating_ids(params, public) if own_value is None
           else match_set(server, own_value, public, params))
    table = (eng.label_table(server, params, public, own_value)
             if own_value is not None or eng.QUERIES_CENTRAL else None)
    return ServerContext(server, params, {m: store[m] for m in ids}, pool, table)


# Sub-packets at least this long are answered by the packed kernel, the
# rest by the gather kernel. Packing costs about a microsecond per row and
# several per group, while the gather kernel pays a pass over the rows per
# symbol. On a 2-core VM at q = 65537 with one pad chunk, the gather kernel
# won by 1.3-5x at 1-2 symbols and the packed kernel by 1.8-4x at 16-32
# symbols, on 2 to 256 rows; they crossed between 2 and 8 (table in
# CHANGES.md). No workload's sub-packets have 6 to 31 symbols, so the
# threshold stays at 32 until one reaches that range.
PACK_MIN_SYMBOLS = 32


def _gather_share(vector, arrays, ends, pads, q: int, length: int) -> array:
    """pad + sum_r vector[r] * arrays[r][ends[r] - length + j] mod q for
    each symbol j < length, where the pad is the sum of the `pads` chunks.

    Each pad chunk joins the rows with coefficient 1, so a symbol costs
    one pass in C over the rows, with no per-row slice.
    """
    coeffs = [*vector, *[1] * len(pads)]
    arrays = [*arrays, *pads]
    ends = [*ends, *[length] * len(pads)]
    return array("I", [sum(map(mul, coeffs,
                               map(getitem, arrays, map(add, ends, repeat(j - length))))) % q
                       for j in range(length)])


def _packed_share(vector, arrays, ends, pads, q: int, length: int) -> array:
    """The share `_gather_share` computes, with each row's sub-packet
    `arrays[r][ends[r] - length:ends[r]]` and each pad chunk packed into
    one int, a symbol per lane.

    A lane is w 32-bit words, enough for (rows + pads)·(q − 1)², so no
    lane carries into the next before the single reduction at the end.
    """
    w = ((len(arrays) + len(pads)) * (q - 1) ** 2).bit_length() // 32 + 1
    lanes = array("I", [0]) * (w * length)

    def pack(symbols) -> int:
        lanes[::w] = symbols if type(symbols) is array else array("I", symbols)
        return int.from_bytes(little_endian(lanes), "little")

    total = sum(map(pack, pads))
    for coeff, arr, end in zip(vector, arrays, ends):
        total += coeff % q * pack(arr[end - length:end])
    data = total.to_bytes(4 * w * length, "little")
    if w <= 2:
        return array("I", [x % q for x in little_endian(array("I" if w == 1 else "Q", data))])
    step = 4 * w
    return array("I", [int.from_bytes(data[i:i + step], "little") % q
                       for i in range(0, len(data), step)])


def combine(vector, arrays, ends, pads, q: int, length: int) -> array:
    """pad + sum_r vector[r] * arrays[r][ends[r] - length:ends[r]] mod q,
    by the kernel the sub-packet length calls for; the pad is the sum of
    `pads`."""
    kernel = _packed_share if length >= PACK_MIN_SYMBOLS else _gather_share
    return kernel(vector, arrays, ends, pads, q, length)


def answer_query(ctx: ServerContext, query: QueryTuple
                 ) -> tuple[list[AnswerShare], list[list[tuple]]]:
    """Every engine's server answer path: shares and the pad labels each names.

    A group's share is its combined sub-packet plus the sum of the pad
    chunks `ctx.table` names for its message set. A group matching no
    entry is refused, and so is any reference to a message outside the
    accessible slice, and any query naming a pad label or a (message,
    wire index) row twice: shares that repeat one differ by a pad-free
    combination of sub-packets. Rows are compared as the ints
    id·(S+1) + index, S the sub-packet count, which the range check
    makes one-to-one. A server with no table refuses every query.
    """
    if ctx.table is None:
        raise ConfigError(f"server {ctx.server} answers no queries of scheme {ctx.pool.scheme}")
    if query.server != ctx.server:
        raise ConfigError(f"query for server {query.server} sent to {ctx.server}")
    q = ctx.params.q
    sub_len = ctx.pool.chunk_len
    subpackets = ctx.params.length // sub_len
    span = subpackets + 1
    shares = []
    all_labels = []
    rows = []
    for gi, group in enumerate(query.groups):
        # the ids as one list of ints, not an int made at each use
        msgs, indices = group.descriptor.ids.tolist(), group.descriptor.indices
        if len(group.vector) != len(msgs):
            raise ConfigError("vector length does not match group rows")
        key = frozenset(msgs)
        labels = ctx.table.get(key)
        if labels is None:
            raise ConfigError(f"group does not match any candidate set on server {ctx.server}")
        pads = [ctx.pool.chunk(label) for label in labels]
        if not (ctx.store.keys() >= key
                and 1 <= min(indices, default=1) and max(indices, default=1) <= subpackets):
            _refuse_first_row(ctx, msgs, indices, subpackets)
        arrays = list(map(ctx.store.__getitem__, msgs))
        ends = list(map(sub_len.__mul__, indices))
        total = combine(group.vector, arrays, ends, pads, q, sub_len)
        shares.append(AnswerShare(ctx.server, gi, total))
        all_labels.append(list(labels))
        rows += [m * span + i for m, i in zip(msgs, indices)]
    named = [*chain.from_iterable(all_labels), *rows]
    if len(set(named)) != len(named):
        raise ConfigError(f"query reuses a pad label or a row on server {ctx.server}")
    return shares, all_labels


def decode(plan: RetrievalPlan, answers: dict) -> array:
    """Evaluate every entry of the plan's decoding table over the answer
    shares, one `combine` per sub-packet, and reassemble the message."""
    q = plan.params.q
    length = plan.params.length // plan.subpackets
    decoded = {}
    for logical, terms in plan.decoding.items():
        payloads = [answers[server][gi].payload for server, gi, _ in terms]
        decoded[logical] = combine([c for *_, c in terms], payloads,
                                   [length] * len(terms), (), q, length)
    return plan.assemble(decoded)


def _refuse_first_row(ctx: ServerContext, msgs, indices, subpackets: int):
    """Raise for the first row, in row order, that names a message outside
    the accessible slice or a sub-packet index out of range."""
    for msg, widx in zip(msgs, indices):
        if msg not in ctx.store:
            raise AccessRefusal(f"server {ctx.server} asked for inaccessible message {msg}")
        if not 1 <= widx <= subpackets:
            raise ConfigError(f"sub-packet index {widx} out of range")
    raise AssertionError("every row is in range and accessible")

