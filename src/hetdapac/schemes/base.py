"""Machinery shared by the three retrieval engines.

Query construction is user-side and touches only (v*, params, randomness).
It is two steps. The trace runs the engine's builder once against the
symbolic `TracingSource` and fixes everything that depends only on
(scheme, N, D, K, q, v*): the messages each server's groups name, their
logical sub-packet indices (a `FreshIndexCounter` hands them out a whole
group at a time), which vectors are fresh draws, lifted by a unit vector
or concatenations, each draw's dimension and the coordinate it must have
nonzero, and the decode table, with het2's coefficients ±1/c as symbolic
inverses. `TRACES` keeps the traces of recent keys, at most
TRACE_MEMO_ROWS rows in all, so a key that repeats is traced once while
the set helpers the traces call stay bound as they were. Every build and
audit of a key shares its trace, so a trace refuses writes in place.

The evaluation (`PlanTrace.evaluate`) reads all of a plan's randomness
from one `field.WordStream` on the plan's private user stream, in the
order the per-call draws took: one permutation per participating
message, as one flat column, then every draw in trace order, a coordinate
that must be nonzero redrawn in place while it is 0 (`draw_symbols`).
A vector is its draws' symbols plus the trace's sparse offsets, and a
group's wire indices are gathered from the permutation column through
the trace's position column pos(m)·S + logical − 1, where
pos(m) = m // K^(N−D) is the message's place among the participating
ones. The stream reads ahead, which is safe because it is thrown away
with the plan. A group's rows are two columns from the plan to the
server's answer, message ids and sub-packet indices; no row is ever a
tuple of its own. The privacy audit reads the same traces, so the plan
that is sent is the audited plan evaluated.

Answer computation is server-side and touches only the server's context:
its accessible messages, whole, with the start of the symbol range it
answers from, its pool and its label table, all fixed by its verified
view (public part, plus its own value on a dedicated server) when the
pool is installed. A pure run's range starts at 0; a mix segment's
starts where the previous segment's stopped, and no symbol is copied.
Each engine's `label_table` builds the table once there; `answer_query`,
which every engine re-exports, reads it.
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
From PACK_MIN_SYMBOLS symbols on, every named row and pad chunk is read
as one Python int straight from its 32-bit words and split by masks into
w interleaved lane ints, so a group costs w big-int multiply-adds per row
and one Barrett reduction of every lane at once per lane int; no symbol
is touched by Python code of its own. Below that, the gather kernel
makes one pass in C over the rows per symbol and slices no row. The two
kernels take the same arguments and return the same share, an
`array('I')` that goes on the wire as it is, and `combine` picks between
them for the answer path and for decode alike.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache, partial
from itertools import accumulate, chain, repeat
from operator import add, getitem, length_hint, mul
from types import MappingProxyType
from typing import Optional

from ..access import SystemParams, check_vector, match_set, message_index, participating_ids
from ..errors import AccessRefusal, ConfigError
from ..field import WordStream, little_endian
from ..randomness import RandomnessPool, chunk_length
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


@dataclass(frozen=True)
class SymInverse:
    """A decode coefficient: sign / (coordinate `at` of `draw` + offset)."""

    draw: int
    at: int  # 1-based
    offset: int
    sign: int = 1

    def __neg__(self) -> "SymInverse":
        return replace(self, sign=-self.sign)


@lru_cache(maxsize=64)
def _zeros(dim: int) -> tuple[int, ...]:
    """The offset of a fresh draw, one tuple per dimension for all traces."""
    return (0,) * dim


class TracingSource:
    """The one vector source: symbolic draws, with what each is conditioned on.

    Draw i (numbered from 1 in call order) has `dims[i - 1]` coordinates,
    and `nonzero[i]`, if present, is the coordinate it must have nonzero.
    het2 asks that of one coordinate in each of D distinct draws; the
    condition factorizes over the draws, so its plan is exactly the
    uniform plan conditioned on all D being nonzero.
    """

    def __init__(self, q: int):
        self.q = q
        self.dims: list[int] = []
        self.nonzero: dict[int, int] = {}

    def fresh(self, dim: int, nonzero: Optional[int] = None) -> SymVector:
        """A new draw of `dim` coordinates; with `nonzero=l` its
        coordinate l is drawn from F_q \\ {0}."""
        self.dims.append(dim)
        draw = len(self.dims)
        if nonzero is not None:
            self.nonzero[draw] = nonzero
        return SymVector((SymBlock(draw, dim, _zeros(dim)),))

    def _block_at(self, vec: SymVector, l: int):
        """(block index, 0-based coordinate in it) of vec's coordinate l."""
        if not 1 <= l <= vec.dim:
            raise ValueError(f"unit position {l} out of range [1, {vec.dim}]")
        for i, b in enumerate(vec.blocks):
            if l <= b.dim:
                return i, l - 1
            l -= b.dim

    def add_unit(self, vec: SymVector, l: int) -> SymVector:
        i, j = self._block_at(vec, l)
        b = vec.blocks[i]
        off = list(b.offset)
        off[j] = (off[j] + 1) % self.q
        return SymVector((*vec.blocks[:i], SymBlock(b.draw, b.dim, tuple(off)),
                          *vec.blocks[i + 1:]))

    def concat(self, vecs) -> SymVector:
        return SymVector(tuple(chain.from_iterable(v.blocks for v in vecs)))

    def inverse(self, vec: SymVector, l: int) -> SymInverse:
        """The inverse of vec's coordinate at l, which must be nonzero."""
        i, j = self._block_at(vec, l)
        b = vec.blocks[i]
        return SymInverse(b.draw, j + 1, b.offset[j])


def draw_symbols(stream: WordStream, dims, nonzero) -> tuple[array, int]:
    """Every draw's symbols from `stream`, in draw order, as one column,
    and the number of zeros redrawn.

    Draw i takes `dims[i - 1]` symbols; if `nonzero` names a coordinate of
    it, a 0 there is replaced by the stream's next symbol until it is
    not, so that coordinate is uniform on F_q \\ {0} and the draw is the
    uniform one conditioned on it being nonzero.
    """
    starts = [0, *accumulate(dims)]
    values = array("I")
    redraws = 0
    for draw in sorted(nonzero):
        values += stream.take(starts[draw] - len(values))
        at = starts[draw - 1] + nonzero[draw] - 1
        while not values[at]:
            redraws += 1
            values[at] = stream.take(1)[0]
    values += stream.take(starts[-1] - len(values))
    return values, redraws


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


@dataclass(frozen=True)
class PlanGroup:
    """User-side view of one query group: row r is message ids[r] at
    logical (not wire) sub-packet index logical[r]. `ids` is the set
    helper's tuple itself, or a concatenation of them; `logical` is an
    `array('I')` while a builder traces, and a read-only view of one in a
    trace and in every plan evaluated from it. Twins share either column
    rather than copy it."""

    label: tuple
    ids: tuple[int, ...]
    logical: array | memoryview
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
    # the participating messages' permutations, one flat `array('I')`: the
    # message at position p among them has [p * subpackets, (p + 1) * subpackets)
    perms: array = dc_field(repr=False)
    groups: dict[int, list[PlanGroup]] = dc_field(repr=False)
    # logical index -> ((server, group index, coefficient), ...): the
    # sub-packet is the sum of coefficient * share over the terms
    decoding: dict[int, tuple] = dc_field(repr=False)
    redraws: int = 0  # zeros redrawn at coordinates that must be nonzero

    def assemble(self, decoded: dict[int, array]) -> array:
        """Place decoded sub-packets (by logical index) into message order,
        as an `array('I')` like the stored message."""
        params = self.params
        L, S = params.length, self.subpackets
        sub_len = L // S
        if sorted(decoded) != list(range(1, S + 1)):
            raise ValueError(f"decoded indices {sorted(decoded)} are not 1..{S}")
        pos = message_index(self.v_star, params) // params.k ** (params.n_attrs - params.d)
        perm = self.perms[pos * S:(pos + 1) * S]
        out = array("I", [0]) * L
        for logical, payload in decoded.items():
            wire = perm[logical - 1]
            out[(wire - 1) * sub_len: wire * sub_len] = payload
        return out


class PlanTrace:
    """The structure of every plan of one (scheme, N, D, K, q, v*), and
    how to evaluate it on a user stream.

    `groups` (symbolic vectors) and `decoding` (symbolic inverses among
    its coefficients) are what the engine's builder made against a
    `TracingSource`; `dims` and `nonzero` are that source's record of the
    draws. The rest is compiled once for the evaluation: per group its
    ids and position columns, the runs of the draw column its vector
    reads and its nonzero offsets, and where each inverse's coordinate
    sits in the draw column. A trace is shared by every plan of its key
    and by the audit, so what it hands out cannot be written to: its
    groups are frozen, their logical columns read-only views, and its
    mappings read-only proxies.
    """

    def __init__(self, scheme: str, params: SystemParams, v_star, subpackets: int,
                 groups: dict, decoding: dict, source: TracingSource):
        self.scheme, self.v_star, self.subpackets = scheme, tuple(v_star), subpackets
        views = {}  # one view per logical column, so twins still share it
        for gs in groups.values():
            for g in gs:
                if id(g.logical) not in views:
                    views[id(g.logical)] = memoryview(g.logical.tobytes()).cast("I")
        self.groups = MappingProxyType({
            server: tuple(replace(g, logical=views[id(g.logical)]) for g in gs)
            for server, gs in groups.items()})
        self.decoding = MappingProxyType(dict(decoding))
        self.dims, self.nonzero = tuple(source.dims), MappingProxyType(dict(source.nonzero))
        participating = participating_ids(params, self.v_star[params.d:])
        self.count = len(participating)
        # the message at place p among the participating ones: p * S - 1
        before = dict(zip(participating, range(-1, self.count * subpackets, subpackets)))
        starts = [0, *accumulate(self.dims)]
        shared = {}  # twins share both row columns, so their compiled columns too
        self.rows = 0
        self._columns = {}
        for server, server_groups in self.groups.items():
            compiled = []
            for g in server_groups:
                runs, offsets, at = [], [], 0
                for b in g.vector.blocks:
                    runs.append((starts[b.draw - 1], starts[b.draw - 1] + b.dim))
                    if any(b.offset):
                        offsets += [(at + j, o) for j, o in enumerate(b.offset) if o]
                    at += b.dim
                key = (id(g.ids), id(g.logical))
                if key not in shared:
                    shared[key] = (array("I", g.ids), array("I", map(
                        add, map(before.__getitem__, g.ids), g.logical)))
                compiled.append((g, *shared[key], runs, offsets))
                self.rows += len(g.ids)
            self._columns[server] = compiled
        self._inverses = [(logical, t, starts[c.draw - 1] + c.at - 1, c.offset, c.sign)
                          for logical, terms in decoding.items()
                          for t, (*_, c) in enumerate(terms) if type(c) is SymInverse]

    def evaluate(self, params: SystemParams, rng) -> tuple[RetrievalPlan, dict]:
        """The plan on the private user stream `rng`, and its wire queries.

        The stream's batches are sized for the permutations and the
        symbols the draws take, which the trace knows before anything is
        drawn; only a redrawn zero reads beyond them.
        """
        count, size = self.count, self.subpackets
        stream = WordStream(rng, params.q, sum(self.dims), count, size)
        perms = stream.permutations(count, size)
        values, redraws = draw_symbols(stream, self.dims, self.nonzero)
        return self.project(params, perms, values, redraws)

    def project(self, params: SystemParams, perms: array, values: array,
                redraws: int = 0) -> tuple[RetrievalPlan, dict]:
        """The plan and its wire queries for a permutation column and a
        draw column. The plan's groups share the trace's read-only ids and
        logical columns; every other column handed out is the caller's
        own copy."""
        q = params.q
        gather = perms.tolist().__getitem__  # a list serves items faster than an array
        wires = {}  # a twin's wire column is a copy of its owner's
        groups, queries = {}, {}
        for server, compiled in self._columns.items():
            plan_groups, query_groups = [], []
            for g, ids, positions, runs, offsets in compiled:
                vec = values[runs[0][0]:runs[0][1]]
                for a, b in runs[1:]:
                    vec += values[a:b]
                for at, o in offsets:
                    vec[at] = (vec[at] + o) % q
                vec = tuple(vec)
                if id(positions) in wires:
                    wire = wires[id(positions)][:]
                else:
                    wire = wires[id(positions)] = array("I", map(gather, positions))
                plan_groups.append(PlanGroup(g.label, g.ids, g.logical, vec))
                query_groups.append(QueryGroup(MessageGroupDescriptor(ids[:], wire), vec))
            groups[server] = plan_groups
            queries[server] = QueryTuple(server=server, groups=tuple(query_groups))
        decoding = dict(self.decoding)
        for logical, t, at, offset, sign in self._inverses:
            terms = decoding[logical]
            server, gi, _ = terms[t]
            coeff = sign * pow((values[at] + offset) % q, -1, q)
            decoding[logical] = (*terms[:t], (server, gi, coeff), *terms[t + 1:])
        plan = RetrievalPlan(self.scheme, params, self.v_star, self.subpackets,
                             perms, groups, decoding, redraws)
        return plan, queries


class TraceMemo:
    """Traces by (scheme, N, D, K, q, v*), least recently used first.

    It holds at most `max_rows` rows in all, each trace counting its
    groups' rows; the least recently used traces go first, and a trace
    longer than the bound is used once and not kept. A trace holds
    `array('I')` columns, never an object per row beyond the set helpers'
    own id tuples and the symbolic offsets.

    The traces it holds were all made with the set helpers bound as
    `schemes.trace_bindings()` last returned. When a lookup finds one of
    them rebound (a test's patch, a profiler's wrapper), the memo is
    emptied first, so a rebound helper sees every call a cold build makes
    and no trace made by another helper is served.
    """

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.rows = 0
        self.traces: dict[tuple, PlanTrace] = {}
        self.bindings: tuple = ()

    def __len__(self) -> int:
        return len(self.traces)

    def clear(self):
        self.traces.clear()
        self.rows = 0

    def trace(self, scheme: str, params: SystemParams, v_star: tuple) -> PlanTrace:
        """The trace of a valid (scheme, params, v*), traced on first use."""
        from . import engine, trace_bindings
        bindings = trace_bindings()
        if bindings != self.bindings:
            self.clear()
            self.bindings = bindings
        key = (scheme, params.n_attrs, params.d, params.k, params.q, v_star)
        found = self.traces.pop(key, None)
        if found is None:
            eng = engine(scheme)
            source = TracingSource(params.q)
            groups, decoding = eng.trace(v_star, params, source)
            found = PlanTrace(scheme, params, v_star, eng.subpackets(params.d),
                              groups, decoding, source)
            self.rows += found.rows
        self.traces[key] = found
        while self.rows > self.max_rows:
            self.rows -= self.traces.pop(next(iter(self.traces))).rows
        return found


# Rows the trace memo holds at most. The benchmark's `wide` shape
# (N = 7, D = 6, K = 4) has 116 736 rows over its three schemes, which
# tracemalloc puts at 1.9 MB: at most 12 bytes of columns a row, plus the
# symbolic offsets of lifted and concatenated vectors.
TRACE_MEMO_ROWS = 1 << 18
TRACES = TraceMemo(TRACE_MEMO_ROWS)


def plan_trace(scheme: str, params: SystemParams, v_star) -> PlanTrace:
    """The memoized trace of (scheme, params, v*), after refusing a D
    below the scheme's bound, a length its sub-packets do not divide and
    an invalid v*, as a build does."""
    chunk_length(scheme, params)
    return TRACES.trace(scheme, params, check_vector(v_star, params))


def build_plan(scheme: str, v_star, params: SystemParams, rng) -> tuple[RetrievalPlan, dict]:
    """Every engine's build: its memoized trace evaluated on the private
    user stream `rng`. Returns (plan, wire queries per server)."""
    return plan_trace(scheme, params, v_star).evaluate(params, rng)


# ---------------------------------------------------------------- servers

@dataclass(frozen=True)
class ServerContext:
    """Everything one server answers from: no user secrets inside.

    `table` maps the message set of every group the server may be asked
    for to the pad labels it names; None when the scheme asks the server
    nothing. The pool names the scheme, params and sub-packet length.
    The server answers from the pool's length of symbols of each stored
    message from `start` on: the whole message in a pure run, one
    range of it in a segment of a mix.
    """

    server: int
    store: dict[int, array]           # accessible messages only, whole, array('I') each
    pool: RandomnessPool
    table: Optional[dict[frozenset, list]]
    start: int = 0

    @property
    def is_central(self) -> bool:
        return self.server == self.pool.params.central


def server_context(server: int, public: tuple[int, ...], own_value: Optional[int],
                   store, pool: RandomnessPool, start: int = 0) -> ServerContext:
    """The context `server` answers from once it has verified its view,
    on the pool's length of symbols of every message from `start` on.

    The view is the public part plus, on a dedicated server, its own
    attribute value (None on the central server). It cuts the store down
    to the messages it grants, copying none, and the pool's scheme builds
    the label table from it, once; the central server of a scheme that
    never queries it gets no table.
    """
    from . import engine
    params = pool.params
    eng = engine(pool.scheme)
    ids = (participating_ids(params, public) if own_value is None
           else match_set(server, own_value, public, params))
    table = (eng.label_table(server, params, public, own_value)
             if own_value is not None or eng.QUERIES_CENTRAL else None)
    return ServerContext(server, {m: store[m] for m in ids}, pool, table, start)


# Sub-packets at least this long are answered by the packed kernel, the
# rest by the gather kernel. The packed kernel costs about two microseconds
# per row and tens per group, while the gather kernel pays a pass over the
# rows per symbol. On a 2-core VM at q = 65537 with one pad chunk, the
# gather kernel won by 3-9x at 1-2 symbols and the packed kernel by
# 1.2-3.1x at 32 symbols, on 2 to 256 rows; they crossed between 2 and 8
# symbols at 2 rows and between 8 and 16 at 64 and 256 (table in
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


def _lane_width(terms: int, q: int) -> tuple[int, int]:
    """(k, w) for a sum of `terms` products of two symbols of F_q: each
    lane total is below 2^k, and w 32-bit words hold its product with
    ⌊2^k/q⌋, 2k − bitlen(q) + 1 bits at most."""
    k = (terms * (q - 1) ** 2).bit_length()
    return k, max(1, -(-(2 * k - q.bit_length() + 1) // 32))


@lru_cache(maxsize=16)
def _lane_masks(length: int, w: int) -> tuple[tuple[int, ...], int]:
    """For `length` symbols read one per 32-bit word: the w masks that keep
    the words j ≡ i (mod w), i < w, and the int with a 1 at the bottom of
    every w-word lane of a lane total."""
    lanes = -(-length // w)
    masks = tuple(int.from_bytes(
        ((bytes(4 * i) + b"\xff" * 4 + bytes(4 * (w - 1 - i))) * lanes)[:4 * length], "little")
        for i in range(w))
    return masks, int.from_bytes((b"\x01" + bytes(4 * w - 1)) * lanes, "little")


def _packed_share(vector, arrays, ends, pads, q: int, length: int) -> array:
    """The share `_gather_share` computes, with each row's sub-packet
    `arrays[r][ends[r] - length:ends[r]]` and each pad chunk read as one
    int, a symbol per 32-bit word, and split by the masks of `_lane_masks`
    into w interleaved lane ints.

    Lane total i holds the symbols j ≡ i (mod w), one per w-word lane,
    shifted up by 32·i until the end. A lane is wide enough for Barrett's
    reduction of all its lanes at once: a total lane T is below
    2^k > n·(q − 1)², n the rows plus pads, and T·⌊2^k/q⌋ below 2^(32w),
    so the estimate ⌊T·⌊2^k/q⌋ / 2^k⌋ of ⌊T/q⌋, masked to its own lane,
    is short by at most 1. What is left is below 2q, and q is taken once
    more from the lanes where adding 2^(b+1) − q sets bit b + 1, b the
    bit length of q. Every symbol is touched only by C big-int and
    buffer operations.
    """
    b = q.bit_length()
    k, w = _lane_width(len(arrays) + len(pads), q)
    masks, ones = _lane_masks(length, w)
    totals = [0] * w

    def add(coeff, symbols):
        words = symbols if type(symbols) is array else array("I", symbols)
        row = int.from_bytes(little_endian(words), "little")
        for i, mask in enumerate(masks):
            totals[i] += coeff * (row & mask)

    for pad in pads:
        add(1, pad)
    for coeff, arr, end in zip(vector, arrays, ends):
        add(coeff % q, arr[end - length:end])
    m, low, lift = (1 << k) // q, ones * ((1 << (32 * w - k)) - 1), ones * ((2 << b) - q)
    out = array("I", [0]) * length
    for i, total in enumerate(totals):
        total >>= 32 * i
        r = total - ((total * m >> k) & low) * q
        r -= ((r + lift >> (b + 1)) & ones) * q
        data = r.to_bytes(4 * w * len(range(i, length, w)), "little")
        out[i::w] = little_endian(array("I", data))[::w]
    return out


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
    q, start = ctx.pool.params.q, ctx.start
    sub_len = ctx.pool.chunk_len
    subpackets = ctx.pool.params.length // sub_len
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
        ends = [start + sub_len * i for i in indices]
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

