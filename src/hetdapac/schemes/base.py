"""Machinery shared by the three retrieval engines.

Query construction is user-side and touches only (v*, params, randomness).
It is two steps. The trace runs the engine's builder once against the
symbolic `TracingSource` and fixes everything that depends only on
(scheme, N, D, K, q, v*): the messages each server's groups name, in the
order they are sent, their logical sub-packet indices (a
`FreshIndexCounter` hands them out a whole group at a time), the decode
table, and the place in the permutation column that each of its entries
reads. Every draw takes the next places of one draw column,
so a symbolic vector is the runs of places it reads plus sparse offsets
(a fresh draw, one lifted by a unit vector or a concatenation), the
places that must be nonzero are listed with the ends of their draws, and
het2's coefficients ±1/c are symbolic inverses of places. `MEMO` keeps
the traces of recent keys, beside the servers' views, at most MEMO_ROWS
rows in all, so a key that repeats is traced once while the set helpers
the traces call stay bound as they were. Every build and audit of a key
shares its trace, so a trace refuses writes in place.

The evaluation (`PlanTrace.evaluate`) reads all of a plan's randomness
from one `field.WordStream` on the plan's private user stream, in the
order the per-call draws took: one permutation per participating
message, as one flat column, then the draw column in place order, a
place that must be nonzero redrawn while it is 0 once its whole draw is
read (`draw_symbols`). A vector is its runs of the draw column, joined
into one `array('I')`, plus its offsets, and a group's wire indices are
gathered from the permutation column through the trace's position
column pos(m)·S + logical − 1, pos(m) = m // K^(N−D) being the message's
place among the participating ones. The stream reads ahead, which is safe
because it is thrown away with the plan. A group is three columns from
build to answer, ids, sub-packet indices and vector, never a tuple per
row or vector. A plan keeps only what decoding reads; the sent queries
hold the trace's groups in the trace's order. The privacy audit reads
the same traces, in that order, so the plan that is sent is the audited
plan evaluated.

Answer computation is server-side and touches only the server's context:
the store, whole, with the start of the symbol range it answers from,
its pool, and its verified view (public part, plus its own value on a
dedicated server). The view is what the server may serve: the ids it
grants, as the set memo's frozenset, and its label table. A pure run's
range starts at 0; a mix segment's starts where the previous segment's
stopped, and no symbol is copied. The view depends on nothing else, so
`MEMO` keeps it: each engine's `label_table` builds a view's table on
its first install, as a read-only mapping of label tuples, and every
later install, in any run, reads it; an install only checks the store's
granted messages, copying none. `answer_query`, which every engine
re-exports, is a check and a combination. `check_query` runs every check
that reads no store, against the view, the range's start, the params and
the sub-packet length, and returns a `CheckedQuery`: per group, its id
column, its rows' first-symbol offsets, its vector and the labels the
table names for it, the table's own tuples, uncopied. The answer then
reads each group's messages from the store and its pad chunks from the
pool, and combines them. A checked query handed to a context of the same
view object, start, params and sub-packet length is not checked again,
whatever the context's store or pool, so the secrecy audit checks each
server's query once and answers it from every store and pool it needs;
any other query is checked first. A group costs a fixed number of calls
into C, whatever its rows.
The share for a group is the vector-weighted sum of the named sub-packets
plus the sum of the pad chunks its table entry names. Decoding is user-side
and touches only (plan, answer shares): every scheme cancels interference
by a signed combination of shares, so a plan lists, per sub-packet of the
desired message, where it starts in the message and the (server, group
index, coefficient) terms that recover it, and one `decode` writes each
combination into its place.

The checks detect and `_refusal` explains. The access check of a group
is a subset test of its message set against the view's granted ids, run
once per view and id column: the view remembers each column of distinct
ids that passed, by its bytes, with the labels it matched, for every
context of the view. The index check runs over the whole query at once:
every wire index, less one, is a 32-bit lane of one int, so an index 0
wraps to 2^32 − 1, and one lane test (`field.lanes_at_or_above`, the
user's test of long shares) finds any outside [1, S]; the same lanes,
times the sub-packet length, plus the start of the range, are every
row's first-symbol offset. A repeated pad label or row is found once per
query, by one set of labels and one of `array('Q')` keys. A query that
fails any check is walked once by `_refusal`, which names its first
fault in the contract's order; honest queries never reach it.

A share is computed by one of two kernels, chosen by sub-packet length.
From PACK_MIN_SYMBOLS symbols on, every named row and pad chunk is read
as one Python int straight from its 32-bit words and split by masks into
w interleaved lane ints, so a group costs w big-int multiply-adds per row
and one Barrett reduction of every lane at once per lane int; the
reduced lane ints, OR-ed together, become the share in one conversion,
and no symbol is touched by Python code of its own. Below that, the
gather kernel makes one pass in C over the rows per symbol and slices no
row. The two kernels take the same arguments, each row's sub-packet as
the offset of its first symbol, and return the same share, an
`array('I')` that goes on the wire as it is, and `combine` picks
between them for the answer path and for decode alike. The user tests
the shares it receives for the q bound the same way, by length: lanes
of one int from PACK_MIN_SYMBOLS symbols on (see
`harness._checked_reply`), a scan below.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache, partial
from itertools import chain, repeat
from operator import add, getitem, itemgetter, length_hint, mul
from types import MappingProxyType
from typing import Optional

from ..access import SystemParams, check_vector, id_set, match_set, message_index, participating_ids
from ..errors import AccessRefusal, ConfigError
from ..field import WordStream, lane_ones, lanes_at_or_above, little_endian
from ..randomness import RandomnessPool, chunk_length
from ..wire import AnswerShare, MessageGroupDescriptor, QueryGroup, QueryTuple


# ---------------------------------------------------------------- vectors

@dataclass(frozen=True)
class SymVector:
    """A symbolic vector: the draw column's runs [a, b), concatenated in
    order, plus sparse (coordinate, offset) pairs, 0-based coordinates in
    ascending order, each offset nonzero mod q."""

    runs: tuple[tuple[int, int], ...]
    offsets: tuple[tuple[int, int], ...] = ()

    @property
    def dim(self) -> int:
        return sum(b - a for a, b in self.runs)

    def places(self) -> list[int]:
        """The draw-column place of each coordinate, in order."""
        return [p for a, b in self.runs for p in range(a, b)]

    def place(self, l: int) -> int:
        """The draw-column place of coordinate l (1-based)."""
        if not 1 <= l <= self.dim:
            raise ValueError(f"unit position {l} out of range [1, {self.dim}]")
        return self.places()[l - 1]


@dataclass(frozen=True)
class SymInverse:
    """A decode coefficient: sign / (the draw column at `place` + offset)."""

    place: int
    offset: int
    sign: int = 1

    def __neg__(self) -> "SymInverse":
        return replace(self, sign=-self.sign)


class TracingSource:
    """The one vector source: symbolic draws, with what each is conditioned on.

    Each draw takes the next `dim` places of the draw column, which holds
    `size` places so far. `nonzero` lists, in draw order, (end of a draw,
    place) for each draw that must be nonzero at that place. het2 asks
    that of one place in each of D distinct draws; the condition
    factorizes over the draws, so its plan is exactly the uniform plan
    conditioned on all D being nonzero.
    """

    def __init__(self, q: int):
        self.q = q
        self.size = 0
        self.nonzero: list[tuple[int, int]] = []

    def fresh(self, dim: int, nonzero: Optional[int] = None) -> SymVector:
        """A new draw of `dim` coordinates; with `nonzero=l` its
        coordinate l is drawn from F_q \\ {0}."""
        start = self.size
        self.size += dim
        if nonzero is not None:
            self.nonzero.append((self.size, start + nonzero - 1))
        return SymVector(((start, self.size),))

    def add_unit(self, vec: SymVector, l: int) -> SymVector:
        vec.place(l)  # refuses a coordinate outside the vector
        offsets = dict(vec.offsets)
        offsets[l - 1] = (offsets.get(l - 1, 0) + 1) % self.q
        return SymVector(vec.runs, tuple(sorted((at, o) for at, o in offsets.items() if o)))

    def concat(self, vecs) -> SymVector:
        runs, offsets, at = [], [], 0
        for v in vecs:
            runs += v.runs
            offsets += [(at + c, o) for c, o in v.offsets]
            at += v.dim
        return SymVector(tuple(runs), tuple(offsets))

    def inverse(self, vec: SymVector, l: int) -> SymInverse:
        """The inverse of vec's coordinate at l, which must be nonzero."""
        return SymInverse(vec.place(l), dict(vec.offsets).get(l - 1, 0))


def draw_symbols(stream: WordStream, size: int, nonzero) -> tuple[array, int]:
    """The draw column's `size` symbols from `stream`, and the number of
    zeros redrawn.

    For each (end, place) of `nonzero`, in order, the column is read up to
    the end of that draw; then a 0 at the place is replaced by the
    stream's next symbol until it is not, so that place is uniform on
    F_q \\ {0} and the draw is the uniform one conditioned on it being
    nonzero.
    """
    values = array("I")
    redraws = 0
    for end, place in nonzero:
        values += stream.take(end - len(values))
        while not values[place]:
            redraws += 1
            values[place] = stream.take(1)[0]
    values += stream.take(size - len(values))
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
    """One traced query group, evaluated as the sent `QueryGroup` at its
    place in its server's list: row r is message ids[r] at logical (not
    wire) sub-packet index logical[r]. `ids` is the set helper's tuple
    itself, or a concatenation of them; `logical` is an `array('I')` while
    a builder traces, and a read-only view of one in a trace. Twins share
    either column rather than copy it. Nothing else names a group: what a
    server sees of it is its rows, its vector and its place."""

    ids: tuple[int, ...]
    logical: array | memoryview
    vector: SymVector

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
    """What a build keeps to decode: each sub-packet of the desired
    message, as where it starts and the shares that recover it, in the
    order of its trace's decoding table."""

    params: SystemParams
    sub_len: int  # symbols per sub-packet
    # (start, ((server, group index, coefficient), ...)) per sub-packet:
    # the message's symbols [start, start + sub_len) are the sum of
    # coefficient * share over the terms
    decoding: list[tuple[int, tuple]] = dc_field(repr=False)
    redraws: int = 0  # zeros redrawn at places that must be nonzero


class PlanTrace:
    """The structure of every plan of one (scheme, N, D, K, q, v*), and
    how to evaluate it on a user stream.

    `groups` (per server, in the order they are sent; symbolic vectors)
    and `decoding` (logical index -> terms, symbolic inverses among its
    coefficients) are what the engine's builder made against a
    `TracingSource`; `size` and `nonzero` are that source's record of the
    draw column. The rest is compiled once for the evaluation: per group
    its ids and position columns, and per decode entry, in the table's
    order, the place in the permutation column that holds its
    sub-packet's wire index and whether a coefficient is an inverse to
    evaluate. A decode table that does not cover the sub-packets 1..S
    exactly once is refused here, before any plan is built. A trace is
    shared by every plan of its key and by the audit, so what it hands
    out cannot be written to: its groups are frozen, their logical
    columns read-only views, and its mappings read-only proxies.
    """

    def __init__(self, scheme: str, params: SystemParams, v_star, subpackets: int,
                 groups: dict, decoding: dict, source: TracingSource):
        self.scheme, self.v_star, self.subpackets = scheme, tuple(v_star), subpackets
        # one view per logical column, so twins still share it
        views = {id(g.logical): memoryview(g.logical.tobytes()).cast("I")
                 for gs in groups.values() for g in gs}
        self.groups = MappingProxyType({
            server: tuple(replace(g, logical=views[id(g.logical)]) for g in gs)
            for server, gs in groups.items()})
        if sorted(decoding) != list(range(1, subpackets + 1)):
            raise ConfigError(f"{scheme} decodes sub-packets {sorted(decoding)}, "
                              f"not 1..{subpackets}")
        self.decoding = MappingProxyType(dict(decoding))
        self.size, self.nonzero = source.size, tuple(source.nonzero)
        participating = participating_ids(params, self.v_star[params.d:])
        self.count = len(participating)
        # the message at place p among the participating ones: p * S - 1
        before = dict(zip(participating, range(-1, self.count * subpackets, subpackets)))
        desired = before[message_index(self.v_star, params)]
        # logical index l of the desired message reads place desired + l
        self._decoding = [(desired + logical, terms,
                           any(type(c) is SymInverse for *_, c in terms))
                          for logical, terms in decoding.items()]
        shared = {}  # twins share both row columns, so their compiled columns too
        self.rows = 0
        self._columns = {}
        for server, server_groups in self.groups.items():
            compiled = []
            for g in server_groups:
                key = (id(g.ids), id(g.logical))
                if key not in shared:
                    shared[key] = (array("I", g.ids), array("I", map(
                        add, map(before.__getitem__, g.ids), g.logical)))
                compiled.append((*shared[key], g.vector))
                self.rows += len(g.ids)
            self._columns[server] = compiled

    def evaluate(self, params: SystemParams, rng) -> tuple[RetrievalPlan, dict]:
        """The plan on the private user stream `rng`, and its wire queries.

        The stream's batches are sized for the permutations and the
        symbols the draws take, which the trace knows before anything is
        drawn; only a redrawn zero reads beyond them.
        """
        count, size = self.count, self.subpackets
        stream = WordStream(rng, params.q, self.size, count, size)
        perms = stream.permutations(count, size)
        values, redraws = draw_symbols(stream, self.size, self.nonzero)
        return self.project(params, perms, values, redraws)

    def project(self, params: SystemParams, perms: array, values: array,
                redraws: int = 0) -> tuple[RetrievalPlan, dict]:
        """The plan and its wire queries for a permutation column and a
        draw column. Every column handed out is the caller's own copy."""
        q = params.q
        new = tuple.__new__  # the columns match by construction: no constructor checks
        gather = perms.tolist().__getitem__  # a list serves items faster than an array
        wires = {}  # a twin's wire column is a copy of its owner's
        queries = {}
        for server, compiled in self._columns.items():
            query_groups = []
            for ids, positions, vector in compiled:
                (a, b), *runs = vector.runs
                vec = values[a:b]
                for a, b in runs:
                    vec += values[a:b]
                for at, o in vector.offsets:
                    vec[at] = (vec[at] + o) % q
                if id(positions) in wires:
                    wire = wires[id(positions)][:]
                else:
                    wire = wires[id(positions)] = array("I", map(gather, positions))
                query_groups.append(new(QueryGroup, (new(MessageGroupDescriptor, (ids[:], wire)),
                                                     vec)))
            queries[server] = new(QueryTuple, (server, tuple(query_groups)))
        sub_len = params.length // self.subpackets
        decoding = []
        for place, terms, inverse in self._decoding:
            if inverse:  # the entries without an inverse are the trace's own
                terms = tuple((s, gi, c.sign * pow((values[c.place] + c.offset) % q, -1, q)
                               if type(c) is SymInverse else c) for s, gi, c in terms)
            decoding.append(((gather(place) - 1) * sub_len, terms))
        return RetrievalPlan(params, sub_len, decoding, redraws), queries


class Memo:
    """Traces and server views by key, least recently used first.

    A trace is keyed by ("trace", scheme, N, D, K, q, v*) and weighs its
    groups' rows. A view is keyed by ("view", scheme, N, D, K, server,
    public part, own value) and is the server's granted ids with its
    label table, which q and the length do not enter; it weighs the
    message ids it holds, its granted ids and its table's keys. The memo
    holds at most `max_rows` in all; the least recently used values go
    first, and a value heavier than the bound is used once and not kept.
    A trace holds `array('I')` columns, never an object per row beyond
    the set helpers' own id tuples and the symbolic offsets; a view holds
    the set memo's frozensets (`access.id_set`) and one label tuple per
    entry, and the id columns its servers have matched (`View.columns`).
    Those are not weighed: each is one of the table's keys in some row
    order, 4 bytes a row of a key the view already weighs, and there is
    at most one per entry (see MEMO_ROWS).

    The values it holds were all made with the set helpers and label
    tables bound as `schemes.memo_bindings()` last returned. When a
    lookup finds one of them rebound (a test's patch, a profiler's
    wrapper), the memo is emptied first, so a rebound binding sees every
    call a cold build or install makes and no value made by another
    binding is served.
    """

    def __init__(self, max_rows: int):
        self.max_rows = max_rows
        self.rows = 0
        self.entries: dict[tuple, tuple] = {}  # key -> (value, rows)
        self.bindings: tuple = ()

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self):
        self.entries.clear()
        self.rows = 0

    def get(self, key: tuple, make, *args):
        """The value of `key`, made by `make(*args)` -> (value, rows) on a
        miss."""
        from . import memo_bindings
        bindings = memo_bindings()
        if bindings != self.bindings:
            self.clear()
            self.bindings = bindings
        entries = self.entries
        found = entries.pop(key, None)
        if found is None:
            found = make(*args)
            self.rows += found[1]
        entries[key] = found
        while self.rows > self.max_rows:
            self.rows -= entries.pop(next(iter(entries)))[1]
        return found[0]

    def trace(self, scheme: str, params: SystemParams, v_star: tuple) -> PlanTrace:
        """The trace of a valid (scheme, params, v*), traced on first use."""
        return self.get(("trace", scheme, params.n_attrs, params.d, params.k, params.q, v_star),
                        _traced, scheme, params, v_star)

    def view(self, scheme: str, params: SystemParams, server: int, public: tuple,
             own_value: Optional[int]) -> "View":
        """A server's verified view, made on first use: (granted ids,
        label table), the ids a frozenset and the table a read-only
        mapping of label tuples, or None where the scheme asks the server
        nothing."""
        return self.get(("view", scheme, params.n_attrs, params.d, params.k, server, public,
                         own_value), _viewed, scheme, params, server, public, own_value)


def _traced(scheme: str, params: SystemParams, v_star: tuple) -> tuple[PlanTrace, int]:
    from . import engine
    eng = engine(scheme)
    source = TracingSource(params.q)
    groups, decoding = eng.trace(v_star, params, source)
    trace = PlanTrace(scheme, params, v_star, eng.subpackets(params.d), groups, decoding, source)
    return trace, trace.rows


class View(tuple):
    """A verified view, what a server may serve: the pair (granted, table)
    of the message ids it grants, a frozenset, and its label table, and
    in `columns` the id columns that have matched an entry of the table
    with every message granted, each by its bytes, mapped to the labels
    it matched. The columns are a function of the granted ids and the
    table alone, so every context of the view reads them, whatever its
    store or pool. `check_query` fills and reads them; they are made and
    dropped with the view, and hold at most one column per table entry."""

    def __new__(cls, granted: frozenset, table: Optional[Mapping]):
        view = super().__new__(cls, (granted, table))
        view.columns = {}
        return view

    granted = property(itemgetter(0))
    table = property(itemgetter(1))


def _viewed(scheme: str, params: SystemParams, server: int, public: tuple,
            own_value: Optional[int]) -> tuple[View, int]:
    from . import engine
    eng = engine(scheme)
    ids = (participating_ids(params, public) if own_value is None
           else match_set(server, own_value, public, params))
    table = None
    if own_value is not None or eng.QUERIES_CENTRAL:
        table = MappingProxyType({key: tuple(labels) for key, labels in
                                  eng.label_table(server, params, public, own_value).items()})
    return View(id_set(ids), table), len(ids) + sum(map(len, table or ()))


# Rows the memo holds at most. The benchmark's `wide` shape (N = 7,
# D = 6, K = 4) has 116 736 trace rows over its three schemes, which
# tracemalloc puts at 1.9 MB: at most 12 bytes of columns a row, plus the
# symbolic offsets of lifted and concatenated vectors. Its 21 server
# views weigh 288 768 ids, nearly all of them in frozensets the set memo
# shares: a view's granted ids are `access.id_set`'s, one set for the
# three central views and, on a dedicated server, a key of het1's tables
# too. So a pass of `wide` keeps 405 504 rows. The views'
# remembered id columns are not weighed: a pass leaves 294 of them, 116 736
# rows against the 258 048 table-key rows the views weigh, and tracemalloc
# puts them at 475 KiB, 4 bytes a row plus a bytes header and a dict slot
# each, a quarter of the 16-byte hash-table entry a weighed key row
# already costs in its frozenset.
MEMO_ROWS = 1 << 19
MEMO = Memo(MEMO_ROWS)


def plan_trace(scheme: str, params: SystemParams, v_star) -> PlanTrace:
    """The memoized trace of (scheme, params, v*), after refusing a D
    below the scheme's bound, a length its sub-packets do not divide and
    an invalid v*, as a build does."""
    chunk_length(scheme, params)
    return MEMO.trace(scheme, params, check_vector(v_star, params))


def build_plan(scheme: str, v_star, params: SystemParams, rng) -> tuple[RetrievalPlan, dict]:
    """Every engine's build: its memoized trace evaluated on the private
    user stream `rng`. Returns (plan, wire queries per server)."""
    return plan_trace(scheme, params, v_star).evaluate(params, rng)


# ---------------------------------------------------------------- servers

@dataclass(frozen=True)
class ServerContext:
    """Everything one server answers from: no user secrets inside.

    The store is every message the server holds, whole, uncopied; the
    verified `view` says which of them it may serve (`View.granted`) and
    maps the message set of every group it may be asked for to the pad
    labels it names, a tuple (`View.table`, None when the scheme asks the
    server nothing). The pool names the scheme, params and sub-packet
    length. The server answers from the pool's length of symbols of each
    granted message from `start` on: the whole message in a pure run, one
    range of it in a segment of a mix.

    Every context, however made, refuses a `start` that is not an int in
    [0, 2^32 − L], L the pool's length: a server answers from symbols
    that a 32-bit word indexes. An install checks the store against the
    view (`checked`). A context made from a view by `dataclasses.replace`
    or by hand, as the secrecy audit makes one per server and store, is
    not checked when made: an answer that meets a granted message its
    store lacks, or reads past the end of one, raises the refusal the
    check raises, never a `KeyError` or an `IndexError`.
    """

    server: int
    store: Mapping[int, array]        # every message, whole, array('I') each
    pool: RandomnessPool
    view: View
    start: int = 0

    def __post_init__(self):
        last = (1 << 32) - self.pool.params.length
        if type(self.start) is not int or not 0 <= self.start <= last:
            raise ConfigError(f"a server answers from a symbol in [0, {last}], "
                              f"got start {self.start!r}")

    def checked(self) -> "ServerContext":
        """This context, once its store is found to hold every granted
        message up to the end of the range the server answers from: else
        a `ConfigError` naming the lowest message that is missing, or,
        with none missing, the lowest that stops short. The lengths are
        read once, with no dict built and no symbol scanned."""
        store, server, granted = self.store, self.server, self.view.granted
        stop = self.start + self.pool.params.length
        try:
            if min(map(len, map(store.__getitem__, granted)), default=stop) >= stop:
                return self
        except KeyError:
            missing = min(m for m in granted if m not in store)
            raise ConfigError(f"store holds no message {missing} for server {server}") from None
        short = min(m for m in granted if len(store[m]) < stop)
        raise ConfigError(f"message {short} holds {len(store[short])} symbols; server "
                          f"{server} answers from symbols [{self.start}, {stop})")

    @property
    def is_central(self) -> bool:
        return self.server == self.pool.params.central


def server_context(server: int, public: tuple[int, ...], own_value: Optional[int],
                   store, pool: RandomnessPool, start: int = 0) -> ServerContext:
    """The context `server` answers from once it has verified its view,
    on the pool's length of symbols of every message from `start` on.

    The view is the public part plus, on a dedicated server, its own
    attribute value (None on the central server). Its granted ids and
    label table are read from `MEMO`, built by the pool's scheme on the
    view's first install; the central server of a scheme that never
    queries it gets no table. The context holds the store whole and the
    view itself, so every context of one view, whatever its store or
    pool, reads the view's remembered id columns (`View.columns`).

    A store that is not a mapping is refused, and so is one that lacks a
    granted message or holds one too short (`ServerContext.checked`); no
    symbol is scanned: a symbol at or above q is reduced mod q like any
    sum.
    """
    if not isinstance(store, Mapping):
        raise ConfigError(f"a store maps message ids to symbols, got {store!r}")
    view = MEMO.view(pool.scheme, pool.params, server, tuple(public), own_value)
    return ServerContext(server, store, pool, view, start).checked()


# Sub-packets at least this long are answered by the packed kernel, the
# rest by the gather kernel. The packed kernel costs about a microsecond
# per row and a few per group, while the gather kernel pays a pass over
# the rows per symbol. Gather time over packed time at q = 65537 with one
# pad chunk (min of 5 `timeit` repeats, Python 3.11, 2-CPU VM):
#
#     rows \ symbols    1     2     5     8    16    31
#        2           0.34  0.56  1.15  1.80  3.19  5.29
#       64           0.16  0.30  0.74  1.16  2.21  3.71
#      256           0.13  0.26  0.62  0.97  1.81  3.08
#     1024           0.13  0.26  0.62  0.97  1.80  3.06
#
# The packed kernel first wins at 5 symbols on 2 rows, 7 on 64 and 9 on
# 256 and 1024. No workload's sub-packets have 6 to 31 symbols (`wide`'s
# mix segments have 2 and 5), so the threshold stays at 32 until one
# reaches that range. The user's check of a reply's shares switches from
# a scan to a lane test at the same length: on the same VM at q = 65537
# the lane test crossed the scan near 8 symbols and won by 1.9x at 32 and
# 4.3x at 20 000.
PACK_MIN_SYMBOLS = 32


def _gather_share(vector, arrays, starts, pads, q: int, length: int) -> array:
    """pad + sum_r vector[r] * arrays[r][starts[r] + j] mod q for each
    symbol j < length, where the pad is the sum of the `pads` chunks.

    A symbol costs one pass in C over the rows and one over the pad
    chunks, with no per-row slice. The first symbol reads `starts` as it
    is, and a 1-symbol sub-packet's share is that symbol alone, made with
    no per-symbol loop.
    """
    share = [(sum(map(mul, vector, map(getitem, arrays, starts)))
              + sum(map(getitem, pads, repeat(0)))) % q]
    if length > 1:
        share += [(sum(map(mul, vector, map(getitem, arrays, map(add, starts, repeat(j)))))
                   + sum(map(getitem, pads, repeat(j)))) % q for j in range(1, length)]
    return array("I", share)


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


def _packed_share(vector, arrays, starts, pads, q: int, length: int) -> array:
    """The share `_gather_share` computes, with each row's sub-packet
    `arrays[r][starts[r]:starts[r] + length]` and each pad chunk read as one
    int, a symbol per 32-bit word, and split by the masks of `_lane_masks`
    into w interleaved lane ints.

    Lane total i holds the symbols j ≡ i (mod w), one per w-word lane,
    shifted up by 32·i until the end. A lane is wide enough for Barrett's
    reduction of all its lanes at once: a total lane T is below
    2^k > n·(q − 1)², n the rows plus pads, and T·⌊2^k/q⌋ below 2^(32w),
    so the estimate ⌊T·⌊2^k/q⌋ / 2^k⌋ of ⌊T/q⌋, masked to its own lane,
    is short by at most 1. What is left is below 2q, and q is taken once
    more from the lanes where adding 2^(b+1) − q sets bit b + 1, b the
    bit length of q. Each residue then sits in the low word of its lane
    and the lane's other words are 0, so the lane ints shifted back up
    by 32·i and OR-ed together are the share, one symbol per word,
    emitted by a single `to_bytes`. Every symbol is touched only by C
    big-int and buffer operations.
    """
    b = q.bit_length()
    k, w = _lane_width(len(arrays) + len(pads), q)
    masks, ones = _lane_masks(length, w)
    totals = [0] * w

    def add(coeff, symbols):
        words = symbols if type(symbols) is array else array("I", symbols)
        if len(words) < length:  # read past the end of a row, as the gather kernel refuses it
            raise IndexError(f"{len(words)} symbols where a sub-packet has {length}")
        row = int.from_bytes(little_endian(words), "little")
        for i, mask in enumerate(masks):
            totals[i] += coeff * (row & mask)

    for pad in pads:
        add(1, pad)
    for coeff, arr, at in zip(vector, arrays, starts):
        add(coeff % q, arr[at:at + length])
    m, low, lift = (1 << k) // q, ones * ((1 << (32 * w - k)) - 1), ones * ((2 << b) - q)
    share = 0
    for i, total in enumerate(totals):
        total >>= 32 * i
        r = total - ((total * m >> k) & low) * q
        r -= ((r + lift >> (b + 1)) & ones) * q
        share |= r << 32 * i
    return little_endian(array("I", share.to_bytes(4 * length, "little")))


def combine(vector, arrays, starts, pads, q: int, length: int) -> array:
    """pad + sum_r vector[r] * arrays[r][starts[r]:starts[r] + length] mod
    q, by the kernel the sub-packet length calls for; the pad is the sum
    of `pads`."""
    kernel = _packed_share if length >= PACK_MIN_SYMBOLS else _gather_share
    return kernel(vector, arrays, starts, pads, q, length)


class CheckedQuery(tuple):
    """A query that `check_query` passed on one context: the query's
    `server` and `groups`, as sent; the context's view, start, params and
    sub-packet length it was checked against; per group, its id column,
    its rows' first-symbol offsets, its vector and the labels the view's
    table names for it; and the list of those labels, which every answer
    from it returns. It holds the view itself, never a key made from it,
    and the query's own columns, uncopied: a caller that writes to them
    after the check must check the query again."""

    __slots__ = ()
    server = property(itemgetter(0))
    groups = property(itemgetter(1))
    view = property(itemgetter(2))


def check_query(ctx: ServerContext, query: QueryTuple) -> CheckedQuery:
    """Every check of `answer_query` that reads no store: the query as
    checked on `ctx`, or its first refusal, in the order `_refusal`
    states. A server with no table refuses every query, and a query for
    another server is refused; every other check only detects a fault,
    and a query that fails one is walked by `_refusal`, which names it.
    A query that passes holds for any pool: its answer refuses a label
    the pool lacks when it reads the group's pads.

    A group's id column is matched once per view: its message set is
    built, looked up in the table and tested against the granted ids on
    first sight, and a column of distinct ids that passes both is
    remembered, by its bytes, with the labels it matched, in the view's
    `columns`, which every context of the view reads. A remembered column
    then costs one `tobytes` and one dict probe. When the view holds one
    column per table entry, the oldest is dropped for the next.

    The wire indices are tested once per query, before any group: one
    lane test over the query's index column, each index less one, finds
    any row outside [1, S]. The same lanes, times the sub-packet length,
    plus `ctx.start`, are every row's first-symbol offset, one
    `array('I')`. No lane overflows: a pool's S is its scheme's count of
    sub-packets, a few hundred at most (`RandomnessPool`), and a context
    answers from symbols below 2^32 (`ServerContext`). The pad labels are
    compared as a set of their own, and the rows as one `array('Q')` key
    column per query, made by strided assignment with no arithmetic per
    row: the id in the first 32-bit word of its key, the low one on a
    little-endian host, where it spreads the keys over a set's buckets,
    and the wire index in the other.
    """
    view = ctx.view
    granted, table = view
    if table is None:
        raise ConfigError(f"server {ctx.server} answers no queries of scheme {ctx.pool.scheme}")
    if query.server != ctx.server:
        raise ConfigError(f"query for server {query.server} sent to {ctx.server}")
    params, sub_len = ctx.pool.params, ctx.pool.chunk_len
    subpackets = params.length // sub_len
    labels_of, columns = table.get, view.columns
    groups = query.groups
    every_id, every_index = array("I"), array("I")
    for (ids, indices), _ in groups:
        every_id += ids
        every_index += indices
    ones = lane_ones(len(every_index))
    below = int.from_bytes(little_endian(every_index), "little") - ones  # 0 wraps to 2^32 − 1
    if lanes_at_or_above(ones, subpackets)(below):
        raise _refusal(ctx, query)
    offsets = below * sub_len + ones * ctx.start
    starts = little_endian(array("I", offsets.to_bytes(4 * len(every_index), "little")))
    checked_groups, all_labels = [], []
    at = 0
    for (ids, indices), vector in groups:
        rows = len(ids)
        if len(vector) != rows:
            raise _refusal(ctx, query)
        if (labels := columns.get(column := ids.tobytes())) is None:
            # first sight of this column: match its message set
            key = frozenset(ids)
            labels = labels_of(key)
            if labels is None or not granted >= key:
                raise _refusal(ctx, query)
            if len(key) == rows:
                if len(columns) >= len(table):
                    del columns[next(iter(columns))]
                columns[column] = labels
        checked_groups.append((ids, starts[at:at + rows], vector, labels))
        all_labels.append(labels)
        at += rows
    every_label = [*chain.from_iterable(all_labels)]
    keys = array("Q", bytes(8 * len(every_id)))
    words = memoryview(keys).cast("B").cast("I")
    words[::2], words[1::2] = every_id, every_index
    if len(set(every_label)) != len(every_label) or len(set(keys)) != len(keys):
        raise _refusal(ctx, query)
    return tuple.__new__(CheckedQuery, (ctx.server, groups, view, ctx.start, params, sub_len,
                                        checked_groups, all_labels))


def _refusal(ctx: ServerContext, query: QueryTuple) -> Exception:
    """The first refusal of a query that failed a check of `check_query`,
    for the caller to raise; a pad label the pool lacks is refused by the
    pool itself, here. The order, per group in query order: a vector
    whose length is not the group's rows; a message set that matches no
    entry of the view's table, an empty one among them; a pad label the
    pool lacks; then each row in order, a message the view does not grant
    (an `AccessRefusal`), then a wire index outside [1, S]. After the last
    group: a pad label or a (message, wire index) row named twice, as
    shares that repeat one differ by a pad-free combination of
    sub-packets. A store short of a granted message is none of these:
    the answer refuses it (`ServerContext.checked`) after every one of
    them, and only a context made without an install can meet it."""
    granted, table = ctx.view
    pool, server = ctx.pool, ctx.server
    subpackets = pool.params.length // pool.chunk_len
    every_label, every_row = [], []
    for (ids, indices), vector in query.groups:
        if len(vector) != len(ids):
            return ConfigError("vector length does not match group rows")
        labels = table.get(frozenset(ids))
        if labels is None:
            return ConfigError(f"group does not match any candidate set on server {server}")
        [*map(pool.chunk, labels)]  # a label the pool lacks: the pool's refusal
        for msg, widx in zip(ids, indices):
            if msg not in granted:
                return AccessRefusal(f"server {server} asked for inaccessible message {msg}")
            if not 1 <= widx <= subpackets:
                return ConfigError(f"sub-packet index {widx} out of range")
        every_label += labels
        every_row += zip(ids, indices)
    if len(set(every_label)) != len(every_label) or len(set(every_row)) != len(every_row):
        return ConfigError(f"query reuses a pad label or a row on server {server}")
    return AssertionError("a query that failed a check has no refusal")


def answer_query(ctx: ServerContext, query: QueryTuple | CheckedQuery
                 ) -> tuple[list[AnswerShare], list[tuple]]:
    """Every engine's server answer path: shares and the pad labels each names.

    A plain query is checked first (`check_query`). A `CheckedQuery`
    made on a context with this context's view, the same object, and its
    server, start, params and sub-packet length is taken as checked, so a
    query checked once answers from any store and any pool of that view;
    any other is checked again. Then each group's share is its combined
    sub-packet plus the sum of the pad chunks the table names for its
    message set, and the labels are the table's own tuples, in the
    checked query's list: a caller reads it and does not write to it. A
    group's messages are read from the whole store by one
    `operator.itemgetter` over its id column. A label this pool lacks is
    refused by the pool, naming it; a granted message the store lacks,
    or one that ends before a row's sub-packet, is refused as an install
    refuses it (`ServerContext.checked`).
    """
    pool = ctx.pool
    # a checked query holds the start, params and sub-packet length after its view
    if not (type(query) is CheckedQuery and query.view is ctx.view and query.server == ctx.server
            and query[3:6] == (ctx.start, pool.params, pool.chunk_len)):
        query = check_query(ctx, query)
    server, _, _, _, params, sub_len, checked_groups, all_labels = query
    q, store, chunk_of = params.q, ctx.store, pool.chunks.__getitem__
    shares = []
    for gi, (ids, starts, vector, labels) in enumerate(checked_groups):
        try:
            pads = [*map(chunk_of, labels)]
            arrays = itemgetter(*ids)(store) if len(ids) > 1 else [store[ids[0]]]
            share = combine(vector, arrays, starts, pads, q, sub_len)
        except (KeyError, IndexError):
            [*map(pool.chunk, labels)]  # a label this pool lacks: the pool's refusal
            ctx.checked()  # a store short of a granted message: the install's refusal
            raise
        shares.append(tuple.__new__(AnswerShare, (server, gi, share)))
    return shares, all_labels


def decode(plan: RetrievalPlan, answers: dict) -> array:
    """The message, an `array('I')` like the stored one: every entry of
    the plan's decoding table evaluated over the answer shares, one
    `combine` per sub-packet, written at the entry's start."""
    q, length = plan.params.q, plan.sub_len
    out = array("I", [0]) * plan.params.length
    for start, terms in plan.decoding:
        payloads = [answers[server][gi].payload for server, gi, _ in terms]
        out[start:start + length] = combine([c for *_, c in terms], payloads,
                                            [0] * len(terms), (), q, length)
    return out
