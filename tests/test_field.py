"""Field arithmetic, unit vectors, sampling and stream derivation.

The field has no object of its own: a modulus is checked by SystemParams,
inverses come from `pow` and sums from the kernels' `combine`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from array import array
from collections import Counter

import pytest

from hetdapac.access import SystemParams, match_set, message_index, participating_ids
from hetdapac.field import (
    BATCH_WORDS,
    WordStream,
    derive_rng,
    is_prime,
    lane_ones,
    lanes_at_or_above,
    little_endian,
    uniform_arrays,
    uniform_column,
    unit_vector,
)
from hetdapac.harness import random_store
from hetdapac.randomness import allocate, chunk_length
from hetdapac.schemes import ENGINES, engine, het2, memo_bindings
from hetdapac.schemes.base import (
    MEMO,
    Memo,
    SymInverse,
    SymVector,
    TracingSource,
    combine,
    draw_symbols,
    plan_trace,
)
from hetdapac.wire import MessageGroupDescriptor, QueryGroup, QueryTuple, encode_query

# smallest primes, a Fermat prime with about half its candidates rejected,
# the largest prime below 2^16 (rare rejection), the largest below 2^31
# (lanes with a single spare bit), the smallest above 2^31 (no spare bit:
# the per-word filter) and the largest prime below 2^32
BULK_MODULI = (2, 3, 5, 65537, 65521, 2147483647, 2147483659, 4294967291)


def test_primality():
    assert all(map(is_prime, BULK_MODULI))
    for n in (-7, 0, 1, 4, 9, 65536, 65539 * 3):
        assert not is_prime(n)


def trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_matches_trial_division_below_2_16():
    assert [n for n in range(1 << 16) if is_prime(n)] == [
        n for n in range(1 << 16) if trial_division(n)]


# strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5; 2, 3, 5 and 7
@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751])
def test_strong_pseudoprimes_are_composite(n):
    assert not trial_division(n) and not is_prime(n)


@pytest.mark.parametrize("bad", [1, 4, 6, 100, 65536])
def test_nonprime_modulus_rejected(bad):
    with pytest.raises(ValueError):
        SystemParams(n_attrs=2, d=1, k=2, q=bad)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_field_axioms_exhaustive(q):
    # every element but 0 has an inverse, and a two-term combination of
    # one-symbol shares is a*x + b*y mod q, with signed coefficients too
    elems = range(q)
    for a in elems:
        if a != 0:
            assert a * pow(a, -1, q) % q == 1
        for b in elems:
            for x in elems:
                for y in elems:
                    for ca, cb in ((a, b), (-a, b), (a, -b)):
                        got = combine((ca, cb), [(x,), (y,)], [0, 0], (), q, 1)
                        assert list(got) == [(ca * x + cb * y) % q]


def test_unit_vector():
    assert unit_vector(2, 3) == (0, 1, 0)
    assert unit_vector(1, 1) == (1,)
    with pytest.raises(ValueError):
        unit_vector(0, 3)
    with pytest.raises(ValueError):
        unit_vector(4, 3)


def test_vector_ops():
    # combine adds, subtracts and scales shares, in the gather kernel at
    # 3 symbols and the packed one at 192, and returns the array('I')
    # that goes on the wire
    q = 7
    u, v = (1, 2, 3), (4, 5, 6)
    for width in (1, 64):
        uw, vw = u * width, v * width
        n = len(uw)
        got = combine((1, 1), [uw, vw], [0, 0], (), q, n)
        assert type(got) is array and got.typecode == "I"
        assert got == array("I", (5, 0, 2) * width)
        assert combine((1, -1), [vw, uw], [0, 0], (), q, n) == array("I", (3, 3, 3) * width)
        assert combine((3,), [uw], [0], (), q, n) == array("I", (3, 6, 2) * width)
    # with many rows, too, the gather kernel answers short sub-packets
    got = combine((1, -1) * 8, [v, u] * 8, [0] * 16, (), q, 3)
    assert type(got) is array and got == array("I", (3, 3, 3))


def test_sampler_frequencies_three_sigma():
    # 100000 draws from F_5: every residue within 3 sigma of the uniform count
    q, n = 5, 100_000
    rng = derive_rng(7, "sampler-freq")
    counts = [0] * q
    for x in WordStream(rng, q, n).take(n):
        counts[x] += 1
    expected = n / q
    sigma = (n * (1 / q) * (1 - 1 / q)) ** 0.5
    for c in counts:
        assert abs(c - expected) <= 3 * sigma


def test_sampler_pairwise_chi_square():
    # joint counts of consecutive draws from F_5: chi-square on 25 cells
    # must stay below the 0.999 quantile at 24 degrees of freedom (51.179)
    q, pairs = 5, 50_000
    draws = WordStream(derive_rng(11, "sampler-chi2"), q, 2 * pairs).take(2 * pairs)
    cells = Counter(zip(draws[::2], draws[1::2]))
    expected = pairs / (q * q)
    stat = sum((cells[a, b] - expected) ** 2 / expected
               for a in range(q) for b in range(q))
    assert stat < 51.179


def test_derive_rng_streams_are_reproducible_and_distinct():
    a1 = derive_rng(42, "user", 0)
    a2 = derive_rng(42, "user", 0)
    b = derive_rng(42, "user", 1)
    c = derive_rng(42, "server-shared")
    seq_a1 = [a1.randrange(1 << 30) for _ in range(16)]
    seq_a2 = [a2.randrange(1 << 30) for _ in range(16)]
    seq_b = [b.randrange(1 << 30) for _ in range(16)]
    seq_c = [c.randrange(1 << 30) for _ in range(16)]
    assert seq_a1 == seq_a2
    assert seq_a1 != seq_b
    assert seq_a1 != seq_c
    assert seq_b != seq_c


# The bulk sampler relies on CPython's Mersenne Twister layout: randrange(q)
# is one 32-bit word shifted and rejected, randbytes the same words in
# order. These tests pin that it reproduces the randrange stream exactly.

@pytest.mark.parametrize("n", [1, 2, 40, BATCH_WORDS])
def test_cpython_randbytes_is_getrandbits_little_endian(n):
    # the lane kernel reads word i of a batch from bits [32i, 32i + 32) of
    # getrandbits(32n), where the randbytes(4n) words used to come from
    r1, r2 = random.Random(n), random.Random(n)
    assert int.from_bytes(r1.randbytes(4 * n), "little") == r2.getrandbits(32 * n)
    assert r1.random() == r2.random()


@pytest.mark.parametrize("q", BULK_MODULI)
@pytest.mark.parametrize("length, count", [
    (BATCH_WORDS // 2 + 1, 3),   # crosses bulk-draw boundaries at every q
    (1, 1),
    (3, 40),                     # leftovers carried from message to message
    (0, 2),
    # short arrays taken a block at a time, the blocks crossing stream batches
    (1, BATCH_WORDS + 3),
    (7, BATCH_WORDS // 7 + 2),
    (BATCH_WORDS // 3, 4),       # three arrays a block, then a block of one
    (BATCH_WORDS // 2, 3),       # a block would hold two: taken one by one
])
def test_uniform_arrays_is_the_randrange_stream(q, length, count):
    seed = (q, length, count)
    bulk = uniform_arrays(random.Random(repr(seed)), q, length, count)
    twin = random.Random(repr(seed))
    want = [[twin.randrange(q) for _ in range(length)] for _ in range(count)]
    assert [list(a) for a in bulk] == want
    assert all(a.typecode == "I" for a in bulk)
    # the same stream as one column, filled a block at a time
    column = uniform_column(random.Random(repr(seed)), q, length * count)
    assert column.typecode == "I" and list(column) == [x for a in want for x in a]


def test_a_symbolic_vector_names_places_of_the_draw_column():
    source = TracingSource(3)
    a, b = source.fresh(2), source.fresh(3, nonzero=2)
    assert (a, b) == (SymVector(((0, 2),)), SymVector(((2, 5),)))
    assert (source.size, source.nonzero) == (5, [(5, 3)])
    # a concatenation joins the runs and shifts each offset's coordinate
    lifted = source.add_unit(source.concat([a, b]), 4)
    assert lifted == SymVector(((0, 2), (2, 5)), ((3, 1),))
    assert source.concat([a, lifted]) == SymVector(((0, 2), (0, 2), (2, 5)), ((5, 1),))
    assert lifted.places() == [0, 1, 2, 3, 4]
    # the inverse names the place b is drawn nonzero at, with the lift
    assert source.inverse(lifted, 4) == SymInverse(3, 1)
    # offsets add mod q, and one that comes to 0 is dropped
    assert source.add_unit(source.add_unit(lifted, 4), 4) == SymVector(lifted.runs)
    for l in (0, 3):
        with pytest.raises(ValueError, match=f"unit position {l} out of range"):
            source.add_unit(a, l)
        with pytest.raises(ValueError, match=f"unit position {l} out of range"):
            source.inverse(a, l)


@pytest.mark.parametrize("q", [2, 3, 65537, 4294967291])
def test_fresh_nonzero_skips_zeros_of_the_randrange_stream(q):
    # the per-call reference: dim randrange(q) draws, then coordinate l
    # drawn again while it is 0
    # drawn by the evaluation's `draw_symbols` from the traced draws
    shapes = [(dim, l) for dim in (1, 2, 4, 7) for l in (None, *range(1, dim + 1))] * 4
    source = TracingSource(q)
    for dim, l in shapes:
        source.fresh(dim, nonzero=l)
    values, redraws = draw_symbols(
        WordStream(random.Random(q), q, source.size), source.size, source.nonzero)
    twin = random.Random(q)
    skipped = 0
    wants = []
    for dim, l in shapes:
        want = [twin.randrange(q) for _ in range(dim)]
        while l is not None and not want[l - 1]:
            skipped += 1
            want[l - 1] = twin.randrange(q)
        wants += want
    assert list(values) == wants
    assert redraws == skipped
    assert skipped > 0 or q > 3


def test_random_store_is_the_randrange_stream():
    params = SystemParams(n_attrs=3, d=2, k=2, q=5, length=7)
    rng = derive_rng(3, "store")
    want = {i: tuple(rng.randrange(params.q) for _ in range(params.length))
            for i in range(params.message_count)}
    store = random_store(params, 3)
    assert {m: tuple(sym) for m, sym in store.items()} == want
    assert all(isinstance(sym, array) for sym in store.values())


@pytest.mark.parametrize("scheme, params", [
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=3, length=4)),
    ("het2", SystemParams(n_attrs=4, d=3, k=3, q=65537, length=12)),
])
def test_allocate_is_the_randrange_stream(scheme, params):
    public = (2,) * (params.n_attrs - params.d)
    clen = chunk_length(scheme, params)
    rng = derive_rng(9, "server-shared", scheme, public)
    want = {label: tuple(rng.randrange(params.q) for _ in range(clen))
            for label in engine(scheme).pool_labels(params)}
    pool = allocate(scheme, params, public, 9)
    assert {label: tuple(c) for label, c in pool.chunks.items()} == want


# The user's stream serves every participating message's permutation, then
# the combining vectors. WordStream must hand out exactly what per-call
# `random.shuffle` followed by `randrange(q)` would, on the same stream.

STREAM_MODULI = (2, 3, 5, 65537, 2 ** 31 - 1, 2 ** 32 - 5)
# size 1 draws nothing; 2^m + 1 sizes reject the most candidates
STREAM_SIZES = (1, 2, 3, 5, 6, 15, 21)


def per_call(rng, count, size, dims):
    """`count` shuffles of [1..size], as one flat list, then a vector of
    randrange(q) symbols per dimension in `dims`."""
    perms = []
    for _ in range(count):
        order = list(range(1, size + 1))
        rng.shuffle(order)
        perms += order
    return perms, [[rng.randrange(rng.q) for _ in range(d)] for d in dims]


def seeded(q, *labels):
    rng = random.Random(repr((q,) + labels))
    rng.q = q
    return rng


@pytest.mark.parametrize("q", STREAM_MODULI)
@pytest.mark.parametrize("size", STREAM_SIZES)
@pytest.mark.parametrize("announced", [True, False])
def test_word_stream_is_shuffle_then_randrange(q, size, announced):
    # announced: the first batch is sized for the whole demand; otherwise
    # it is the bare margin of 8 words, less than one size-21 permutation
    # takes, and batches refill mid-permutation and mid-vector
    count, dims = 40, (1, 7, 0, 3, 130, 2)
    stream = WordStream(seeded(q, size), q, sum(dims) if announced else 0,
                        count if announced else 0, size)
    perms = stream.permutations(count, size)
    vectors = [list(stream.take(d)) for d in dims]
    assert type(perms) is array and perms.typecode == "I"
    assert (list(perms), vectors) == per_call(seeded(q, size), count, size, dims)


@pytest.mark.parametrize("size", [7, 255, 256, 300])
def test_word_stream_sizes_around_the_byte_lane_limit(size):
    # up to 255 the swaps run on byte lanes of all permutations at once;
    # from 256 on, one permutation at a time
    stream = WordStream(seeded(5, "lanes", size), 5, 9, 4, size)
    perms = stream.permutations(4, size)
    assert (list(perms), [list(stream.take(9))]) == \
        per_call(seeded(5, "lanes", size), 4, size, (9,))


def test_word_stream_serves_permutations_first():
    stream = WordStream(random.Random(1), 5, 4, 2, 3)
    stream.take(1)
    with pytest.raises(ValueError):
        stream.permutations(2, 3)


@pytest.mark.parametrize("scheme, params, v_star", [
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2), (1, 2, 2)),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6), (1, 2, 2, 1)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3), (2, 1, 2)),
])
def test_small_plans_read_one_batch_sized_to_the_plan(scheme, params, v_star):
    # deterministic counts, not times: one getrandbits call per build, of
    # e = the expected words of count permutations of [S] plus those of
    # the symbols the trace's draws take (about 2 per symbol at q = 65537),
    # plus 3 sqrt(e) + 8; het1 has 4 messages, S = 2 and 8 draw symbols,
    # het2 8, 6 and 30, dapac 8, 3 and 18
    class Counting(random.Random):
        def getrandbits(self, k):
            reads.append(k // 32)
            return super().getrandbits(k)

    want = {"het1": [46], "het2": [167], "dapac": [94]}[scheme]
    for seed in range(5):
        reads = []
        engine(scheme).build(v_star, params, Counting(seed))
        assert reads == want


def test_wide_het1_plan_is_the_per_call_plan():
    # the benchmark's `wide` shape: 4096 participating messages
    params = SystemParams(n_attrs=7, d=6, k=4, q=65537, length=6)
    v_star, public = (2, 4, 1, 3, 3, 1, 2), (2,)
    plan, queries = engine("het1").build(v_star, params, derive_rng(1, "user", 0))
    trace = plan_trace("het1", params, v_star)

    rng = derive_rng(1, "user", 0)
    rng.q = params.q
    ids = participating_ids(params, public)
    perms = per_call(rng, len(ids), 6, ())[0]
    used = {}
    central = []
    for n in range(1, 7):
        for k in range(1, 5):
            rows = []
            for msg in match_set(n, k, public, params):
                used[msg] = used.get(msg, 0) + 1
                rows.append((msg, used[msg]))
            central.append((rows, tuple(rng.randrange(params.q) for _ in rows)))

    # the trace's rows, the sent wire indices and vectors, group for group
    sent = queries[params.central].groups
    assert len(sent) == len(trace.groups[params.central])
    assert [(g.rows, tuple(s.vector))
            for g, s in zip(trace.groups[params.central], sent)] == central
    assert [s.descriptor.indices.tolist() for s in sent] == [
        [perms[ids.index(m) * 6 + i - 1] for m, i in rows] for rows, _ in central]
    # each sub-packet of the desired message goes where its permutation puts it
    desired = ids.index(message_index(v_star, params))
    assert [start for start, _ in plan.decoding] == [
        (perms[desired * 6 + logical - 1] - 1) * plan.sub_len for logical in trace.decoding]
    for n in range(1, 7):
        (lifted,), (group,) = trace.groups[n], queries[n].groups
        rows, vector = central[(n - 1) * 4 + v_star[n - 1] - 1]
        assert lifted.rows == rows
        lift = [(a - b) % params.q for a, b in zip(group.vector, vector)]
        assert lift == list(unit_vector(lifted.row_of(message_index(v_star, params)), len(rows)))


# A build evaluates its key's memoized trace on the user stream. The
# oracle below makes every draw one call at a time, in the per-call
# order, and projects the trace's rows through a dict of permutations:
# a cold build (memo cleared), a warm one and the oracle must agree.

def per_call_plan(scheme, params, v_star, rng):
    """(query frame per server, decode list, zeros redrawn) of the build
    on `rng`, each symbol a per-call draw; a zero at a conditioned place
    is redrawn once the whole draw holding it is taken."""
    trace = plan_trace(scheme, params, v_star)
    q, size = params.q, trace.subpackets
    perms = {}
    for m in participating_ids(params, v_star[params.d:]):
        perms[m] = list(range(1, size + 1))
        rng.shuffle(perms[m])
    column, redraws = [], 0
    for end, place in (*trace.nonzero, (trace.size, None)):
        column += [rng.randrange(q) for _ in range(end - len(column))]
        while place is not None and not column[place]:
            redraws += 1
            column[place] = rng.randrange(q)

    def vector(sym):
        offsets = dict(sym.offsets)
        return tuple((column[p] + offsets.get(at, 0)) % q
                     for at, p in enumerate(sym.places()))

    def coefficient(c):
        if type(c) is SymInverse:
            return c.sign * pow((column[c.place] + c.offset) % q, -1, q)
        return c

    frames = {server: encode_query(QueryTuple(server, tuple(
                  QueryGroup(MessageGroupDescriptor(
                      array("I", g.ids),
                      array("I", [perms[m][i - 1] for m, i in zip(g.ids, g.logical)])),
                      vector(g.vector))
                  for g in groups)))
              for server, groups in trace.groups.items()}
    desired, sub_len = perms[message_index(v_star, params)], params.length // size
    decoding = [((desired[logical - 1] - 1) * sub_len,
                 tuple((s, gi, coefficient(c)) for s, gi, c in terms))
                for logical, terms in trace.decoding.items()]
    return frames, decoding, redraws


def every_vector(params):
    return list(itertools.product(range(1, params.k + 1), repeat=params.n_attrs))


ORACLE_POINTS = [
    # the sweep points, the mix point's dapac segment, het2 where zeros
    # are redrawn, and the wide het1 shape at one vector
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2), None),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6), None),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3), None),
    ("dapac", SystemParams(n_attrs=3, d=2, k=2, q=65537, length=6), None),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=5, length=6), None),
    ("het1", SystemParams(n_attrs=7, d=6, k=4, q=65537, length=6), [(2, 4, 1, 3, 3, 1, 2)]),
]


@pytest.mark.parametrize("scheme, params, vectors", ORACLE_POINTS)
def test_cold_and_warm_builds_are_the_per_call_plan(scheme, params, vectors):
    build = engine(scheme).build
    redrawn = 0
    for seed, v_star in enumerate(vectors or every_vector(params)):
        MEMO.clear()
        cold = build(v_star, params, derive_rng(seed, "user", 0))
        warm = build(v_star, params, derive_rng(seed, "user", 0))
        oracle = per_call_plan(scheme, params, v_star, derive_rng(seed, "user", 0))
        for plan, queries in (cold, warm):
            frames = {server: encode_query(query) for server, query in queries.items()}
            assert (frames, plan.decoding, plan.redraws) == oracle
        redrawn += oracle[2]
    assert (redrawn > 0) == (params.q == 5)


MUTATION_POINTS = [
    ("het1", SystemParams(n_attrs=4, d=3, k=2, q=65537, length=3), (1, 2, 1, 2)),
    ("het2", SystemParams(n_attrs=5, d=4, k=2, q=65537, length=10), (1, 2, 1, 2, 2)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3), (1, 2, 2)),
]


def sent_by(scheme, params, v_star):
    """(query frames, decode list, sub-packet length, trace rows) of one
    build at seed 3."""
    plan, queries = engine(scheme).build(v_star, params, derive_rng(3, "user", 0))
    trace = plan_trace(scheme, params, v_star)
    return ({server: encode_query(query) for server, query in queries.items()},
            list(plan.decoding), plan.sub_len,
            {server: [g.rows for g in groups] for server, groups in trace.groups.items()})


@pytest.mark.parametrize("scheme, params, v_star", MUTATION_POINTS)
def test_mutating_a_plan_or_its_queries_leaves_later_builds_alone(scheme, params, v_star):
    sent = sent_by(scheme, params, v_star)
    plan, queries = engine(scheme).build(v_star, params, derive_rng(3, "user", 0))
    # every column a build hands out is the caller's own, vectors included
    for query in queries.values():
        for g in query.groups:
            assert type(g.vector) is array and g.vector.typecode == "I"
            g.descriptor.ids[0] += 1
            g.descriptor.indices[0] += 1
            g.vector[0] += 1
            g.vector.append(0)
    start, terms = plan.decoding[0]
    plan.decoding[0] = (start + 1, terms[1:])
    plan.decoding.append(plan.decoding[-1])
    plan.sub_len += 1
    assert sent_by(scheme, params, v_star) == sent


@pytest.mark.parametrize("scheme, params, v_star", MUTATION_POINTS)
def test_a_trace_refuses_every_write_in_place(scheme, params, v_star):
    # every build and audit of the key shares the trace plan_trace returns
    sent = sent_by(scheme, params, v_star)
    trace = plan_trace(scheme, params, v_star)
    server = next(iter(trace.groups))
    for g in trace.groups[server]:
        with pytest.raises(TypeError):
            g.logical[0] += 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.vector = trace.groups[server][0].vector
    with pytest.raises(TypeError):
        trace.groups[server] = ()
    with pytest.raises(AttributeError):
        trace.groups[server].append(trace.groups[server][0])
    with pytest.raises(TypeError):
        trace.decoding[1] = ()
    with pytest.raises(TypeError):
        trace.nonzero[1] = 1
    assert plan_trace(scheme, params, v_star) is trace
    assert sent_by(scheme, params, v_star) == sent


SET_HELPERS = [(module, name) for module in ENGINES.values()
               for name in ("match_set", "pair_set") if hasattr(module, name)]
# het2's match_set is called by its central server's label table only
UNTRACED_HELPERS = {(het2, "match_set")}


@pytest.mark.parametrize("module, name", SET_HELPERS,
                         ids=[f"{m.SCHEME}.{n}" for m, n in SET_HELPERS])
def test_a_rebound_set_helper_sees_every_call_a_cold_build_makes(module, name, monkeypatch):
    # a warm key built again under a patched set helper calls it as often
    # as a cold build does, and with the same frames: the memo serves no
    # trace that another binding of the helper made
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, counting)
        watched = memo_bindings()
    total = 0
    for scheme, params, v_star in MUTATION_POINTS:
        sent = sent_by(scheme, params, v_star)  # the key is warm
        counts = []
        for cold in (False, True):
            if cold:
                MEMO.clear()
            with monkeypatch.context() as patch:
                patch.setattr(module, name, counting)
                calls.clear()
                assert sent_by(scheme, params, v_star) == sent
                counts.append(len(calls))
        assert counts[0] == counts[1], scheme
        total += counts[0]
    assert watched != memo_bindings()
    assert (total > 0) == ((module, name) not in UNTRACED_HELPERS)


def test_trace_memo_never_holds_more_rows_than_its_bound():
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)
    rows = plan_trace("het2", params, (1, 1, 1, 1)).rows
    memo = Memo(max_rows=2 * rows)
    vectors = every_vector(params)
    for v_star in vectors + vectors[::-1]:
        trace = memo.trace("het2", params, v_star)
        assert trace.v_star == v_star
        assert memo.rows == sum(r for _, r in memo.entries.values()) <= memo.max_rows
        assert len(memo) == 2 or v_star == vectors[0]
    # least recently used first: a hit keeps a trace, a miss drops the oldest
    memo.trace("het2", params, vectors[1])
    assert list(memo.entries) == [("trace", "het2", 4, 3, 2, 65537, vectors[0]),
                                  ("trace", "het2", 4, 3, 2, 65537, vectors[1])]
    memo.trace("het2", params, vectors[2])
    assert [key[-1] for key in memo.entries] == [vectors[1], vectors[2]]
    # a trace longer than the bound is used once and not kept
    small = Memo(max_rows=rows - 1)
    assert small.trace("het2", params, vectors[3]).rows == rows
    assert (len(small), small.rows) == (0, 0)
    assert MEMO.rows <= MEMO.max_rows


@pytest.mark.parametrize("bound", [1, 2, 3, 528, 65537, 2 ** 31 - 1])
def test_the_lane_test_finds_the_first_lane_at_or_above_its_bound(bound):
    # words around the bound, its bit length and the word's top, in random
    # lanes; x is also taken as the lanes less one each, as the answer
    # path takes its wire indices, where a 0 lane borrows from the next
    rng = random.Random(bound)
    b = bound.bit_length()
    words = sorted({0, 1, bound - 1, bound, bound + 1, (1 << b) - 1, 1 << b, 2 ** 31,
                    2 ** 32 - 1})
    for lanes in (1, 2, 3, 7, 64):
        ones = lane_ones(lanes)
        assert ones.to_bytes(4 * lanes, "little") == b"\x01\x00\x00\x00" * lanes
        test = lanes_at_or_above(ones, bound)
        for _ in range(40):
            column = array("I", [rng.choice(words) for _ in range(lanes)])
            whole = int.from_bytes(little_endian(column), "little")
            for x in (whole, whole - ones):
                read = (x % (1 << 32 * lanes)).to_bytes(4 * lanes, "little")
                lanes_of_x = [int.from_bytes(read[4 * i:4 * i + 4], "little")
                              for i in range(lanes)]
                first = next((i for i, w in enumerate(lanes_of_x) if w >= bound), None)
                got = test(x)
                if first is None:
                    assert got == 0
                else:
                    assert ((got & -got).bit_length() - 1) // 32 == first
