"""Server answer path: malformed query frames, answer frames and
verification payloads, repeated groups and rows, the first bad row
deciding the error, label tables built once at install against a
per-query oracle, and the two answer kernels and their choice against a
per-symbol loop oracle."""

from __future__ import annotations

import itertools
import json
from array import array

import pytest

from hetdapac.access import (
    SystemParams,
    message_index,
    ordered_complement,
    vector_of_index,
)
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.field import derive_rng, uniform_arrays
from hetdapac.harness import ServerActor, random_store
from hetdapac.randomness import RandomnessPool, allocate, canonical_pair_label
from hetdapac.schemes import base as scheme_base
from hetdapac.schemes import dapac, het1, het2
from hetdapac.schemes.base import PACK_MIN_SYMBOLS, ServerContext, answer_query
from hetdapac.wire import (
    MessageGroupDescriptor,
    QueryGroup,
    QueryTuple,
    decode_answers,
    encode_commit_value,
    encode_public,
    encode_query,
    frame_symbols,
)

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)


def unpooled_actor(server, params, v_star):
    """A verified actor, before any pool is installed."""
    actor = ServerActor(server, params)
    public = list(v_star[params.d:])
    if actor.is_central:
        actor.handle("attribute-commit", encode_public(public))
    else:
        actor.handle("attribute-commit", encode_commit_value(server, v_star[server - 1]))
        if params.has_central:
            actor.handle("attribute-relay", encode_public(public))
    return actor


def verified_actor(server, scheme, params, v_star, seed=0):
    actor = unpooled_actor(server, params, v_star)
    actor.install_pool(allocate(scheme, params, v_star[params.d:], seed),
                       random_store(params, seed))
    return actor


def descriptor(rows) -> MessageGroupDescriptor:
    """The descriptor of (message id, wire index) rows: its two columns."""
    return MessageGroupDescriptor(array("I", [m for m, _ in rows]),
                                  array("I", [i for _, i in rows]))


def query_frame(server, *groups):
    """The frame of a query to `server` with (rows, vector) groups."""
    return encode_query(QueryTuple(server, tuple(
        QueryGroup(descriptor(rows), tuple(vector)) for rows, vector in groups)))


def frame(case):
    """A list of words and raw `bytes` as the bytes of a frame; any other
    case is sent as it is."""
    if type(case) is not list:
        return case
    return b"".join(w if type(w) is bytes else w.to_bytes(4, "little") for w in case)


GOOD_GROUP = ([[1, 1], [3, 1]], [1, 1])
# the frame of GOOD_GROUP to server 1: server, group count, row count,
# message ids, indices, vector
GOOD = [1, 1, 2, 1, 3, 1, 1, 1, 1]
BIG = 2 ** 32 - 1


@pytest.mark.parametrize("payload", [
    [],                                             # no server
    [1],                                            # no group count
    GOOD[:-2],                                      # no vector
    GOOD[:2],                                       # no row counts
    [2, *GOOD[1:]],                                 # a query for server 2
    [*GOOD[:-1], b"\x01"],                          # a vector entry not a word
    [*GOOD[:5], 1, 0, 1, 1],                        # sub-packet index 0
    [*GOOD[:5], 1, 3, 1, 1],                        # index past the 2 sub-packets
    [*GOOD, 2],                                     # a word past the last group
    [1, 1, 3, *GOOD[3:]],                           # more rows counted than sent
    [*GOOD, b"\x00"],                               # a byte past the last word
    [1, BIG, *GOOD[2:]],                            # a group count past the frame
    # the dict format, which is no frame
    {"server": 1, "groups": [{"rows": [[1, 1], [3, 1]], "vector": [1, 1]}]},
    bytearray(frame(GOOD)),                         # a frame is bytes, no other buffer
    [1, 1, BIG, *GOOD[3:]],                         # a row count past the frame
    [*GOOD[:3], 1, 9, *GOOD[5:]],                   # rows {1, 9}: no candidate set
    [1, 2, 2, 2, *GOOD[3:]],                        # a second group counted, not sent
    [1, 1, 0],                                      # a group of no rows
])
def test_malformed_query_is_a_config_error(payload):
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    with pytest.raises(ConfigError):
        actor.handle("query", frame(payload))


@pytest.mark.parametrize("server, kind, payload", [
    (1, "attribute-commit", {}),                    # no value
    (1, "attribute-commit", {"value": "x"}),
    (1, "attribute-commit", {"value": True}),       # a bool is not a value
    (1, "attribute-commit", {"value": 2.0}),
    (1, "attribute-commit", {"value": 3}),          # outside [1, K]
    (1, "attribute-commit", {"value": 0}),
    (1, "attribute-commit", [2]),
    (3, "attribute-commit", {}),                    # central: no public part
    (3, "attribute-commit", {"public": 5}),
    (3, "attribute-commit", {"public": []}),        # N - D = 1 value
    (3, "attribute-commit", {"public": [1, 2]}),
    (3, "attribute-commit", {"public": [3]}),
    (3, "attribute-commit", {"public": [True]}),
    (3, "attribute-commit", {"public": "1"}),
    (1, "attribute-relay", {}),
    (1, "attribute-relay", {"public": 5}),
    (1, "attribute-relay", {"public": [0]}),
    (1, "attribute-relay", None),
])
def test_malformed_verification_is_a_config_error(server, kind, payload):
    actor = ServerActor(server, P322)
    with pytest.raises(ConfigError):
        actor.handle(kind, json.dumps(payload).encode())


def test_repeated_group_with_moved_vector_is_refused():
    # a malicious client asks the central server for one of its groups a
    # second time with the vector moved by e_1: the two shares would
    # differ by a raw sub-packet, so the server must refuse the query
    v_star = (1, 2, 2)
    actor = verified_actor(P322.central, "het1", P322, v_star)
    _, queries = het1.build(v_star, P322, derive_rng(0, "user", 0))
    honest = queries[P322.central]
    first = honest.groups[0]
    moved = tuple((x + (i == 0)) % P322.q for i, x in enumerate(first.vector))
    replay = QueryTuple(honest.server,
                        honest.groups + (QueryGroup(first.descriptor, moved),))
    assert actor.handle("query", encode_query(honest))[0] == "answer"
    with pytest.raises(ConfigError, match="reuses"):
        actor.handle("query", encode_query(replay))


def test_repeated_row_within_a_group_is_refused():
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    group = ([[1, 1], [3, 1], [1, 1]], [1, 1, 1])
    with pytest.raises(ConfigError, match="reuses"):
        actor.handle("query", query_frame(1, group))


def test_repeated_row_across_two_groups_is_refused():
    # het1's central table names {a1y, a2y} and {a1y, b1y}: a1y at wire
    # index 1 in both groups repeats a row though neither group does
    a1y, a2y, b1y = (message_index(v, P322) for v in ((1, 1, 2), (1, 2, 2), (2, 1, 2)))
    actor = verified_actor(P322.central, "het1", P322, (1, 2, 2))
    first = ([[a1y, 1], [a2y, 1]], [1, 1])
    with pytest.raises(ConfigError, match="reuses"):
        actor.handle("query", query_frame(P322.central, first, ([[a1y, 1], [b1y, 1]], [1, 1])))
    kind, _ = actor.handle("query", query_frame(P322.central, first,
                                                ([[a1y, 2], [b1y, 1]], [1, 1])))
    assert kind == "answer"


def test_descriptor_columns_must_have_equal_lengths():
    # unequal columns would encode a frame that decodes to other rows
    with pytest.raises(ConfigError, match="2 message ids but 1 sub-packet indices"):
        MessageGroupDescriptor(array("I", [1, 3]), array("I", [1]))


def test_first_bad_row_decides_the_error():
    # server 1 holds a1y and a2y; het1's table also names the match set
    # {a1y, b1y}, so a group over it passes the table and then meets an
    # inaccessible row (b1y) and, here, an index past the 2 sub-packets
    a1y, b1y = message_index((1, 1, 2), P322), message_index((2, 1, 2), P322)
    actor = verified_actor(1, "het1", P322, (1, 2, 2))

    def query(rows):
        return query_frame(1, (rows, [1, 1]))

    with pytest.raises(AccessRefusal):
        actor.handle("query", query([[b1y, 1], [a1y, 3]]))
    with pytest.raises(ConfigError, match="out of range"):
        actor.handle("query", query([[a1y, 3], [b1y, 1]]))


def test_well_formed_query_is_answered():
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    assert query_frame(1, GOOD_GROUP) == frame(GOOD)
    kind, reply = actor.handle("query", query_frame(1, GOOD_GROUP))
    assert kind == "answer" and frame_symbols("answer", reply) == 1
    assert [s.group_index for s in decode_answers(reply)] == [0]


# the frame of a one-share answer from server 1: server, share count,
# symbols per share, the symbol 1
ONE = [1, 1, 1, 1]


@pytest.mark.parametrize("payload", [
    [],                                             # no server
    [1],                                            # no share count
    ONE[:2],                                        # no share length
    ONE[:3],                                        # no symbols
    [1, 2, 1, 1],                                   # a share counted, not sent
    [1, 1, 2, 1],                                   # a symbol counted, not sent
    [*ONE[:3], b"\x01"],                            # a symbol not a word
    [1, BIG, 0],                                    # empty shares past the frame
    [1, 1, BIG, 1],                                 # a share length past the frame
    [*ONE, 2],                                      # a word past the last share
    "answer",
    # the dict format with an int list, which is no frame
    {"server": 1, "shares": [{"group": 0, "payload": [1]}]},
    # byte counts that are not whole 4-byte words
    [*ONE[:3], b"\x01\x00\x00"],
    [*ONE, b"\x00"],
    # a frame is bytes, not another buffer
    bytearray(frame(ONE)),
])
def test_malformed_answers_are_a_config_error(payload):
    with pytest.raises(ConfigError):
        decode_answers(frame(payload))


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_het2_central_label_table_is_built_once_at_install(monkeypatch):
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)
    v_star = (1, 2, 2, 1)
    _, queries = het2.build(v_star, params, derive_rng(0, "user", 0))
    actor = unpooled_actor(params.central, params, v_star)
    calls = counting(monkeypatch, het2, "match_set")
    actor.install_pool(allocate("het2", params, v_star[params.d:], 0),
                       random_store(params, 0))
    assert len(calls) == params.k * params.d
    actor.handle("query", encode_query(queries[params.central]))
    assert len(calls) == params.k * params.d


def test_dapac_label_table_is_built_once_at_install(monkeypatch):
    params = SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)
    v_star = (2, 1, 2)
    _, queries = dapac.build(v_star, params, derive_rng(0, "user", 0))
    actor = unpooled_actor(1, params, v_star)
    calls = counting(monkeypatch, dapac, "pair_set")
    actor.install_pool(allocate("dapac", params, (), 0), random_store(params, 0))
    assert len(calls) == params.k * (params.d - 1)
    actor.handle("query", encode_query(queries[1]))
    assert len(calls) == params.k * (params.d - 1)


def test_dapac_central_server_refuses_every_query():
    # the central server verifies the public part under dapac, installs
    # the pool without error, and answers nothing, not even no groups
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=3)
    v_star = (2, 1, 2, 1)
    actor = verified_actor(params.central, "dapac", params, v_star)
    _, queries = dapac.build(v_star, params, derive_rng(0, "user", 0))
    real = QueryTuple(params.central, queries[1].groups[:1])
    for query in (real, QueryTuple(params.central, ())):
        with pytest.raises(ConfigError):
            actor.handle("query", encode_query(query))


def ids_where(params, public, fixed) -> frozenset:
    """The messages with public part `public` and attribute n at fixed[n],
    found by scanning every message's attribute vector."""
    return frozenset(i for i in range(params.message_count)
                     for v in [vector_of_index(i, params)]
                     if v[params.d:] == public
                     and all(v[n - 1] == x for n, x in fixed.items()))


def per_query_table(scheme, server, params, public, own):
    """The label table each answer built for itself before tables were
    built at install; None where the scheme asks the server nothing."""
    central = server == params.central
    if scheme == "dapac" and central:
        return None
    table = {}
    if scheme == "het1":
        for n in range(1, params.d + 1):
            for k in range(1, params.k + 1):
                table[ids_where(params, public, {n: k})] = [("nk", n, k)]
    elif central:
        for n in range(1, params.d + 1):
            m0 = n % params.d + 1  # n's outgoing cycle partner
            for k in range(1, params.k + 1):
                table[ids_where(params, public, {n: k})] = [
                    canonical_pair_label(n, m0, k, k2) for k2 in range(1, params.k + 1)]
    else:
        for m in ordered_complement(server, params.d):
            for k in range(1, params.k + 1):
                key = ids_where(params, public, {server: own, m: k})
                table[key] = [canonical_pair_label(server, m, own, k)]
    return table


@pytest.mark.parametrize("scheme, n_attrs, d, k", [
    (scheme, *shape) for shape in [(3, 2, 2), (4, 3, 2), (3, 3, 2), (5, 4, 3)]
    for scheme in ("het1", "het2", "dapac") if shape[1] >= 3 or scheme != "het2"])
def test_install_time_tables_equal_the_per_query_oracle(scheme, n_attrs, d, k):
    length = {"het1": d, "het2": d * (d + 1) // 2, "dapac": d * (d - 1) // 2}[scheme]
    params = SystemParams(n_attrs=n_attrs, d=d, k=k, length=length)
    store = random_store(params, 0)
    for public in itertools.product(range(1, k + 1), repeat=n_attrs - d):
        pool = allocate(scheme, params, public, 0)
        for server in params.servers():
            views = [None] if server == params.central else range(1, k + 1)
            for own in views:
                ctx = scheme_base.server_context(server, public, own, store, pool)
                assert ctx.table == per_query_table(scheme, server, params, public, own)


# ------------------------------------------------------- answer kernels

def kernel_case(q: int, length: int, pads: int, rows=None):
    """One group over `rows` rows (1-64 at random when None) of sub-packets
    `length` long, with `pads` pad labels, on a server that holds every
    row: (ctx, query, table). Past 64 symbols a group has at most 8 rows,
    which keeps the loop reference fast. The vector leads with 0, q - 1,
    -1 and q + 5; the wire accepts any int, so the kernels must reduce
    coefficients themselves."""
    rng = derive_rng("kernel", q, length, pads)
    rows = rows or rng.randint(1, 64 if length <= 64 else 8)
    params = SystemParams(n_attrs=3, d=2, k=3, q=q, length=2 * length)
    store = dict(enumerate(uniform_arrays(rng, q, 2 * length, rows), start=1))
    labels = [("nk", 1, k) for k in range(1, pads + 1)]
    pool = RandomnessPool("het1", params, length,
                          dict(zip(labels, uniform_arrays(rng, q, length, pads))))
    vector = ((0, q - 1, -1, q + 5)
              + tuple(rng.randrange(-2 * q, 2 * q) for _ in range(rows)))[:rows]
    group = QueryGroup(descriptor([(m, rng.randint(1, 2)) for m in store]), vector)
    table = {frozenset(store): labels}
    return ServerContext(1, store, pool, table), QueryTuple(1, (group,)), table


def pad_sum(pool, labels, q: int) -> tuple[int, ...]:
    total = [0] * pool.chunk_len
    for label in labels:
        for j, x in enumerate(pool.chunk(label)):
            total[j] = (total[j] + x) % q
    return tuple(total)


def loop_share(vector, segments, pad, q: int) -> array:
    """pad + sum_r vector[r] * segments[r] mod q, one symbol at a time,
    as the `array('I')` every kernel returns."""
    total = list(pad)
    for coeff, seg in zip(vector, segments):
        for j, s in enumerate(seg):
            total[j] = (total[j] + coeff * s) % q
    return array("I", total)


def loop_reference(ctx, query, table):
    """The share by the per-symbol loop over sliced rows: the oracle for
    every kernel. Returns the kernels' inputs too: (arrays, ends, pad
    chunks, labels, share)."""
    group = query.groups[0]
    q, n = ctx.pool.params.q, ctx.pool.chunk_len
    arrays = [ctx.store[m] for m, _ in group.descriptor.rows]
    ends = [i * n for _, i in group.descriptor.rows]
    segments = [a[e - n:e] for a, e in zip(arrays, ends)]
    labels = table[frozenset(m for m, _ in group.descriptor.rows)]
    chunks = [ctx.pool.chunk(label) for label in labels]
    want = loop_share(group.vector, segments, pad_sum(ctx.pool, labels, q), q)
    return arrays, ends, chunks, labels, want


KERNEL_MODULI = [2, 3, 65537, 4294967291]


@pytest.mark.parametrize("q", KERNEL_MODULI)
@pytest.mark.parametrize("length", [PACK_MIN_SYMBOLS - 1, PACK_MIN_SYMBOLS, 20000])
@pytest.mark.parametrize("pads", [0, 1, 3])
def test_packed_kernel_equals_the_loop(q, length, pads):
    ctx, query, table = kernel_case(q, length, pads)
    arrays, ends, chunks, labels, want = loop_reference(ctx, query, table)
    got = scheme_base._packed_share(query.groups[0].vector, arrays, ends, chunks, q, length)
    assert type(got) is array and got.typecode == "I" and got == want
    shares, named = answer_query(ctx, query)
    assert [s.payload for s in shares] == [want] and named == [labels]
    assert type(shares[0].payload) is array and shares[0].payload.typecode == "I"


@pytest.mark.parametrize("rows, words", [(255, 2), (256, 3)])
def test_packed_kernel_across_the_lane_width_step(rows, words):
    # at q = 65537 a lane total reaches 2^40 at 256 terms: its Barrett
    # product then needs 66 bits, a third word per lane
    q = 65537
    assert scheme_base._lane_width(rows, q)[1] == words
    ctx, query, table = kernel_case(q, 33, 0, rows)
    arrays, ends, chunks, _, want = loop_reference(ctx, query, table)
    assert scheme_base._packed_share(query.groups[0].vector, arrays, ends, chunks, q, 33) == want
    top = [array("I", [q - 1]) * 33] * rows
    assert (scheme_base._packed_share([q - 1] * rows, top, [33] * rows, (), q, 33)
            == loop_share([q - 1] * rows, top, [0] * 33, q))


@pytest.mark.parametrize("q", KERNEL_MODULI + [2 ** 31 - 1])
@pytest.mark.parametrize("length", [33, 20001])
@pytest.mark.parametrize("make_pad", [array, tuple])
def test_packed_kernel_at_the_top_of_the_field(q, length, make_pad):
    # every symbol and pad at q - 1, coefficients q - 1 and their negative
    # forms; pads as the array('I') chunks of a draw or the tuples of
    # `RandomnessPool.zeros_like`; lengths no lane width divides
    top = array("I", [q - 1]) * (2 * length)
    vector = [q - 1, -1, -(q - 1), q - 1, -q - 1]
    arrays, ends = [top] * len(vector), [length, 2 * length] * 2 + [length]
    segments = [a[e - length:e] for a, e in zip(arrays, ends)]
    pad = array("I", [q - 1]) * length
    pads = [pad if make_pad is array else tuple(pad)] * 3
    got = scheme_base._packed_share(vector, arrays, ends, pads, q, length)
    assert type(got) is array
    assert got == loop_share(vector, segments, [3 * (q - 1) % q] * length, q)
    params = SystemParams(n_attrs=3, d=2, k=3, q=q, length=2 * length)
    zero = RandomnessPool("het1", params, length, {("nk", 1, 1): pad}).zeros_like()
    assert (scheme_base._packed_share(vector, arrays, ends, [zero.chunk(("nk", 1, 1))], q, length)
            == loop_share(vector, segments, [0] * length, q))


def test_vector_shorter_than_the_rows_is_refused():
    # a frame's row count sets its vector length, so only a direct call
    # can send a group whose vector is short
    ctx, query, _ = kernel_case(65537, 2, 1, rows=3)
    group = query.groups[0]
    short = QueryTuple(1, (QueryGroup(group.descriptor, group.vector[:-1]),))
    with pytest.raises(ConfigError, match="vector length does not match group rows"):
        answer_query(ctx, short)


# every length the gather kernel answers at random row counts, then the
# short groups of few rows and symbols that retrievals and audits send it
GATHER_SHAPES = ([(length, None) for length in range(1, PACK_MIN_SYMBOLS)]
                 + [(length, rows) for rows in (1, 2, 4, 7, 67) for length in (1, 2, 3)])


@pytest.mark.parametrize("q", KERNEL_MODULI)
@pytest.mark.parametrize("pads", [0, 1, 3])
def test_gather_and_loop_kernels_equal_the_oracle(q, pads):
    for length, rows in GATHER_SHAPES:
        ctx, query, table = kernel_case(q, length, pads, rows)
        arrays, ends, chunks, labels, want = loop_reference(ctx, query, table)
        got = scheme_base._gather_share(query.groups[0].vector, arrays, ends, chunks, q, length)
        assert type(got) is array and got.typecode == "I"
        assert got == want, (length, rows)
        shares, named = answer_query(ctx, query)
        assert [s.payload for s in shares] == [want] and named == [labels]


def refuse(kernel, symbols):
    def unused(*args):
        raise AssertionError(f"{kernel} ran on {symbols} symbols")
    return unused


@pytest.mark.parametrize("length, kernel", [
    (PACK_MIN_SYMBOLS - 1, "_packed_share"),
    (PACK_MIN_SYMBOLS, "_gather_share"),
])
def test_kernel_is_chosen_by_subpacket_length(monkeypatch, length, kernel):
    # the kernel named must not run; the other one answers exactly
    ctx, query, table = kernel_case(65537, length, 1)
    want = loop_reference(ctx, query, table)[-1]
    monkeypatch.setattr(scheme_base, kernel, refuse(kernel, length))
    shares, _ = answer_query(ctx, query)
    assert [s.payload for s in shares] == [want]
