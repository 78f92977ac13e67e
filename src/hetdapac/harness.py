"""Two-phase protocol simulation: actors, channel, transcript, metrics.

The run is verification followed by retrieval. In verification the user
commits each sensitive attribute to its dedicated server and the public
attributes to the central server, which relays them to everyone. In
retrieval the user sends one query tuple per server and decodes the
answer shares.

Actors exchange `bytes` through an in-process channel and share no state,
so the same engines could back real sockets; wire.py writes and parses
every message. Each one is logged to the transcript as a structured record
(phase, sender, receiver, kind, the symbols its frame carries, and the
sha256 of the bytes sent); identical inputs produce byte-identical
transcript dumps. Consumed pads come from the servers' own ledgers. Query
construction happens strictly before any server sees the store it will
answer from, and only ever reads (v*, params, user randomness).

Every run goes through `run_segments`: one verification phase, then one
retrieval per (store segment, pool) segment, the pool naming the
segment's scheme, params and chunk length and the store segment its
symbol range, with no symbol copied. A pure run is a single segment, the
range [0, L); a time-shared mix (see mixer.py) is several.

A store is any mapping from message id to its symbols. `random_store`
draws one as a single `array('I')` column, message m at [m·L, (m + 1)·L)
(`schemes.base.DrawnStore`), which holds the symbols with no object per
message and which the servers read by offset, no row looked up by id.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .access import SystemParams, check_params, check_vector
from .errors import ConfigError
from .field import derive_rng, lane_ones, lanes_at_or_above, little_endian, uniform_column
from .randomness import RandomnessPool, allocate
from .schemes import engine as scheme_engine
from .schemes.base import PACK_MIN_SYMBOLS, DrawnStore, ServerContext, server_context
from .wire import (
    decode_answers,
    decode_commit_value,
    decode_public,
    decode_query,
    encode_ack,
    encode_answers,
    encode_commit_value,
    encode_public,
    encode_query,
    frame_symbols,
    payload_digest,
)

def actor_name(server: int, params: SystemParams) -> str:
    return "central" if server == params.central else f"server{server}"


# ---------------------------------------------------------------- transcript

class Record(NamedTuple):
    """One logged message: its place in the run, who sent what to whom,
    the symbols its frame carries and the sha256 of its bytes. Read-only;
    `_replace` makes an edited copy."""

    seq: int
    phase: str
    sender: str
    receiver: str
    kind: str
    symbols: int
    digest: str
    segment: Optional[str] = None


class Transcript:
    """Structured log of one protocol run: symbol counts read off the
    frames, consumed pads off the servers' ledgers as (segment, label),
    and each segment's pool, the allocated pads, under its tag.

    `log` builds each `Record` with `tuple.__new__`, its fields in
    order, as the class's own constructor would; `dumps` writes one
    sorted-key JSON object of a record's fields a line."""

    def __init__(self, params: SystemParams):
        self.params = check_params(params)
        self.records: list[Record] = []
        self.retries = 0  # zero cycle coefficients redrawn on the client, unseen by servers
        self.pools: dict[Optional[str], RandomnessPool] = {}
        self.consumed: set = set()

    def log(self, phase, sender, receiver, kind, payload, segment=None):
        rec = tuple.__new__(Record, (len(self.records), phase, sender, receiver, kind,
                                     frame_symbols(kind, payload), payload_digest(payload),
                                     segment))
        self.records.append(rec)
        return rec

    def consumed_symbols(self) -> int:
        return sum(self.pools[seg].chunk_len for seg, _ in self.consumed)

    def download_by_sender(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            if rec.kind == "answer":
                out[rec.sender] = out.get(rec.sender, 0) + rec.symbols
        return out

    def dumps(self) -> str:
        return "".join(json.dumps(rec._asdict(), sort_keys=True, separators=(",", ":")) + "\n"
                       for rec in self.records)

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())


# ---------------------------------------------------------------- actors

class Channel:
    """Routes `bytes` between named endpoints, logging each message."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript
        self.actors: dict[str, "ServerActor"] = {}

    def connect(self, name: str, actor: "ServerActor"):
        self.actors[name] = actor

    def request(self, phase, sender, receiver, kind, payload, segment=None):
        """Deliver and log a message; log and return the receiver's reply, if any."""
        self.transcript.log(phase, sender, receiver, kind, payload, segment)
        reply = self.actors[receiver].handle(kind, payload)
        if reply is None:
            return None
        rkind, rpayload = reply
        self.transcript.log(phase, receiver, sender, rkind, rpayload, segment)
        return rpayload


class ServerActor:
    """One server: verifies its attribute(s), then answers queries.

    Verification happens once per run. Each retrieval segment then installs
    its pool together with the store, held whole the way a real replica
    would hold it, and the start of the segment's symbol range; the
    server answers from the store as it is, uncopied, and its verified
    view says which messages it may serve. Queries touching anything else
    are refused. `handle` returns (kind, bytes) or None; `ledger` holds
    the pad labels answered with since the pool was installed.
    """

    def __init__(self, server: int, params: SystemParams):
        self.server = server
        self.params = params
        self.own_value: Optional[int] = None
        self.public: Optional[tuple[int, ...]] = None
        self.ctx: Optional[ServerContext] = None
        self.ledger: list = []

    @property
    def is_central(self) -> bool:
        return self.server == self.params.central

    def handle(self, kind: str, payload: bytes):
        k, width = self.params.k, self.params.n_attrs - self.params.d
        if kind == "attribute-commit":
            if self.is_central:
                self.public = decode_public(payload, k, width)
            else:
                self.own_value = decode_commit_value(payload, k)
                if not self.params.has_central:
                    self.public = ()
            return ("commit-ack", encode_ack(self.server))
        if kind == "attribute-relay":
            self.public = decode_public(payload, k, width)
            return None
        if kind == "query":
            if self.ctx is None:
                raise ConfigError("query received before a pool was installed")
            query = decode_query(payload)
            shares, labels = scheme_engine(self.ctx.pool.scheme).answer_query(self.ctx, query)
            self.ledger += [label for group in labels for label in group]
            return ("answer", encode_answers(self.server, shares))
        raise ConfigError(f"unknown message kind {kind!r}")

    def install_pool(self, pool: RandomnessPool, store, start: int = 0):
        """Server-to-server agreement on pads; never crosses the user channel.

        The pool names the segment's scheme and parameters; the segment is
        the pool's length of symbols of every message of `store` from
        `start` on.
        """
        if self.public is None or (not self.is_central and self.own_value is None):
            raise ConfigError("pool installed before verification finished")
        self.ctx = server_context(self.server, self.public, self.own_value, store, pool, start)
        self.ledger = []


# ---------------------------------------------------------------- stores

# The most symbols `random_store` draws: K^N messages of L symbols each,
# 4 bytes a symbol, so 1 GiB. `SystemParams` admits K^N up to 2^32 so
# that every id is a 32-bit word, far beyond what can be drawn; the
# largest store the benchmark draws (`long`) holds 15.36 M symbols. The
# answer path places a row of message m at sub-packet offset o in the
# drawn column as m·L + o, one 32-bit lane of an int (`DrawnStore`): it
# is below K^N·L <= 2^28, so no lane carries into the next.
STORE_SYMBOLS = 1 << 28


def random_store(params: SystemParams, seed) -> DrawnStore:
    """Uniform content for every message id, L symbols each, drawn in bulk
    from a private stream into one `array('I')` column, message m at
    [m·L, (m + 1)·L); deterministic in the seed. The symbols, their
    stream and their order are those of one `array('I')` per message
    drawn in id order. The store reads as a mapping from id to a copy of
    its symbols and cannot be written to; `dict(store)` is a writable
    copy. A store of more than STORE_SYMBOLS symbols is refused before
    any is drawn."""
    rng = derive_rng(seed, "store")
    count, length = check_params(params).message_count, params.length
    if count * length > STORE_SYMBOLS:
        raise ConfigError(f"a store of {count} messages of {length} symbols holds "
                          f"{count * length} symbols, over the {STORE_SYMBOLS} drawn at most")
    return DrawnStore(uniform_column(rng, params.q, count * length), count, length)


@dataclass(frozen=True, eq=False)  # equal as a mapping, to a dict of its slices too
class StoreSegment(Mapping):
    """Symbol range [start, stop) of every message of `store`, copying none.

    A server answers from `store` itself, its reads offset by `start`. The
    segment still reads as a mapping from message id to its range, each
    value a `memoryview` of the store's value for it, made only when asked
    for.
    """

    store: Mapping[int, array]
    start: int
    stop: int

    def __getitem__(self, msg: int) -> memoryview:
        return memoryview(self.store[msg])[self.start:self.stop]

    def __iter__(self):
        return iter(self.store)

    def __len__(self) -> int:
        return len(self.store)


def store_segment(store, start: int, stop: int) -> StoreSegment:
    """Symbol range [start, stop) of every message, for time-shared runs:
    the store itself and the range, with no symbol copied."""
    return StoreSegment(store, start, stop)


# ---------------------------------------------------------------- protocol

def verification_phase(channel: Channel, v_star, params: SystemParams):
    """Commit sensitive values to dedicated servers, public part to central,
    and relay the public part everywhere."""
    v_star = check_vector(v_star, params)
    for n in range(1, params.d + 1):
        channel.request("verification", "user", actor_name(n, params),
                        "attribute-commit", encode_commit_value(n, v_star[n - 1]))
    central = actor_name(params.central, params)
    if central in channel.actors:
        public = encode_public(v_star[params.d:])
        channel.request("verification", "user", central, "attribute-commit", public)
        for n in range(1, params.d + 1):
            channel.request("verification", central, actor_name(n, params),
                            "attribute-relay", public)


def retrieval_phase(channel: Channel, pool: RandomnessPool, v_star, seed,
                    transcript: Transcript, segment=None):
    """Build one plan of the pool's scheme and params, never its chunks,
    on the user stream of `seed`, labeled by the segment tag if there is
    one, send it and decode its answers. Every plan decodes: het2 draws
    the coordinates it divides by nonzero (see schemes.base.draw_symbols)."""
    params = pool.params
    eng = scheme_engine(pool.scheme)
    labels = () if segment is None else (segment,)
    plan, queries = eng.build(v_star, params, derive_rng(seed, "user", *labels, 0))
    transcript.retries += plan.redraws
    answers = {}
    for n in sorted(queries):
        reply = channel.request("retrieval", "user", actor_name(n, params), "query",
                                encode_query(queries[n]), segment=segment)
        answers[n] = _checked_reply(reply, queries[n], plan.sub_len, params.q)
    return eng.decode(plan, answers)


@lru_cache(maxsize=16)
def _share_test(width: int, q: int):
    """The lane test of a `width`-symbol share against q: see
    `field.lanes_at_or_above`."""
    return lanes_at_or_above(lane_ones(width), q)


def _checked_reply(reply: bytes, query, length: int, q: int):
    """The shares of `reply` if they answer `query`: from its server, one
    share per group, each one sub-packet of `length` symbols of F_q.
    Decode reads shares by position, so any other reply is a ConfigError
    naming the server.

    A share of at least PACK_MIN_SYMBOLS symbols, at q below 2^31, is
    tested as one int of 32-bit lanes, a symbol per lane, by
    `field.lanes_at_or_above`. Shorter shares, and moduli whose lanes
    have no spare bit, are scanned symbol by symbol.
    """
    server = query.server
    try:
        shares = decode_answers(reply)
    except ConfigError as err:
        raise ConfigError(f"server {server} sent a malformed answer: {err}") from None
    sender, width = (shares[0].server, len(shares[0].payload)) if shares else (server, length)
    if (sender, len(shares), width) != (server, len(query.groups), length):
        raise ConfigError(f"server {server} sent shares that do not answer its query: "
                          f"want {len(query.groups)}, {length} symbols each")
    if width >= PACK_MIN_SYMBOLS and q < 1 << 31:
        lanes = (int.from_bytes(little_endian(s.payload), "little") for s in shares)
        outside = any(map(_share_test(width, q), lanes))
    else:
        outside = not all(max(s.payload) < q for s in shares)  # array('I'): none below 0
    if outside:
        raise ConfigError(f"server {server} sent a symbol outside F_{q}")
    return shares


def run_segments(params: SystemParams, v_star, seed, segments):
    """One verification phase, then one retrieval per segment, in order.

    A segment is (store segment, pool): the pool, allocated for the
    segment, names its scheme and params, which differ from `params` only
    in length, and the store segment (`store_segment`) is a symbol range
    of that length. The ranges must tile [0, L) in order, so the decoded
    segments concatenate into the message. A lone segment is a pure
    run and stays untagged; several are tagged by scheme in the transcript,
    and each draws its queries from a user stream labeled by its scheme,
    so two segments of one scheme are refused: they would share a tag, a
    stream and so their queries. Returns (decoded message, transcript,
    metrics).
    """
    v_star = check_vector(v_star, params)
    at = 0
    for seg, pool in segments:
        if seg.stop - seg.start != pool.params.length:
            raise ConfigError(f"segment [{seg.start}, {seg.stop}) does not hold the "
                              f"{pool.params.length} symbols its pool is for")
        if seg.start != at:
            raise ConfigError(f"segment [{seg.start}, {seg.stop}) does not start "
                              f"where the last one stopped, at {at}")
        at = seg.stop
    if at != params.length:
        raise ConfigError(f"segments cover [0, {at}), not the {params.length} "
                          "symbols of a message")
    schemes = [pool.scheme for _, pool in segments]
    if len(set(schemes)) != len(schemes):
        raise ConfigError(f"segments name one scheme twice: {schemes}; each segment "
                          "is tagged, and draws its queries, by its scheme")
    transcript = Transcript(params)
    channel = Channel(transcript)
    # the central server joins to verify public attributes, or to be queried
    with_central = params.has_central or any(
        scheme_engine(pool.scheme).QUERIES_CENTRAL for _, pool in segments)
    for n in params.servers():
        if n != params.central or with_central:
            channel.connect(actor_name(n, params), ServerActor(n, params))

    verification_phase(channel, v_star, params)

    tagged = len(segments) > 1
    message = array("I")
    for seg, pool in segments:
        tag = pool.scheme if tagged else None
        transcript.pools[tag] = pool
        for actor in channel.actors.values():
            actor.install_pool(pool, seg.store, seg.start)
        message += retrieval_phase(channel, pool, v_star, seed, transcript, segment=tag)
        for actor in channel.actors.values():  # operator plane, as install_pool
            transcript.consumed.update((tag, label) for label in actor.ledger)
    return message, transcript, metrics_of(transcript)


def run_protocol(scheme: str, params: SystemParams, v_star, store, seed):
    """Full two-phase run of one scheme. Returns (decoded message,
    transcript, metrics).

    The servers read the store as symbols of F_q: a stored symbol at or
    above q is answered as its residue mod q, so the decoded message is
    the stored one mod q."""
    v_star = check_vector(v_star, params)
    pool = allocate(scheme, params, tuple(v_star[params.d:]), seed)
    return run_segments(params, v_star, seed, [(store_segment(store, 0, params.length), pool)])


# The load ratio of a run without central download; mixer re-exports it.
INF = float("inf")


def metrics_of(transcript: Transcript) -> dict:
    """Exact accounting: rate, load ratio, downloads, randomness, retries."""
    if not isinstance(transcript, Transcript):
        raise ConfigError(f"metrics are read off a Transcript, got {transcript!r}")
    params = transcript.params
    downloads = transcript.download_by_sender()
    dedicated = {n: downloads.get(f"server{n}", 0) for n in range(1, params.d + 1)}
    central = downloads.get("central", 0)
    total = sum(dedicated.values()) + central
    if total == 0:
        raise ConfigError("no downloads recorded")
    per_dedicated = sorted(set(dedicated.values()))
    load = Fraction(per_dedicated[-1], central) if central else INF
    pools = transcript.pools.values()
    return {
        "rate": Fraction(params.length, total),
        "load_ratio": load,
        "download_total": total,
        "download_dedicated": dedicated,
        "download_central": central,
        "randomness_allocated_chunks": sum(pool.allocated_chunks for pool in pools),
        "randomness_allocated_symbols": sum(pool.allocated_symbols for pool in pools),
        "randomness_consumed_chunks": len(transcript.consumed),
        "randomness_consumed_symbols": transcript.consumed_symbols(),
        "retries": transcript.retries,
        "attempts": len({r.segment for r in transcript.records if r.kind == "query"}),
    }
