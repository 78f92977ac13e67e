"""Two-phase protocol simulation: actors, channel, transcript, metrics.

The run is verification followed by retrieval. In verification the user
commits each sensitive attribute to its dedicated server and the public
attributes to the central server, which relays them to everyone. In
retrieval the user sends one query tuple per server and decodes the
answer shares.

Actors exchange serialized protocol messages through an in-process channel
and share no state, so the same engines could back real sockets. Every
message is logged to the transcript as a structured record (phase, sender,
receiver, kind, symbol count, payload digest); identical inputs produce
byte-identical transcript dumps. Query construction happens strictly
before any server sees the store it will answer from, and only ever reads
(v*, params, user randomness).

Every run goes through `run_segments`: one verification phase, then one
retrieval per segment, each segment a scheme with its own symbol range,
store slice and randomness pool. A pure run is a single segment; a
time-shared mix (see mixer.py) is several.
"""

from __future__ import annotations

import io
import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .access import SystemParams, check_vector
from .errors import ConfigError
from .field import derive_rng, uniform_arrays
from .randomness import RandomnessPool, allocate
from .schemes import engine as scheme_engine
from .schemes.base import ServerContext, server_context
from .wire import (
    decode_answers,
    decode_commit_value,
    decode_public,
    decode_query,
    encode_answers,
    encode_query,
    payload_digest,
)

def actor_name(server: int, params: SystemParams) -> str:
    return "central" if server == params.central else f"server{server}"


# ---------------------------------------------------------------- transcript

@dataclass
class Record:
    seq: int
    phase: str
    sender: str
    receiver: str
    kind: str
    symbols: int
    digest: str
    segment: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "seq": self.seq, "phase": self.phase, "sender": self.sender,
            "receiver": self.receiver, "kind": self.kind,
            "symbols": self.symbols, "digest": self.digest,
            "segment": self.segment,
        }


class Transcript:
    """Structured log of one protocol run plus accounting counters."""

    def __init__(self, params: SystemParams):
        self.params = params
        self.records: list[Record] = []
        self.retries = 0   # zero cycle coefficients redrawn on the client
        self.attempts = 0  # rounds sent: one per retrieval segment
        self.pool_allocated_chunks = 0
        self.pool_allocated_symbols = 0
        self.segment_chunk_len: dict = {}
        self.consumed: set = set()

    def log(self, phase, sender, receiver, kind, payload, symbols, segment=None):
        rec = Record(len(self.records), phase, sender, receiver, kind,
                     symbols, payload_digest(payload), segment)
        self.records.append(rec)
        return rec

    def note_pool(self, pool: RandomnessPool, segment=None):
        self.pool_allocated_chunks += pool.allocated_chunks
        self.pool_allocated_symbols += pool.allocated_symbols
        self.segment_chunk_len[segment] = pool.chunk_len

    def note_consumed(self, labels, segment=None):
        for label in labels:
            self.consumed.add((segment, tuple(label)))

    def consumed_symbols(self) -> int:
        return sum(self.segment_chunk_len[seg] for seg, _ in self.consumed)

    def download_by_sender(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            if rec.kind == "answer":
                out[rec.sender] = out.get(rec.sender, 0) + rec.symbols
        return out

    def dumps(self) -> str:
        buf = io.StringIO()
        for rec in self.records:
            buf.write(json.dumps(rec.as_dict(), sort_keys=True, separators=(",", ":")))
            buf.write("\n")
        return buf.getvalue()

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())


# ---------------------------------------------------------------- actors

class Channel:
    """Routes serialized messages between named endpoints, logging each one."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript
        self.actors: dict[str, "ServerActor"] = {}

    def connect(self, name: str, actor: "ServerActor"):
        self.actors[name] = actor

    def request(self, phase, sender, receiver, kind, payload, symbols=0, segment=None):
        """Deliver a message; if the receiver replies, log and return the reply."""
        self.transcript.log(phase, sender, receiver, kind, payload, symbols, segment)
        reply = self.actors[receiver].handle(kind, payload)
        if reply is None:
            return None
        rkind, rpayload, rsymbols = reply
        self.transcript.log(phase, receiver, sender, rkind, rpayload, rsymbols, segment)
        return rpayload


class ServerActor:
    """One server: verifies its attribute(s), then answers queries.

    Verification happens once per run. Each retrieval segment then installs
    its pool together with the segment's store, held whole the way a real
    replica would hold it; the accessible slice is carved out of it by the
    verified view. Queries touching anything else are refused.
    """

    def __init__(self, server: int, params: SystemParams):
        self.server = server
        self.params = params
        self.own_value: Optional[int] = None
        self.public: Optional[tuple[int, ...]] = None
        self.ctx: Optional[ServerContext] = None
        self.used_labels: list = []

    @property
    def is_central(self) -> bool:
        return self.server == self.params.central

    def handle(self, kind: str, payload: dict):
        k, width = self.params.k, self.params.n_attrs - self.params.d
        if kind == "attribute-commit":
            if self.is_central:
                self.public = decode_public(payload, k, width)
            else:
                self.own_value = decode_commit_value(payload, k)
                if not self.params.has_central:
                    self.public = ()
            return ("commit-ack", {"server": self.server}, 0)
        if kind == "attribute-relay":
            self.public = decode_public(payload, k, width)
            return None
        if kind == "query":
            if self.ctx is None:
                raise ConfigError("query received before a pool was installed")
            query = decode_query(payload)
            shares, labels = scheme_engine(self.ctx.pool.scheme).answer_query(self.ctx, query)
            self.used_labels = labels
            reply = encode_answers(shares)
            return ("answer", reply, sum(len(s.payload) for s in shares))
        raise ConfigError(f"unknown message kind {kind!r}")

    def install_pool(self, pool: RandomnessPool, store):
        """Server-to-server agreement on pads; never crosses the user channel.

        The pool names the segment's scheme and parameters; `store` holds
        the segment's symbols of every message.
        """
        if self.public is None or (not self.is_central and self.own_value is None):
            raise ConfigError("pool installed before verification finished")
        self.ctx = server_context(self.server, self.public, self.own_value, store, pool)


# ---------------------------------------------------------------- stores

def random_store(params: SystemParams, seed) -> dict[int, array]:
    """Uniform content for every message id, one `array('I')` of L symbols
    each, drawn in bulk from a private stream; deterministic in the seed."""
    rng = derive_rng(seed, "store")
    return dict(enumerate(uniform_arrays(rng, params.q, params.length,
                                         params.message_count)))


def store_segment(store, start: int, stop: int) -> dict[int, array]:
    """Symbol range [start, stop) of every message, for time-shared runs:
    an `array('I')` slice, which is a copy."""
    return {m: sym[start:stop] for m, sym in store.items()}


# ---------------------------------------------------------------- protocol

def verification_phase(channel: Channel, v_star, params: SystemParams):
    """Commit sensitive values to dedicated servers, public part to central,
    and relay the public part everywhere."""
    v_star = check_vector(v_star, params)
    for n in range(1, params.d + 1):
        channel.request("verification", "user", actor_name(n, params),
                        "attribute-commit", {"position": n, "value": v_star[n - 1]})
    central = actor_name(params.central, params)
    if central in channel.actors:
        public = list(v_star[params.d:])
        channel.request("verification", "user", central,
                        "attribute-commit", {"public": public})
        for n in range(1, params.d + 1):
            channel.request("verification", central, actor_name(n, params),
                            "attribute-relay", {"public": public})


def retrieval_phase(channel: Channel, scheme: str, params: SystemParams, v_star,
                    seed, transcript: Transcript, segment=None, rng_labels=()):
    """Build one plan on derive_rng(seed, "user", *rng_labels, 0), send it
    and decode its answers. Every plan decodes: het2 draws the coordinates
    it divides by nonzero (see schemes.base.VectorSource)."""
    eng = scheme_engine(scheme)
    plan, queries = eng.build(v_star, params, derive_rng(seed, "user", *rng_labels, 0))
    transcript.retries += plan.redraws
    transcript.attempts += 1
    answers = {}
    for n in sorted(queries):
        name = actor_name(n, params)
        reply = channel.request("retrieval", "user", name, "query",
                                encode_query(queries[n]),
                                symbols=queries[n].upload_symbols(),
                                segment=segment)
        answers[n] = _checked_reply(decode_answers(reply), queries[n],
                                    params.length // plan.subpackets, params.q)
        transcript.note_consumed(
            (lbl for group in channel.actors[name].used_labels for lbl in group),
            segment=segment)
    return eng.decode(plan, answers)


def _checked_reply(shares, query, length: int, q: int):
    """`shares` if they answer `query`: from its server, one share per
    group in group order, each one sub-packet of `length` symbols of F_q.
    Decode reads shares by position, so any other reply is a ConfigError."""
    server = query.server
    shape = [(s.server, s.group_index, len(s.payload)) for s in shares]
    if shape != [(server, gi, length) for gi in range(len(query.groups))]:
        raise ConfigError(f"server {server} sent shares that do not answer its query: "
                          f"want {len(query.groups)} in group order, {length} symbols each")
    if not all(max(s.payload) < q for s in shares):  # array('I'): none below 0
        raise ConfigError(f"server {server} sent a symbol outside F_{q}")
    return shares


def run_segments(params: SystemParams, v_star, seed, segments):
    """One verification phase, then one retrieval per segment, in order.

    A segment is (scheme, segment params, segment store, pool): the params
    differ from `params` only in length, the store holds that many symbols
    of every message, and the pool was allocated for the segment. The
    decoded segments concatenate into the message. A lone segment is a pure
    run and stays untagged; several are tagged by scheme in the transcript,
    and each draws its queries from a user stream labeled by its scheme.
    Returns (decoded message, transcript, metrics).
    """
    v_star = check_vector(v_star, params)
    schemes = [scheme for scheme, *_ in segments]
    transcript = Transcript(params)
    channel = Channel(transcript)
    # dapac never queries the central server; it only joins to verify public attributes
    with_central = params.has_central or any(s != "dapac" for s in schemes)
    for n in params.servers():
        if n != params.central or with_central:
            channel.connect(actor_name(n, params), ServerActor(n, params))

    verification_phase(channel, v_star, params)

    tagged = len(segments) > 1
    message = array("I")
    for scheme, seg_params, seg_store, pool in segments:
        tag = scheme if tagged else None
        transcript.note_pool(pool, segment=tag)
        for actor in channel.actors.values():
            actor.install_pool(pool, seg_store)
        message += retrieval_phase(channel, scheme, seg_params, v_star, seed,
                                   transcript, segment=tag,
                                   rng_labels=(tag,) if tagged else ())
    return message, transcript, metrics_of(transcript)


def run_protocol(scheme: str, params: SystemParams, v_star, store, seed):
    """Full two-phase run of one scheme. Returns (decoded message,
    transcript, metrics)."""
    v_star = check_vector(v_star, params)
    pool = allocate(scheme, params, tuple(v_star[params.d:]), seed)
    return run_segments(params, v_star, seed, [(scheme, params, store, pool)])


# The load ratio of a run without central download; mixer re-exports it.
INF = float("inf")


def metrics_of(transcript: Transcript) -> dict:
    """Exact accounting: rate, load ratio, downloads, randomness, retries."""
    params = transcript.params
    downloads = transcript.download_by_sender()
    dedicated = {n: downloads.get(f"server{n}", 0) for n in range(1, params.d + 1)}
    central = downloads.get("central", 0)
    total = sum(dedicated.values()) + central
    if total == 0:
        raise ConfigError("no downloads recorded")
    per_dedicated = sorted(set(dedicated.values()))
    load = Fraction(per_dedicated[-1], central) if central else INF
    return {
        "rate": Fraction(params.length, total),
        "load_ratio": load,
        "download_total": total,
        "download_dedicated": dedicated,
        "download_central": central,
        "randomness_allocated_chunks": transcript.pool_allocated_chunks,
        "randomness_allocated_symbols": transcript.pool_allocated_symbols,
        "randomness_consumed_chunks": len(transcript.consumed),
        "randomness_consumed_symbols": transcript.consumed_symbols(),
        "retries": transcript.retries,
        "attempts": transcript.attempts,
    }
