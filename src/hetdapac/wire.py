"""Wire-level protocol objects: queries, answers, and their serialization.

A query for one server is an ordered list of message groups. Each group
names rows of (message id, sub-packet index) and carries one combining
vector; the server's answer to a group is a single sub-packet:

    share = sum_r vector[r] * subpacket(row r)  +  pad

Sub-packet indices on the wire are the user's privately permuted ones,
which is the whole point: the server learns nothing from them. Indices
are 1-based.

The verification phase's payloads (a committed attribute value, the
relayed public part) are checked on arrival by `decode_commit_value` and
`decode_public`.

An answer share travels as one binary frame: its payload is `bytes`,
the symbols' 4-byte little-endian words, and `decode_answers` turns it
back into an `array('I')` on any host. Every other field, and every query
and verification message, is canonical JSON (sorted keys, no whitespace).

A message's transcript digest is sha256 over its canonical JSON, each
`bytes` value written as its byte length, followed by those bytes in the
order they were written (share order). A message without frames hashes
its canonical JSON alone, so digests are stable byte-for-byte across runs
and hosts.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass

from .errors import ConfigError
from .field import little_endian


@dataclass(frozen=True)
class MessageGroupDescriptor:
    """Ordered rows of (message id, wire sub-packet index)."""

    rows: tuple[tuple[int, int], ...]

    def messages(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.rows)


@dataclass(frozen=True)
class QueryGroup:
    descriptor: MessageGroupDescriptor
    vector: tuple[int, ...]


@dataclass(frozen=True)
class QueryTuple:
    """Everything one server receives in the retrieval phase."""

    server: int
    groups: tuple[QueryGroup, ...]

    def upload_symbols(self) -> int:
        return sum(len(g.vector) for g in self.groups)


@dataclass(frozen=True)
class AnswerShare:
    server: int
    group_index: int          # position in the query's group list, 0-based
    payload: array            # one sub-packet of field symbols, array('I')


def encode_query(query: QueryTuple) -> dict:
    """The query as a JSON-ready dict. Rows and vectors stay the tuples
    they are: JSON writes a tuple as an array, so the canonical bytes
    are those of the list form, and `decode_query` takes either."""
    return {
        "server": query.server,
        "groups": [{"rows": g.descriptor.rows, "vector": g.vector} for g in query.groups],
    }


def _integer(x) -> int:
    if type(x) is not int:
        raise ConfigError(f"expected an integer, got {x!r}")
    return x


def _ints(values, what: str) -> tuple[int, ...]:
    # one pass in C over the item types: a bool or a float is refused
    # as `_integer` refuses it, without a call per item
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        raise ConfigError(f"expected integers as {what}")
    return values


def _group(g) -> QueryGroup:
    """One query group, each property checked in one pass over its rows."""
    rows = tuple(g["rows"])
    if not set(map(type, rows)) <= {list, tuple} or not set(map(len, rows)) <= {2}:
        raise ConfigError("expected (message, index) pairs as query rows")
    messages, indices = zip(*rows) if rows else ((), ())
    rows = tuple(zip(_ints(messages, "message ids"), _ints(indices, "sub-packet indices")))
    return QueryGroup(MessageGroupDescriptor(rows), _ints(g["vector"], "a combining vector"))


def decode_query(obj: dict) -> QueryTuple:
    """Inverse of encode_query; a malformed payload raises ConfigError."""
    try:
        groups = tuple(map(_group, obj["groups"]))
        return QueryTuple(server=_integer(obj["server"]), groups=groups)
    except (KeyError, TypeError) as err:
        raise ConfigError(f"malformed query payload: {err!r}") from err


def _entry(obj, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"malformed verification payload, no {key!r}: {obj!r}")
    return obj[key]


def _attribute(x, k: int) -> int:
    if not 1 <= _integer(x) <= k:
        raise ConfigError(f"attribute value {x} outside alphabet [1, {k}]")
    return x


def decode_commit_value(obj, k: int) -> int:
    """The attribute value a dedicated server is committed: an integer in
    [1, k]; a malformed payload raises ConfigError."""
    return _attribute(_entry(obj, "value"), k)


def decode_public(obj, k: int, width: int) -> tuple[int, ...]:
    """The public part a commit or relay carries: a list of `width`
    integers in [1, k]; a malformed payload raises ConfigError."""
    public = _entry(obj, "public")
    if not isinstance(public, list) or len(public) != width:
        raise ConfigError(f"public part must be a list of {width} values, got {public!r}")
    return tuple(_attribute(x, k) for x in public)


def encode_answers(shares: list[AnswerShare]) -> dict:
    """Each share's payload as one frame: its symbols' little-endian words."""
    return {
        "server": shares[0].server if shares else None,
        "shares": [{"group": s.group_index, "payload": little_endian(s.payload).tobytes()}
                   for s in shares],
    }


def _symbols(frame, server: int) -> array:
    """An answer frame as one `array('I')`: `bytes` of whole 4-byte words.
    Any word fits a symbol's 32 bits; the range of F_q is checked by the
    receiver, which knows q."""
    if type(frame) is not bytes or len(frame) % 4:
        raise ConfigError(f"server {server} sent an answer payload that is not "
                          f"a frame of whole 4-byte words")
    return little_endian(array("I", frame))


def decode_answers(obj: dict) -> list[AnswerShare]:
    """Inverse of encode_answers, with each payload an `array('I')`; a
    malformed payload raises ConfigError."""
    try:
        server = _integer(obj["server"])
        return [AnswerShare(server=server, group_index=_integer(s["group"]),
                            payload=_symbols(s["payload"], server))
                for s in obj["shares"]]
    except (KeyError, TypeError) as err:
        raise ConfigError(f"malformed answer payload: {err!r}") from err


def canonical_json(obj, frames: list) -> bytes:
    """Sorted keys, no whitespace; each `bytes` value is written as its
    byte length and appended to `frames`, in the order it is written."""
    def frame(value):
        if type(value) is not bytes:
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        frames.append(value)
        return len(value)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=frame).encode()


def payload_digest(obj) -> str:
    """sha256 over the canonical JSON of `obj`, then each frame in it."""
    frames = []
    header = canonical_json(obj, frames)
    return hashlib.sha256(b"".join([header, *frames])).hexdigest()
