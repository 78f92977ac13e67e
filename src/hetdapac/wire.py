"""Wire-level protocol objects and the bytes that carry them.

A query for one server is an ordered list of message groups. Each group
names rows of (message id, sub-packet index), held as two equal-length
`array('I')` columns, ids and indices, and carries one combining vector,
a third `array('I')` of one coefficient per row; the server's answer to
a group is a single sub-packet:

    share = sum_r vector[r] * subpacket(row r)  +  pad

Sub-packet indices on the wire are the user's privately permuted ones,
which is the whole point: the server learns nothing from them. Indices
are 1-based.

Every message is `bytes`. Queries and answers are frames of 4-byte
little-endian words, the same bytes on any host:

    query   server, group count, each group's row count,
            then per group its message ids, wire indices and vector
    answer  server, share count, symbols per share, then the symbols

A decoder checks each header count against the frame length before it
builds anything. The records are named tuples; having checked the frame,
a decoder builds each one with `tuple.__new__`, skipping the public
constructors' checks (a descriptor's equal columns hold by the frame's
row counts), so a decoded group costs three slices of the frame's words
and two tuples, whatever its rows. An encoder extends one `array('I')`
with every header word and column and converts it to bytes once; a
column may be any sequence of ints, a hand-built tuple too.
`frame_symbols` reads the symbols a frame carries off its group count
and length: one vector entry per query row, every answer word past the
header. The verification phase's messages (a committed
attribute value, the public part, the acknowledgement) carry none; they
are canonical JSON (sorted keys, no whitespace), written by the
`encode_*` functions here and checked on arrival by `decode_commit_value`
and `decode_public`.

A message's transcript digest is the sha256 of the bytes sent.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import NamedTuple

from .errors import ConfigError
from .field import little_endian


class _Columns(NamedTuple):
    ids: array
    indices: array


class MessageGroupDescriptor(_Columns):
    """Ordered rows as two columns: row r is (ids[r], indices[r]), a
    message id and its wire sub-packet index."""

    __slots__ = ()

    def __new__(cls, ids, indices):
        if len(ids) != len(indices):
            raise ConfigError(f"group has {len(ids)} message ids "
                              f"but {len(indices)} sub-packet indices")
        return tuple.__new__(cls, (ids, indices))

    @property
    def rows(self) -> tuple[tuple[int, int], ...]:
        """The (message id, wire index) rows, read-only."""
        return tuple(zip(self.ids, self.indices))


class QueryGroup(NamedTuple):
    descriptor: MessageGroupDescriptor
    vector: array             # one coefficient per row, array('I')


class QueryTuple(NamedTuple):
    """Everything one server receives in the retrieval phase."""

    server: int
    groups: tuple[QueryGroup, ...]


class AnswerShare(NamedTuple):
    server: int
    group_index: int          # position in the query's group list, 0-based
    payload: array            # one sub-packet of field symbols, array('I')


# builds a named tuple from its fields, without the class's own `__new__`
# and its checks: for producers that have just checked the shape
_new = tuple.__new__


def _words(frame, what: str) -> array:
    """A frame's words as one `array('I')`, copied once; a frame is
    `bytes` of whole 4-byte words."""
    if type(frame) is not bytes or len(frame) % 4:
        raise ConfigError(f"{what} payload is not a frame of whole 4-byte words")
    words = array("I")
    words.frombytes(frame)
    return little_endian(words)


def encode_query(query: QueryTuple) -> bytes:
    server, groups = query
    words = array("I", [server, len(groups)])
    extend = words.extend
    extend([len(ids) for (ids, _), _ in groups])
    for (ids, indices), vector in groups:
        extend(ids)
        extend(indices)
        extend(vector)
    return little_endian(words).tobytes()


def decode_query(frame) -> QueryTuple:
    """Inverse of encode_query; a malformed frame raises ConfigError."""
    words = _words(frame, "query")
    count = words[1] if len(words) >= 2 else -1
    at = 2 + count
    if not 0 <= count <= len(words) - 2 or at + 3 * sum(words[2:at]) != len(words):
        raise ConfigError("query frame is not server, group count, row counts and groups")
    groups = []
    for rows in words[2:2 + count]:
        indices, vector, end = at + rows, at + 2 * rows, at + 3 * rows
        groups.append(_new(QueryGroup, (
            _new(MessageGroupDescriptor, (words[at:indices], words[indices:vector])),
            words[vector:end])))
        at = end
    return _new(QueryTuple, (words[0], tuple(groups)))


def encode_answers(server: int, shares: list[AnswerShare]) -> bytes:
    words = array("I", [server, len(shares), len(shares[0].payload) if shares else 0])
    extend = words.extend
    for _, _, payload in shares:
        extend(payload)
    return little_endian(words).tobytes()


def decode_answers(frame) -> list[AnswerShare]:
    """Inverse of encode_answers, each payload an `array('I')` of any
    32-bit words; the receiver, which knows q, checks their range. A
    malformed frame raises ConfigError."""
    words = _words(frame, "answer")
    size = len(words)
    if size < 3 or words[1] > size - 3 or 3 + words[1] * words[2] != size:
        raise ConfigError("answer frame is not server, share count, share length and symbols")
    server, count, width = words[:3]
    return [_new(AnswerShare, (server, g, words[3 + g * width:3 + (g + 1) * width]))
            for g in range(count)]


def frame_symbols(kind: str, frame: bytes) -> int:
    """A message's symbols, undecoded: a query's vector entries (3 words a row
    past its group counts), an answer's share symbols (the words past its
    3-word header), none in JSON. Any bytes get a count: the transcript
    logs a message before it is judged."""
    words = len(frame) // 4
    if kind == "query":
        return max(0, (words - 2 - int.from_bytes(frame[4:8], "little")) // 3)
    return max(0, words - 3) if kind == "answer" else 0


# `json.dumps` builds a new encoder for any non-default argument; this one
# is built once and writes the same bytes
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> bytes:
    """Sorted keys, no whitespace."""
    return _CANONICAL.encode(obj).encode()


def encode_commit_value(position: int, value: int) -> bytes:
    return canonical_json({"position": position, "value": value})


def encode_public(public) -> bytes:
    return canonical_json({"public": list(public)})


def encode_ack(server: int) -> bytes:
    return canonical_json({"server": server})


def _entry(payload, key: str):
    """The `key` entry of a verification message: a JSON object in
    strict UTF-8, so no byte-order mark and no UTF-16 or UTF-32."""
    try:
        obj = json.loads(payload.decode()) if type(payload) is bytes else None
    except (ValueError, RecursionError):  # not UTF-8 or not JSON, or nested too deep
        obj = None
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"malformed verification payload, no {key!r}: {payload!r:.80}")
    return obj[key]


def _attribute(x, k: int) -> int:
    if type(x) is not int or not 1 <= x <= k:
        raise ConfigError(f"attribute value {x!r} is not an integer in [1, {k}]")
    return x


def decode_commit_value(payload, k: int) -> int:
    """The attribute value a dedicated server is committed: an integer in
    [1, k]; a malformed payload raises ConfigError."""
    return _attribute(_entry(payload, "value"), k)


def decode_public(payload, k: int, width: int) -> tuple[int, ...]:
    """The public part a commit or relay carries: a list of `width`
    integers in [1, k]; a malformed payload raises ConfigError."""
    public = _entry(payload, "public")
    if not isinstance(public, list) or len(public) != width:
        raise ConfigError(f"public part must be a list of {width} values, got {public!r}")
    return tuple(_attribute(x, k) for x in public)


def payload_digest(frame: bytes) -> str:
    return hashlib.sha256(frame).hexdigest()
