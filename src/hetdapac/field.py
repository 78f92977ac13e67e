"""Prime-field arithmetic and the small vector kit the protocols use.

Field elements are plain ints in [0, q), with q < 2^32. Combining vectors
are tuples of ints; store messages and pool chunks are `array('I')`, one
4-byte word per symbol, drawn in bulk by `uniform_arrays`: a batch of
Mersenne Twister words is one big int of 32-bit lanes, shifted,
rejection-tested and compacted by a few whole-int and bytes operations,
and the result is exactly the `randrange(q)` stream (q >= 2^31 keeps a
per-word filter, having no spare lane bit for the test). Answers and
decoding share the kernels in `schemes.base`, which pack long
sub-packets into big-int lanes.

Index convention: unit vectors and row positions are 1-based, matching
the way query structures are written everywhere else in the package.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array

# q < 2^32, so one unsigned 32-bit word holds a symbol
MAX_MODULUS = 1 << 32
# words per bulk draw: large enough to amortize the call, small enough
# that a whole store is never drawn, as bytes, at once
BATCH_WORDS = 65536


def is_prime(n: int) -> bool:
    """Trial division; entirely adequate for desk-scale moduli."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def unit_vector(l: int, length: int) -> tuple[int, ...]:
    """e_l of the given length, 1-based: unit_vector(2, 3) == (0, 1, 0)."""
    if not 1 <= l <= length:
        raise ValueError(f"unit position {l} out of range [1, {length}]")
    return tuple(1 if i == l else 0 for i in range(1, length + 1))


def sample_uniform_vector(length: int, rng: random.Random, q: int) -> tuple[int, ...]:
    """A fresh uniform vector in F_q^length from the given stream."""
    return tuple(rng.randrange(q) for _ in range(length))


def little_endian(words: array) -> array:
    """`words` with each item's bytes in little-endian order, the order
    of `randbytes` words and of `int.to_bytes(..., "little")`: on a
    big-endian host a byte-swapped copy (the swap is its own inverse)."""
    if sys.byteorder == "big":
        words = array(words.typecode, words)
        words.byteswap()
    return words


def uniform_arrays(rng: random.Random, q: int, length: int,
                   count: int) -> list[array]:
    """`count` arrays of `length` uniform symbols of F_q, 2 <= q < 2^32.

    They hold exactly what `count * length` calls of `rng.randrange(q)`
    return, in order. For b = q.bit_length() <= 32, CPython's
    `randrange(q)` is `getrandbits(b)`: one 32-bit Mersenne Twister word
    shifted right by 32 - b, redrawn while >= q. `getrandbits(32n)` holds
    the next n words, word i in bits [32i, 32i + 32) (`randbytes(4n)` is
    the same int as little-endian bytes).

    For b <= 31 a batch of n words is one int of n 32-bit lanes, and no
    Python loop visits a word:

    - v = (bits >> (32 - b)) & LANE puts each word's top b bits, its
      candidate symbol, in the low bits of its own lane;
    - bit b of v + ADD is set exactly when the candidate is >= q, since
      ADD holds 2^b - q in every lane and a lane sum stays below 2^32;
    - lanes with that bit set become 0xFFFFFFFF, and deleting every
      4-byte 0xFF run from the little-endian bytes drops exactly those
      lanes: a kept lane is below 2^31, so its top byte is never 0xFF,
      every window starting inside it holds that byte, and each match
      (leftmost first, non-overlapping) is one whole rejected lane.

    For b = 32 a lane has no spare bit for the test, so those moduli keep
    a per-word filter. The sampler reads past the last symbol it returns,
    so `rng` must be a private stream that is thrown away afterwards.
    """
    b = q.bit_length()
    shift = 32 - b
    masks = {}
    messages = []
    buf = array("I")
    remaining = length * count
    while len(messages) < count:
        while len(buf) < length:
            n = min(BATCH_WORDS, 2 * (remaining - len(buf)) + 8)
            if b == 32:
                words = little_endian(array("I", rng.randbytes(4 * n)))
                buf.extend([w for w in words if w < q])
                continue
            if n not in masks:
                # LANE, ONES and ADD: 2^b - 1, 1 and 2^b - q in every lane
                ones = int.from_bytes(b"\x01\x00\x00\x00" * n, "little")
                masks[n] = (ones * ((1 << b) - 1), ones, ones * ((1 << b) - q))
            lane, ones, add = masks[n]
            v = (rng.getrandbits(32 * n) >> shift) & lane
            reject = ((v + add) >> b) & ones
            marked = (v | reject * 0xFFFFFFFF).to_bytes(4 * n, "little")
            kept = marked.replace(b"\xff" * 4, b"")
            buf.extend(little_endian(array("I", kept)))
        messages.append(buf[:length])
        del buf[:length]
        remaining -= length
    return messages


def derive_rng(master_seed, *labels) -> random.Random:
    """An independent deterministic stream for (master seed, role labels).

    Streams for different label tuples never share state, so the user's
    query randomness, the servers' shared pool and the store contents
    can all be derived from one master seed without interference.
    """
    tag = repr((master_seed,) + labels).encode()
    digest = hashlib.sha256(tag).digest()
    return random.Random(int.from_bytes(digest, "big"))
