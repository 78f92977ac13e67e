"""Prime-field arithmetic, the one sampler, and stream derivation.

Field elements are plain ints in [0, q), with q < 2^32. Combining
vectors, store messages and pool chunks are `array('I')`, one 4-byte
word per symbol. Answers and decoding share the kernels in
`schemes.base`, which pack long sub-packets into big-int lanes.

Every random draw of the package goes through one sampler, `WordStream`:
a private Mersenne Twister stream read ahead in batches of 32-bit words,
whose values are exactly what CPython's per-call draws on the same stream
would return. Its order is the per-call order of a plan: first the
permutations `random.shuffle` makes, one per participating message, then
the symbols `randrange(q)` returns for the combining vectors. Stores and
pools ask it for symbols only: a store as one column (`uniform_column`),
a pool as one array per chunk (`uniform_arrays`).

A batch is one big int of 32-bit lanes, and no Python loop visits a word
(moduli above 2^31 aside, see `WordStream.take`): permutation draws come
from one regular-expression pass over the words' top bits, symbols from
shifting, rejection-testing and compacting whole lanes. Reading ahead is safe because every stream is private to one
store, pool or plan (a plan's is `derive_rng(seed, "user", ..., 0)`)
and is thrown away after it: words read and not served are
never used anywhere.

Index convention: unit vectors and row positions are 1-based, matching
the way query structures are written everywhere else in the package.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from array import array
from codecs import utf_32_le_decode
from functools import lru_cache
from itertools import chain

from .errors import ConfigError

# q < 2^32, so one unsigned 32-bit word holds a symbol
MAX_MODULUS = 1 << 32
# words per batch at most: large enough to amortize the call, small
# enough that a whole store is never drawn, as bytes, at once
BATCH_WORDS = 65536


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..37, which is exact for every n
    below 3.3 * 10^24, far past the 32-bit moduli a symbol holds."""
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in PRIME_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def unit_vector(l: int, length: int) -> tuple[int, ...]:
    """e_l of the given length, 1-based: unit_vector(2, 3) == (0, 1, 0)."""
    if type(l) is not int or type(length) is not int or not 1 <= l <= length:
        raise ConfigError(f"unit position {l!r} out of range [1, {length!r}]")
    return tuple(1 if i == l else 0 for i in range(1, length + 1))


def little_endian(words: array) -> array:
    """`words` with each item's bytes in little-endian order, the order
    of `getrandbits` words and of `int.to_bytes(..., "little")`: on a
    big-endian host a byte-swapped copy (the swap is its own inverse)."""
    if sys.byteorder == "big":
        words = array(words.typecode, words)
        words.byteswap()
    return words


def lane_ones(lanes: int) -> int:
    """The int with a 1 at the bottom of each of `lanes` 32-bit lanes."""
    return int.from_bytes(b"\x01\x00\x00\x00" * lanes, "little")


def lanes_at_or_above(ones: int, bound: int):
    """The lane test against `bound`, 1 <= bound < 2^31, for ints of as
    many 32-bit lanes as `ones` (`lane_ones`) has: a function of x that
    is 0 exactly when every lane of x is below `bound`, and otherwise
    has its lowest set bit in the first lane that is not. x is read mod
    2^(32·lanes), so a negative x stands for its two's complement.

    With b = bound.bit_length() <= 31, the test is x + (2^b - bound in
    every lane), OR-ed with x, masked to bits b to 31 of every lane. A
    lane of x below 2^b carries into no other lane, and its sum reaches
    bit b exactly when the lane is at least `bound`; a lane at or above
    2^b has such a bit in x itself. Only such a lane can carry into the
    next one, so every lane below the first one at or above `bound`
    reads 0.
    """
    b = bound.bit_length()
    high, lift = ones * ((1 << 32) - (1 << b)), ones * ((1 << b) - bound)
    return lambda x: (x + lift | x) & high


class _Shuffle(dict):
    """What shuffling [1..size] takes, built once per size by `_shuffle`.

    `random.shuffle` swaps position i, from size - 1 down to 1, with
    `_randbelow(i + 1)`: the top k = (i + 1).bit_length() bits of one
    word, redrawn while they exceed i. A word is written as the character
    of its top K = size.bit_length() bits, c; its top k bits are
    c >> (K - k), so position i accepts exactly the characters below
    (i + 1) << (K - k). One permutation is then `pattern`: for each i,
    any run of rejected characters followed by one accepted character,
    captured. Every character is either accepted or rejected there, so
    the pattern is deterministic and fails only where the words run out.

    `orders` turns the captures into one flat column of permutations. Up
    to size 6 this dict memoizes each order, an `array('I')`, by its
    captures, and the column is their bytes joined, so no Python runs per
    permutation; a capture keeps the low bits its position ignores, so
    size 6 has 2880 keys (about 0.7 MB) for its 720 orders. Up to size
    255 `_lanes` swaps all the permutations at once, which costs more per
    plan than a memo lookup on a few messages; larger sizes, which no
    store of feasible size has, are swapped one permutation at a time.
    """

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self.top = size.bit_length()
        # (position i, shift from a character to the top k bits of its word)
        self.steps = [(i, self.top - (i + 1).bit_length()) for i in range(size - 1, 0, -1)]
        self.expected = sum((1 << (self.top - shift)) / (i + 1) for i, shift in self.steps)
        self.pattern = re.compile("".join(
            f"[\\U{cut:08x}-\\U{(1 << self.top) - 1:08x}]*([\\U00000000-\\U{cut - 1:08x}])"
            for cut in [(i + 1) << shift for i, shift in self.steps]))

    def orders(self, rounds, count: int) -> array:
        """The permutations of `rounds`, split results of `pattern`: per
        match the empty text before it and its size - 1 captures, then
        the words left over. One flat column, permutation p at
        [p * size, (p + 1) * size)."""
        if self.size <= 6 or self.top > 8:
            return array("I", b"".join(chain.from_iterable(
                map(self.__getitem__, zip(*[iter(parts)] * self.size)) for parts in rounds)))
        return self._lanes(rounds, count)

    def __missing__(self, key):
        # key[0] is the empty text before the permutation's captures
        x = list(range(1, self.size + 1))
        for (i, shift), c in zip(self.steps, key[1:]):
            j = ord(c) >> shift
            x[i], x[j] = x[j], x[i]
        order = array("I", x)
        if self.size <= 6:
            self[key] = order
        return order

    def _lanes(self, rounds, count: int) -> array:
        """All `count` orders at once: position p of every permutation is
        one int of byte lanes, x[p], and each swap is a masked exchange
        between whole ints. Byte j of x[p] is word j * size + p of the
        column, so each x[p] is written into the column's bytes with one
        strided slice.

        The characters position i drew are every size-th part from its
        capture on. A character c swaps position i with j = c >> shift,
        and one `translate` marks the lanes whose j is p. Those lanes of
        x[p] and x[i] exchange values: d = (x[p] ^ x[i]) & mask flips
        both, and the masks of one step are disjoint, so x[i] takes all
        its flips at once.
        """
        size = self.size
        x = [int.from_bytes(bytes([v]) * count, "little") for v in range(1, size + 1)]
        for capture, (i, shift) in enumerate(self.steps, start=1):
            drawn = "".join(["".join(parts[capture::size]) for parts in rounds]).encode("latin-1")
            width = 1 << shift
            old = x[i]
            flips = 0
            for p in range(i):
                marks = bytes(p * width) + b"\xff" * width + bytes(256 - (p + 1) * width)
                d = (x[p] ^ old) & int.from_bytes(drawn.translate(marks), "little")
                x[p] ^= d
                flips |= d
            x[i] = old ^ flips
        column = bytearray(4 * count * size)
        for p, v in enumerate(x):
            column[4 * p::4 * size] = v.to_bytes(count, "little")
        return little_endian(array("I", column))


@lru_cache(maxsize=64)
def _shuffle(size: int) -> _Shuffle:
    return _Shuffle(size)


class WordStream:
    """One private stream of 32-bit Mersenne Twister words, read ahead.

    It serves `permutations` first and `take` after, and each value is
    exactly what the same stream would return to the per-call draws:
    `random.shuffle` of [1..size] for a permutation, `randrange(q)` for a
    symbol (see the module docstring for why reading ahead is safe).
    The first batch is sized, with a margin, for the permutations and
    `symbols` symbols announced up front, and every later batch for
    what is still announced, so a small plan reads one small batch.
    """

    def __init__(self, rng: random.Random, q: int, symbols: int,
                 permutations: int = 0, size: int = 1):
        self.rng = rng
        self.q = q
        self._words_per_symbol = (1 << q.bit_length()) / q
        self._left = symbols        # symbols announced and not yet accepted
        self._bits = 0              # words read, unserved: word i in bits [32i, 32i + 32)
        self._words = 0
        self._symbols = array("I")  # symbols accepted, not yet taken from _at on
        self._at = 0
        self._masks = {}            # lane count -> `take`'s LANE, ONES and ADD
        self._read((permutations and permutations * _shuffle(size).expected)
                   + symbols * self._words_per_symbol)

    def _read(self, words: float):
        """Append a batch of about `words` words, at most BATCH_WORDS, with
        a margin of about three standard deviations, so that a batch sized
        for a plan's draws rarely needs a second one."""
        n = min(BATCH_WORDS, int(words + 3 * words ** 0.5) + 8)
        bits = self.rng.getrandbits(32 * n)
        self._bits = self._bits | bits << (32 * self._words) if self._words else bits
        self._words += n

    def permutations(self, count: int, size: int) -> array:
        """`count` permutations of [1..size], each what `random.shuffle`
        makes of that list, as one flat `array('I')`: permutation p is
        [p * size, (p + 1) * size). Size 1 draws nothing. They come
        before any symbol, as they do on the per-call stream."""
        if self._symbols or self._at:
            raise ValueError("permutations are drawn before any symbol")
        if size < 2 or not count:
            return array("I", range(1, size + 1)) * count
        shuffle = _shuffle(size)
        rounds = []
        done = 0
        while True:
            n = self._words
            lane = int.from_bytes(((1 << shuffle.top) - 1).to_bytes(4, "little") * n, "little")
            chars = ((self._bits >> (32 - shuffle.top)) & lane).to_bytes(4 * n, "little")
            parts = shuffle.pattern.split(utf_32_le_decode(chars, "surrogatepass")[0], count - done)
            rounds.append(parts)
            done += (len(parts) - 1) // size
            self._bits >>= 32 * (n - len(parts[-1]))
            self._words = len(parts[-1])
            if done == count:
                return shuffle.orders(rounds, count)
            self._read((count - done) * shuffle.expected)

    def take(self, n: int) -> array:
        """The next `n` symbols of F_q, as an `array('I')`.

        Words become symbols a whole batch at a time. For b =
        q.bit_length() <= 32, CPython's `randrange(q)` is `getrandbits(b)`:
        one word shifted right by 32 - b, redrawn while >= q. For b <= 31
        the words are lanes of one int:

        - v = (bits >> (32 - b)) & LANE puts each word's top b bits, its
          candidate symbol, in the low bits of its own lane;
        - bit b of v + ADD is set exactly when the candidate is >= q,
          since ADD holds 2^b - q in every lane and a lane sum stays
          below 2^32;
        - lanes with that bit set become 0xFFFFFFFF, and deleting every
          4-byte 0xFF run from the little-endian bytes drops exactly
          those lanes: a kept lane is below 2^31, so its top byte is
          never 0xFF, every window starting inside it holds that byte,
          and each match (leftmost first, non-overlapping) is one whole
          rejected lane.

        For b = 32 a lane has no spare bit for the test, so those moduli
        keep a per-word filter.
        """
        at = self._at
        symbols = self._symbols
        if at + n > len(symbols):
            del symbols[:at]
            at = 0
            q = self.q
            b = q.bit_length()
            # a batch's intermediates stay bound until the next batch
            # replaces them: freed before the next batch was read, as in a
            # helper that returned them, a 15M-symbol store took about 10%
            # longer to draw on CPython 3.11
            while len(symbols) < n:
                if not self._words:
                    self._read(max(n - len(symbols), self._left) * self._words_per_symbol)
                words = self._words
                if b == 32:
                    kept = [w for w in little_endian(array("I", self._bits.to_bytes(4 * words, "little")))
                            if w < q]
                else:
                    if words not in self._masks:
                        ones = lane_ones(words)
                        self._masks[words] = (ones * ((1 << b) - 1), ones, ones * ((1 << b) - q))
                    lane, ones, add = self._masks[words]
                    v = (self._bits >> (32 - b)) & lane
                    reject = ((v + add) >> b) & ones
                    marked = (v | reject * 0xFFFFFFFF).to_bytes(4 * words, "little")
                    kept = little_endian(array("I", marked.replace(b"\xff" * 4, b"")))
                self._bits = self._words = 0
                self._left -= len(kept)
                symbols.extend(kept)
        self._at = at + n
        return symbols[at:at + n]


def uniform_arrays(rng: random.Random, q: int, length: int,
                   count: int) -> list[array]:
    """`count` arrays of `length` uniform symbols of F_q, 2 <= q < 2^32:
    exactly what `count * length` calls of `rng.randrange(q)` return, in
    order. `rng` must be a private stream, thrown away afterwards.

    Arrays of at most half a batch are taken a block of up to
    BATCH_WORDS symbols at a time and sliced from it, so a pool of
    one-symbol chunks costs a slice per chunk, not a `take`; a longer
    array is taken on its own, with no block to copy it out of.
    """
    take = WordStream(rng, q, length * count).take
    per = BATCH_WORDS // length if length else 0  # arrays a block holds
    if per < 2:
        return [take(length) for _ in range(count)]
    out = []
    for first in range(0, count, per):
        block = take(length * min(per, count - first))
        out += [block[at:at + length] for at in range(0, len(block), length)]
    return out


def uniform_column(rng: random.Random, q: int, size: int) -> array:
    """`size` uniform symbols of F_q, 2 <= q < 2^32, as one `array('I')`:
    exactly what `size` calls of `rng.randrange(q)` return, in order, so
    the concatenation of what `uniform_arrays` returns on the same stream.
    `rng` must be a private stream, thrown away afterwards.

    The column is made once, zeroed, and filled in place a block of up to
    BATCH_WORDS symbols at a time: no step holds it whole twice.
    """
    take = WordStream(rng, q, size).take
    column = array("I", [0]) * size
    for at in range(0, size, BATCH_WORDS):
        n = min(BATCH_WORDS, size - at)
        column[at:at + n] = take(n)
    return column


def _stable(seed) -> bool:
    return isinstance(seed, (int, str, bytes)) or type(seed) is tuple and all(map(_stable, seed))


def derive_rng(master_seed, *labels) -> random.Random:
    """An independent deterministic stream for (master seed, role labels).

    Streams for different label tuples never share state, so the user's
    query randomness, the servers' shared pool and the store contents
    can all be derived from one master seed without interference. The
    stream is a hash of the seed's `repr`, so a seed must be an int, str,
    bytes or a tuple of these, whose `repr` is the same in every process.
    """
    if not _stable(master_seed):
        raise ConfigError(f"seed must be an int, str, bytes or a tuple of these, "
                          f"got {master_seed!r}")
    tag = repr((master_seed,) + labels).encode()
    digest = hashlib.sha256(tag).digest()
    return random.Random(int.from_bytes(digest, "big"))
