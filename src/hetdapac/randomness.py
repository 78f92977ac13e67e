"""Server-side shared randomness: chunk allocation and lookup.

The servers pad every answer with chunks drawn from a pool they share among
themselves (the user never sees it). Labels come in two shapes:

  ("nk", n, k)            one chunk per candidate match set, used by the
                          single-subpacket scheme (KD chunks).
  ("pair", n, m, k, k2)   one chunk per ordered value pair of a server pair,
                          canonicalized so that (n, m, k, k2) with n > m is
                          stored as (m, n, k2, k). Used by the pairwise
                          schemes (C(D,2) * K^2 chunks).

A chunk holds length/subpackets field symbols, i.e. exactly one answer pad,
as an `array('I')`.
Allocation is deterministic in (seed, scheme, public part), modeling pads
agreed upon after the public attributes are relayed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

from .access import SystemParams, all_pairs
from .errors import ConfigError, DivisibilityError
from .field import derive_rng, uniform_arrays

Label = tuple


def canonical_pair_label(n: int, m: int, k: int, k2: int) -> Label:
    if n == m:
        raise ConfigError("pair label needs distinct servers")
    if n < m:
        return ("pair", n, m, k, k2)
    return ("pair", m, n, k2, k)


def subpacket_count(scheme: str, params: SystemParams) -> int:
    """Sub-packets per message for each scheme tag."""
    d = params.d
    if scheme == "het1":
        return d
    if scheme == "het2":
        if d < 3:
            raise ConfigError(f"scheme het2 needs D >= 3, got D={d}")
        return d * (d + 1) // 2
    if scheme == "dapac":
        if d < 2:
            raise ConfigError(f"scheme dapac needs D >= 2, got D={d}")
        return d * (d - 1) // 2
    raise ConfigError(f"unknown scheme tag {scheme!r}")


def chunk_length(scheme: str, params: SystemParams) -> int:
    s = subpacket_count(scheme, params)
    if params.length % s:
        minimal = s
        raise DivisibilityError(
            f"scheme {scheme} splits messages into {s} sub-packets, "
            f"which does not divide length {params.length}", minimal)
    return params.length // s


def pool_labels(scheme: str, params: SystemParams) -> list[Label]:
    """All chunk labels the scheme allocates, in canonical sorted order."""
    if scheme == "het1":
        return [("nk", n, k)
                for n in range(1, params.d + 1) for k in range(1, params.k + 1)]
    if scheme in ("het2", "dapac"):
        subpacket_count(scheme, params)  # validates D
        return [("pair", n, m, k, k2)
                for n, m in all_pairs(params.d)
                for k in range(1, params.k + 1) for k2 in range(1, params.k + 1)]
    raise ConfigError(f"unknown scheme tag {scheme!r}")


@dataclass(frozen=True)
class RandomnessPool:
    """Immutable chunk table for one retrieval.

    `allocate` holds each chunk as an `array('I')`; the answer path reads
    any sequence of ints, so the audit's zero and unit pools use tuples.
    """

    scheme: str
    params: SystemParams
    chunk_len: int
    chunks: dict[Label, Sequence[int]] = dc_field(repr=False)

    def chunk(self, label: Label) -> Sequence[int]:
        if label not in self.chunks:
            raise ConfigError(f"unknown chunk label {label!r}")
        return self.chunks[label]

    @property
    def allocated_chunks(self) -> int:
        return len(self.chunks)

    @property
    def allocated_symbols(self) -> int:
        return len(self.chunks) * self.chunk_len

    def labels(self) -> list[Label]:
        return sorted(self.chunks)

    def zeros_like(self) -> "RandomnessPool":
        zero = tuple(0 for _ in range(self.chunk_len))
        return RandomnessPool(self.scheme, self.params, self.chunk_len,
                              {label: zero for label in self.chunks})


def allocate(scheme: str, params: SystemParams, public: tuple[int, ...], seed) -> RandomnessPool:
    """Draw the full chunk table for one retrieval.

    The stream is derived from (seed, "server-shared", scheme, public part):
    independent of the user's query stream and of the store contents.
    """
    clen = chunk_length(scheme, params)
    rng = derive_rng(seed, "server-shared", scheme, tuple(public))
    labels = pool_labels(scheme, params)
    chunks = dict(zip(labels, uniform_arrays(rng, params.q, clen, len(labels))))
    return RandomnessPool(scheme, params, clen, chunks)

