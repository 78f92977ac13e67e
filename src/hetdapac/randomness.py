"""Server-side shared randomness: chunk allocation and lookup.

The servers pad every answer with chunks drawn from a pool they share among
themselves (the user never sees it). A scheme's engine (see schemes/)
defines how many sub-packets a message splits into and which chunk labels
it allocates; this module sizes, draws and looks up the chunks. Labels
come in two shapes:

  ("nk", n, k)            one chunk per candidate match set, used by
                          het1 (KD chunks).
  ("pair", n, m, k, k2)   one chunk per ordered value pair of a server pair,
                          canonicalized so that (n, m, k, k2) with n > m is
                          stored as (m, n, k2, k). Used by the pairwise
                          schemes dapac and het2 (C(D,2) * K^2 chunks).

A chunk holds length/subpackets field symbols, i.e. exactly one answer pad,
as an `array('I')`; a pool derives that length from its scheme and params,
so no pool holds chunks of another.
Allocation is deterministic in (seed, scheme, public part), modeling pads
agreed upon after the public attributes are relayed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

from .access import SystemParams, check_params, check_vector
from .errors import ConfigError, DivisibilityError
from .field import derive_rng, uniform_arrays

Label = tuple


def canonical_pair_label(n: int, m: int, k: int, k2: int) -> Label:
    if n == m:
        raise ConfigError("pair label needs distinct servers")
    if n < m:
        return ("pair", n, m, k, k2)
    return ("pair", m, n, k2, k)


def chunk_length(scheme: str, params: SystemParams) -> int:
    """Symbols per sub-packet, and so per pad chunk: L over the scheme's
    sub-packet count, which must divide it."""
    from .schemes import engine
    s = engine(scheme).subpackets(params.d)
    if params.length % s:
        raise DivisibilityError(
            f"scheme {scheme} splits messages into {s} sub-packets, "
            f"which does not divide length {params.length}", s)
    return params.length // s


@dataclass(frozen=True)
class RandomnessPool:
    """Immutable chunk table for one retrieval.

    `chunk_len` is not given but derived, `chunk_length(scheme, params)`,
    so a pool is refused unless its scheme is known, its params are a
    SystemParams and the scheme's sub-packet count divides L; so is a
    chunk of any other length. `allocate` holds each chunk as an
    `array('I')`; the answer path reads any sequence of ints, so the
    audit's zero and unit pools use tuples.
    """

    scheme: str
    params: SystemParams
    chunks: dict[Label, Sequence[int]] = dc_field(repr=False)
    chunk_len: int = dc_field(init=False)

    def __post_init__(self):
        clen = chunk_length(self.scheme, check_params(self.params))
        for label, chunk in self.chunks.items():
            if len(chunk) != clen:
                raise ConfigError(f"chunk {label!r} holds {len(chunk)} symbols, "
                                  f"not the {clen} of a {self.scheme} pad")
        object.__setattr__(self, "chunk_len", clen)

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


def allocate(scheme: str, params: SystemParams, public: tuple[int, ...], seed) -> RandomnessPool:
    """Draw the full chunk table for one retrieval.

    The stream is derived from (seed, "server-shared", scheme, public part):
    independent of the user's query stream and of the store contents. A
    public part that is not a tuple or list, of the wrong width, or with
    a value outside [1, K], is refused.
    """
    from .schemes import engine
    if not isinstance(public, (tuple, list)):
        raise ConfigError(f"a public part is a tuple of attribute values, got {public!r}")
    public = tuple(public)
    if len(public) != check_params(params).n_attrs - params.d:
        raise ConfigError(f"expected a public part of {params.n_attrs - params.d} values, "
                          f"got {len(public)}")
    check_vector((1,) * params.d + public, params)  # each value an int in [1, K]
    clen = chunk_length(scheme, params)
    rng = derive_rng(seed, "server-shared", scheme, public)
    labels = engine(scheme).pool_labels(params)
    chunks = dict(zip(labels, uniform_arrays(rng, params.q, clen, len(labels))))
    return RandomnessPool(scheme, params, chunks)

