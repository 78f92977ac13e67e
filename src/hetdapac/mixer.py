"""Time-sharing algebra and executed mixed runs.

A mix splits each message: the first lambda*L symbols are retrieved with
the pairwise dapac engine, the rest with het1, so lambda = 0 is pure het1
and lambda = 1 is pure dapac. An executed mix is a list of segments, one
per component, run by the harness's segment runner after a single
verification phase; an endpoint mix is a lone segment and so the very same
run as the pure scheme. All algebra is exact Fraction arithmetic; the only
float anywhere is the infinity sentinel for an absent central download.

The frontier improves on that family for D >= 3 by time-sharing het2 with
its neighbors instead: mixtures are taken in per-symbol download space,
where cost points combine linearly and the achieved load ratio and rate
follow directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .access import SystemParams, check_vector
from .errors import ConfigError, DivisibilityError
from .harness import DEFAULT_RETRY_CAP, run_segments, store_segment
from .randomness import allocate

INF = float("inf")


def _check_lambda(lam) -> Fraction:
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise ConfigError(f"mix weight {lam} outside [0, 1]")
    return lam


def rate_of_lambda(lam, k: int) -> Fraction:
    """Time-sharing rate 1/(K(1+lambda) + (1-lambda))."""
    lam = _check_lambda(lam)
    return 1 / (k * (1 + lam) + (1 - lam))


def load_ratio_of_lambda(lam, d: int, k: int):
    """Load ratio 1/(KD) + 2*lambda/(D(1-lambda)); infinity at lambda = 1."""
    lam = _check_lambda(lam)
    if lam == 1:
        return INF
    return Fraction(1, k * d) + 2 * lam / (d * (1 - lam))


def rate_of_load(ell, d: int, k: int) -> Fraction:
    """The time-sharing curve reparameterized by load ratio."""
    if ell == INF:
        return Fraction(1, 2 * k)
    ell = Fraction(ell)
    if ell < Fraction(1, k * d):
        raise ConfigError(f"load ratio {ell} below the minimum 1/(KD)")
    return 1 / (k + (ell * k * k * d + k) / (ell * k * d + 2 * k - 1))


def randomness_of_lambda(lam, k: int, length: int) -> Fraction:
    """Allocated shared-randomness symbols KL(lambda(K-1) + 1)."""
    lam = _check_lambda(lam)
    return k * length * (lam * (k - 1) + 1)


def dedicated_download_of_lambda(lam, d: int, k: int, length: int) -> Fraction:
    """Per-dedicated-server download ((2K-1)lambda + 1) L/D."""
    lam = _check_lambda(lam)
    return ((2 * k - 1) * lam + 1) * Fraction(length, d)


def central_download_of_lambda(lam, k: int, length: int) -> Fraction:
    """Central download (1-lambda)KL."""
    lam = _check_lambda(lam)
    return (1 - lam) * k * length


# ---------------------------------------------------------------- frontier

def scheme_costs(d: int, k: int) -> dict[str, tuple[Fraction, Fraction]]:
    """Per-message-symbol download (dedicated per server, central)."""
    costs = {
        "het1": (Fraction(1, d), Fraction(k)),
        "dapac": (Fraction(2 * k, d), Fraction(0)),
    }
    if d >= 3:
        costs["het2"] = (Fraction(2 * k * (d - 1), d * (d + 1)),
                         Fraction(2 * k, d + 1))
    return costs


def _mix_point(a, b, alpha: Fraction, d: int):
    """Load and rate of the alpha:(1-alpha) mixture of cost points a, b."""
    ded = alpha * a[0] + (1 - alpha) * b[0]
    cen = alpha * a[1] + (1 - alpha) * b[1]
    load = ded / cen if cen else INF
    return load, 1 / (d * ded + cen)


def frontier(d: int, k: int, grid: int = 50) -> list[tuple]:
    """(load ratio, rate) points along the het1/het2/dapac envelope.

    Each segment is swept in mixture weight; loads come out strictly
    increasing, ending at the pure-dapac point (inf, 1/(2K)).
    """
    if d < 3:
        raise ConfigError(f"the split-cover scheme needs D >= 3, got D={d}")
    if grid < 2:
        raise ConfigError("grid needs at least two points per segment")
    costs = scheme_costs(d, k)
    first = grid // 2
    points = []
    for i in range(first, -1, -1):           # het1 -> het2
        points.append(_mix_point(costs["het1"], costs["het2"],
                                 Fraction(i, first), d))
    for i in range(grid - first - 1, -1, -1):  # het2 -> dapac, skip het2 itself
        points.append(_mix_point(costs["het2"], costs["dapac"],
                                 Fraction(i, grid - first), d))
    return points


def frontier_rate(ell, d: int, k: int) -> Fraction:
    """Envelope rate at one load ratio (Fraction or infinity)."""
    if d < 3:
        return rate_of_load(ell, d, k)
    costs = scheme_costs(d, k)
    if ell == INF:
        return Fraction(1, 2 * k)
    ell = Fraction(ell)
    if ell < Fraction(1, k * d):
        raise ConfigError(f"load ratio {ell} below the minimum 1/(KD)")
    pair = (costs["het1"], costs["het2"]) if ell <= Fraction(d - 1, d) \
        else (costs["het2"], costs["dapac"])
    (d1, c1), (d2, c2) = pair
    alpha = (ell * c2 - d2) / ((d1 - d2) - ell * (c1 - c2))
    ded = alpha * d1 + (1 - alpha) * d2
    cen = alpha * c1 + (1 - alpha) * c2
    return 1 / (d * ded + cen)


# ---------------------------------------------------------------- execution

@dataclass(frozen=True)
class MixPlan:
    """A validated dapac/het1 split of one (N, D, K, L) system."""

    params: SystemParams
    lam: Fraction
    dapac_length: int
    het1_length: int

    @property
    def components(self) -> tuple[str, ...]:
        if self.lam == 0:
            return ("het1",)
        if self.lam == 1:
            return ("dapac",)
        return ("dapac", "het1")


def _minimal_mix_length(lam: Fraction, d: int) -> int:
    pairs = d * (d - 1) // 2
    a, b = lam.numerator, lam.denominator
    if a == 0:
        return d
    if a == b:
        return pairs
    t = math.lcm(pairs // math.gcd(a, pairs), d // math.gcd(b - a, d))
    return b * t


def plan_mix(params: SystemParams, lam) -> MixPlan:
    """Split L into the dapac and het1 segments, or refuse with the
    smallest length that would satisfy both divisibility constraints."""
    lam = _check_lambda(lam)
    if 0 < lam < 1 and not params.has_central:
        raise ConfigError("a mixed run needs a central server for its het1 part")
    minimal = _minimal_mix_length(lam, params.d)
    if params.length % minimal:
        raise DivisibilityError(
            f"mix weight {lam} needs both segment lengths to split: "
            f"length must be a multiple of {minimal}, got {params.length}",
            minimal)
    dapac_len = int(lam * params.length)
    return MixPlan(params, lam, dapac_len, params.length - dapac_len)


def run_time_shared(mix: MixPlan, v_star, store, seed,
                    retry_cap: int = DEFAULT_RETRY_CAP):
    """Execute the mix: dapac on the first lambda*L symbols, het1 on the rest.

    Each component is one segment with its own symbol range, randomness
    pool and query stream, all behind one verification phase. Returns
    (message, transcript, metrics) like run_protocol; with two components
    the retrieval records are tagged by segment, and an endpoint mix
    (lambda 0 or 1) is exactly the pure run.
    """
    params = mix.params
    public = tuple(check_vector(v_star, params)[params.d:])
    lengths = {"dapac": mix.dapac_length, "het1": mix.het1_length}
    segments = []
    start = 0
    for scheme in mix.components:
        seg_params = replace(params, length=lengths[scheme])
        segments.append((scheme, seg_params,
                         store_segment(store, start, start + seg_params.length),
                         allocate(scheme, seg_params, public, seed)))
        start += seg_params.length
    return run_segments(params, v_star, seed, segments, retry_cap)
