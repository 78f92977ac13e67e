"""Per-symbol cost table, time-sharing algebra and executed mixed runs.

`scheme_costs` is the one accounting table: per message symbol, each
scheme downloads `dedicated` symbols from every dedicated server and
`central` from the central server, and allocates and consumes pad
symbols. Everything else is read off it. A pure scheme's rate is
1/(D*dedicated + central), its load ratio dedicated/central (infinite when
there is no central download), and each count is its field times L. A
time-shared mixture is the weighted sum of two records, so its load ratio
and rate follow the same way. All algebra is exact Fraction arithmetic;
the only float anywhere is the infinity sentinel INF.

The lambda family mixes dapac and het1: the first lambda*L symbols of each
message are retrieved with the pairwise dapac engine, the rest with het1,
so lambda = 0 is pure het1 and lambda = 1 is pure dapac. An executed mix
is a list of segments, one per component, run by the harness's segment
runner after a single verification phase; an endpoint mix is a lone
segment and so the very same run as the pure scheme. For D >= 3 the
frontier improves on that family by time-sharing het2 with its neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .access import SystemParams, check_vector
from .errors import ConfigError, DivisibilityError
from .harness import INF, run_segments, store_segment
from .randomness import allocate, subpacket_count


class _Costs(NamedTuple):
    """One scheme's cost per message symbol."""

    dedicated: Fraction  # download from each dedicated server
    central: Fraction    # download from the central server
    allocated: Fraction  # pad symbols the servers share
    consumed: Fraction   # pad symbols the answers use

    def mix(self, other: "_Costs", alpha) -> "_Costs":
        """The alpha:(1-alpha) time sharing of self and other."""
        return _Costs(*(alpha * a + (1 - alpha) * b for a, b in zip(self, other)))

    @property
    def load_ratio(self):
        return self.dedicated / self.central if self.central else INF

    def rate(self, d: int) -> Fraction:
        return 1 / (d * self.dedicated + self.central)


def scheme_costs(d: int, k: int) -> dict[str, _Costs]:
    """Per-message-symbol costs of every scheme defined at D servers, in
    increasing load ratio."""
    F = Fraction
    costs = {"het1": _Costs(F(1, d), F(k), F(k), F(k))}
    if d >= 3:
        costs["het2"] = _Costs(F(2 * k * (d - 1), d * (d + 1)), F(2 * k, d + 1),
                               F((d - 1) * k * k, d + 1),
                               F(2 * k * k + (d - 3) * (2 * k - 1), d + 1))
    costs["dapac"] = _Costs(F(2 * k, d), F(0), F(k * k), F(2 * k - 1))
    return costs


def _check_lambda(lam) -> Fraction:
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise ConfigError(f"mix weight {lam} outside [0, 1]")
    return lam


def _lambda_costs(lam, d: int, k: int) -> _Costs:
    """The lambda:(1-lambda) mixture of dapac and het1."""
    costs = scheme_costs(d, k)
    return costs["dapac"].mix(costs["het1"], _check_lambda(lam))


# Rate, allocated randomness and central download do not depend on D, so
# their wrappers evaluate the mixture at D = 1.

def rate_of_lambda(lam, k: int) -> Fraction:
    """Time-sharing rate 1/(K(1+lambda) + (1-lambda))."""
    return _lambda_costs(lam, 1, k).rate(1)


def load_ratio_of_lambda(lam, d: int, k: int):
    """Load ratio 1/(KD) + 2*lambda/(D(1-lambda)); infinity at lambda = 1."""
    return _lambda_costs(lam, d, k).load_ratio


def randomness_of_lambda(lam, k: int, length: int) -> Fraction:
    """Allocated shared-randomness symbols KL(lambda(K-1) + 1)."""
    return _lambda_costs(lam, 1, k).allocated * length


def dedicated_download_of_lambda(lam, d: int, k: int, length: int) -> Fraction:
    """Per-dedicated-server download ((2K-1)lambda + 1) L/D."""
    return _lambda_costs(lam, d, k).dedicated * length


def central_download_of_lambda(lam, k: int, length: int) -> Fraction:
    """Central download (1-lambda)KL."""
    return _lambda_costs(lam, 1, k).central * length


def _rate_at_load(ell, chain: list[_Costs], d: int) -> Fraction:
    """Rate of the mixture of adjacent chain points that has load ratio ell.

    The chain runs in increasing load ratio from het1, the minimum, to
    dapac, the infinite one.
    """
    if ell == INF:
        return chain[-1].rate(d)
    ell, low = Fraction(ell), chain[0].load_ratio
    if ell < low:
        raise ConfigError(f"load ratio {ell} below the minimum {low}")
    a, b = next((a, b) for a, b in zip(chain, chain[1:]) if ell <= b.load_ratio)
    alpha = (ell * b.central - b.dedicated) / (
        (a.dedicated - b.dedicated) - ell * (a.central - b.central))
    return a.mix(b, alpha).rate(d)


def rate_of_load(ell, d: int, k: int) -> Fraction:
    """The time-sharing curve reparameterized by load ratio."""
    costs = scheme_costs(d, k)
    return _rate_at_load(ell, [costs["het1"], costs["dapac"]], d)


# ---------------------------------------------------------------- frontier

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
    mixes = [costs["het1"].mix(costs["het2"], Fraction(i, first))
             for i in range(first, -1, -1)]
    # het2 -> dapac, skipping het2 itself
    mixes += [costs["het2"].mix(costs["dapac"], Fraction(i, grid - first))
              for i in range(grid - first - 1, -1, -1)]
    return [(m.load_ratio, m.rate(d)) for m in mixes]


def frontier_rate(ell, d: int, k: int) -> Fraction:
    """Envelope rate at one load ratio (Fraction or infinity)."""
    return _rate_at_load(ell, list(scheme_costs(d, k).values()), d)


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


def _minimal_mix_length(lam: Fraction, params: SystemParams) -> int:
    """Smallest L whose dapac and het1 segments both split into their
    sub-packets."""
    a, b = lam.numerator, lam.denominator
    het1 = subpacket_count("het1", params)
    if a == 0:
        return het1
    dapac = subpacket_count("dapac", params)
    if a == b:
        return dapac
    return b * math.lcm(dapac // math.gcd(a, dapac), het1 // math.gcd(b - a, het1))


def plan_mix(params: SystemParams, lam) -> MixPlan:
    """Split L into the dapac and het1 segments, or refuse with the
    smallest length that would satisfy both divisibility constraints."""
    lam = _check_lambda(lam)
    if 0 < lam < 1 and not params.has_central:
        raise ConfigError("a mixed run needs a central server for its het1 part")
    minimal = _minimal_mix_length(lam, params)
    if params.length % minimal:
        raise DivisibilityError(
            f"mix weight {lam} needs both segment lengths to split: "
            f"length must be a multiple of {minimal}, got {params.length}",
            minimal)
    dapac_len = int(lam * params.length)
    return MixPlan(params, lam, dapac_len, params.length - dapac_len)


def run_time_shared(mix: MixPlan, v_star, store, seed):
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
    return run_segments(params, v_star, seed, segments)
