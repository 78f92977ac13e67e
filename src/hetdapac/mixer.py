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
so lambda = 0 is pure het1 and lambda = 1 is pure dapac. `MixPlan(params,
lam)` derives the split. Executed, each component is one (store segment,
pool) segment of the harness's segment runner, after a single verification
phase; an endpoint mix is a lone segment and so the very same run as the
pure scheme. For D >= 3 the frontier improves on that family by
time-sharing het2 with its neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

from .access import SystemParams, check_params, check_vector
from .errors import ConfigError, DivisibilityError
from .harness import INF, run_segments, store_segment
from .randomness import allocate
from .schemes import engine


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
    increasing load ratio; D and K are ints, D >= 1 and K >= 2."""
    if type(d) is not int or type(k) is not int or d < 1 or k < 2:
        raise ConfigError(f"need ints D >= 1 and K >= 2, got D={d!r}, K={k!r}")
    F = Fraction
    costs = {"het1": _Costs(F(1, d), F(k), F(k), F(k))}
    if d >= 3:
        costs["het2"] = _Costs(F(2 * k * (d - 1), d * (d + 1)), F(2 * k, d + 1),
                               F((d - 1) * k * k, d + 1),
                               F(2 * k * k + (d - 3) * (2 * k - 1), d + 1))
    if d >= 2:
        costs["dapac"] = _Costs(F(2 * k, d), F(0), F(k * k), F(2 * k - 1))
    return costs


def _fraction(x, what: str) -> Fraction:
    """`x` as a Fraction; anything Fraction refuses is a ConfigError."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError) as err:
        raise ConfigError(f"bad {what} {x!r}: {err}") from None


def _check_lambda(lam) -> Fraction:
    lam = _fraction(lam, "lambda")
    if not 0 <= lam <= 1:
        raise ConfigError(f"mix weight {lam} outside [0, 1]")
    return lam


def _lambda_costs(lam, d: int, k: int) -> _Costs:
    """The lambda:(1-lambda) mixture of dapac and het1; dapac needs D >= 2."""
    if d < 2:
        raise ConfigError(f"the lambda family mixes in dapac, which needs D >= 2, got D={d}")
    costs = scheme_costs(d, k)
    return costs["dapac"].mix(costs["het1"], _check_lambda(lam))


# Rate, allocated randomness and central download do not depend on D, so
# their wrappers evaluate the mixture at D = 2, the least D it exists at.

def rate_of_lambda(lam, k: int) -> Fraction:
    """Time-sharing rate 1/(K(1+lambda) + (1-lambda))."""
    return _lambda_costs(lam, 2, k).rate(2)


def load_ratio_of_lambda(lam, d: int, k: int):
    """Load ratio 1/(KD) + 2*lambda/(D(1-lambda)); infinity at lambda = 1."""
    return _lambda_costs(lam, d, k).load_ratio


def randomness_of_lambda(lam, k: int, length: int) -> Fraction:
    """Allocated shared-randomness symbols KL(lambda(K-1) + 1)."""
    return _lambda_costs(lam, 2, k).allocated * length


def dedicated_download_of_lambda(lam, d: int, k: int, length: int) -> Fraction:
    """Per-dedicated-server download ((2K-1)lambda + 1) L/D."""
    return _lambda_costs(lam, d, k).dedicated * length


def central_download_of_lambda(lam, k: int, length: int) -> Fraction:
    """Central download (1-lambda)KL."""
    return _lambda_costs(lam, 2, k).central * length


def _rate_at_load(ell, chain: list[_Costs], d: int) -> Fraction:
    """Rate of the mixture of adjacent chain points that has load ratio ell.

    The chain runs in increasing load ratio from het1, the minimum, to
    dapac, the infinite one, which needs D >= 2.
    """
    if len(chain) < 2:
        raise ConfigError(f"no load ratio tradeoff at D={d}: dapac needs D >= 2")
    if ell == INF:
        return chain[-1].rate(d)
    ell, low = _fraction(ell, "load ratio"), chain[0].load_ratio
    if ell < low:
        raise ConfigError(f"load ratio {ell} below the minimum {low}")
    a, b = next((a, b) for a, b in zip(chain, chain[1:]) if ell <= b.load_ratio)
    alpha = (ell * b.central - b.dedicated) / (
        (a.dedicated - b.dedicated) - ell * (a.central - b.central))
    return a.mix(b, alpha).rate(d)


def rate_of_load(ell, d: int, k: int) -> Fraction:
    """The time-sharing curve reparameterized by load ratio."""
    return _rate_at_load(ell, [_lambda_costs(lam, d, k) for lam in (0, 1)], d)


# ---------------------------------------------------------------- frontier

def frontier(d: int, k: int, grid: int = 50) -> list[tuple]:
    """(load ratio, rate) points along the het1/het2/dapac envelope.

    Each segment is swept in mixture weight; loads come out strictly
    increasing, ending at the pure-dapac point (inf, 1/(2K)).
    """
    costs = scheme_costs(d, k)
    if "het2" not in costs:
        raise ConfigError(f"the split-cover scheme needs D >= 3, got D={d}")
    if type(grid) is not int or grid < 2:
        raise ConfigError(f"grid needs at least two points per segment, got {grid!r}")
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
    """The dapac/het1 split of one (N, D, K, L) system at weight `lam`.

    `segments`, (scheme, params) in run order for each component of
    nonzero weight, is derived, never given; a segment's params are the
    plan's with its length, checked once here. A component of weight w/b
    (lambda = a/b in lowest terms, dapac a, het1 b - a) gets w·L/b symbols,
    which its s sub-packets divide when L is a multiple of b·s/gcd(w, s);
    otherwise the plan is refused with the smallest length that splits.
    """

    params: SystemParams
    lam: Fraction
    segments: tuple[tuple[str, SystemParams], ...] = field(init=False)

    def __post_init__(self):
        params, lam = check_params(self.params), _check_lambda(self.lam)
        a, b = lam.numerator, lam.denominator
        weights = [(scheme, w) for scheme, w in (("dapac", a), ("het1", b - a)) if w]
        if len(weights) > 1 and not params.has_central:
            raise ConfigError("a mixed run needs a central server for its het1 part")
        minimal = b * math.lcm(*(s // math.gcd(w, s) for scheme, w in weights
                                 for s in [engine(scheme).subpackets(params.d)]))
        if params.length % minimal:
            raise DivisibilityError(
                f"mix weight {lam} needs both segment lengths to split: "
                f"length must be a multiple of {minimal}, got {params.length}",
                minimal)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "segments", tuple(
            (scheme, replace(params, length=w * params.length // b)) for scheme, w in weights))


def plan_mix(params: SystemParams, lam) -> MixPlan:
    """`MixPlan(params, lam)`: the dapac and het1 segments of L, or a
    refusal naming the smallest length that splits."""
    return MixPlan(params, lam)


def run_time_shared(mix: MixPlan, v_star, store, seed):
    """Execute the mix: dapac on the first lambda*L symbols, het1 on the rest.

    Each component is one (store segment, pool) segment, with its own
    symbol range of the store (copied nowhere), randomness pool and query
    stream, all behind one verification phase. Returns (message,
    transcript, metrics) like run_protocol; with two components the
    retrieval records are tagged by segment, and an endpoint mix (lambda 0
    or 1) is exactly the pure run. As there, a stored symbol at or above q
    is answered as its residue mod q, so the decoded message is the
    stored one mod q.
    """
    if not isinstance(mix, MixPlan):
        raise ConfigError(f"mix must be a MixPlan, got {mix!r}")
    params = mix.params
    public = tuple(check_vector(v_star, params)[params.d:])
    segments = []
    start = 0
    for scheme, segment_params in mix.segments:
        length = segment_params.length
        segments.append((store_segment(store, start, start + length),
                         allocate(scheme, segment_params, public, seed)))
        start += length
    return run_segments(params, v_star, seed, segments)
