"""Retrieval engine het1: one sub-packet per dedicated server.

Messages are split into D sub-packets. The central server gets KD groups,
one per candidate match set: every member message contributes a fresh,
privately permuted sub-packet, combined under a fresh uniform vector. Each
dedicated server n gets a single group with the same rows as the central
group for its own match set, but with the combining vector lifted by the
unit vector at the desired message's row.

Subtracting the central share from dedicated server n's share cancels all
interference and leaves exactly one sub-packet of the desired message, so
D shares from the dedicated side plus KD from the central side recover all
D sub-packets: rate 1/(K+1), per-server load ratio 1/(KD), and KL symbols
of shared randomness (one chunk per group, all consumed).
"""

from __future__ import annotations

from ..access import id_set, match_set, message_index, public_part
from ..errors import ConfigError
from .base import (
    FreshIndexCounter,
    PlanGroup,
    answer_query,  # every engine's answer path: it reads the context's view
    build_plan,
    decode,  # every engine's decode: it evaluates plan.decoding
)

SCHEME = "het1"
QUERIES_CENTRAL = True


def subpackets(d: int) -> int:
    """Sub-packets per message: one per dedicated server."""
    return d


def pool_labels(params) -> list[tuple]:
    """One ("nk", n, k) chunk per candidate match set, sorted."""
    return [("nk", n, k)
            for n in range(1, params.d + 1) for k in range(1, params.k + 1)]


def trace(v_star, params, source):
    """The plan's structure, its vectors drawn from the symbolic `source`.
    Returns (groups per server, decoding table); see base.PlanTrace."""
    desired = message_index(v_star, params)
    values = tuple(v_star[:params.d])
    public = public_part(v_star, params)
    counter = FreshIndexCounter(subpackets(params.d))

    central_groups: list[PlanGroup] = []
    by_nk: dict[tuple[int, int], tuple[int, PlanGroup]] = {}
    for n in range(1, params.d + 1):
        for k in range(1, params.k + 1):
            ids = match_set(n, k, public, params)
            g = PlanGroup(ids, counter.indices(ids), source.fresh(len(ids)))
            by_nk[(n, k)] = (len(central_groups), g)
            central_groups.append(g)

    groups = {params.central: central_groups}
    decoding = {}
    for n in range(1, params.d + 1):
        central_index, base = by_nk[(n, values[n - 1])]
        l = base.row_of(desired)
        groups[n] = [PlanGroup(base.ids, base.logical, source.add_unit(base.vector, l))]
        decoding[base.logical[l - 1]] = ((n, 0, 1), (params.central, central_index, -1))
    return groups, decoding


def build(v_star, params, rng):
    """User-side query construction: the memoized trace evaluated on the
    user stream `rng`. Returns (plan, wire queries per server)."""
    return build_plan(SCHEME, v_star, params, rng)


def label_table(server, params, public, own_value) -> dict[frozenset, tuple]:
    """Every server's pad labels, keyed by the message set of a group: the
    KD candidate match sets, one ("nk", n, k) chunk each."""
    table = {}
    for n in range(1, params.d + 1):
        for k in range(1, params.k + 1):
            key = id_set(match_set(n, k, public, params))
            if key in table:
                raise ConfigError("ambiguous candidate sets")
            table[key] = (("nk", n, k),)
    return table
