"""Retrieval engine het2: the pairwise layer plus a central server (D >= 3).

Messages are split into M = D(D+1)/2 sub-packets (`subpackets`). The
2-subsets of [D] are split, as a fixed function of D, into the cycle
(1,2), ..., (D-1,D), (1,D) (`cycle_pairs`), which holds each server in
exactly two pairs, and the rest; server n's outgoing partner is
n mod D + 1. The build and the central server's label table both read it.
The pool is the pairwise layer's (`pool_labels`, dapac's), and unlike
dapac, het2 queries the central server (QUERIES_CENTRAL).

The dedicated groups, their twins and pads, the dedicated label table and
the rest-pair decode are dapac's pairwise layer, run with the cycle pairs
(see dapac.py). Per pair {n, m} the two far-value-matched groups are twins
holding the same rows for every message except the desired one:

  cycle pair:  the twins carry two distinct desired sub-packets (index i1
               on the lower server, i2 on the higher) under the very same
               combining vector.
  rest pair:   the twins are identical, sharing one desired sub-packet,
               and the higher twin's vector is lifted at the desired row.

het2 adds the central server, which gets KD groups, one per candidate
match set. At the verified value the group is the concatenation of server
n's K groups toward its outgoing partner (same rows, same sub-packet
indices), with the vector block at the partner's verified value lifted at
the desired row; at other values the group is fresh.
Its label table names, for match set (n, k), the K chunks of n's pair
toward that partner at value k.

Decoding is one table of share combinations (see base.py), written at
build time:
  1. central share minus the K concatenated dedicated shares gives one
     desired sub-packet per server (pads cancel: the central pad is
     exactly the sum of those K chunks);
  2. a cycle pair's twin difference is c * (w(i2) - w(i1)), c the shared
     vector's coordinate at the desired row; stage 1 recovers one of the
     two, so the other is that one's terms plus the twin difference
     scaled by +-1/c. The D coordinates c are the user's own draws, each
     drawn from F_q \\ {0} (see base.draw_symbols), so every plan decodes;
  3. a rest pair's twin difference is its shared sub-packet directly.

Stages recover D + D + (M - 2D) = M sub-packets. Rate (D+1)/(2KD), load
ratio (D-1)/D, allocated randomness C(D,2) K^2 chunks of L/M symbols.
"""

from __future__ import annotations

from array import array

from ..access import id_set, match_set, message_index, pair_set, public_part
from ..errors import ConfigError
from ..randomness import canonical_pair_label
from . import dapac
from .base import (
    FreshIndexCounter,
    PlanGroup,
    answer_query,  # every engine's answer path: it reads the context's view
    build_plan,
    decode,  # every engine's decode: it evaluates plan.decoding
)

SCHEME = "het2"
QUERIES_CENTRAL = True
pool_labels = dapac.pool_labels


def subpackets(d: int) -> int:
    """Sub-packets per message: two per cycle pair and one per rest pair,
    D(D+1)/2, D >= 3."""
    if d < 3:
        raise ConfigError(f"scheme het2 needs D >= 3, got D={d}")
    return d * (d + 1) // 2


def cycle_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The cycle {n, n mod D + 1} over n in [D], each pair (low, high), sorted."""
    return tuple(sorted([(n, n + 1) for n in range(1, d)] + [(1, d)]))


def trace(v_star, params, source):
    """The plan's structure, its vectors drawn from the symbolic `source`.
    Returns (groups per server, decoding table); see base.PlanTrace."""
    d = params.d
    desired = message_index(v_star, params)
    values = tuple(v_star[:d])
    public = public_part(v_star, params)
    cycle = cycle_pairs(d)
    counter = FreshIndexCounter(subpackets(d))
    groups, index, twins, decoding = dapac.dedicated_groups(
        v_star, params, source, counter, cycle=cycle)
    i1, i2, _ = dapac.desired_index_map(cycle, d)

    # central groups: per server the concatenation toward its outgoing
    # partner at the verified value, fresh groups at the other values
    central = d + 1
    groups[central] = []
    for n in range(1, d + 1):
        m0 = n % d + 1
        km0 = values[m0 - 1]
        for k in range(1, params.k + 1):
            if k == values[n - 1]:
                gis = [index[(n, m0, k2)] for k2 in range(1, params.k + 1)]
                gs = [groups[n][gi] for gi in gis]
                blocks = [source.add_unit(g.vector, g.row_of(desired)) if k2 == km0 else g.vector
                          for k2, g in enumerate(gs, start=1)]
                logical = array("I", [i for g in gs for i in g.logical])
                cg = PlanGroup(sum((g.ids for g in gs), ()), logical, source.concat(blocks))
                stage1 = i1[(n, m0)] if n < m0 else i2[(m0, n)]
                decoding[stage1] = ((central, len(groups[central]), 1),
                                     *((n, gi, -1) for gi in gis))
            else:
                ids = sum((pair_set(n, m0, k, k2, public, params)
                           for k2 in range(1, params.k + 1)), ())
                cg = PlanGroup(ids, counter.indices(ids), source.fresh(len(ids)))
            groups[central].append(cg)

    # stage 1 knows one index of each cycle pair, and the twin difference
    # (higher - lower) / c = w(i2) - w(i1) gives the other
    for pair in cycle:
        lower, higher = twins[pair]
        owner = groups[lower[0]][lower[1]]
        inv = source.inverse(owner.vector, owner.row_of(desired))
        if pair[0] % d + 1 == pair[1]:  # oriented lower -> higher
            decoding[i2[pair]] = (*decoding[i1[pair]], (*higher, inv), (*lower, -inv))
        else:
            decoding[i1[pair]] = (*decoding[i2[pair]], (*higher, -inv), (*lower, inv))
    return groups, decoding


def build(v_star, params, rng):
    """User-side query construction: the memoized trace evaluated on the
    user stream `rng`. Returns (plan, wire queries per server)."""
    return build_plan(SCHEME, v_star, params, rng)


def label_table(server, params, public, own_value) -> dict[frozenset, tuple]:
    """A server's pad labels, keyed by the message set of a group.

    Dedicated servers use the pairwise layer's table. The central server's
    group at match set (n, k) names the K chunks of n's pair toward its
    outgoing partner at value k, whose sum is its pad.
    """
    if server != params.central:
        return dapac.label_table(server, params, public, own_value)
    table = {}
    for n in range(1, params.d + 1):
        m0 = n % params.d + 1
        for k in range(1, params.k + 1):
            key = id_set(match_set(n, k, public, params))
            table[key] = tuple(canonical_pair_label(n, m0, k, k2)
                               for k2 in range(1, params.k + 1))
    return table
