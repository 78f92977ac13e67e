"""Retrieval engine het2: the pairwise layer plus a central server (D >= 3).

Messages are split into M = D(D+1)/2 sub-packets. The 2-subsets of [D] are
split by `access.build_partition(D)`, a fixed function of D, into the cycle
(1,2), ..., (D-1,D), (1,D), which holds each server in exactly two pairs,
and the rest; server n's outgoing partner is n mod D + 1. The build and
the central server's label table both read it.

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
     drawn from F_q \\ {0} (see base.VectorSource), so every plan decodes;
  3. a rest pair's twin difference is its shared sub-packet directly.

Stages recover D + D + (M - 2D) = M sub-packets. Rate (D+1)/(2KD), load
ratio (D-1)/D, allocated randomness C(D,2) K^2 chunks of L/M symbols.
"""

from __future__ import annotations

from ..access import (
    build_partition,
    id_set,
    match_set,
    message_index,
    pair_set,
    public_part,
)
from ..randomness import canonical_pair_label, chunk_length, subpacket_count
from . import dapac
from .base import (
    FreshIndexCounter,
    PlanGroup,
    RetrievalPlan,
    answer_query,  # every engine's answer path: it reads ctx.table
    decode,  # every engine's decode: it evaluates plan.decoding
    user_draws,
)

SCHEME = "het2"


def build(v_star, params, rng, source=None):
    """User-side query construction. Returns (plan, wire queries per server)."""
    chunk_length(SCHEME, params)
    sub = subpacket_count(SCHEME, params)
    d = params.d
    desired = message_index(v_star, params)
    values = tuple(v_star[:d])
    public = public_part(v_star, params)
    partition = build_partition(d)

    perms, source = user_draws(rng, params, public, sub, source)
    counter = FreshIndexCounter(sub)
    groups, index, twins, decoding = dapac.dedicated_groups(
        v_star, params, source, counter, cycle=partition.cycle)
    i1, i2, _ = dapac.desired_index_map(partition.cycle, d)

    # central groups: per server the concatenation toward its outgoing
    # partner at the verified value, fresh groups at the other values
    central = d + 1
    groups[central] = []
    for n in range(1, d + 1):
        m0 = partition.outgoing(n)
        km0 = values[m0 - 1]
        for k in range(1, params.k + 1):
            if k == values[n - 1]:
                gis = [index[(n, m0, k2)] for k2 in range(1, params.k + 1)]
                rows = []
                blocks = []
                for k2, gi in enumerate(gis, start=1):
                    g = groups[n][gi]
                    if k2 == km0:
                        blocks.append(source.add_unit(g.vector, g.row_of(desired)))
                    else:
                        blocks.append(g.vector)
                    rows.extend(g.rows)
                cg = PlanGroup(("central", n, k), rows, source.concat(blocks))
                logical = i1[(n, m0)] if n < m0 else i2[(m0, n)]
                decoding[logical] = ((central, len(groups[central]), 1),
                                     *((n, gi, -1) for gi in gis))
            else:
                rows = []
                for k2 in range(1, params.k + 1):
                    rows += counter.rows(pair_set(n, m0, k, k2, public, params))
                cg = PlanGroup(("central", n, k), rows, source.fresh(len(rows)))
            groups[central].append(cg)

    # stage 1 knows one index of each cycle pair, and the twin difference
    # (higher - lower) / c = w(i2) - w(i1) gives the other
    for pair in partition.cycle:
        lower, higher = twins[pair]
        owner = groups[lower[0]][lower[1]]
        inv = source.inverse(owner.vector, owner.row_of(desired))
        neg = None if inv is None else -inv  # None: a symbolic plan
        if partition.outgoing(pair[0]) == pair[1]:
            decoding[i2[pair]] = (*decoding[i1[pair]], (*higher, inv), (*lower, neg))
        else:
            decoding[i1[pair]] = (*decoding[i2[pair]], (*higher, neg), (*lower, inv))

    plan = RetrievalPlan(SCHEME, params, tuple(v_star), sub, perms, groups, decoding,
                         source.redraws)
    return plan, plan.wire_queries()


def label_table(server, params, public, own_value) -> dict[frozenset, list]:
    """A server's pad labels, keyed by the message set of a group.

    Dedicated servers use the pairwise layer's table. The central server's
    group at match set (n, k) names the K chunks of n's pair toward its
    outgoing partner at value k, whose sum is its pad.
    """
    if server != params.central:
        return dapac.label_table(server, params, public, own_value)
    partition = build_partition(params.d)
    table = {}
    for n in range(1, params.d + 1):
        m0 = partition.outgoing(n)
        for k in range(1, params.k + 1):
            key = id_set(match_set(n, k, public, params))
            table[key] = [canonical_pair_label(n, m0, k, k2)
                          for k2 in range(1, params.k + 1)]
    return table
