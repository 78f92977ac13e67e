"""Retrieval engine het2: the pairwise layer plus a central server (D >= 3).

Messages are split into M = D(D+1)/2 sub-packets. The 2-subsets of [D] are
covered by a cycle (each server in exactly two cycle pairs) plus the rest;
the cycle is oriented so each server has one outgoing partner.

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

Decoding runs in three stages:
  1. central share minus the sum of the K concatenated dedicated shares
     gives one desired sub-packet per server (pads cancel: the central
     pad is exactly the sum of those K chunks);
  2. cycle-pair twin differences give c * (w(i2) - w(i1)) where c is the
     shared vector's coordinate at the desired row, so the unknown one of
     the two follows by a division. The D coordinates c are the user's own
     draws, recorded as the plan's divisors; a plan with c = 0 anywhere is
     not `decodable`, and the harness redraws it before sending anything;
  3. rest-pair twin differences yield their shared sub-packet directly.

Stages recover D + D + (M - 2D) = M sub-packets. Rate (D+1)/(2KD), load
ratio (D-1)/D, allocated randomness C(D,2) K^2 chunks of L/M symbols.
"""

from __future__ import annotations

from array import array

from ..access import (
    build_partition,
    match_set,
    message_index,
    pair_set,
    participating_ids,
    public_part,
)
from ..errors import ConfigError
from ..randomness import canonical_pair_label, chunk_length, subpacket_count
from . import dapac
from .base import (
    FreshIndexCounter,
    PlanGroup,
    RetrievalPlan,
    ServerContext,
    VectorSource,
    answer_with_labels,
    draw_permutations,
    pseudo_vstar,
)

SCHEME = "het2"


def build(v_star, params, rng, partition=None, source=None):
    """User-side query construction. Returns (plan, wire queries per server)."""
    chunk_length(SCHEME, params)
    sub = subpacket_count(SCHEME, params)
    d = params.d
    desired = message_index(v_star, params)
    values = tuple(v_star[:d])
    if partition is None:
        partition = build_partition(d)
    source = source or VectorSource(params.q, rng)

    perms = draw_permutations(participating_ids(params, public_part(v_star, params)),
                              sub, rng)
    counter = FreshIndexCounter(sub)
    groups, index, twins = dapac.dedicated_groups(v_star, params, source, counter,
                                                  cycle=partition.cycle)

    # central groups: per server the concatenation toward its outgoing
    # partner at the verified value, fresh groups at the other values
    central = d + 1
    groups[central] = []
    stage1 = {}
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
                twin = twins[(min(n, m0), max(n, m0))]
                stage1[n] = {
                    "central_gi": len(groups[central]),
                    "ded_gis": gis,
                    "logical": twin["i1"] if n < m0 else twin["i2"],
                }
            else:
                rows = []
                for k2 in range(1, params.k + 1):
                    for msg in pair_set(n, m0, k, k2, v_star, params):
                        rows.append((msg, counter.next(msg)))
                cg = PlanGroup(("central", n, k), rows, source.fresh(len(rows)))
            groups[central].append(cg)

    # stage 2a knows one of a cycle pair's two indices from stage 1
    stage2a = [dict(twins[(n, m)], known="i1" if partition.outgoing(n) == m else "i2")
               for n, m in partition.cycle]
    stage2b = [twins[p] for p in partition.rest]

    plan = RetrievalPlan(SCHEME, params, tuple(v_star), sub, perms, groups,
                         decode_info={"stage1": stage1, "stage2a": stage2a,
                                      "stage2b": stage2b, "partition": partition},
                         divisors=tuple((st["vector"], st["row"]) for st in stage2a))
    return plan, plan.wire_queries()


def _central_table(ctx: ServerContext) -> dict[frozenset, list]:
    if ctx.partition is None:
        raise ConfigError("central server needs the public pair partition")
    ref = pseudo_vstar(ctx)
    table = {}
    for n in range(1, ctx.params.d + 1):
        m0 = ctx.partition.outgoing(n)
        for k in range(1, ctx.params.k + 1):
            key = frozenset(match_set(n, k, ref, ctx.params))
            table[key] = [canonical_pair_label(n, m0, k, k2)
                          for k2 in range(1, ctx.params.k + 1)]
    return table


def answer_query(ctx: ServerContext, query):
    table = _central_table(ctx) if ctx.is_central else dapac.label_table(ctx)
    return answer_with_labels(ctx, query, table)


def decode(plan: RetrievalPlan, answers: dict, field) -> array:
    info = plan.decode_info
    central = plan.params.central
    decoded = {}

    for n, st in info["stage1"].items():
        total = answers[central][st["central_gi"]].payload
        for gi in st["ded_gis"]:
            total = field.vec_sub(total, answers[n][gi].payload)
        decoded[st["logical"]] = total

    for st in info["stage2a"]:
        low_server, low_gi = st["lower"]
        high_server, high_gi = st["higher"]
        diff = field.vec_sub(answers[high_server][high_gi].payload,
                             answers[low_server][low_gi].payload)
        c = st["vector"][st["row"] - 1]
        gap = field.vec_scale(field.inv(c), diff)  # w(i2) - w(i1)
        if st["known"] == "i1":
            decoded[st["i2"]] = field.vec_add(decoded[st["i1"]], gap)
        else:
            decoded[st["i1"]] = field.vec_sub(decoded[st["i2"]], gap)

    decoded.update(dapac.rest_twin_subpackets(info["stage2b"], answers, field))
    return plan.assemble(decoded)
