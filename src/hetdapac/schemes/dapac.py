"""The pairwise layer, and retrieval engine dapac built on it alone.

Dedicated server n gets K(D-1) groups, one per (other server m, far value
k): the messages agreeing with the verified value at n and with value k at
m, each contributing a fresh permuted sub-packet under a fresh vector.

For each pair {n, m} exactly one group on each side has the far value
matching (k = the verified value at the far server); those two groups are
twins. The lower server's twin owns the pair: its rows and vector are
fresh, and its pad chunk is shared with the higher server's twin, which
copies the owner in one of two ways:

  cycle pair:  same vector, same rows except that the desired message
               carries a second sub-packet;
  rest pair:   same rows, vector lifted by the unit vector at the desired
               row, so the difference of the two shares is the one desired
               sub-packet both twins carry.

The desired message only ever appears in twin groups, under reserved
sub-packet indices: cycle pair p at sorted position pos gets (pos,
|cycle| + pos), rest pair p gets 2|cycle| + pos.

dapac is this layer with no cycle pairs: messages are split into C(D,2)
sub-packets, one per server pair, and every pair decodes as a rest pair.
Per pair, 2K-1 distinct pad chunks are consumed out of the K^2 allocated.
Rate 1/(2K); the central server downloads nothing. het2 adds cycle pairs
and the central server on top of the same layer.
"""

from __future__ import annotations

from ..access import (
    all_pairs,
    message_index,
    ordered_complement,
    pair_set,
    participating_ids,
    public_part,
)
from ..errors import ConfigError
from ..randomness import canonical_pair_label, chunk_length, subpacket_count
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

SCHEME = "dapac"


def subpackets(params) -> int:
    return subpacket_count(SCHEME, params)


def desired_index_map(cycle, d: int):
    """Reserved sub-packet indices of the desired message, per sorted pair.

    Cycle pair p gets (i1, i2) = (pos, |cycle| + pos) by sorted position
    among the cycle pairs; rest pair p gets 2|cycle| + pos by sorted
    position among the rest. Together they cover [1, C(D,2) + |cycle|].
    """
    cycle = sorted(cycle)
    rest = [p for p in all_pairs(d) if p not in cycle]
    i1 = {p: pos for pos, p in enumerate(cycle, start=1)}
    i2 = {p: len(cycle) + pos for pos, p in enumerate(cycle, start=1)}
    ic = {p: 2 * len(cycle) + pos for pos, p in enumerate(rest, start=1)}
    return i1, i2, ic


def dedicated_groups(v_star, params, source, counter, cycle=()):
    """Every dedicated server's K(D-1) groups, and each pair's twins.

    Returns (groups, index, twins): groups[n] lists server n's groups in
    (m, k) order, index[(n, m, k)] is a group's position in groups[n], and
    twins[(n, m)] for n < m is the decode entry of the pair. Every entry
    names the "lower" and "higher" twin as (server, group index); a cycle
    entry adds the owner's desired "row" and "vector" and the pair's two
    indices "i1" and "i2", a rest entry adds its "logical" index.
    """
    d = params.d
    desired = message_index(v_star, params)
    values = tuple(v_star[:d])
    i1, i2, ic = desired_index_map(cycle, d)
    first = {**i1, **ic}

    groups = {n: [] for n in range(1, d + 1)}
    index: dict[tuple[int, int, int], int] = {}
    # servers in ascending order so twins find their owner
    for n in range(1, d + 1):
        for m in ordered_complement(n, d):
            for k in range(1, params.k + 1):
                if m < n and k == values[m - 1]:
                    owner = groups[m][index[(m, n, values[n - 1])]]
                    l = owner.row_of(desired)
                    rows = list(owner.rows)
                    if (m, n) in i1:
                        # cycle twin: same vector, second desired sub-packet
                        rows[l - 1] = (desired, i2[(m, n)])
                        vec = owner.vector
                    else:
                        # rest twin: identical rows, lifted vector
                        vec = source.add_unit(owner.vector, l)
                else:
                    # only the owner twin (m > n, k the far verified value)
                    # holds the desired message
                    rows = [(msg, first[(n, m)] if msg == desired else counter.next(msg))
                            for msg in pair_set(n, m, values[n - 1], k, v_star, params)]
                    vec = source.fresh(len(rows))
                index[(n, m, k)] = len(groups[n])
                groups[n].append(PlanGroup(("u", n, m, k), rows, vec))

    twins = {}
    for n, m in all_pairs(d):
        lower = index[(n, m, values[m - 1])]
        entry = {"pair": (n, m), "lower": (n, lower),
                 "higher": (m, index[(m, n, values[n - 1])])}
        if (n, m) in i1:
            owner = groups[n][lower]
            entry.update(row=owner.row_of(desired), vector=owner.vector,
                         i1=i1[(n, m)], i2=i2[(n, m)])
        else:
            entry["logical"] = ic[(n, m)]
        twins[(n, m)] = entry
    return groups, index, twins


def build(v_star, params, rng, partition=None, source=None):
    """User-side query construction. Returns (plan, wire queries per server)."""
    chunk_length(SCHEME, params)
    sub = subpackets(params)
    source = source or VectorSource(params.q, rng)

    perms = draw_permutations(participating_ids(params, public_part(v_star, params)),
                              sub, rng)
    groups, _, twins = dedicated_groups(v_star, params, source, FreshIndexCounter(sub))

    plan = RetrievalPlan(SCHEME, params, tuple(v_star), sub, perms, groups,
                         decode_info=twins)
    return plan, plan.wire_queries()


def label_table(ctx: ServerContext) -> dict[frozenset, list]:
    """A dedicated server's pad labels, keyed by the message set of a group."""
    if ctx.own_value is None:
        raise ConfigError("central server answers no pairwise-scheme queries")
    n = ctx.server
    ref = pseudo_vstar(ctx)
    table = {}
    for m in ordered_complement(n, ctx.params.d):
        for k in range(1, ctx.params.k + 1):
            key = frozenset(pair_set(n, m, ctx.own_value, k, ref, ctx.params))
            if key in table:
                raise ConfigError("ambiguous pair sets")
            table[key] = [canonical_pair_label(n, m, ctx.own_value, k)]
    return table


def answer_query(ctx: ServerContext, query):
    return answer_with_labels(ctx, query, label_table(ctx))


def rest_twin_subpackets(twins, answers: dict, field) -> dict:
    """Per rest pair, the higher twin's share minus the lower twin's."""
    decoded = {}
    for st in twins:
        low_server, low_gi = st["lower"]
        high_server, high_gi = st["higher"]
        decoded[st["logical"]] = field.vec_sub(answers[high_server][high_gi].payload,
                                               answers[low_server][low_gi].payload)
    return decoded


def decode(plan: RetrievalPlan, answers: dict, field) -> tuple[int, ...]:
    return plan.assemble(rest_twin_subpackets(plan.decode_info.values(), answers, field))
