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

from ..access import match_set, message_index, participating_ids, public_part
from ..errors import ConfigError
from ..randomness import chunk_length, subpacket_count
from .base import (
    DecodeRetry,
    FreshIndexCounter,
    PlanGroup,
    RetrievalPlan,
    ServerContext,
    VectorSource,
    answer_with_labels,
    draw_permutations,
    pseudo_vstar,
)

SCHEME = "het1"


def subpackets(params) -> int:
    return subpacket_count(SCHEME, params)


def build(v_star, params, rng, partition=None, source=None):
    """User-side query construction. Returns (plan, wire queries per server)."""
    chunk_length(SCHEME, params)  # validates divisibility
    sub = subpackets(params)
    desired = message_index(v_star, params)
    values = tuple(v_star[:params.d])
    source = source or VectorSource(params.q, rng)

    perms = draw_permutations(participating_ids(params, public_part(v_star, params)),
                              sub, rng)
    counter = FreshIndexCounter(sub)

    central_groups: list[PlanGroup] = []
    by_nk: dict[tuple[int, int], tuple[int, PlanGroup]] = {}
    for n in range(1, params.d + 1):
        for k in range(1, params.k + 1):
            members = match_set(n, k, v_star, params)
            rows = [(m, counter.next(m)) for m in members]
            g = PlanGroup(("nk", n, k), rows, source.fresh(len(members)))
            by_nk[(n, k)] = (len(central_groups), g)
            central_groups.append(g)

    groups = {params.central: central_groups}
    decode_steps = {}
    for n in range(1, params.d + 1):
        central_index, base = by_nk[(n, values[n - 1])]
        l = base.row_of(desired)
        lifted = PlanGroup(base.label, list(base.rows), source.add_unit(base.vector, l))
        groups[n] = [lifted]
        decode_steps[n] = (central_index, base.logical_of(desired))

    plan = RetrievalPlan(SCHEME, params, tuple(v_star), sub, perms, groups,
                         decode_info=decode_steps)
    return plan, plan.wire_queries()


def _label_table(ctx: ServerContext) -> dict[frozenset, list]:
    table = {}
    ref = pseudo_vstar(ctx)
    for n in range(1, ctx.params.d + 1):
        for k in range(1, ctx.params.k + 1):
            key = frozenset(match_set(n, k, ref, ctx.params))
            if key in table:
                raise ConfigError("ambiguous candidate sets")
            table[key] = [("nk", n, k)]
    return table


def answer_query(ctx: ServerContext, query):
    return answer_with_labels(ctx, query, _label_table(ctx))


def decode(plan: RetrievalPlan, answers: dict, field) -> tuple[int, ...]:
    """Subtract central shares from dedicated shares and reassemble."""
    central = answers[plan.params.central]
    decoded = {}
    for n in range(1, plan.params.d + 1):
        central_index, logical = plan.decode_info[n]
        sub = field.vec_sub(answers[n][0].payload, central[central_index].payload)
        decoded[logical] = sub
    if len(decoded) != plan.subpackets:
        raise DecodeRetry("duplicate sub-packet indices")  # cannot happen by construction
    return plan.assemble(decoded)
