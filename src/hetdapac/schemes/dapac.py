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
               carries a second sub-packet; the owner's vector is drawn
               nonzero at the desired row, since het2 divides by it;
  rest pair:   same rows, vector lifted by the unit vector at the desired
               row, so the difference of the two shares is the one desired
               sub-packet both twins carry.

The desired message only ever appears in twin groups, under reserved
sub-packet indices: cycle pair p at sorted position pos gets (pos,
|cycle| + pos), rest pair p gets 2|cycle| + pos.

dapac is this layer with no cycle pairs: messages are split into C(D,2)
sub-packets, one per server pair (D >= 2), and every pair decodes as a
rest pair. The pool holds K^2 chunks per pair, of which 2K-1 distinct
ones are consumed. Rate 1/(2K); the central server is never queried
(QUERIES_CENTRAL), so it only verifies the public attributes. het2 adds
cycle pairs and the central server on top of the same layer and pool.
"""

from __future__ import annotations

from ..access import (
    all_pairs,
    id_set,
    message_index,
    ordered_complement,
    pair_set,
    public_part,
)
from ..errors import ConfigError
from ..randomness import canonical_pair_label
from .base import (
    FreshIndexCounter,
    PlanGroup,
    answer_query,  # every engine's answer path: it reads the context's view
    build_plan,
    decode,  # every engine's decode: it evaluates plan.decoding
)

SCHEME = "dapac"
QUERIES_CENTRAL = False


def subpackets(d: int) -> int:
    """Sub-packets per message: one per server pair, D >= 2."""
    if d < 2:
        raise ConfigError(f"scheme dapac needs D >= 2, got D={d}")
    return d * (d - 1) // 2


def pool_labels(params) -> list[tuple]:
    """The pairwise layer's K^2 chunks per server pair, sorted."""
    return [("pair", n, m, k, k2)
            for n, m in all_pairs(params.d)
            for k in range(1, params.k + 1) for k2 in range(1, params.k + 1)]


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
    """Every dedicated server's K(D-1) groups, each pair's twins, and the
    decoding of the rest pairs.

    Returns (groups, index, twins, decoding): groups[n] lists server n's
    groups in (m, k) order, index[(n, m, k)] is a group's position in
    groups[n], twins[(n, m)] for a cycle pair n < m is its (lower, higher)
    twin as (server, group index), and decoding maps each rest pair's
    index to the terms (higher, 1), (lower, -1) of its twin difference.
    """
    d = params.d
    desired = message_index(v_star, params)
    values = tuple(v_star[:d])
    public = public_part(v_star, params)
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
                    ids, logical = owner.ids, owner.logical
                    if (m, n) in i1:
                        # cycle twin: same vector, second desired sub-packet
                        logical = logical[:]
                        logical[l - 1] = i2[(m, n)]
                        vec = owner.vector
                    else:
                        # rest twin: identical rows, lifted vector
                        vec = source.add_unit(owner.vector, l)
                else:
                    # only the owner twin (m > n, k the far verified value)
                    # holds the desired message
                    ids = pair_set(n, m, values[n - 1], k, public, params)
                    nonzero = None
                    if desired in ids:
                        at = ids.index(desired)
                        logical = counter.indices(ids[:at] + ids[at + 1:])
                        logical.insert(at, first[(n, m)])
                        if (n, m) in i1:
                            # het2 divides by a cycle owner's desired coordinate
                            nonzero = at + 1
                    else:
                        logical = counter.indices(ids)
                    vec = source.fresh(len(ids), nonzero)
                index[(n, m, k)] = len(groups[n])
                groups[n].append(PlanGroup(ids, logical, vec))

    twins = {}
    decoding = {}
    for n, m in all_pairs(d):
        lower = (n, index[(n, m, values[m - 1])])
        higher = (m, index[(m, n, values[n - 1])])
        if (n, m) in ic:
            decoding[ic[(n, m)]] = ((*higher, 1), (*lower, -1))
        else:
            twins[(n, m)] = (lower, higher)
    return groups, index, twins, decoding


def trace(v_star, params, source):
    """The plan's structure, its vectors drawn from the symbolic `source`.
    Returns (groups per server, decoding table); see base.PlanTrace."""
    counter = FreshIndexCounter(subpackets(params.d))
    groups, _, _, decoding = dedicated_groups(v_star, params, source, counter)
    return groups, decoding


def build(v_star, params, rng):
    """User-side query construction: the memoized trace evaluated on the
    user stream `rng`. Returns (plan, wire queries per server)."""
    return build_plan(SCHEME, v_star, params, rng)


def label_table(server, params, public, own_value) -> dict[frozenset, tuple]:
    """A dedicated server's pad labels, keyed by the message set of a group.
    The pairwise layer asks the central server nothing (QUERIES_CENTRAL),
    so it has no table here."""
    table = {}
    for m in ordered_complement(server, params.d):
        for k in range(1, params.k + 1):
            key = id_set(pair_set(server, m, own_value, k, public, params))
            if key in table:
                raise ConfigError("ambiguous pair sets")
            table[key] = (canonical_pair_label(server, m, own_value, k),)
    return table
