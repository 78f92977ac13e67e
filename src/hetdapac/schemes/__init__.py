"""The three retrieval engines, keyed by scheme tag.

Each engine module is the one definition of its scheme:

  SCHEME            its tag;
  QUERIES_CENTRAL   whether its plans query the central server;
  subpackets(d)     sub-packets per message, refusing D below its bound;
  pool_labels(p)    the pad chunks the servers allocate for it;
  build, label_table, answer_query, decode
                    the user's plan, a server's pad table, the answer
                    path and the decode (the last two shared, in base.py).

het1:  one sub-packet per dedicated server, central download dominates.
dapac: the fully-dedicated pairwise baseline, no central download. Its
       module is also the pairwise layer: dedicated groups, twins, their
       label table, the pool and the rest-pair decode.
het2:  dapac's pairwise layer plus cycle twins and the central server,
       balanced downloads (D >= 3).

`engine` is the one place that refuses an unknown tag. `memo_bindings`
names the set helpers and label tables that the memoized traces and
server views call.
"""

from ..errors import ConfigError
from . import dapac, het1, het2

ENGINES = {
    "het1": het1,
    "het2": het2,
    "dapac": dapac,
}


def memo_bindings() -> tuple:
    """The set helpers and label tables that the memoized traces and
    server views call, as bound now: het1's match_set, het2's match_set
    (its central table), the pair_set of het2 and dapac (het2 traces
    dapac's pairwise layer too) and every engine's label_table.
    `base.MEMO` empties itself when one of them is rebound; see
    base.Memo."""
    return (het1.match_set, het2.match_set, het2.pair_set, dapac.pair_set,
            het1.label_table, het2.label_table, dapac.label_table)


def engine(scheme: str):
    if not isinstance(scheme, str) or scheme not in ENGINES:
        raise ConfigError(f"unknown scheme tag {scheme!r}")
    return ENGINES[scheme]
