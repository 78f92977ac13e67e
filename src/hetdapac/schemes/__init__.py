"""The three retrieval engines, keyed by scheme tag.

het1:  one sub-packet per dedicated server, central download dominates.
dapac: the fully-dedicated pairwise baseline, no central download. Its
       module is also the pairwise layer: dedicated groups, twins, their
       label table and the rest-pair decode.
het2:  dapac's pairwise layer plus cycle twins and the central server,
       balanced downloads (D >= 3).
"""

from ..errors import ConfigError
from . import dapac, het1, het2

ENGINES = {
    "het1": het1,
    "het2": het2,
    "dapac": dapac,
}


def engine(scheme: str):
    if scheme not in ENGINES:
        raise ConfigError(f"unknown scheme tag {scheme!r}")
    return ENGINES[scheme]
