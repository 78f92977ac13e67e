"""Attribute-verified private message retrieval over D+1 non-colluding servers.

Protocol engines for three retrieval schemes (het1, het2, dapac), a
two-phase simulation harness with structured transcripts, exact-rational
tradeoff algebra for time sharing between schemes, and exact audits for
correctness, attribute privacy and database secrecy.
"""

from .access import SystemParams, accessible_messages, message_index, vector_of_index
from .errors import (
    AccessRefusal,
    ConfigError,
    DivisibilityError,
)
from .field import derive_rng, unit_vector
from .harness import Transcript, metrics_of, random_store, run_protocol
from .mixer import (
    MixPlan,
    frontier,
    frontier_rate,
    load_ratio_of_lambda,
    plan_mix,
    rate_of_lambda,
    rate_of_load,
    run_time_shared,
)
from .randomness import RandomnessPool, allocate

__all__ = [
    "AccessRefusal",
    "ConfigError",
    "DivisibilityError",
    "MixPlan",
    "RandomnessPool",
    "SystemParams",
    "Transcript",
    "accessible_messages",
    "allocate",
    "derive_rng",
    "frontier",
    "frontier_rate",
    "load_ratio_of_lambda",
    "message_index",
    "metrics_of",
    "mixer",
    "plan_mix",
    "random_store",
    "rate_of_lambda",
    "rate_of_load",
    "run_protocol",
    "run_time_shared",
    "unit_vector",
    "vector_of_index",
]

__version__ = "0.1.0"
