"""Decode: every scheme's plan table, run by the answer kernels.

Each case retrieves and compares with the stored message, at the smallest
prime, a Fermat prime and the largest prime below 2^32 (packed lanes of
w = 3 words), with sub-packets below PACK_MIN_SYMBOLS (loop kernel) and
at it (packed kernel). The coefficients cover 1, -1 and, in het2, +-1/c.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hetdapac.access import SystemParams, message_index
from hetdapac.harness import random_store, run_protocol
from hetdapac.mixer import plan_mix, run_time_shared
from hetdapac.schemes.base import PACK_MIN_SYMBOLS

MODULI = (2, 65537, 4294967291)
# het2 at D = 3 splits into 6 sub-packets, het1 and dapac into 3, and the
# mix into two halves of 3 each: 1-2 symbols at L = 6, 32-64 at L = 192
LENGTHS = (6, 6 * PACK_MIN_SYMBOLS)
VECTORS = ((1, 1, 1, 1), (2, 1, 2, 2), (1, 2, 2, 1))


def retrieve(scheme, params, v_star, store, seed):
    if scheme == "mix":
        return run_time_shared(plan_mix(params, Fraction(1, 2)), v_star, store, seed)
    return run_protocol(scheme, params, v_star, store, seed)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("scheme", ["het1", "het2", "dapac", "mix"])
def test_decodes_the_stored_message(scheme, q, length):
    params = SystemParams(n_attrs=4, d=3, k=2, q=q, length=length)
    store = random_store(params, q + length)
    for seed, v_star in enumerate(VECTORS):
        message, _, _ = retrieve(scheme, params, v_star, store, seed)
        assert message == store[message_index(v_star, params)]


@pytest.mark.parametrize("length", LENGTHS)
def test_het2_redrawn_at_q2_decodes(length):
    params = SystemParams(n_attrs=4, d=3, k=2, q=2, length=length)
    store = random_store(params, 1)
    v_star = (2, 1, 2, 1)
    message, _, metrics = run_protocol("het2", params, v_star, store, seed=0)
    assert metrics["retries"] > 0
    assert message == store[message_index(v_star, params)]
