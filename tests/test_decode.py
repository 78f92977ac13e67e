"""Decode: every scheme's plan table, run by the two answer kernels.

Each case retrieves and compares with the stored message, at the smallest
prime, a Fermat prime and the largest prime below 2^32 (packed lanes of
w = 3 words), with sub-packets below PACK_MIN_SYMBOLS (gather kernel) and
at it (packed kernel). The coefficients cover 1, -1 and, in het2, +-1/c.
A builder's table that does not cover every sub-packet once is refused
when its plan is traced, before any query is sent.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hetdapac import harness
from hetdapac.access import SystemParams, message_index
from hetdapac.errors import ConfigError
from hetdapac.harness import random_store, run_protocol
from hetdapac.mixer import plan_mix, run_time_shared
from hetdapac.schemes import het2
from hetdapac.schemes.base import MEMO, PACK_MIN_SYMBOLS

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


# a builder's decoding table, keyed by logical sub-packet index, broken as
# a faulty builder would leave it: one sub-packet forgotten, one written
# twice (the second write lands on another's index), or one named past S
BROKEN_TABLES = {
    "misses": lambda table: table.pop(2),
    "repeats": lambda table: table.__setitem__(1, table.pop(2)),
    "outside": lambda table: table.__setitem__(len(table) + 1, table.pop(1)),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_TABLES))
def test_a_table_that_misses_or_repeats_a_sub_packet_is_refused_when_traced(
        broken, monkeypatch):
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)
    trace = het2.trace

    def broken_trace(v_star, params, source):
        groups, decoding = trace(v_star, params, source)
        BROKEN_TABLES[broken](decoding)
        return groups, decoding

    sent = []
    MEMO.clear()  # so the key is traced again, by the broken builder
    monkeypatch.setattr(het2, "trace", broken_trace)
    monkeypatch.setattr(harness, "encode_query", sent.append)
    with pytest.raises(ConfigError, match=r"het2 decodes sub-packets \[.*\], not 1\.\.6"):
        run_protocol("het2", params, (1, 2, 2, 1), random_store(params, 0), 0)
    assert sent == []
    assert not [key for key in MEMO.entries if key[0] == "trace"]
