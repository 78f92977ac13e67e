"""Pool allocation counts, canonical labels, determinism."""

from __future__ import annotations

import pytest

from hetdapac.access import SystemParams
from hetdapac.errors import ConfigError, DivisibilityError
from hetdapac.randomness import allocate, canonical_pair_label, chunk_length
from hetdapac.schemes import engine

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
P432 = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)


def test_subpacket_counts():
    # chunk_length divides L by the count its scheme's engine defines
    assert engine("het1").subpackets(2) == 2
    assert engine("het1").subpackets(3) == 3
    assert engine("het2").subpackets(3) == 6
    assert engine("dapac").subpackets(3) == 3
    assert chunk_length("het1", P432) == 2
    with pytest.raises(ConfigError, match="D >= 3"):
        chunk_length("het2", P322)  # D=2
    with pytest.raises(ConfigError, match="unknown scheme tag"):
        chunk_length("nope", P322)


def test_chunk_length_divisibility():
    assert chunk_length("het1", P322) == 1
    assert chunk_length("het2", P432) == 1
    with pytest.raises(DivisibilityError) as err:
        chunk_length("het2", SystemParams(n_attrs=4, d=3, k=2, length=4))
    assert err.value.minimal_length == 6


def test_allocation_counts():
    # single-subpacket scheme: KD chunks of L/D symbols = KL symbols
    pool = allocate("het1", P322, (2,), seed=5)
    assert pool.allocated_chunks == 2 * 2
    assert pool.allocated_symbols == 2 * P322.length
    # pairwise schemes: C(D,2) K^2 chunks
    pool2 = allocate("het2", P432, (2,), seed=5)
    assert pool2.allocated_chunks == 3 * 4
    assert pool2.allocated_symbols == 12
    pool3 = allocate("dapac", SystemParams(n_attrs=3, d=3, k=2, length=3), (), seed=5)
    assert pool3.allocated_chunks == 12
    assert pool3.allocated_symbols == 12


def test_canonical_pair_labels():
    assert canonical_pair_label(1, 2, 1, 2) == ("pair", 1, 2, 1, 2)
    assert canonical_pair_label(2, 1, 2, 1) == ("pair", 1, 2, 1, 2)
    with pytest.raises(ConfigError):
        canonical_pair_label(1, 1, 1, 1)
    # either orientation of a pair names the same chunk
    assert canonical_pair_label(3, 1, 2, 1) == canonical_pair_label(1, 3, 1, 2)


def test_pool_determinism_and_independence():
    a = allocate("het1", P322, (2,), seed=123)
    b = allocate("het1", P322, (2,), seed=123)
    c = allocate("het1", P322, (2,), seed=124)
    d = allocate("het1", P322, (1,), seed=123)
    assert a.chunks == b.chunks
    assert a.chunks != c.chunks
    assert a.chunks != d.chunks


def test_chunks_distinct_at_large_q():
    pool = allocate("het2", SystemParams(n_attrs=5, d=4, k=3, q=65537, length=10),
                    (1,), seed=77)
    values = list(pool.chunks.values())
    assert len(set(map(tuple, values))) == len(values)


def test_chunk_streams_independent_at_small_q():
    # two fixed labels collide with frequency ~ 1/q^len across seeds;
    # 2000 seeds at q=3, len=1: expected 666.7, sigma 21.1, allow 3 sigma
    params = SystemParams(n_attrs=3, d=2, k=2, q=3, length=2)
    label_a = ("nk", 1, 1)
    label_b = ("nk", 2, 2)
    hits = 0
    trials = 2000
    for seed in range(trials):
        pool = allocate("het1", params, (1,), seed=seed)
        if pool.chunk(label_a) == pool.chunk(label_b):
            hits += 1
    expected = trials / 3
    sigma = (trials * (1 / 3) * (2 / 3)) ** 0.5
    assert abs(hits - expected) <= 3 * sigma


def test_unknown_chunk_label_is_refused():
    pool = allocate("het1", P322, (2,), seed=5)
    with pytest.raises(ConfigError, match=r"unknown chunk label \('nk', 9, 9\)"):
        pool.chunk(("nk", 9, 9))


def test_zeros_like():
    pool = allocate("het1", P322, (2,), seed=5)
    zero = pool.zeros_like()
    assert set(zero.chunks) == set(pool.chunks)
    assert all(v == (0,) for v in zero.chunks.values())
