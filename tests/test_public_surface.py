"""The public names the package exports and the benchmark calls, and
how each public callable refuses malformed input.

The benchmark in perfbench/ is not part of this suite, so a renamed or
dropped entry point it relies on would otherwise only show up there.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import hetdapac
import hetdapac.audit
from hetdapac import AccessRefusal, ConfigError


def test_every_exported_name_resolves():
    missing = [name for name in hetdapac.__all__ if not hasattr(hetdapac, name)]
    assert missing == []


def test_benchmark_entry_points_exist():
    for name in ("rate_of_lambda", "load_ratio_of_lambda", "plan_mix",
                 "run_time_shared", "run_protocol", "random_store",
                 "message_index"):
        assert callable(getattr(hetdapac, name)), name
    for name in ("closed_forms", "suite_privacy", "suite_secrecy", "suite_counts"):
        assert callable(getattr(hetdapac.audit, name)), name


# Malformed calls to every public callable: each must raise ConfigError or
# AccessRefusal, never a bare Python exception, and never be accepted. A
# seed is refused unless its `repr` is the same in every process.
P = hetdapac.SystemParams(n_attrs=3, d=2, k=2, q=5, length=2)
V = (1, 2, 1)
STORE = hetdapac.random_store(P, 0)
MIX = hetdapac.plan_mix(P, 0)
MALFORMED = {
    "MixPlan": [(None, 0), (P, None), (P, "x"), (P, Fraction(3, 2)), (P, float("nan"))],
    "RandomnessPool": [("het3", P, {}), ("het1", hetdapac.SystemParams(3, 2, 2, length=3), {}),
                       ("het1", None, {}),
                       ("het1", hetdapac.SystemParams(3, 2, 2, length=4), {("nk", 1, 1): (0,)})],
    "SystemParams": [("3", 2, 2), (None, 2, 2), (3, 2, 2, 4), (3, 2, 2, 5, 0)],
    "Transcript": [(None,)],
    "accessible_messages": [(1, None, P), (1, V, None), ("1", V, P), (9, V, P), (1, (1, 2), P)],
    "allocate": [("het1", P, None, 0), ("het1", None, (1,), 0), ("het1", P, (1,), object()),
                 ("het3", P, (1,), 0), (["het1"], P, (1,), 0), ("het1", P, (9,), 0)],
    "derive_rng": [(object(),), (None,), (1.5,), ((1, [2]),)],
    "frontier": [(3, 2, 2.5), ("3", 2), (3, None), (2, 2), (0, 2), (3, 2, 1)],
    "frontier_rate": [("x", 3, 2), (None, 3, 2), (Fraction(1, 100), 3, 2), (1, 3.0, 2)],
    "load_ratio_of_lambda": [("x", 3, 2), (None, 3, 2), (2, 3, 2), (0, 1, 2), (0, 3, "2")],
    "message_index": [(None, P), (V, None), ((1, 2), P), ((1, 2, 3), P), ((1, 2, True), P)],
    "metrics_of": [(None,), (hetdapac.Transcript(P),)],
    "plan_mix": [(None, 0), (P, None), (P, "x"), (P, -1)],
    "random_store": [(P, object()), (None, 0), (P, 1.5)],
    "rate_of_lambda": [("x", 2), (None, 2), (0, "x"), (0, 1)],
    "rate_of_load": [("x", 3, 2), (None, 3, 2), (Fraction(1, 100), 3, 2), (1, 1, 2)],
    "run_protocol": [("het1", P, None, STORE, 0), ("het1", P, V, None, 0),
                     ("het1", P, V, STORE, object()), ("het1", None, V, STORE, 0),
                     ("het3", P, V, STORE, 0), ("het1", P, V, {}, 0),
                     ("het1", P, (1, 2), STORE, 0)],
    "run_time_shared": [(None, V, STORE, 0), (MIX, None, STORE, 0), (MIX, V, None, 0),
                        (MIX, V, STORE, object())],
    "unit_vector": [(0, 3), (4, 3), ("a", 3), (1, None)],
    "vector_of_index": [("a", P), (-1, P), (8, P), (1.0, P), (1, None)],
}


def test_every_public_callable_has_malformed_calls():
    callables = {name for name in hetdapac.__all__
                 if callable(obj := getattr(hetdapac, name))
                 and not (isinstance(obj, type) and issubclass(obj, BaseException))}
    assert callables == set(MALFORMED)


@pytest.mark.parametrize("name, args", [(name, args) for name, calls in MALFORMED.items()
                                        for args in calls],
                         ids=[f"{name}-{i}" for name, calls in MALFORMED.items()
                              for i in range(len(calls))])
def test_malformed_public_calls_are_refused(name, args):
    with pytest.raises((ConfigError, AccessRefusal)):
        getattr(hetdapac, name)(*args)
