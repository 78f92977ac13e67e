"""The public names the package exports and the benchmark calls.

The benchmark in perfbench/ is not part of this suite, so a renamed or
dropped entry point it relies on would otherwise only show up there.
"""

from __future__ import annotations

import hetdapac
import hetdapac.audit


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
