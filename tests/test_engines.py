"""The engine registry against the closed-form cost table, and a guard
that keeps scheme tags out of the modules every scheme passes through.

Each engine module is the one definition of its scheme; `scheme_costs`
is the independent oracle. The pool an engine allocates, and whether it
queries the central server, must agree with that oracle.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hetdapac
from hetdapac.access import SystemParams
from hetdapac.errors import ConfigError
from hetdapac.mixer import scheme_costs
from hetdapac.schemes import ENGINES, engine

INTERFACE = ("SCHEME", "QUERIES_CENTRAL", "subpackets", "pool_labels",
             "trace", "build", "label_table", "answer_query", "decode")

SHAPES = [(d, k) for d in range(1, 7) for k in (2, 3)]


@pytest.mark.parametrize("tag", sorted(ENGINES))
def test_every_engine_exposes_the_interface(tag):
    eng = engine(tag)
    missing = [name for name in INTERFACE if not hasattr(eng, name)]
    assert missing == []
    assert eng.SCHEME == tag


@pytest.mark.parametrize("d, k", SHAPES)
def test_pools_and_central_queries_match_the_oracle(d, k):
    costs = scheme_costs(d, k)
    for tag, cost in costs.items():
        eng = engine(tag)
        length = eng.subpackets(d)
        params = SystemParams(n_attrs=d + 1, d=d, k=k, length=length)
        labels = eng.pool_labels(params)
        assert len(labels) == len(set(labels)) and labels == sorted(labels)
        assert len(labels) * (length // eng.subpackets(d)) == cost.allocated * length
        assert eng.QUERIES_CENTRAL == (cost.central != 0)
    # a scheme the oracle leaves out at this D refuses it
    for tag in set(ENGINES) - set(costs):
        with pytest.raises(ConfigError, match=f"{tag} needs D >="):
            engine(tag).subpackets(d)


GUARDED = ("randomness.py", "harness.py", "access.py")


@pytest.mark.parametrize("name", GUARDED)
def test_no_scheme_tag_literals(name):
    """A scheme's facts live in its engine; these modules serve every
    scheme alike, so a tag literal in them is a scheme branch growing back."""
    source = Path(hetdapac.__file__).with_name(name).read_text()
    tags = [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in ENGINES]
    assert tags == []
