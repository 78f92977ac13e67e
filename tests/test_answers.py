"""Server answer path: malformed wire payloads and one label table per answer."""

from __future__ import annotations

import pytest

from hetdapac.access import SystemParams, build_partition
from hetdapac.errors import ConfigError
from hetdapac.field import derive_rng
from hetdapac.harness import ServerActor, random_store
from hetdapac.randomness import allocate
from hetdapac.schemes import dapac, het2
from hetdapac.wire import decode_answers, encode_query

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)


def verified_actor(server, scheme, params, v_star, partition=None, seed=0):
    actor = ServerActor(server, params)
    public = list(v_star[params.d:])
    if actor.is_central:
        actor.handle("attribute-commit", {"public": public})
    else:
        actor.handle("attribute-commit", {"value": v_star[server - 1]})
        if params.has_central:
            actor.handle("attribute-relay", {"public": public})
    actor.install_pool(allocate(scheme, params, tuple(public), seed),
                       random_store(params, seed), partition)
    return actor


GOOD_GROUP = {"rows": [[1, 1], [3, 1]], "vector": [1, 1]}


@pytest.mark.parametrize("payload", [
    {"groups": [GOOD_GROUP]},                                     # no server
    {"server": 1},                                                # no groups
    {"server": 1, "groups": [{"rows": [[1, 1], [3, 1]]}]},        # no vector
    {"server": 1, "groups": [{"vector": [1, 1]}]},                # no rows
    {"server": "1", "groups": [GOOD_GROUP]},                      # server not an int
    {"server": 1, "groups": [{"rows": [[1, 1], [3, 1]], "vector": [1, "x"]}]},
    {"server": 1, "groups": [{"rows": [[1, 1], [3, 1.5]], "vector": [1, 1]}]},
    {"server": 1, "groups": [{"rows": [[1, 1], [3, True]], "vector": [1, 1]}]},
    {"server": 1, "groups": [{"rows": [[1, 1], [3, 1, 2]], "vector": [1, 1]}]},
    {"server": 1, "groups": [{"rows": [[1, 1], 3], "vector": [1, 1]}]},
    {"server": 1, "groups": [{"rows": [[1, 1], "31"], "vector": [1, 1]}]},
    {"server": 1, "groups": [7]},
    [GOOD_GROUP],
])
def test_malformed_query_is_a_config_error(payload):
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    with pytest.raises(ConfigError):
        actor.handle("query", payload)


def test_well_formed_query_is_answered():
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    kind, reply, symbols = actor.handle("query", {"server": 1, "groups": [GOOD_GROUP]})
    assert kind == "answer" and symbols == 1
    assert [s.group_index for s in decode_answers(reply)] == [0]


@pytest.mark.parametrize("payload", [
    {"shares": []},
    {"server": 1},
    {"server": None, "shares": []},
    {"server": 1, "shares": [{"payload": [1]}]},
    {"server": 1, "shares": [{"group": 0}]},
    {"server": 1, "shares": [{"group": "0", "payload": [1]}]},
    {"server": 1, "shares": [{"group": 0, "payload": [1.0]}]},
    {"server": 1, "shares": [{"group": 0, "payload": 1}]},
    "answer",
])
def test_malformed_answers_are_a_config_error(payload):
    with pytest.raises(ConfigError):
        decode_answers(payload)


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_het2_central_answer_builds_its_label_table_once(monkeypatch):
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)
    v_star = (1, 2, 2, 1)
    partition = build_partition(3)
    actor = verified_actor(params.central, "het2", params, v_star, partition)
    _, queries = het2.build(v_star, params, derive_rng(0, "user", 0), partition=partition)
    calls = counting(monkeypatch, het2, "match_set")
    actor.handle("query", encode_query(queries[params.central]))
    assert len(calls) == params.k * params.d


def test_dapac_answer_builds_its_label_table_once(monkeypatch):
    params = SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)
    v_star = (2, 1, 2)
    actor = verified_actor(1, "dapac", params, v_star)
    _, queries = dapac.build(v_star, params, derive_rng(0, "user", 0))
    calls = counting(monkeypatch, dapac, "pair_set")
    actor.handle("query", encode_query(queries[1]))
    assert len(calls) == params.k * (params.d - 1)
