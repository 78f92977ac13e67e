"""Golden output of the `curve` subcommand.

Each case hashes the whole stdout of `hetdapac curve --d D --k K --grid 12`.
The rows hold every anchor, both rate columns and every lambda formula for
downloads and randomness, so any change to the cost algebra moves a hash.
"""

from __future__ import annotations

import hashlib

import pytest

from hetdapac.cli import main

GOLDEN = {
    (2, 2): "cf8ac81e27cf7003f42529a6bcc759c413c4c636cdc230893266affa42afa8cd",
    (3, 2): "565952a8ec6841b6fca89885fa83c005884d9625e5291ea99e616b7e52e79841",
    (4, 3): "90d05021403e41e5ea55dc2780e63594ec473e73058d9fcb4856b559c5043be1",
    (5, 2): "d09f4ba50997ef17d27824566c0a244db41f00e6ea90c70aa7c81128c7318bcb",
    (6, 4): "e81add693be7ad3b7b7813a77c3ae6bb85178c874a8239d1a4b798fcda388c68",
}


@pytest.mark.parametrize("d,k", sorted(GOLDEN))
def test_curve_stdout_is_golden(d, k, capsys):
    assert main(["curve", "--d", str(d), "--k", str(k), "--grid", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(d, k)]
