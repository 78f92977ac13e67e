"""The package runs on the standard library alone: importing it, its
audits and its CLI in a fresh interpreter must not load numpy."""

from __future__ import annotations

import os
import subprocess
import sys

import hetdapac

PROBE = (
    "import sys\n"
    "import hetdapac, hetdapac.audit, hetdapac.cli\n"
    "print('numpy' in sys.modules)\n"
)


def test_imports_do_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hetdapac.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["False"]
