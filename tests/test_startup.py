"""Importing hypermatch starts numpy's OpenBLAS with one thread when that
import is the one that loads numpy, leaves the environment as it found
it, and loads no module beyond numpy, its own and a pinned few of the
standard library. tests/conftest.py imports numpy before hypermatch, so each
check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypermatch

SRC = str(Path(hypermatch.__file__).resolve().parent.parent)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
READ_THREAD_VARIABLES = f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARIABLES!r}}}))"


def run_python(code: str, **env: str) -> str:
    """The standard output of code, run in a fresh interpreter whose
    environment holds none of the thread variables but those given."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def test_the_variable_is_gone_after_the_import():
    out = run_python("import json, os, sys, hypermatch; print('numpy' in sys.modules); " + READ_THREAD_VARIABLES)
    loaded, variables = out.splitlines()
    assert loaded == "True"
    assert json.loads(variables) == dict.fromkeys(THREAD_VARIABLES)


@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_a_callers_thread_count_stands(name):
    out = run_python("import json, os, hypermatch; " + READ_THREAD_VARIABLES, **{name: "3"})
    assert json.loads(out) == {v: "3" if v == name else None for v in THREAD_VARIABLES}


def test_numpy_imported_first_is_left_alone():
    # every write to os.environ during hypermatch's import is recorded
    out = run_python(
        "import os, numpy\n"
        "writes = []\n"
        "class Recorder(dict):\n"
        "    def __setitem__(self, key, value): writes.append(key); super().__setitem__(key, value)\n"
        "    def __delitem__(self, key): writes.append(key); super().__delitem__(key)\n"
        "os.environ = Recorder(os.environ)\n"
        "import hypermatch\n"
        "print(writes)"
    )
    assert out == "[]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
def test_one_thread_after_a_spectrum():
    out = run_python(
        "import os, hypermatch as hm; hm.spectral_summary(hm.family_w(3, 7).hg); "
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert out == "1"


# The standard-library modules that hypermatch's own modules import. What
# they load in turn differs between Python versions, so it is measured in
# the fresh interpreter itself. locale is not among them: argparse's
# messages load it when the CLI builds its parser, on the first main call.
STDLIB_IMPORTS = (
    "__future__", "argparse", "collections", "dataclasses", "functools", "inspect", "itertools",
    "json", "math", "operator", "os", "random", "sys", "time", "typing",
)


def test_import_loads_nothing_beyond_numpy_and_the_pinned_stdlib():
    # every set-up of the benchmark pays for what the import loads: one
    # more module, such as fractions or concurrent.futures, costs there
    out = run_python(
        "import json, sys, numpy\n"
        f"import {', '.join(STDLIB_IMPORTS)}\n"
        "before = set(sys.modules)\n"
        "import hypermatch, hypermatch.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    added = json.loads(out)
    assert "hypermatch.cli" in added
    assert [name for name in added if name != "hypermatch" and not name.startswith("hypermatch.")] == []
