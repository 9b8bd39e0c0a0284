"""README's library example runs and prints what its comment states."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("\n## Library example\n"):]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.splitlines()[0] == "x^16 - 7x^13 + 14x^10 - 8x^7"
