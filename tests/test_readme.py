"""The README's library example runs as written, so it cannot drift from
the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert "grid nodes inside sigma_0.2(A)" in out.stdout and "T10ε PASS" in out.stdout
