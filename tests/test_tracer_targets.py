"""The benchmark's layer table times module-level names from outside the
package; renaming or dropping one of them silently empties its row."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_exists(tmp_path):
    summary = tmp_path / "s.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(summary), "--version"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    assert json.loads(summary.read_text())["unwrapped"] == []
