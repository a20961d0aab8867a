"""The README's Python examples run as written against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python example"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, f"README example failed:\n{code}\n{proc.stderr}"
