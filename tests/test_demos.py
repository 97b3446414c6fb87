"""Every demo, and the README's library quick start, runs to completion with
warnings as errors and an empty stderr."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run_clean(script: Path, cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    _run_clean(demo, ROOT)


def test_readme_quick_start_runs_clean(tmp_path):
    """The fenced python block under "## Library quick start", run next to a
    small generated ``corpus.jsonl``: 8 identities of 3 images each."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(0)
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for n in range(24):
            fh.write(json.dumps({"image_id": f"img{n:02d}", "identity_id": f"id{n // 3}",
                                 "vector": rng.normal(size=8).tolist()}) + "\n")
    script = tmp_path / "quick_start.py"
    script.write_text(block, encoding="utf-8")
    _run_clean(script, tmp_path)
