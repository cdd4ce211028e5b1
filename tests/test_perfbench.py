"""Smoke test of the perfbench harness, run on a copy of the checkout.

perfbench/run.py writes only under its own checkout's .perfbench/, so
copying perfbench/ and src/ into a temporary root keeps the repository's
results untouched.  Asserts correctness only, never a timing.

CI's bench-smoke job (.github/workflows/tests.yml) runs this same
command, so the test duplicates it.  It stays only while the workflow
does not run on every change, so that the local test suite still
catches a harness that no longer runs; delete it once bench-smoke
gates every change.  It costs about 8 s, most of it the harness's five
setup synths, which a later benchmark change can cut.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_grid256_one_pass_is_correct(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env.pop("PYTHONPATH", None)  # run.py points its children at the copied src/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid256", "--seed", "11",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
