"""One-pass smoke test of the benchmark: python3 -m pytest perfbench/test_smoke.py

Each workload runs one untraced pass on a non-identity seed and must
print a correct result with every end-to-end metric; `present` also
runs once traced and must report every per-layer metric.  The last test
checks that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import E2E_UNITS  # noqa: E402
from tracing import UNITS  # noqa: E402


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300, check=False)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", ["present", "walks", "rings"])
def test_one_pass(workload):
    out = result(bench("--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {m: v["unit"] for m, v in out["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_pass_reports_every_layer_metric():
    out = result(bench("--workload", "present", "--seed", "2",
                       "--seconds", "1", "--trace", "1"))
    assert out["correct"]
    assert {m: v["unit"] for m, v in out["metrics"].items()} == UNITS
    assert out["metrics"]["words.tietze_simplify.steps"]["value"] > 0
    assert out["metrics"]["netgraph.strong_rings.calls"]["value"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "present", "--seed", "0", "--seconds", "1",
                 "--trace", "0", root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
