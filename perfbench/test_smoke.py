"""Smoke test of the benchmark (about two minutes):

    python3 -m pytest perfbench/test_smoke.py

A one-deck run of each workload (verify-suite included), untraced and
traced, must print every metric BENCHMARK.json declares with its unit; a deliberately wrong expected
value must show up as failed ops; and without the program's sources the
benchmark must exit nonzero without a result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(root, workload, trace):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    table = "\n".join(lines[:-1])
    for name in [m["name"] for m in declared] + ["fail_frac"]:
        assert f"  {name} " in table


def test_wrong_expected_value_counts_as_failure(monkeypatch, capsys):
    right = workloads.generic_count
    # Off by one at (g, n) = (2, 2): generic (2,2) and 2+1 block (3,2) ops.
    monkeypatch.setattr(workloads, "generic_count", lambda g, n: right(g, n) + ((g, n) == (2, 2)))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setitem(run.WORKLOADS, "count-mix", (80, 1))
    result, report = run.benchmark("count-mix", 1, 0, False)
    capsys.readouterr()
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == len(workloads.COUNT_DECK)
    assert report["fail_frac"]["value"] == result["failed"] / result["attempted"]
    assert all("theta_n" in problem for _, problem in report["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "count-mix", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
