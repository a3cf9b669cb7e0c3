"""Smoke test of the benchmark itself, at the tiny sizes.

Run from the repository root (the tier-1 suite does not collect it):

    python -m pytest benchmarks/test_smoke.py -q

It runs every workload untraced and traced, the traced runs on two seeds,
and checks that every metric of ``BENCHMARK.json`` appears with its unit,
that every output check passes, and that the traced run leaves no timing
wrapper behind.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, seed: int, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
            "--scale", "tiny"]
    return run.main(argv)


def _assert_result(result: dict, kind: str) -> None:
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH[kind]}
    assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values())


def _namespaces() -> list[dict]:
    import unigof
    from unigof import classical, composite, distributions, mc, null_limit, numerics, power_theory, statistic

    modules = (unigof, classical, composite, distributions, mc, null_limit, numerics, power_theory, statistic)
    return [vars(m) for m in modules] + [composite.FAMILIES, vars(null_limit.PearsonFit)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    _assert_result(_run(workload, 1, 0), "end_to_end")


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_removes_its_wrappers(workload, seed, capsys):
    before = [dict(space) for space in _namespaces()]
    result = _run(workload, seed, 1)
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-2])
    _assert_result(result, "per_layer")
    assert report["notes"]["missing_hooks"] == []
    for snapshot, space in zip(before, _namespaces()):
        changed = [name for name, value in snapshot.items() if space.get(name) is not value]
        assert not changed, f"left behind: {changed}"


def test_command_prints_the_result_last():
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "bootstrap", "--seed", "3", "--seconds", "0.5",
           "--trace", "0", "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "critval", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
