"""The benchmark's workloads still run against the package's public API.

``benchmarks/workloads.py`` reaches the package only through names, so a
removed or renamed name breaks the benchmark without breaking any other
test. This runs every operation of every workload once at the tiny scale
and checks only that nothing raises; the benchmark's own output checks
and bands stay in ``benchmarks/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import unigof

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    # import without leaving a bytecode cache next to the benchmark
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["critval", "power", "bootstrap", "asymptotic"])
def test_every_op_runs_once(workloads, name):
    assert name in workloads.WORKLOADS
    ops = workloads.build(name, unigof, 1, "tiny", 1)
    assert ops
    for op in ops:
        op.canon(op.run())
