"""The benchmark's workloads still run against the package's public API.

``benchmarks/workloads.py`` reaches the package only through names, so a
removed or renamed name breaks the benchmark without breaking any other
test. This runs every operation of every workload once at the tiny scale
and checks only that nothing raises; the benchmark's own output checks
and bands stay in ``benchmarks/``. The traced run patches names the same
way, so the tracer of ``benchmarks/tracing.py`` is installed once to check
that every name it hooks exists and that removing it restores them all.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import unigof
from unigof import statistic
from unigof.statistic import _BLOCK_VALUES

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
# hooks the tracer still lists for `mc`, which no longer imports these names
OPTIONAL_HOOKS = {"unigof.mc.discrepancy", "unigof.mc.asymptotic_variance"}


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{stem}", BENCHMARKS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    # import without leaving a bytecode cache next to the benchmark
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("name", ["critval", "power", "bootstrap", "asymptotic"])
def test_every_op_runs_once(workloads, name):
    assert name in workloads.WORKLOADS
    ops = workloads.build(name, unigof, 1, "tiny", 1)
    assert ops
    for op in ops:
        op.canon(op.run())


def test_tracer_hooks_exist_and_are_removed():
    from unigof import classical, composite, distributions, mc, null_limit, numerics, power_theory, statistic

    # the namespaces benchmarks/test_smoke.py checks after a traced run
    modules = (unigof, classical, composite, distributions, mc, null_limit, numerics, power_theory, statistic)
    spaces = [vars(m) for m in modules] + [composite.FAMILIES, vars(null_limit.PearsonFit)]
    before = [dict(space) for space in spaces]
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert set(tracer.missing) <= OPTIONAL_HOOKS
    finally:
        tracer.remove()
    for snapshot, space in zip(before, spaces):
        changed = [name for name, value in snapshot.items() if space.get(name) is not value]
        assert not changed, f"left behind: {changed}"


def _blocks(n, reps):
    # the engine's row blocks per cell, of _BLOCK_VALUES // n rows each
    return -(-reps // max(1, _BLOCK_VALUES // n))


def test_tracer_sees_each_kind_once_per_chunk(monkeypatch):
    # the traced run times each statistic at the engine's `batch_statistic`
    # call, one span per test and row block, with the block's rows; the
    # tracer keeps one span stack, so the study runs on one thread
    monkeypatch.setattr(statistic, "_cores", lambda: 1)
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    config = unigof.StudyConfig(
        mode="critical_values",
        tests=unigof.TEST_IDS,
        family="uniform",
        alternatives=(),
        sizes=(10,),
        alphas=(0.05,),
        replications=5000,
        master_seed=1,
    )
    try:
        tracing.install(tracer)
        unigof.estimate_critical_values(config)
    finally:
        tracer.remove()
    summary = tracer.summary()
    assert _blocks(10, 5000) == 2  # blocks of 3276 and 1724 rows
    for kind in unigof.CLASSICAL_KINDS + ("tm",):
        assert summary[f"classical.{kind}"]["calls"] == _blocks(10, 5000), kind
        assert summary[f"classical.{kind}"]["rows"] == 5000, kind
    assert summary["statistic.tm_statistic_batch"]["rows"] == 5000


def test_tracer_sees_each_power_chunk_once(monkeypatch):
    # a normal-null power cell of two row blocks: each statistic is timed once per
    # row block, and the engine transforms every drawn row exactly once
    monkeypatch.setattr(statistic, "_cores", lambda: 1)
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    fields = dict(tests=unigof.TEST_IDS, family="normal", sizes=(10,), alphas=(0.05,), master_seed=1)
    table = unigof.estimate_critical_values(
        unigof.StudyConfig(mode="critical_values", alternatives=(), replications=200, **fields)
    )
    config = unigof.StudyConfig(
        mode="power", alternatives=(unigof.parse_spec("chisq(5)"),), replications=5000, **fields
    )
    try:
        tracing.install(tracer)
        unigof.estimate_power(config, table)
    finally:
        tracer.remove()
    summary = tracer.summary()
    for kind in unigof.CLASSICAL_KINDS + ("tm",):
        assert summary[f"classical.{kind}"]["calls"] == _blocks(10, 5000), kind
        assert summary[f"classical.{kind}"]["rows"] == 5000, kind
    assert summary["composite.transform_rows"]["calls"] == _blocks(10, 5000)
    assert summary["composite.transform_rows"]["rows"] == 5000
