"""Layered benchmark of unigof: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload critval --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout. One run sets up
(imports the package, builds the workload's inputs from ``--seed``, warms
up), then repeats the workload's fixed pass of operations until
``--seconds`` have passed, checks every output, and prints one JSON object
as the last line of standard output::

    {"correct": true, "attempted": 69, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: it runs half the time untraced and the same
number of passes with timing wrappers on the package's public names
(removed afterwards), all with one worker, and writes the spans to
``.bench_out/``. The line before the result carries provenance: machine,
versions, commit, seed, replication counts and a digest of the outputs.
See ``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # the run's own set-up plus two in fresh processes
CALIBRATION_REF_S = 0.005  # time of HostSpeed's task at the reference speed
CALIBRATION_EVERY_S = 0.1  # longest stretch of operations between two calibrations
PROBE_SIZES = (10, 50, 200)
PROBE_ROWS = 4096


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Pass:
    results: dict[int, tuple[float, object, str | None]] = field(default_factory=dict)
    scales: dict[int, float] = field(default_factory=dict)  # reference seconds per second, per op

    @property
    def wall(self) -> float:
        return sum(dt for dt, _, _ in self.results.values())

    @property
    def ref_wall(self) -> float:
        return sum(dt * self.scales[i] for i, (dt, _, _) in self.results.items())


class HostSpeed:
    """A fixed task of the benchmark's own, timed between stretches of operations.

    The host's cores are shared, and the same work can take a fifth longer
    for seconds to minutes at a time. Scaling the times of the operations
    between two calibrations by ``CALIBRATION_REF_S`` over the task's mean
    time expresses them in seconds at a fixed reference speed, which cancels
    most of that drift. The task mixes what the workloads spend time on:
    generator construction, interpreted loops and array passes. It never
    calls the program, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._rows = np.random.default_rng(0).random((256, 500))

    def _task(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for i in range(100):
            np.random.default_rng((7, i)).random(64)
        total = 0
        for i in range(10_000):
            total += i * i
        np.sort(self._rows, axis=1).cumsum(axis=1)
        return time.perf_counter() - t0

    def seconds(self) -> float:
        return statistics.median(self._task() for _ in range(3))


def run_pass(ops, indices, speed=None, tracer=None) -> Pass:
    """Run the ops once, timing each; calibrate between stretches of them."""
    record = Pass()
    pending: list[int] = []
    last = speed.seconds() if speed else CALIBRATION_REF_S
    mark = time.perf_counter()
    for i in indices:
        op = ops[i]
        if tracer is not None:
            tracer.op_id += 1
            span = tracer.open(tracer.name_id(f"op.{op.label}"))
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # the run goes on; the op counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        record.results[i] = (dt, out, err)
        pending.append(i)
        if time.perf_counter() - mark >= CALIBRATION_EVERY_S or i == indices[-1]:
            now = speed.seconds() if speed else CALIBRATION_REF_S
            for j in pending:
                record.scales[j] = 2.0 * CALIBRATION_REF_S / (last + now)
            last, pending, mark = now, [], time.perf_counter()
    return record


def run_block(ops, speed, seconds=None, passes=None, tracer=None, indices=None) -> list[Pass]:
    """Repeat the pass until ``seconds`` have passed, or exactly ``passes`` times."""
    indices = range(len(ops)) if indices is None else indices
    records = []
    started = time.perf_counter()
    while True:
        records.append(run_pass(ops, indices, speed, tracer))
        if passes is not None:
            if len(records) >= passes:
                return records
        elif time.perf_counter() - started >= seconds:
            return records


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def verify(ops, blocks) -> tuple[int, int, list[str], str]:
    """Check every output; returns attempted, failed, reasons and the outputs' digest."""
    attempted = failed = 0
    reasons: list[str] = []
    first: dict[int, str] = {}
    for records in blocks:
        for record in records:
            for i, (_, out, err) in record.results.items():
                op = ops[i]
                attempted += 1
                problems = [err] if err else []
                if not err:
                    try:
                        problems = op.check(out)
                        d = digest(op.canon(out))
                    except Exception as exc:
                        problems, d = [f"check raised {type(exc).__name__}: {exc}"], None
                    if d is not None and first.setdefault(i, d) != d and op.deterministic:
                        problems.append("output differs from an earlier pass with identical inputs")
                if problems:
                    failed += 1
                    reasons.append(f"{op.label}#{i}: " + "; ".join(problems))
    return attempted, failed, reasons, digest([first.get(i) for i in range(len(ops))])


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    level = 100 * (n - 10) // n
    rank = -(-level * n // 100)
    return ordered[rank - 1], level


def setup(args, started: float):
    """Import the program, build the inputs and warm up; returns the ops and seconds taken.

    Every timed pass runs in one process: on two shared cores a process
    pool's wall time spread by a fifth between runs, which the calibration
    cannot correct, so the pool runs (and its utilisation is measured) only
    in the traced run.
    """
    if not (SRC / "unigof" / "__init__.py").is_file():
        raise SystemExit(f"error: the program is missing: no {SRC / 'unigof'} in this checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import unigof
    import unigof.cli  # noqa: F401  the command line's own import cost

    if Path(unigof.__file__).resolve().parent != SRC / "unigof":
        raise SystemExit(f"error: imported unigof from {unigof.__file__}, not from {SRC}")
    from workloads import build

    ops = build(args.workload, unigof, args.seed, args.scale, workers=1)
    warm = build(args.workload, unigof, args.seed, "tiny", workers=1)
    run_pass(warm, range(len(warm)))
    return unigof, ops, time.perf_counter() - started


def setup_in_fresh_process(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["scale"])


def end_to_end(ops, records, setups, rss_mb) -> tuple[dict, dict]:
    """End-to-end times in reference seconds; the raw medians go to the notes.

    ``setups`` holds (seconds, scale) per set-up, the scale from a
    calibration right after it in the same process.
    """

    def summary(scaled: bool) -> dict:
        walls = [r.ref_wall if scaled else r.wall for r in records]
        latencies = [1e3 * dt * (r.scales[i] if scaled else 1.0)
                     for r in records for i, (dt, _, _) in r.results.items() if ops[i].timed]
        wall = statistics.median(walls)
        tail_ms, level = tail(latencies)
        return {
            "setup_s": statistics.median(t * (k if scaled else 1.0) for t, k in setups),
            "wall_s": wall,
            "samples_per_s": sum(op.samples for op in ops) / wall,
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
        }, len(latencies), level

    scaled, count, level = summary(True)
    raw = summary(False)[0]
    units = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    notes = {"passes": len(records), "latency_samples": count, "latency_tail_percentile": level,
             "raw": raw, "setup_samples": setups}
    return metrics, notes


def kernel_probe(api, seed: int) -> dict:
    """Median time per row of the tm kernel and of all ten statistics on fixed rows.

    Each timing follows an untimed call, and the largest rows go first, so
    the kernels' temporaries come from a warm heap as they do inside the
    Monte Carlo engine; a cold heap adds page faults that depend on what
    the process ran before.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 4096])
    metrics = {}

    def per_row(fn) -> float:
        fn()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(times) / PROBE_ROWS

    for n in sorted(PROBE_SIZES, reverse=True):
        U = rng.random((PROBE_ROWS, n))
        metrics[f"statistic.tm_us_per_row.n{n}"] = (per_row(lambda: api.tm_statistic_batch(U)), "us/row")
        total = sum(per_row(lambda k=k: api.batch_statistic(k, U)) for k in api.TEST_IDS)
        metrics[f"classical.all.us_per_row.n{n}"] = (total, "us/row")
    return metrics


def pool_utilisation(ops_nproc, speed, workers: int, passes: int):
    """CPU time of the pool's workers over their wall time times the worker count."""
    pooled = [i for i, op in enumerate(ops_nproc) if op.pooled]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    records = run_block(ops_nproc, speed, passes=passes, indices=pooled)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    busy = sum(dt for r in records for dt, _, _ in r.results.values())
    return cpu / (busy * workers), records


def traced_run(args, api, ops, speed):
    import tracing
    from workloads import build

    base = run_block(ops, speed, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        traced = run_block(ops, speed, passes=len(base), tracer=tracer)
    finally:
        tracer.remove()
    k = len(traced)
    metrics = tracing.layer_metrics(tracer, k, cells=k * sum(op.cells for op in ops))
    util, pool_records = 0.0, []
    if nproc() > 1 and any(op.pooled for op in ops):
        util, pool_records = pool_utilisation(build(args.workload, api, args.seed, args.scale, nproc()),
                                              speed, nproc(), passes=2)
    metrics["mc.pool_cpu_util"] = (util, "ratio")
    metrics.update(kernel_probe(api, args.seed))
    # the two blocks run minutes apart at most, so compare them in reference seconds
    metrics["trace.overhead_ratio"] = (
        sum(r.ref_wall for r in traced) / sum(r.ref_wall for r in base), "ratio")
    metrics["trace.pass_s"] = (sum(r.wall for r in traced) / k, "s")
    notes = {"passes": k, "pool_workers": nproc() if pool_records else 0, "missing_hooks": tracer.missing,
             "spans_file": str((OUT / f"trace-{args.workload}-seed{args.seed}.npz").relative_to(ROOT))}
    return metrics, [base, traced, pool_records], notes, tracer


def provenance(args, output_digest: str) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "unigof").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    from workloads import SIZES

    return {
        "machine": {"nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__,
                    "scipy": scipy.__version__, "platform": platform.platform()},
        "run": {"commit": commit, "source_sha256": source.hexdigest(), "workload": args.workload,
                "seed": args.seed, "workers": 1, "replications": SIZES[args.scale][args.workload],
                "scale": args.scale, "seconds": args.seconds, "trace": args.trace},
        "output_digest": output_digest,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    p.add_argument("--setup-only", action="store_true", help="set up, print the time taken and exit")
    return p.parse_args(argv)


def main(argv=None) -> dict:
    started = time.perf_counter()
    # numpy asks the kernel for transparent huge pages on large arrays; whether
    # it gets them depends on the host's free memory, and runs that do are up
    # to a third faster, so the benchmark turns the request off (before numpy
    # is imported) to measure the program and not the host's fragmentation
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    args = parse_args(argv)
    api, ops, setup_s = setup(args, started)
    speed = HostSpeed()
    setup_scale = CALIBRATION_REF_S / speed.seconds()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
        return {"setup_s": setup_s, "scale": setup_scale}

    if args.trace:
        metrics, blocks, notes, tracer = traced_run(args, api, ops, speed)
    else:
        records = run_block(ops, speed, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [(setup_s, setup_scale)] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
        metrics, notes = end_to_end(ops, records, setups, rss_mb)
        blocks = [records]

    attempted, failed, reasons, output_digest = verify(ops, blocks)
    report = {"provenance": provenance(args, output_digest), "notes": notes,
              "fail_ratio": failed / attempted, "failures": reasons[:20]}
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz", report)
    for line in reasons[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
