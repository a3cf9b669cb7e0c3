"""Monte Carlo engine: critical values, size/power studies, power curves.

One engine drives every table-style result. A study is a grid of cells,
where a cell is one (null family or alternative, sample size) pair; all
requested tests are evaluated on the same simulated draws within a cell,
exactly as a simulation study would share them. Cells are independent
tasks, so the engine parallelises across cells, never inside one. A power
curve is a list of power cells, one per sample size, so its sizes run in
parallel too.

Reproducibility discipline: a cell's replications run in chunks of
``_CHUNK`` rows, and each chunk draws its block from one substream seeded
by (master_seed, cell_salt, chunk_start), where the cell salt is a stable
hash of the cell's identity. Results are therefore bit-identical for a
fixed master seed no matter how many workers run the study or in which
order cells and chunks are evaluated. This is ``STREAM_SCHEME`` 2; scheme
1 seeded one substream per replication, so its numbers differ.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classical import TEST_IDS, batch_statistic
from .composite import FAMILIES as COMPOSITE_FAMILIES
from .distributions import AlternativeSpec, pdf, sample, supports_above_one, supports_unit_interval
from .null_limit import cumulants_exact, pearson_fit, pearson_quantile
from .numerics import gauss_legendre
from .power_theory import (
    AlternativeTheorySpec,
    PowerCurve,
    builtin_beta_specs,
    power_curve,
    spec_from_density,
    uniform_theory_spec,
)

__all__ = [
    "StudyConfig",
    "StudyResult",
    "CellResult",
    "STREAM_SCHEME",
    "rng_substream",
    "estimate_critical_values",
    "estimate_power",
    "run_power_curve",
    "critical_value_map",
    "write_study_csv",
    "read_study_csv",
    "format_critval_table",
    "format_power_table",
]

# Version of the rule that maps (seed, cell, replication) to draws. Scheme 1
# seeded one substream per replication; scheme 2 seeds one per chunk.
STREAM_SCHEME = 2
# Part of the stream rule: changing it changes every Monte Carlo number and
# needs a STREAM_SCHEME bump.
_CHUNK = 4096
_NULL_FAMILIES = ("uniform", "normal", "pareto")


def rng_substream(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent, reproducible generator for one unit of work (a chunk).

    Seeding with the full index tuple keeps streams statistically
    separated without any global counter, so workers need no coordination.
    """
    return np.random.default_rng((int(master_seed),) + tuple(int(i) for i in indices))


def _cell_salt(*parts) -> int:
    key = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one simulation study."""

    mode: str
    tests: tuple[str, ...]
    family: str
    alternatives: tuple[AlternativeSpec, ...]
    sizes: tuple[int, ...]
    alphas: tuple[float, ...]
    replications: int
    master_seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("critical_values", "power", "size", "power_curve"):
            raise ValueError(f"unknown study mode {self.mode!r}")
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        for t in self.tests:
            if t not in TEST_IDS:
                raise ValueError(f"unknown test id {t!r}; expected one of {TEST_IDS}")
        if not self.tests:
            raise ValueError("at least one test id is required")
        if self.family not in _NULL_FAMILIES:
            raise ValueError(f"family must be one of {_NULL_FAMILIES}")
        if self.replications < 100:
            raise ValueError("replications must be at least 100")
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive integers")
        if any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("alphas must lie strictly inside (0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be a positive integer")
        if self.mode == "critical_values" and self.alternatives:
            raise ValueError("critical_values mode samples the null and takes no alternatives")
        if self.mode in ("power", "size") and not self.alternatives:
            raise ValueError(f"{self.mode} mode needs at least one alternative")
        if self.mode == "power_curve":
            if len(self.alternatives) != 1:
                raise ValueError("power_curve mode expects exactly one alternative")
            if self.family != "uniform":
                raise ValueError("power curves are defined for the uniformity test")
            if self.tests != ("tm",):
                raise ValueError("power_curve mode runs only the tm test; set tests=('tm',)")
            if len(self.alphas) != 1:
                raise ValueError("power_curve mode takes exactly one alpha")
        for alt in self.alternatives:
            if self.family == "uniform" and not supports_unit_interval(alt):
                raise ValueError(
                    f"alternative {alt.label()} is not supported on the unit interval; "
                    "uniformity studies need unit-interval alternatives"
                )
            if self.family == "pareto" and not supports_above_one(alt):
                raise ValueError(
                    f"alternative {alt.label()} can draw values below one; "
                    "Pareto studies need alternatives supported on [1, inf), "
                    "e.g. a positive law translated with +1"
                )


@dataclass(frozen=True)
class CellResult:
    test: str
    alternative: str
    n: int
    alpha: float
    estimate: float
    mc_se: float
    replications: int
    seed: int


@dataclass
class StudyResult:
    mode: str
    rows: list[CellResult]
    master_seed: int
    wall_seconds: float = field(default=0.0, compare=False)
    # None for rows read back from a CSV, which does not record the scheme
    stream_scheme: int | None = STREAM_SCHEME


def _quantile_sorted(sorted_vals: np.ndarray, p: float) -> float:
    # index h = R * p into the 1-based order statistics, linearly
    # interpolated between neighbours and clamped at the ends
    R = sorted_vals.size
    h = R * p
    k = int(np.floor(h))
    k = min(max(k, 1), R - 1)
    frac = h - k
    frac = min(max(frac, 0.0), 1.0)
    lo = sorted_vals[k - 1]
    return float(lo + frac * (sorted_vals[k] - lo))


def _quantile_se(sorted_vals: np.ndarray, p: float) -> float:
    # half-width of the order-statistic bracket one binomial SD away
    R = sorted_vals.size
    eps = np.sqrt(p * (1.0 - p) / R)
    hi = _quantile_sorted(sorted_vals, min(p + eps, 1.0))
    lo = _quantile_sorted(sorted_vals, max(p - eps, 0.0))
    return float(0.5 * (hi - lo))


def _unit_chunk(
    family: str, alt: AlternativeSpec | None, n: int, salt: int, seed: int, start: int, count: int
) -> np.ndarray:
    """Unit-interval rows ``start .. start + count - 1`` of one cell.

    The whole ``(count, n)`` block comes from one call on the substream
    ``(seed, salt, start)``: from ``alt`` (an i.i.d. flat draw, reshaped),
    or from the null's standard member when ``alt`` is None. Composite
    families then transform every row by its own fitted parameters.
    """
    composite = COMPOSITE_FAMILIES.get(family)  # None for the uniform null
    rng = rng_substream(seed, salt, start)
    if alt is not None:
        raw = sample(alt, count * n, rng).values.reshape(count, n)
    elif composite is None:
        raw = rng.random((count, n))
    else:
        raw = composite.sample_standard((count, n), rng)
    return raw if composite is None else composite.transform_rows(raw)


def _cell_statistics(
    seed: int, salt: int, family: str, alt: AlternativeSpec | None, n: int, tests, reps: int
) -> dict[str, np.ndarray]:
    """Every requested statistic on the ``reps`` rows of one cell, chunk by chunk."""
    stats = {t: np.empty(reps) for t in tests}
    for start in range(0, reps, _CHUNK):
        count = min(_CHUNK, reps - start)
        U = _unit_chunk(family, alt, n, salt, seed, start, count)
        for t in tests:
            stats[t][start:start + count] = batch_statistic(t, U)
    return stats


def _critval_cell(args) -> list[CellResult]:
    seed, family, n, tests, alphas, reps = args
    stats = _cell_statistics(seed, _cell_salt("critval", family, n), family, None, n, tests, reps)
    rows = []
    for t in tests:
        ordered = np.sort(stats[t])
        for a in alphas:
            rows.append(
                CellResult(
                    test=t,
                    alternative=family,
                    n=n,
                    alpha=a,
                    estimate=_quantile_sorted(ordered, 1.0 - a),
                    mc_se=_quantile_se(ordered, 1.0 - a),
                    replications=reps,
                    seed=seed,
                )
            )
    return rows


def _power_cell(args) -> list[CellResult]:
    seed, salt, family, alt, n, tests, alphas, reps, cv_map = args
    stats = _cell_statistics(seed, salt, family, alt, n, tests, reps)
    rows = []
    for t in tests:
        for a in alphas:
            p_hat = int(np.count_nonzero(stats[t] > cv_map[(t, n, a)])) / reps
            rows.append(
                CellResult(
                    test=t,
                    alternative=alt.label(),
                    n=n,
                    alpha=a,
                    estimate=p_hat,
                    mc_se=float(np.sqrt(p_hat * (1.0 - p_hat) / reps)),
                    replications=reps,
                    seed=seed,
                )
            )
    return rows


def _run_cells(worker_count: int, fn, tasks: list) -> list[CellResult]:
    if worker_count == 1 or len(tasks) <= 1:
        results = [fn(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            results = list(pool.map(fn, tasks))
    return [row for cell_rows in results for row in cell_rows]


def _run_power_cells(config: StudyConfig, cv_map: dict, salt_prefix: tuple) -> list[CellResult]:
    # power and curve cells differ only in the prefix that names their substreams
    tasks = [
        (
            config.master_seed,
            _cell_salt(*salt_prefix, alt.label(), n),
            config.family,
            alt,
            n,
            config.tests,
            config.alphas,
            config.replications,
            cv_map,
        )
        for alt in config.alternatives
        for n in config.sizes
    ]
    return _run_cells(config.workers, _power_cell, tasks)


def estimate_critical_values(config: StudyConfig) -> StudyResult:
    """Empirical null quantiles for every (test, n, alpha) in the config.

    Uniform nulls draw directly; composite nulls draw from the standard
    member and re-estimate per replication, which by pivotality gives the
    null law for every parameter value.
    """
    if config.mode != "critical_values":
        raise ValueError("config.mode must be 'critical_values'")
    started = time.perf_counter()
    tasks = [
        (config.master_seed, config.family, n, config.tests, config.alphas, config.replications)
        for n in config.sizes
    ]
    rows = _run_cells(config.workers, _critval_cell, tasks)
    return StudyResult(
        mode=config.mode,
        rows=rows,
        master_seed=config.master_seed,
        wall_seconds=time.perf_counter() - started,
    )


def critical_value_map(result: StudyResult) -> dict[tuple[str, int, float], float]:
    """Index a study result by (test, n, alpha) for fast lookup."""
    return {(r.test, r.n, r.alpha): r.estimate for r in result.rows}


def estimate_power(config: StudyConfig, critical_values: StudyResult) -> StudyResult:
    """Rejection rates per (test, alternative, n, alpha) cell.

    Size studies are the special case where the alternatives are null
    members; nothing in the machinery distinguishes them.
    """
    if config.mode not in ("power", "size"):
        raise ValueError("config.mode must be 'power' or 'size'")
    cv_map = critical_value_map(critical_values)
    for t in config.tests:
        for n in config.sizes:
            for a in config.alphas:
                if (t, n, a) not in cv_map:
                    raise ValueError(f"missing critical value for test={t!r}, n={n}, alpha={a}")
    started = time.perf_counter()
    rows = _run_power_cells(config, cv_map, ("power", config.family))
    return StudyResult(
        mode=config.mode,
        rows=rows,
        master_seed=config.master_seed,
        wall_seconds=time.perf_counter() - started,
    )


def theory_spec_for(alt: AlternativeSpec) -> AlternativeTheorySpec:
    """Match an alternative to its theory spec, or build one numerically."""
    if alt.family == "uniform" and not alt.translate_by_one:
        return uniform_theory_spec()
    for spec in builtin_beta_specs():
        if (
            alt.family == "beta"
            and not alt.translate_by_one
            and spec.name == f"beta({alt.params[0]:g},{alt.params[1]:g})"
        ):
            return spec
    if not supports_unit_interval(alt):
        raise ValueError(
            f"no fixed-alternative theory for {alt.label()}: support is not the unit interval"
        )
    return spec_from_density(alt.label(), lambda x: np.asarray(pdf(alt, x)), gauss_legendre(128))


def run_power_curve(config: StudyConfig) -> PowerCurve:
    """Empirical power of the tail-moment test across sizes, with overlay.

    Each size is one power cell at the config's single alpha. The critical
    value is the asymptotic one from the Pearson fit of the null cumulants,
    held constant across n; the analytic overlay uses the same constant,
    so the two columns answer the same question.
    """
    if config.mode != "power_curve":
        raise ValueError("config.mode must be 'power_curve'")
    alt = config.alternatives[0]
    alpha = config.alphas[0]
    c_limit = pearson_quantile(pearson_fit(cumulants_exact()), 1.0 - alpha)
    cv_map = {("tm", n, alpha): c_limit for n in config.sizes}
    rows = _run_power_cells(config, cv_map, ("curve",))
    overlay = power_curve(theory_spec_for(alt), alpha, config.sizes, c_limit)
    return PowerCurve(
        name=alt.label(),
        alpha=alpha,
        sample_sizes=list(config.sizes),
        approx_power=overlay.approx_power,
        empirical_power=[r.estimate for r in rows],
        mc_se=[r.mc_se for r in rows],
    )


# ---------------------------------------------------------------------------
# serialization and table formatting


_CSV_HEADER = "test,alternative,n,alpha,estimate,mc_se,replications,seed"


def write_study_csv(result: StudyResult, path) -> None:
    """Serialise a study grid; floats use repr so files are bit-stable."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for r in result.rows:
            fh.write(
                f"{r.test},{r.alternative},{r.n},{r.alpha!r},"
                f"{r.estimate!r},{r.mc_se!r},{r.replications},{r.seed}\n"
            )


def read_study_csv(path) -> StudyResult:
    rows: list[CellResult] = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected study CSV header: {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            # labels such as beta(2,3) carry unquoted commas: the test is the
            # first field, the numbers the last six, the alternative between
            parts = line.split(",")
            if len(parts) < 8:
                raise ValueError(f"line {line_no}: expected at least 8 fields, got {len(parts)}")
            n, alpha, estimate, mc_se, replications, seed = parts[-6:]
            rows.append(
                CellResult(
                    test=parts[0],
                    alternative=",".join(parts[1:-6]),
                    n=int(n),
                    alpha=float(alpha),
                    estimate=float(estimate),
                    mc_se=float(mc_se),
                    replications=int(replications),
                    seed=int(seed),
                )
            )
    seed = rows[0].seed if rows else 0
    return StudyResult(mode="loaded", rows=rows, master_seed=seed, stream_scheme=None)


def format_critval_table(result: StudyResult) -> str:
    """Critical values laid out with one row per alpha, one column per n."""
    sizes = sorted({r.n for r in result.rows})
    alphas = sorted({r.alpha for r in result.rows}, reverse=True)
    tests = sorted({r.test for r in result.rows})
    by_key = {(r.test, r.n, r.alpha): r.estimate for r in result.rows}
    blocks = []
    for t in tests:
        lines = [f"test {t}", "alpha\\n  " + "  ".join(f"{n:>7d}" for n in sizes)]
        for a in alphas:
            cells = "  ".join(f"{by_key[(t, n, a)]:7.3f}" for n in sizes)
            lines.append(f"{a:<8g}  {cells}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def format_power_table(result: StudyResult, percent: bool = True) -> str:
    """Power grid with one row per alternative, one column per test."""
    alts = list(dict.fromkeys(r.alternative for r in result.rows))
    tests = list(dict.fromkeys(r.test for r in result.rows))
    combos = sorted({(r.n, r.alpha) for r in result.rows})
    by_key = {(r.alternative, r.test, r.n, r.alpha): r.estimate for r in result.rows}
    width = max([len(a) for a in alts] + [11])
    blocks = []
    for n, a in combos:
        lines = [
            f"n={n}, alpha={a:g}" + (", entries in %" if percent else ""),
            "alternative".ljust(width) + "  " + "  ".join(f"{t:>7s}" for t in tests),
        ]
        for alt in alts:
            cells = []
            for t in tests:
                val = by_key.get((alt, t, n, a))
                if val is None:
                    cells.append("      .")
                elif percent:
                    cells.append(f"{100.0 * val:7.0f}")
                else:
                    cells.append(f"{val:7.3f}")
            lines.append(alt.ljust(width) + "  " + "  ".join(cells))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
