"""Monte Carlo engine: critical values, power studies, power curves.

One engine drives every table-style result. A study is a grid of cells,
where a cell is one (alternative, sample size) pair; all requested tests
are evaluated on the same simulated draws within a cell, exactly as a
simulation study would share them. There is one kind of cell: a
critical-value study's one "alternative" is the null itself, and its cells
reduce each statistic to quantiles, while power and power-curve cells
count exceedances of given critical values; a power curve's sizes are
cells too. A study's (cell, block) tasks run on one thread per core the
process may run on.

Reproducibility discipline: a cell's replications run in row blocks of
``max(1, _BLOCK_VALUES // n)`` rows, and each block draws its rows in one
call on one substream seeded by (master_seed, cell_salt, block_start),
where the cell salt is a stable hash of the cell's identity: uniform rows,
the null's standard member, or the alternative (see _score_block). Null
and alternative cells share this one path. Results are therefore
bit-identical for a fixed master seed whatever the core count and in
whichever order cells and blocks are evaluated. This is ``STREAM_SCHEME``
3; scheme 2 drew 4096-row chunks, one substream each, and scheme 1 one
substream per replication, so their numbers differ.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .classical import batch_statistic, check_test_id
from .composite import FAMILIES as COMPOSITE_FAMILIES, check_sample_size
from .distributions import AlternativeSpec, _number, cdf, check_support, sample
from .null_limit import cumulants_exact, pearson_fit, pearson_quantile
from .numerics import _integer, gauss_legendre
from .power_theory import (
    AlternativeTheorySpec,
    PowerCurve,
    builtin_beta_specs,
    power_curve,
    spec_from_density,
    uniform_theory_spec,
)
from .statistic import _BLOCK_VALUES, UnitRows, _on_every_core

__all__ = [
    "StudyConfig",
    "StudyResult",
    "CellResult",
    "STREAM_SCHEME",
    "NULL_FAMILIES",
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
# seeded one substream per replication, scheme 2 one per 4096-row chunk, and
# scheme 3 seeds one per row block of max(1, _BLOCK_VALUES // n) rows, so
# changing _BLOCK_VALUES changes every Monte Carlo number and needs a bump.
STREAM_SCHEME = 3
NULL_FAMILIES = ("uniform",) + tuple(COMPOSITE_FAMILIES)


def rng_substream(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent, reproducible generator for one unit of work (a row block).

    Seeding with the full index tuple keeps streams statistically
    separated without any global counter, so threads need no coordination.
    """
    return np.random.default_rng((int(master_seed),) + tuple(int(i) for i in indices))


def _cell_salt(*parts) -> int:
    key = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one simulation study.

    ``workers`` is checked to be a positive integer and otherwise unused: every study runs on every core.
    """

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
        if self.mode not in ("critical_values", "power", "power_curve"):
            raise ValueError(f"unknown study mode {self.mode!r}")
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "sizes", tuple(_integer("sizes", n) for n in self.sizes))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        for name in ("replications", "master_seed", "workers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for t in self.tests:
            check_test_id(t)
        if not self.tests:
            raise ValueError("at least one test id is required")
        if self.family not in NULL_FAMILIES:
            raise ValueError(f"family must be one of {NULL_FAMILIES}")
        if self.replications < 100:
            raise ValueError("replications must be at least 100")
        if self.master_seed < 0:
            raise ValueError(f"master_seed: expected a non-negative integer, got {self.master_seed}")
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive integers")
        check_sample_size(self.family, min(self.sizes))
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("alphas must be one or more levels strictly inside (0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be a positive integer")
        labels = tuple(alt.label() for alt in self.alternatives)
        for name, entries in (("tests", self.tests), ("sizes", self.sizes), ("alphas", self.alphas),
                              ("alternatives", labels)):
            repeated = [e for e, count in Counter(entries).items() if count > 1]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once; each entry runs once")
        if self.mode == "critical_values" and self.alternatives:
            raise ValueError("critical_values mode samples the null and takes no alternatives")
        if self.mode == "power" and not self.alternatives:
            raise ValueError("power mode needs at least one alternative")
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
            check_support(alt, self.family)


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


def _score_block(stats: dict, family: str, alt: AlternativeSpec | None, n: int, salt: int, seed: int, start: int):
    """Score the row block at row ``start`` of a cell into the cell's ``stats``, one array per test.

    The block is ``max(1, _BLOCK_VALUES // n)`` rows, fewer at the cell's end, drawn in one call on the
    substream ``(seed, salt, start)``: uniform rows, the null's standard member when ``alt`` is None,
    else a flat draw from ``alt``. A composite family transforms each row by its own fitted parameters,
    and the block is sorted once for all tests.
    """
    count = min(max(1, _BLOCK_VALUES // n), len(next(iter(stats.values()))) - start)
    composite = COMPOSITE_FAMILIES.get(family)  # None for the uniform null
    rng = rng_substream(seed, salt, start)
    X = (sample(alt, count * n, rng).values.reshape(count, n) if alt is not None
         else rng.random((count, n)) if composite is None else composite.sample_standard((count, n), rng))
    rows = UnitRows(X if composite is None else composite.transform_rows(X))
    for t, values in stats.items():
        values[start:start + count] = batch_statistic(t, rows)


def _reduce(config: StudyConfig, label: str, n: int, stats: dict, cv_map) -> list[CellResult]:
    """One cell's rows: null quantiles when ``cv_map`` is None, else rejection rates."""
    seed, reps = config.master_seed, config.replications
    rows = []
    for t, values in stats.items():
        if cv_map is None:
            values.sort()  # the cell's own array, dropped after this
        for a in config.alphas:
            if cv_map is None:
                estimate, se = _quantile_sorted(values, 1.0 - a), _quantile_se(values, 1.0 - a)
            else:
                estimate = int(np.count_nonzero(values > cv_map[(t, n, a)])) / reps
                se = float(np.sqrt(estimate * (1.0 - estimate) / reps))
            rows.append(CellResult(t, label, n, a, estimate, se, reps, seed))
    return rows


def _run_cells(config: StudyConfig, salt_prefix: tuple, cv_map: dict | None = None):
    """The rows of every (alternative, n) cell, from its (cell, block) tasks in cell order.

    A critical-value study's one "alternative" is the null (None, labelled by the family); the salt prefix
    names the study kind. The tasks run on one thread per core, and a cell's arrays live from its first
    block's take to its last one's end.
    """
    reps, cells = config.replications, []
    for alt in config.alternatives or (None,):
        label = config.family if alt is None else alt.label()
        cells += [(alt, n, label, _cell_salt(*salt_prefix, label, n)) for n in config.sizes]
    starts = [range(0, reps, max(1, _BLOCK_VALUES // n)) for _, n, _, _ in cells]
    live, left, results, lock = {}, [len(s) for s in starts], [None] * len(cells), threading.Lock()

    def take(task) -> dict:
        k, start = task
        if start == 0:
            live[k] = {t: np.empty(reps) for t in config.tests}
        return live.pop(k) if start == starts[k][-1] else live[k]

    def score(task, stats: dict) -> None:
        k, start = task
        alt, n, label, salt = cells[k]
        _score_block(stats, config.family, alt, n, salt, config.master_seed, start)
        with lock:
            left[k] -= 1
            last = not left[k]
        if last:
            results[k] = _reduce(config, label, n, stats, cv_map)

    _on_every_core([(k, start) for k in range(len(cells)) for start in starts[k]], take, score)
    return [row for rows in results for row in rows]


def estimate_critical_values(config: StudyConfig) -> StudyResult:
    """Empirical null quantiles for every (test, n, alpha) in the config.

    Uniform nulls draw directly; composite nulls draw from the standard
    member and re-estimate per replication, which by pivotality gives the
    null law for every parameter value.
    """
    if config.mode != "critical_values":
        raise ValueError("config.mode must be 'critical_values'")
    rows = _run_cells(config, ("critval",))
    return StudyResult(mode=config.mode, rows=rows, master_seed=config.master_seed)


def critical_value_map(result: StudyResult) -> dict[tuple[str, int, float], float]:
    """Index a study result by (test, n, alpha) for fast lookup."""
    return {(r.test, r.n, r.alpha): r.estimate for r in result.rows}


def critical_value_table(result: StudyResult, family: str, tests, sizes, alphas) -> dict:
    """The critical value of every requested (test, n, alpha) cell, checked.

    A rejection rate only means something against quantiles of the same
    null, so the table must be a critical-value study of ``family`` that
    holds every requested cell.
    """
    for r in result.rows:
        if r.alternative != family:
            raise ValueError(f"rows are for {r.alternative}, not the {family} null; "
                             "critical values must come from the same null family")
    if result.mode != "critical_values":
        raise ValueError(f"the table is a {result.mode} study, not a critical-value table; "
                         "write one with estimate_critical_values or unigof critval --out")
    table = critical_value_map(result)
    cells = [(t, n, a) for t in tests for n in sizes for a in alphas]
    for t, n, a in cells:
        if (t, n, a) not in table:
            raise ValueError("missing critical value: the table has no critical value for "
                             f"test={t!r}, n={n}, alpha={_number(a)}")
    return {cell: table[cell] for cell in cells}


def estimate_power(config: StudyConfig, critical_values: StudyResult) -> StudyResult:
    """Rejection rates per (test, alternative, n, alpha) cell.

    ``critical_values`` must be a critical-value study of the config's null
    family; see :func:`critical_value_table`. A size study is a power study
    whose alternatives are members of the null family, such as
    ``normal(3,9)`` against the normal null.
    """
    if config.mode != "power":
        raise ValueError("config.mode must be 'power'")
    cv_map = critical_value_table(critical_values, config.family, config.tests, config.sizes, config.alphas)
    rows = _run_cells(config, ("power", config.family), cv_map)
    return StudyResult(mode=config.mode, rows=rows, master_seed=config.master_seed)


def theory_spec_for(alt: AlternativeSpec) -> AlternativeTheorySpec:
    """Match an alternative to its theory spec, or build one numerically."""
    closed_form = {s.name: s for s in (uniform_theory_spec(), *builtin_beta_specs())}
    if alt.label() in closed_form:
        return closed_form[alt.label()]
    check_support(alt, "uniform")
    return spec_from_density(alt.label(), lambda x: cdf(alt, x), gauss_legendre(128))


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
    rows = _run_cells(config, ("curve",), cv_map)
    overlay = power_curve(theory_spec_for(alt), alpha, config.sizes, c_limit)
    return replace(overlay, empirical_power=[r.estimate for r in rows], mc_se=[r.mc_se for r in rows])


# ---------------------------------------------------------------------------
# serialization and table formatting


# the second column names what the rows were drawn from, and so the study mode
_CSV_HEADERS = {"critical_values": "test,null,n,alpha,estimate,mc_se,replications,seed",
                "power": "test,alternative,n,alpha,estimate,mc_se,replications,seed"}


def write_study_csv(result: StudyResult, path) -> None:
    """Serialise a study grid; floats use repr so files are bit-stable."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_CSV_HEADERS[result.mode] + "\n")
        for r in result.rows:
            fh.write(
                f"{r.test},{r.alternative},{r.n},{r.alpha!r},"
                f"{r.estimate!r},{r.mc_se!r},{r.replications},{r.seed}\n"
            )


def read_study_csv(path) -> StudyResult:
    rows: list[CellResult] = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        mode = {h: m for m, h in _CSV_HEADERS.items()}.get(header)
        if mode is None:
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
    return StudyResult(mode=mode, rows=rows, master_seed=seed, stream_scheme=None)


def format_critval_table(result: StudyResult) -> str:
    """Critical values laid out with one row per alpha, one column per n."""
    sizes = sorted({r.n for r in result.rows})
    alphas = sorted({r.alpha for r in result.rows}, reverse=True)
    tests = sorted({r.test for r in result.rows})
    by_key = {(r.test, r.n, r.alpha): r.estimate for r in result.rows}
    width = max([len(_number(a)) for a in alphas] + [8])
    blocks = []
    for t in tests:
        lines = [f"test {t}", "alpha\\n".ljust(width + 2) + "  ".join(f"{n:>7d}" for n in sizes)]
        for a in alphas:
            cells = "  ".join(f"{by_key[(t, n, a)]:7.3f}" for n in sizes)
            lines.append(f"{_number(a):<{width}}  {cells}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def format_power_table(result: StudyResult) -> str:
    """Power grid with one row per alternative, one column per test, entries in percent."""
    alts = list(dict.fromkeys(r.alternative for r in result.rows))
    tests = list(dict.fromkeys(r.test for r in result.rows))
    combos = sorted({(r.n, r.alpha) for r in result.rows})
    by_key = {(r.alternative, r.test, r.n, r.alpha): r.estimate for r in result.rows}
    width = max([len(a) for a in alts] + [11])
    blocks = []
    for n, a in combos:
        lines = [
            f"n={n}, alpha={_number(a)}, entries in %",
            "alternative".ljust(width) + "  " + "  ".join(f"{t:>7s}" for t in tests),
        ]
        for alt in alts:
            cells = []
            for t in tests:
                val = by_key.get((alt, t, n, a))
                cells.append("      ." if val is None else f"{100.0 * val:7.0f}")
            lines.append(alt.ljust(width) + "  " + "  ".join(cells))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
