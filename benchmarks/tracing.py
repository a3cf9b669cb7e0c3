"""Spans around the calls into each layer of ``unigof``, for the traced run.

The engine modules import their callees by name (``mc`` calls its own
``rng_substream``, ``sample`` and ``batch_statistic``; ``composite`` looks
families up in ``FAMILIES``), so timing a layer means replacing the name in
every namespace that looks it up. ``install`` does that from here, without
editing the package, and ``Tracer.remove`` puts every original back.

A span records its name, start, end, parent span and the benchmark
operation it belongs to. Spans are kept in flat arrays in memory and
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children; calls are single-threaded in
the traced run, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "mc",
    "distributions",
    "composite",
    "statistic",
    "classical",
    "null_limit",
    "numerics",
    "power_theory",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.rows = array("q")
        self.op_id = -1
        self.degenerate_rows = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, rows: int = 0) -> int:
        idx = len(self.end)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, rows=None, after=None):
        """Time ``fn`` as span ``name``; ``name`` may be a function of the arguments."""
        fixed = self.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(*args, **kwargs))
            idx = self.open(nid, rows(*args, **kwargs) if rows else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out

        return traced

    def patch(self, owner, attr: str, name, **kwargs) -> None:
        # a class attribute is read from the class itself, so a method stays a function
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        _assign(owner, attr, self.wrap(name, original, **kwargs))

    def patch_value(self, owner: dict, key: str, value) -> None:
        self._patches.append((owner, key, owner[key]))
        owner[key] = value

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            _assign(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.zeros(dur.size)
        np.add.at(child, a["parent"][nested], dur[nested])
        own = dur - child
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0})
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            if mask.any():
                out[name] = {
                    "calls": int(mask.sum()),
                    "rows": int(a["rows"][mask].sum()),
                    "s": float(dur[mask].sum()),
                    "self_s": float(own[mask].sum()),
                }
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(repr(meta)), **self.arrays())


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _rows(U, *args, **kwargs) -> int:
    shape = np.shape(getattr(U, "values", U))
    return int(shape[0]) if len(shape) == 2 else 1


def _kind_rows(kind, U, *args, **kwargs) -> int:
    return _rows(U)


def install(tracer: Tracer) -> None:
    """Wrap every public name through which the benchmark reaches a layer."""
    import unigof
    from unigof import classical, composite, mc, null_limit, power_theory, statistic

    def count_degenerate(U) -> None:
        tracer.degenerate_rows += int(np.count_nonzero(~np.all(np.isfinite(U), axis=1)))

    kind_name = lambda kind, *a, **k: f"classical.{kind}"  # noqa: E731
    direct = {
        "mc": ("estimate_critical_values", "estimate_power", "run_power_curve"),
        "composite": ("bootstrap_pvalue",),
        "statistic": ("tm_statistic",),
        "classical": ("classical_battery",),
        "null_limit": ("pearson_fit", "pearson_quantile", "cumulants_exact", "cumulants_numeric",
                       "nystrom_spectrum"),
        "power_theory": ("power_curve",),
    }
    for layer, attrs in direct.items():
        for attr in attrs:
            tracer.patch(unigof, attr, f"{layer}.{attr}")

    tracer.patch(mc, "theory_spec_for", "mc.theory_spec_for")
    tracer.patch(mc, "rng_substream", "mc.rng_substream")
    tracer.patch(mc, "sample", "distributions.sample")
    for owner in (mc, composite):
        tracer.patch(owner, "batch_statistic", kind_name, rows=_kind_rows)
    for attr in ("pearson_fit", "pearson_quantile", "cumulants_exact"):
        tracer.patch(mc, attr, f"null_limit.{attr}")
    for attr in ("spec_from_density", "discrepancy", "asymptotic_variance"):
        tracer.patch(mc, attr, f"power_theory.{attr}")
    for attr in ("discrepancy", "asymptotic_variance"):
        tracer.patch(power_theory, attr, f"power_theory.{attr}")
    for owner in (mc, null_limit, power_theory, statistic):
        tracer.patch(owner, "gauss_legendre", "numerics.gauss_legendre")
    tracer.patch(null_limit, "nystrom_discretize", "numerics.nystrom_discretize")
    tracer.patch(null_limit.PearsonFit, "cdf", "null_limit.cdf")
    for owner in (classical, statistic):
        tracer.patch(owner, "tm_statistic_batch", "statistic.tm_statistic_batch", rows=_rows)

    for tag, family in list(composite.FAMILIES.items()):
        traced = dataclasses.replace(
            family,
            estimator=tracer.wrap("composite.fit", family.estimator),
            transform=tracer.wrap("composite.transform", family.transform, rows=lambda *a, **k: 1),
            transform_rows=tracer.wrap(
                "composite.transform_rows", family.transform_rows, rows=_rows, after=count_degenerate
            ),
            sample_standard=tracer.wrap("composite.draw", family.sample_standard),
            sample_fitted=tracer.wrap("composite.draw", family.sample_fitted),
        )
        tracer.patch_value(composite.FAMILIES, tag, traced)


def layer_metrics(tracer: Tracer, passes: int, cells: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the recorded spans, as ``name -> (value, unit)``."""
    from unigof import CLASSICAL_KINDS

    s = tracer.summary()
    k = float(passes)

    def calls(name):
        return s[name]["calls"] / k

    def rows(name):
        return s[name]["rows"] / k

    def secs(name):
        return s[name]["s"] / k

    def per_row(name):
        return 1e6 * s[name]["s"] / s[name]["rows"] if s[name]["rows"] else 0.0

    layer_self = defaultdict(float)
    for name, entry in s.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"] / k

    transform_rows = rows("composite.transform_rows") + rows("composite.transform")
    m: dict[str, tuple[float, str]] = {
        "mc.rng_streams": (calls("mc.rng_substream"), "count"),
        "mc.rng_s": (secs("mc.rng_substream"), "s"),
        "mc.cells": (cells / k, "count"),
        "distributions.sample_calls": (calls("distributions.sample"), "count"),
        "distributions.sample_s": (secs("distributions.sample"), "s"),
        "composite.draw_s": (secs("composite.draw"), "s"),
        "composite.transform_calls": (
            calls("composite.transform_rows") + calls("composite.transform"), "count"),
        "composite.transform_rows": (transform_rows, "count"),
        "composite.transform_s": (secs("composite.transform_rows") + secs("composite.transform"), "s"),
        "composite.degenerate_rows": (tracer.degenerate_rows / k, "count"),
        "composite.valid_ratio": (
            1.0 - tracer.degenerate_rows / k / transform_rows if transform_rows else 1.0, "ratio"),
        "composite.fit_s": (secs("composite.fit"), "s"),
        "statistic.tm_calls": (calls("statistic.tm_statistic_batch"), "count"),
        "statistic.tm_rows": (rows("statistic.tm_statistic_batch"), "count"),
        "statistic.tm_s": (secs("statistic.tm_statistic_batch"), "s"),
        "classical.rows": (
            sum(rows(f"classical.{kind}") for kind in CLASSICAL_KINDS) + calls("classical.classical_battery"),
            "count"),
        "classical.battery_s": (secs("classical.classical_battery"), "s"),
        "null_limit.pearson_fit_s": (secs("null_limit.pearson_fit"), "s"),
        "null_limit.pearson_quantile_s": (secs("null_limit.pearson_quantile"), "s"),
        "null_limit.cdf_calls": (calls("null_limit.cdf"), "count"),
        "null_limit.cdf_s": (secs("null_limit.cdf"), "s"),
        "null_limit.cumulants_numeric_s": (secs("null_limit.cumulants_numeric"), "s"),
        "null_limit.nystrom_spectrum_s": (secs("null_limit.nystrom_spectrum"), "s"),
        "numerics.gauss_legendre_calls": (calls("numerics.gauss_legendre"), "count"),
        "numerics.gauss_legendre_s": (secs("numerics.gauss_legendre"), "s"),
        "numerics.nystrom_discretize_s": (secs("numerics.nystrom_discretize"), "s"),
        "power_theory.spec_from_density_s": (secs("power_theory.spec_from_density"), "s"),
        "power_theory.discrepancy_s": (secs("power_theory.discrepancy"), "s"),
        "power_theory.asymptotic_variance_s": (secs("power_theory.asymptotic_variance"), "s"),
        "trace.spans": (len(tracer.end) / k, "count"),
    }
    for kind in CLASSICAL_KINDS:
        m[f"classical.{kind}.s"] = (secs(f"classical.{kind}"), "s")
        m[f"classical.{kind}.us_per_row"] = (per_row(f"classical.{kind}"), "us/row")
    # rng_substream has its own metric, so mc.self_s is what the engine does
    # around it: the per-replication draws, the chunk loop and the reductions
    layer_self["mc"] -= s["mc.rng_substream"]["self_s"] / k
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m
