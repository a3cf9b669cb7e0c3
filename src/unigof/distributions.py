"""Alternative distributions for the power studies, plus a tiny spec grammar.

Seventeen families cover the alternatives that appear in the simulation
tables: shapes on the unit interval, positive-support lifetime laws, and
real-line laws for the composite studies. A spec is a frozen value object;
sampling is pure given an explicit numpy Generator, and every family with
a tractable distribution function exposes it so samplers can be self-tested
against their own CDF.

Mixtures compose two specs with a per-draw Bernoulli choice, and any spec
can be translated by one to move positive support onto (1, inf) for the
Pareto studies. The text form (``beta(2,3)``, ``mix(0.5,z,n(1,9))``,
``gamma(1)+1``) is what the command line accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .numerics import normal_cdf, normal_quantile
from .statistic import Sample

__all__ = [
    "AlternativeSpec",
    "FAMILIES",
    "sample",
    "cdf",
    "pdf",
    "parse_spec",
    "supports_unit_interval",
    "supports_above_one",
]

# family tag -> number of parameters
FAMILIES: dict[str, int] = {
    "uniform": 0,
    "beta": 2,
    "truncnormal": 2,
    "kumaraswamy": 2,
    "stephens1": 1,
    "stephens2": 1,
    "stephens3": 1,
    "weibull": 1,
    "gamma": 1,
    "skewnormal": 1,
    "lfr": 1,
    "expgeometric": 1,
    "t": 1,
    "chisq": 1,
    "halfnormal": 1,
    "normal": 2,
    "pareto": 1,
    "mixture": 0,
}

# families whose support is contained in the unit interval
_UNIT_FAMILIES = {
    "uniform",
    "beta",
    "truncnormal",
    "kumaraswamy",
    "stephens1",
    "stephens2",
    "stephens3",
}

# families whose support is contained in [0, inf), besides pareto's [1, inf)
_NONNEGATIVE_FAMILIES = _UNIT_FAMILIES | {
    "weibull", "gamma", "lfr", "expgeometric", "chisq", "halfnormal"
}


@dataclass(frozen=True)
class AlternativeSpec:
    """One alternative distribution: family, parameters, decorations.

    ``normal`` and ``truncnormal`` take (mean, variance), matching the
    notation of the power tables. ``mixture`` holds (p, A, B) where A is
    drawn with probability p. ``translate_by_one`` shifts draws up by one
    after sampling.
    """

    family: str
    params: tuple[float, ...] = ()
    translate_by_one: bool = False
    mixture: tuple[float, "AlternativeSpec", "AlternativeSpec"] | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family == "mixture":
            if self.mixture is None:
                raise ValueError("mixture spec requires the (p, A, B) triple")
            p, a, b = self.mixture
            if not 0.0 <= p <= 1.0:
                raise ValueError("mixture weight must lie in [0, 1]")
            if not isinstance(a, AlternativeSpec) or not isinstance(b, AlternativeSpec):
                raise ValueError("mixture components must be AlternativeSpec values")
            return
        if self.mixture is not None:
            raise ValueError("only family='mixture' may carry a mixture triple")
        if len(self.params) != FAMILIES[self.family]:
            raise ValueError(
                f"family {self.family!r} takes {FAMILIES[self.family]} parameter(s), "
                f"got {len(self.params)}"
            )
        self._validate_params()

    def _validate_params(self) -> None:
        f, p = self.family, self.params
        if f in ("beta", "kumaraswamy"):
            if p[0] <= 0.0 or p[1] <= 0.0:
                raise ValueError(f"{f} shapes must be positive")
        elif f in ("truncnormal", "normal"):
            if p[1] <= 0.0:
                raise ValueError(f"{f} variance must be positive")
        elif f in ("stephens1", "stephens2", "stephens3", "weibull", "gamma",
                   "t", "chisq", "halfnormal", "pareto"):
            if p[0] <= 0.0:
                raise ValueError(f"{f} parameter must be positive")
        elif f == "lfr":
            if p[0] < 0.0:
                raise ValueError("lfr slope must be nonnegative")
        elif f == "expgeometric":
            if not 0.0 <= p[0] < 1.0:
                raise ValueError("expgeometric parameter must lie in [0, 1)")
        # skewnormal shape may be any real

    def label(self) -> str:
        if self.family == "mixture":
            p, a, b = self.mixture
            core = f"mix({p:g},{a.label()},{b.label()})"
        elif self.params:
            core = f"{self.family}({','.join(f'{v:g}' for v in self.params)})"
        else:
            core = self.family
        return core + ("+1" if self.translate_by_one else "")


def supports_unit_interval(spec: AlternativeSpec) -> bool:
    """True when every draw from the spec lands in [0, 1]."""
    if spec.translate_by_one:
        return False
    if spec.family == "mixture":
        _, a, b = spec.mixture
        return supports_unit_interval(a) and supports_unit_interval(b)
    return spec.family in _UNIT_FAMILIES


def _support_floor(spec: AlternativeSpec) -> float:
    if spec.family == "mixture":
        _, a, b = spec.mixture
        floor = min(_support_floor(a), _support_floor(b))
    elif spec.family == "pareto":
        floor = 1.0
    elif spec.family in _NONNEGATIVE_FAMILIES:
        floor = 0.0
    else:
        floor = -np.inf
    return floor + 1.0 if spec.translate_by_one else floor


def supports_above_one(spec: AlternativeSpec) -> bool:
    """True when every draw from the spec lands in [1, inf), the Pareto null's support."""
    return _support_floor(spec) >= 1.0


def _draw(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    f, p = spec.family, spec.params
    if f == "mixture":
        w, a, b = spec.mixture
        take_a = rng.random(n) < w
        out = np.empty(n)
        n_a = int(take_a.sum())
        if n_a:
            out[take_a] = _draw_translated(a, n_a, rng)
        if n - n_a:
            out[~take_a] = _draw_translated(b, n - n_a, rng)
        return out
    if f == "uniform":
        return rng.random(n)
    if f == "beta":
        return rng.beta(p[0], p[1], n)
    if f == "truncnormal":
        mu, sigma = p[0], np.sqrt(p[1])
        lo = normal_cdf(-mu / sigma)
        hi = normal_cdf((1.0 - mu) / sigma)
        return mu + sigma * normal_quantile(lo + rng.random(n) * (hi - lo))
    if f == "kumaraswamy":
        a, b = p
        return (1.0 - (1.0 - rng.random(n)) ** (1.0 / b)) ** (1.0 / a)
    if f == "stephens1":
        return 1.0 - (1.0 - rng.random(n)) ** (1.0 / p[0])
    if f == "stephens2":
        u = rng.random(n)
        k = p[0]
        lower = u <= 0.5
        out = np.empty(n)
        out[lower] = 0.5 * (2.0 * u[lower]) ** (1.0 / k)
        out[~lower] = 1.0 - 0.5 * (2.0 * (1.0 - u[~lower])) ** (1.0 / k)
        return out
    if f == "stephens3":
        u = rng.random(n)
        k = p[0]
        lower = u <= 0.5
        out = np.empty(n)
        out[lower] = 0.5 * (1.0 - (1.0 - 2.0 * u[lower]) ** (1.0 / k))
        out[~lower] = 0.5 * (1.0 + (2.0 * u[~lower] - 1.0) ** (1.0 / k))
        return out
    if f == "weibull":
        return (-np.log1p(-rng.random(n))) ** (1.0 / p[0])
    if f == "gamma":
        return rng.gamma(p[0], 1.0, n)
    if f == "skewnormal":
        delta = p[0] / np.sqrt(1.0 + p[0] ** 2)
        z1 = np.abs(rng.standard_normal(n))
        z2 = rng.standard_normal(n)
        return delta * z1 + np.sqrt(1.0 - delta * delta) * z2
    if f == "lfr":
        theta = p[0]
        haz = -np.log1p(-rng.random(n))
        if theta == 0.0:
            return haz
        return (np.sqrt(1.0 + 2.0 * theta * haz) - 1.0) / theta
    if f == "expgeometric":
        u = rng.random(n)
        return np.log((1.0 - p[0] * u) / (1.0 - u))
    if f == "t":
        return rng.standard_t(p[0], n)
    if f == "chisq":
        return rng.chisquare(p[0], n)
    if f == "halfnormal":
        return p[0] * np.abs(rng.standard_normal(n))
    if f == "normal":
        return p[0] + np.sqrt(p[1]) * rng.standard_normal(n)
    if f == "pareto":
        return (1.0 - rng.random(n)) ** (-1.0 / p[0])
    raise AssertionError(f"unhandled family {f!r}")


def _draw_translated(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    x = _draw(spec, n, rng)
    return x + 1.0 if spec.translate_by_one else x


def sample(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> Sample:
    """Draw n independent observations from the spec."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Sample(_draw_translated(spec, int(n), rng))


def cdf(spec: AlternativeSpec, x) -> np.ndarray | float:
    """Distribution function of the spec, vectorised over x."""
    x = np.asarray(x, dtype=float)
    out = _cdf(spec, x - 1.0 if spec.translate_by_one else x)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _cdf(spec: AlternativeSpec, x: np.ndarray) -> np.ndarray:
    f, p = spec.family, spec.params
    if f == "mixture":
        w, a, b = spec.mixture
        return w * np.asarray(cdf(a, x)) + (1.0 - w) * np.asarray(cdf(b, x))
    if f == "uniform":
        return np.clip(x, 0.0, 1.0)
    if f == "beta":
        return stats.beta.cdf(x, p[0], p[1])
    if f == "truncnormal":
        mu, sigma = p[0], np.sqrt(p[1])
        lo = normal_cdf(-mu / sigma)
        hi = normal_cdf((1.0 - mu) / sigma)
        z = normal_cdf((np.clip(x, 0.0, 1.0) - mu) / sigma)
        return (z - lo) / (hi - lo)
    if f == "kumaraswamy":
        a, b = p
        y = np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - y ** a) ** b
    if f == "stephens1":
        y = np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - y) ** p[0]
    if f == "stephens2":
        y = np.clip(x, 0.0, 1.0)
        k = p[0]
        return np.where(y <= 0.5, 0.5 * (2.0 * y) ** k, 1.0 - 0.5 * (2.0 * (1.0 - y)) ** k)
    if f == "stephens3":
        y = np.clip(x, 0.0, 1.0)
        k = p[0]
        # keep fractional powers off negative bases in the unused branch
        lo = np.maximum(1.0 - 2.0 * y, 0.0)
        hi = np.maximum(2.0 * y - 1.0, 0.0)
        return np.where(y <= 0.5, 0.5 * (1.0 - lo**k), 0.5 * (1.0 + hi**k))
    if f == "weibull":
        y = np.maximum(x, 0.0)
        return -np.expm1(-(y ** p[0]))
    if f == "gamma":
        return stats.gamma.cdf(x, p[0])
    if f == "skewnormal":
        return normal_cdf(x) - 2.0 * special.owens_t(x, p[0])
    if f == "lfr":
        y = np.maximum(x, 0.0)
        return -np.expm1(-y - 0.5 * p[0] * y * y)
    if f == "expgeometric":
        y = np.maximum(x, 0.0)
        e = np.exp(-y)
        return (1.0 - e) / (1.0 - p[0] * e)
    if f == "t":
        return stats.t.cdf(x, p[0])
    if f == "chisq":
        return stats.chi2.cdf(x, p[0])
    if f == "halfnormal":
        y = np.maximum(x, 0.0)
        return 2.0 * normal_cdf(y / p[0]) - 1.0
    if f == "normal":
        return normal_cdf((x - p[0]) / np.sqrt(p[1]))
    if f == "pareto":
        y = np.maximum(x, 1.0)
        return 1.0 - y ** (-p[0])
    raise AssertionError(f"unhandled family {f!r}")


def pdf(spec: AlternativeSpec, x) -> np.ndarray | float:
    """Density of the spec, vectorised over x. Zero outside the support."""
    x = np.asarray(x, dtype=float)
    out = _pdf(spec, x - 1.0 if spec.translate_by_one else x)
    return float(out) if out.ndim == 0 else out


def _pdf(spec: AlternativeSpec, x: np.ndarray) -> np.ndarray:
    f, p = spec.family, spec.params
    if f == "mixture":
        w, a, b = spec.mixture
        return w * np.asarray(pdf(a, x)) + (1.0 - w) * np.asarray(pdf(b, x))
    if f == "uniform":
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
    if f == "beta":
        return stats.beta.pdf(x, p[0], p[1])
    if f == "truncnormal":
        mu, sigma = p[0], np.sqrt(p[1])
        lo = normal_cdf(-mu / sigma)
        hi = normal_cdf((1.0 - mu) / sigma)
        inside = (x >= 0.0) & (x <= 1.0)
        dens = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi) * (hi - lo))
        return np.where(inside, dens, 0.0)
    if f == "kumaraswamy":
        a, b = p
        inside = (x >= 0.0) & (x <= 1.0)
        y = np.where(inside, x, 0.5)
        return np.where(inside, a * b * y ** (a - 1.0) * (1.0 - y ** a) ** (b - 1.0), 0.0)
    if f == "stephens1":
        inside = (x >= 0.0) & (x <= 1.0)
        y = np.where(inside, x, 0.5)
        return np.where(inside, p[0] * (1.0 - y) ** (p[0] - 1.0), 0.0)
    if f == "stephens2":
        k = p[0]
        inside = (x >= 0.0) & (x <= 1.0)
        y = np.where(inside, x, 0.25)
        dens = np.where(y <= 0.5, k * (2.0 * y) ** (k - 1.0), k * (2.0 * (1.0 - y)) ** (k - 1.0))
        return np.where(inside, dens, 0.0)
    if f == "stephens3":
        k = p[0]
        inside = (x >= 0.0) & (x <= 1.0)
        y = np.where(inside, x, 0.25)
        dens = np.where(y <= 0.5, k * (1.0 - 2.0 * y) ** (k - 1.0), k * (2.0 * y - 1.0) ** (k - 1.0))
        return np.where(inside, dens, 0.0)
    if f == "weibull":
        inside = x > 0.0
        y = np.where(inside, x, 1.0)
        return np.where(inside, p[0] * y ** (p[0] - 1.0) * np.exp(-(y ** p[0])), 0.0)
    if f == "gamma":
        return stats.gamma.pdf(x, p[0])
    if f == "skewnormal":
        # displayed with a positive exponent in some sources; the density
        # only integrates to one with exp(-x^2/2)
        return np.sqrt(2.0 / np.pi) * np.exp(-0.5 * x * x) * normal_cdf(p[0] * x)
    if f == "lfr":
        inside = x >= 0.0
        y = np.where(inside, x, 0.0)
        return np.where(inside, (1.0 + p[0] * y) * np.exp(-y - 0.5 * p[0] * y * y), 0.0)
    if f == "expgeometric":
        inside = x >= 0.0
        y = np.where(inside, x, 0.0)
        e = np.exp(-y)
        return np.where(inside, (1.0 - p[0]) * e / (1.0 - p[0] * e) ** 2, 0.0)
    if f == "t":
        return stats.t.pdf(x, p[0])
    if f == "chisq":
        return stats.chi2.pdf(x, p[0])
    if f == "halfnormal":
        inside = x >= 0.0
        return np.where(
            inside, np.sqrt(2.0 / (np.pi * p[0] ** 2)) * np.exp(-x * x / (2.0 * p[0] ** 2)), 0.0
        )
    if f == "normal":
        v = p[1]
        return np.exp(-0.5 * (x - p[0]) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
    if f == "pareto":
        inside = x >= 1.0
        y = np.where(inside, x, 1.0)
        return np.where(inside, p[0] * y ** (-p[0] - 1.0), 0.0)
    raise AssertionError(f"unhandled family {f!r}")


# ---------------------------------------------------------------------------
# text form


# short names; every family name except "mixture" is also its own name
_ALIASES = {
    "u": "uniform",
    "tn": "truncnormal",
    "k": "kumaraswamy",
    "kum": "kumaraswamy",
    "s1": "stephens1",
    "s2": "stephens2",
    "s3": "stephens3",
    "w": "weibull",
    "g": "gamma",
    "sn": "skewnormal",
    "eg": "expgeometric",
    "chi2": "chisq",
    "hn": "halfnormal",
    "n": "normal",
    "p": "pareto",
}

GRAMMAR_HELP = (
    "spec := name | name(params) | mix(p,spec,spec), optionally followed by +1; "
    "names: uniform|u, beta(a,b), tn(mu,var), kum|k(a,b), s1(k), s2(k), s3(k), "
    "weibull|w(t), gamma|g(t), sn(t), lfr(t), eg(t), t(df), chisq(k), hn(t), "
    "normal|n(mu,var), z, pareto|p(b); example: mix(0.5,z,n(1,9))"
)


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text.replace(" ", "").lower()
        self.pos = 0

    def fail(self, why: str) -> ValueError:
        return ValueError(f"cannot parse spec {self.text!r} at position {self.pos}: {why}. {GRAMMAR_HELP}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.fail(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        start = self.pos
        while self.peek().isalnum():
            self.pos += 1
        if self.pos == start:
            raise self.fail("expected a family name")
        return self.text[start:self.pos]

    def number(self) -> float:
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch not in "+-.0123456789e":
                break
            # a bare + only continues a number after an exponent marker,
            # otherwise it is the +1 decoration
            if ch == "+" and self.text[self.pos - 1] != "e":
                break
            self.pos += 1
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            raise self.fail("expected a number") from None

    def build(self, *args, **kwargs) -> AlternativeSpec:
        # surface semantic errors (arity, parameter ranges) with the same
        # position-and-grammar context as syntax errors
        try:
            return AlternativeSpec(*args, **kwargs)
        except ValueError as exc:
            raise self.fail(str(exc)) from None

    def spec(self) -> AlternativeSpec:
        word = self.name()
        if word == "mix":
            self.expect("(")
            weight = self.number()
            self.expect(",")
            a = self.spec()
            self.expect(",")
            b = self.spec()
            self.expect(")")
            built = self.build("mixture", mixture=(weight, a, b))
        elif word == "z":
            built = self.build("normal", (0.0, 1.0))
        else:
            family = _ALIASES.get(word, word)
            if family not in FAMILIES or family == "mixture":
                raise self.fail(f"unknown family {word!r}")
            args: tuple[float, ...] = ()
            if self.peek() == "(":
                self.expect("(")
                vals = [self.number()]
                while self.peek() == ",":
                    self.expect(",")
                    vals.append(self.number())
                self.expect(")")
                args = tuple(vals)
            built = self.build(family, args)
        if self.text.startswith("+1", self.pos):
            self.pos += 2
            built = AlternativeSpec(
                built.family, built.params, translate_by_one=True, mixture=built.mixture
            )
        return built


def parse_spec(text: str) -> AlternativeSpec:
    """Parse the compact text form of an alternative spec."""
    if not text or not text.strip():
        raise ValueError(f"empty spec. {GRAMMAR_HELP}")
    parser = _Parser(text)
    built = parser.spec()
    if parser.pos != len(parser.text):
        raise parser.fail("unexpected trailing input")
    return built
