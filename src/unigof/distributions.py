"""Alternative distributions for the power studies, plus a tiny spec grammar.

Each family is declared once, in ``_TABLE``: its parameter names, its short
aliases, its closed support ``(lo, hi)``, its parameter rule, its sampler and
its distribution function. The seventeen families are shapes on the unit
interval, lifetime laws on [0, inf) and real-line laws for the composite
studies. ``FAMILIES``, each family's arity, the alias lookup, the grammar help
that the command line and every parse error print, spec validation, the one
support check of studies and nulls, and the clip of every CDF to its support
all derive from the table. No density is stated: the fixed-alternative
constants come from ``cdf`` (``power_theory``), to 1e-13 for smooth laws and
about 1e-6 for a density infinite at an end. Sampling is pure given an
explicit numpy Generator. A Stephens law is stated by its base b(y): its CDF
is a function of y and b(y)^k, and its quantile function is that CDF with k
replaced by 1/k, so that formula is also its sampler. The beta, gamma, t and
chi-square laws are evaluated with the ``scipy.special`` functions that
``scipy.stats`` uses for them, so the package does not import ``scipy.stats``;
``numerics.special`` imports ``scipy.special`` at the first such call.

On top of the table, a mixture composes two specs with a per-draw Bernoulli
choice, and any spec can be translated by one to move positive support onto
(1, inf) for the Pareto studies; ``cdf`` walks these decorations. The
text form (``beta(2,3)``, ``mix(0.5,z,n(1,9))``, ``gamma(1)+1``) is what the
command line accepts: one token pattern splits it and a recursive descent
over the tokens builds the spec.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .numerics import _integer, normal_cdf, normal_quantile, special
from .statistic import Sample

__all__ = [
    "AlternativeSpec",
    "FAMILIES",
    "sample",
    "cdf",
    "parse_spec",
    "support",
    "covers",
    "check_support",
]

Params = tuple[float, ...]


@dataclass(frozen=True)
class _Family:
    """One family of alternatives.

    ``params`` names the parameters as the grammar writes them (``"a,b"``,
    ``""`` for none), and ``aliases`` are the short names the text form also
    accepts. ``valid(params)`` is the parameter check, and a spec that fails
    it is rejected with ``"<family> <rule>"``, unless ``valid`` raises an
    error of its own that names the spec. ``draw(params, n, rng)`` returns n
    draws. ``cdf(params, y)`` is only called with y inside the closed ``support`` or
    NaN, must return NaN at NaN, and may overflow silently on the way to a
    limit; the fixed-alternative theory is built from it, so no density is needed.
    """

    params: str
    aliases: tuple[str, ...]
    support: tuple[float, float]
    valid: Callable[[Params], bool]
    rule: str
    draw: Callable[[Params, int, np.random.Generator], np.ndarray]
    cdf: Callable[[Params, np.ndarray], np.ndarray]

    @property
    def arity(self) -> int:
        return len(self.params.split(",")) if self.params else 0


_UNIT = (0.0, 1.0)
_HALF_LINE = (0.0, np.inf)
_LINE = (-np.inf, np.inf)


def _number(v: float) -> str:
    """``v`` as ``:g`` writes it where that reads back exactly, else its shortest exact form."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


def _positive(p: Params) -> bool:
    return all(v > 0.0 for v in p)


def _stephens(alias: str, base: Callable, cdf: Callable) -> _Family:
    """A Stephens family of shape k: CDF ``cdf(y, base(y)^k)``.

    Its quantile function is its CDF with k replaced by 1/k, so that is also its sampler.
    """
    def at(k, y):
        return cdf(y, base(y) ** k)

    return _Family("k", (alias,), _UNIT, _positive, "parameter must be positive",
        draw=lambda p, n, rng: at(1.0 / p[0], rng.random(n)),
        cdf=lambda p, y: at(p[0], y),
    )


def _truncnormal(p: Params):
    """Mean, standard deviation, orientation s, and the normal CDF at s z for the ends z of [0, 1].

    For mu < 0 the interval lies in the normal's upper tail, where the CDF
    rounds to one at both ends; s = -1 evaluates it through the mirrored
    lower tail. For mu >= 0, s = 1 and every product with s is exact.
    """
    mu, sigma = p[0], np.sqrt(p[1])
    s = -1.0 if mu < 0.0 else 1.0
    with np.errstate(over="ignore"):  # an end more than ~1e308 SDs out is at -inf or inf, where the CDF is exact
        return mu, sigma, s, normal_cdf(s * (-mu / sigma)), normal_cdf(s * ((1.0 - mu) / sigma))


def _truncnormal_valid(p: Params) -> bool:
    """A positive variance; with finite parameters, also a normal (not subnormal) mass on [0, 1]."""
    if not p[1] > 0.0:
        return False
    if np.isfinite(p).all():
        mu, sigma, s, lo, hi = _truncnormal(p)
        if not s * (hi - lo) >= np.finfo(float).tiny:
            raise ValueError(f"truncnormal({p[0]:g},{p[1]:g}): [0, 1] carries no normal mass in double precision")
    return True


def _truncnormal_draw(p, n, rng):
    mu, sigma, s, lo, hi = _truncnormal(p)
    return mu + sigma * (s * normal_quantile(lo + rng.random(n) * (hi - lo)))


def _truncnormal_cdf(p, y):
    mu, sigma, s, lo, hi = _truncnormal(p)
    return (normal_cdf(s * ((y - mu) / sigma)) - lo) / (hi - lo)


def _skewnormal_draw(p, n, rng):
    delta = p[0] / np.sqrt(1.0 + p[0] ** 2)
    z1 = np.abs(rng.standard_normal(n))
    z2 = rng.standard_normal(n)
    return delta * z1 + np.sqrt(1.0 - delta * delta) * z2


def _lfr_draw(p, n, rng):
    theta = p[0]
    haz = -np.log1p(-rng.random(n))
    if theta == 0.0:
        return haz
    return (np.sqrt(1.0 + 2.0 * theta * haz) - 1.0) / theta


def _expgeometric_draw(p, n, rng):
    u = rng.random(n)
    return np.log((1.0 - p[0] * u) / (1.0 - u))


_TABLE: dict[str, _Family] = {
    "uniform": _Family("", ("u",), _UNIT, lambda p: True, "",
        draw=lambda p, n, rng: rng.random(n),
        cdf=lambda p, y: y,
    ),
    "beta": _Family("a,b", (), _UNIT, _positive, "shapes must be positive",
        draw=lambda p, n, rng: rng.beta(p[0], p[1], n),
        cdf=lambda p, y: special.betainc(p[0], p[1], y),
    ),
    "truncnormal": _Family("mu,var", ("tn",), _UNIT, _truncnormal_valid, "variance must be positive",
        draw=_truncnormal_draw, cdf=_truncnormal_cdf,
    ),
    "kumaraswamy": _Family("a,b", ("kum", "k"), _UNIT, _positive, "shapes must be positive",
        draw=lambda p, n, rng: (1.0 - (1.0 - rng.random(n)) ** (1.0 / p[1])) ** (1.0 / p[0]),
        cdf=lambda p, y: 1.0 - (1.0 - y ** p[0]) ** p[1],
    ),
    "stephens1": _stephens("s1", base=lambda y: 1.0 - y, cdf=lambda y, t: 1.0 - t),
    # min(y, 1 - y) is y up to 1/2 and the exact 1 - y above it
    "stephens2": _stephens("s2",
        base=lambda y: 2.0 * np.minimum(y, 1.0 - y), cdf=lambda y, t: np.where(y <= 0.5, 0.5 * t, 1.0 - 0.5 * t)
    ),
    # |1 - 2y| keeps fractional powers off negative bases; the sign of 2y - 1 picks the half
    "stephens3": _stephens("s3",
        base=lambda y: np.abs(1.0 - 2.0 * y), cdf=lambda y, t: 0.5 * (1.0 + np.sign(2.0 * y - 1.0) * t)
    ),
    "weibull": _Family("k", ("w",), _HALF_LINE, _positive, "parameter must be positive",
        draw=lambda p, n, rng: (-np.log1p(-rng.random(n))) ** (1.0 / p[0]),
        cdf=lambda p, y: -np.expm1(-(y ** p[0])),
    ),
    "gamma": _Family("k", ("g",), _HALF_LINE, _positive, "parameter must be positive",
        draw=lambda p, n, rng: rng.gamma(p[0], 1.0, n),
        cdf=lambda p, y: special.gammainc(p[0], y),
    ),
    "skewnormal": _Family("alpha", ("sn",), _LINE, lambda p: True, "",
        draw=_skewnormal_draw,
        cdf=lambda p, y: normal_cdf(y) - 2.0 * special.owens_t(y, p[0]),
    ),
    "lfr": _Family("theta", (), _HALF_LINE, lambda p: p[0] >= 0.0, "slope must be nonnegative",
        draw=_lfr_draw,
        # slope 0 drops the quadratic term, whose 0 * inf would be NaN at y = inf
        cdf=lambda p, y: -np.expm1(-y - 0.5 * p[0] * y * y) if p[0] else -np.expm1(-y),
    ),
    "expgeometric": _Family("p", ("eg",), _HALF_LINE, lambda p: 0.0 <= p[0] < 1.0, "parameter must lie in [0, 1)",
        draw=_expgeometric_draw,
        cdf=lambda p, y: (1.0 - np.exp(-y)) / (1.0 - p[0] * np.exp(-y)),
    ),
    "t": _Family("df", (), _LINE, _positive, "parameter must be positive",
        draw=lambda p, n, rng: rng.standard_t(p[0], n),
        cdf=lambda p, y: special.stdtr(p[0], y),
    ),
    "chisq": _Family("df", ("chi2",), _HALF_LINE, _positive, "parameter must be positive",
        draw=lambda p, n, rng: rng.chisquare(p[0], n),
        cdf=lambda p, y: special.chdtr(p[0], y),
    ),
    "halfnormal": _Family("sigma", ("hn",), _HALF_LINE, _positive, "parameter must be positive",
        draw=lambda p, n, rng: p[0] * np.abs(rng.standard_normal(n)),
        cdf=lambda p, y: 2.0 * normal_cdf(y / p[0]) - 1.0,
    ),
    "normal": _Family("mu,var", ("n",), _LINE, lambda p: p[1] > 0.0, "variance must be positive",
        draw=lambda p, n, rng: p[0] + np.sqrt(p[1]) * rng.standard_normal(n),
        cdf=lambda p, y: normal_cdf((y - p[0]) / np.sqrt(p[1])),
    ),
    "pareto": _Family("b", ("p",), (1.0, np.inf), _positive, "parameter must be positive",
        draw=lambda p, n, rng: (1.0 - rng.random(n)) ** (-1.0 / p[0]),
        cdf=lambda p, y: 1.0 - y ** (-p[0]),
    ),
}

# family tag -> number of parameters
FAMILIES: dict[str, int] = {tag: family.arity for tag, family in _TABLE.items()} | {"mixture": 0}


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
            if self.params:
                raise ValueError(f"a mixture takes no parameters of its own, got {self.params}")
            p, a, b = self.mixture
            if not 0.0 <= p <= 1.0:
                raise ValueError("mixture weight must lie in [0, 1]")
            if not isinstance(a, AlternativeSpec) or not isinstance(b, AlternativeSpec):
                raise ValueError("mixture components must be AlternativeSpec values")
            return
        if self.mixture is not None:
            raise ValueError("only family='mixture' may carry a mixture triple")
        family = _TABLE[self.family]
        if len(self.params) != family.arity:
            raise ValueError(
                f"family {self.family!r} takes {family.arity} parameter(s), "
                f"got {len(self.params)}"
            )
        if not family.valid(self.params):
            raise ValueError(f"{self.family} {family.rule}")
        for v in self.params:
            if not np.isfinite(v):
                raise ValueError(f"{self.family} parameters must be finite, got {v!r}")

    def label(self) -> str:
        if self.family == "mixture":
            p, a, b = self.mixture
            core = f"mix({_number(p)},{a.label()},{b.label()})"
        elif self.params:
            core = f"{self.family}({','.join(map(_number, self.params))})"
        else:
            core = self.family
        return core + ("+1" if self.translate_by_one else "")


def _drawn(spec: AlternativeSpec) -> list[tuple[float, AlternativeSpec]]:
    """The (share, component) pairs of a mixture that carry weight; only these are ever drawn."""
    w, a, b = spec.mixture
    return [(share, part) for share, part in ((w, a), (1.0 - w, b)) if share > 0.0]


def support(spec: AlternativeSpec) -> tuple[float, float]:
    """Closed interval holding every draw: the hull of a mixture's drawn components, shifted for +1."""
    if spec.family == "mixture":
        hulls = [support(part) for _, part in _drawn(spec)]
        lo, hi = min(h[0] for h in hulls), max(h[1] for h in hulls)
    else:
        lo, hi = _TABLE[spec.family].support
    return (lo + 1.0, hi + 1.0) if spec.translate_by_one else (lo, hi)


def covers(spec: AlternativeSpec, x) -> np.ndarray:
    """Where x lies in the closed support of the spec: for a mixture, in that of a drawn component."""
    x = np.asarray(x, dtype=float)
    if spec.translate_by_one:
        x = x - 1.0
    if spec.family == "mixture":
        return np.logical_or.reduce([covers(part, x) for _, part in _drawn(spec)])
    lo, hi = _TABLE[spec.family].support
    return (x >= lo) & (x <= hi)


def check_support(spec: AlternativeSpec, family: str) -> None:
    """Raise unless every draw from the spec lies in the closed support of the null ``family``."""
    lo, hi = support(spec)
    null_lo, null_hi = _TABLE[family].support
    if lo < null_lo or hi > null_hi:
        raise ValueError(
            f"alternative {spec.label()} can draw values outside [{null_lo:g}, {null_hi:g}], "
            f"the support of the {family} null"
        )


def _draw(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.family == "mixture":
        w, a, b = spec.mixture
        take_a = rng.random(n) < w
        out = np.empty(n)
        n_a = int(take_a.sum())
        if n_a:
            out[take_a] = _draw(a, n_a, rng)
        if n - n_a:
            out[~take_a] = _draw(b, n - n_a, rng)
    else:
        out = _TABLE[spec.family].draw(spec.params, n, rng)
    return out + 1.0 if spec.translate_by_one else out


def sample(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> Sample:
    """Draw n independent observations from the spec."""
    n = _integer("n", n)
    if not n >= 1:
        raise ValueError("n must be at least 1")
    return Sample(_draw(spec, n, rng))


def cdf(spec: AlternativeSpec, x) -> np.ndarray | float:
    """Distribution function of the spec, vectorised over x; a mixture sums its drawn components by share."""
    x = np.asarray(x, dtype=float)
    if spec.translate_by_one:
        x = x - 1.0
    if spec.family == "mixture":
        out = sum(share * cdf(part, x) for share, part in _drawn(spec))
    else:
        family = _TABLE[spec.family]
        lo, hi = family.support
        # unlike np.clip, np.maximum turns -0.0 into 0.0, so no CDF value is -0.0
        with np.errstate(over="ignore"):
            out = np.clip(family.cdf(spec.params, np.minimum(np.maximum(x, lo), hi)), 0.0, 1.0)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# text form


# short name -> family tag; every family tag except "mixture" is also its own name
_ALIASES = {alias: tag for tag, family in _TABLE.items() for alias in family.aliases}

GRAMMAR_HELP = (
    "spec := name | name(params) | mix(p,spec,spec), optionally followed by +1; names: "
    + ", ".join("|".join((tag, *f.aliases)) + (f"({f.params})" if f.params else "") for tag, f in _TABLE.items())
    + "; z is normal(0,1); example: mix(0.5,z,n(1,9))"
)

# a number as float() reads it, with + only after the exponent's e; a name;
# the +1 suffix; or any other single character: a bracket, a comma or junk
_TOKEN = re.compile(
    r"(?P<number>-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?)|(?P<name>[a-z][a-z0-9]*)|\+1|.", re.S
)
_EXPECTED = {"number": "a number", "name": "a family name"}


def parse_spec(text: str) -> AlternativeSpec:
    """Parse the compact text form of an alternative spec."""
    if not text or not text.strip():
        raise ValueError(f"empty spec. {GRAMMAR_HELP}")
    text = "".join(text.split()).lower()
    # (position, token, kind): a number or a name is of its kind, anything else is its own kind
    tokens = [(m.start(), m.group(), m.lastgroup or m.group()) for m in _TOKEN.finditer(text)]
    tokens.append((len(text), "", "end"))
    at = 0

    def fail(why: str) -> ValueError:
        return ValueError(f"cannot parse spec {text!r} at position {tokens[at][0]}: {why}. {GRAMMAR_HELP}")

    def peek() -> str:
        return tokens[at][2]

    def take(kind: str) -> str:
        nonlocal at
        if peek() != kind:
            raise fail(f"expected {_EXPECTED.get(kind, repr(kind))}")
        at += 1
        return tokens[at - 1][1]

    def build(*args, **kwargs) -> AlternativeSpec:
        # semantic errors (arity, parameter ranges) get the position and grammar of syntax errors
        try:
            return AlternativeSpec(*args, **kwargs)
        except ValueError as exc:
            raise fail(str(exc)) from None

    def spec() -> AlternativeSpec:
        word = take("name")
        if word == "mix":
            take("(")
            weight = float(take("number"))
            take(",")
            a = spec()
            take(",")
            b = spec()
            take(")")
            built = build("mixture", mixture=(weight, a, b))
        elif word == "z":
            built = build("normal", (0.0, 1.0))
        else:
            family = _ALIASES.get(word, word)
            if family not in _TABLE:
                raise fail(f"unknown family {word!r}")
            params = []
            # "(" opens the list and "," continues it
            while peek() == ("," if params else "("):
                take(peek())
                params.append(float(take("number")))
            if params:
                take(")")
            built = build(family, tuple(params))
        if peek() == "+1":
            take("+1")
            built = replace(built, translate_by_one=True)
        return built

    built = spec()
    if peek() != "end":
        raise fail("unexpected trailing input")
    return built
