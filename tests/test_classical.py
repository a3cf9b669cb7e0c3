"""Classical EDF and spacings statistics, checked three ways.

Hand anchors for tiny samples, naive loop reimplementations on random
data, and scipy where it offers the same statistic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from unigof import (
    CLASSICAL_KINDS,
    TEST_IDS,
    UnitSample,
    batch_statistic,
    classical_battery,
    tm_statistic,
)
from unigof import classical
from unigof.statistic import UnitRows

interior_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
    min_size=1,
    max_size=40,
)


# ---------------------------------------------------------------------------
# naive reimplementations used as oracles


def naive(kind: str, u: np.ndarray) -> float:
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    j = np.arange(1, n + 1)
    if kind == "ks":
        return max(np.max(j / n - u), np.max(u - (j - 1) / n))
    if kind == "kuiper":
        return np.max(j / n - u) + np.max(u - (j - 1) / n)
    if kind == "cvm":
        return 1.0 / (12.0 * n) + np.sum((u - (2 * j - 1) / (2.0 * n)) ** 2)
    if kind == "watson":
        return naive("cvm", u) - n * (np.mean(u) - 0.5) ** 2
    if kind == "ad":
        with np.errstate(divide="ignore"):
            return -n - np.sum((2 * j - 1) * (np.log(u) + np.log(1.0 - u[::-1]))) / n
    if kind == "frs":
        return np.sum(np.abs(u - (j - 0.5) / n)) / np.sqrt(n)
    if kind == "zc":
        c = np.clip(u, 1e-12, 1.0 - 1e-12)
        return float(
            np.sum(np.log((1.0 / c - 1.0) / ((n - 0.5) / (j - 0.75) - 1.0)) ** 2)
        )
    spacings = np.diff(np.concatenate([[0.0], u, [1.0]]))
    if kind == "sherman":
        return 0.5 * np.sum(np.abs(spacings - 1.0 / (n + 1)))
    if kind == "qm":
        return np.sum(spacings**2) + np.sum(spacings[:-1] * spacings[1:])
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# anchors


@pytest.mark.parametrize(
    "kind, values, expected",
    [
        ("ks", [0.5], 0.5),
        ("kuiper", [0.5], 1.0),
        ("cvm", [0.5], 1.0 / 12.0),
        ("watson", [0.5], 1.0 / 12.0),
        ("ad", [0.5], 2.0 * np.log(2.0) - 1.0),
        ("frs", [0.5], 0.0),
        ("zc", [0.5], 0.0),  # (n - 1/2) / (j - 3/4) - 1 = 1 at u = 1/2
        ("sherman", [1.0 / 3.0, 2.0 / 3.0], 0.0),  # perfectly even spacings
        ("qm", [0.25, 0.5, 0.75], 7.0 / 16.0),
    ],
)
def test_hand_anchors(kind, values, expected):
    assert batch_statistic(kind, UnitSample(values))[0] == pytest.approx(
        expected, abs=1e-14
    )


def test_kuiper_constant_for_single_observation(rng):
    # D+ + D- telescopes to 1 whatever the single value is
    for u in rng.random(10):
        assert batch_statistic("kuiper", UnitSample([u]))[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# oracles on random data


@pytest.mark.parametrize("kind", CLASSICAL_KINDS)
def test_matches_naive_loop(kind, rng):
    for _ in range(60):
        n = int(rng.integers(1, 51))
        u = rng.random(n)
        got = batch_statistic(kind, UnitSample(u))[0]
        assert got == pytest.approx(naive(kind, u), rel=1e-11, abs=1e-12), f"n={n}"


def test_ks_matches_scipy(rng):
    for _ in range(30):
        u = rng.random(int(rng.integers(2, 60)))
        want = stats.kstest(u, "uniform").statistic
        assert batch_statistic("ks", UnitSample(u))[0] == pytest.approx(want, abs=1e-13)


def test_cvm_matches_scipy(rng):
    for _ in range(30):
        u = rng.random(int(rng.integers(2, 60)))
        want = stats.cramervonmises(u, "uniform").statistic
        assert batch_statistic("cvm", UnitSample(u))[0] == pytest.approx(want, abs=1e-13)


# ---------------------------------------------------------------------------
# batch interface


def test_batch_matches_single(rng):
    U = rng.random((25, 19))
    for kind in CLASSICAL_KINDS:
        got = batch_statistic(kind, U)
        want = np.array([batch_statistic(kind, UnitSample(row))[0] for row in U])
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_batch_includes_core_statistic(rng):
    U = rng.random((10, 12))
    np.testing.assert_allclose(
        batch_statistic("tm", U), [tm_statistic(r) for r in U], rtol=1e-12
    )


def test_batch_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        batch_statistic("lilliefors", np.full((1, 3), 0.5))


def test_batch_unknown_kind_lists_every_test_id():
    with pytest.raises(ValueError) as excinfo:
        batch_statistic("nope", np.full((1, 3), 0.5))
    assert str(excinfo.value) == "unknown test id 'nope'; expected one of " + ", ".join(TEST_IDS)


def test_batch_validates_range():
    with pytest.raises(ValueError, match="probability transform"):
        batch_statistic("ks", np.array([[0.1, 1.7]]))


@pytest.mark.parametrize("n", [1, 10, 200])
def test_checked_rows_give_bit_identical_statistics(rng, n):
    # ties and the exact endpoints, in unsorted order
    U = np.round(rng.random((30, n)), 1)
    U[0, :] = 0.0
    U[1, :] = 1.0
    U[2, ::2] = 0.0
    U[3, ::3] = 1.0
    rows = UnitRows(U)
    for kind in TEST_IDS:
        got = batch_statistic(kind, rows)
        np.testing.assert_array_equal(got, batch_statistic(kind, U), kind)
        np.testing.assert_array_equal(got, batch_statistic(kind, U[:, ::-1]), kind)


def test_row_blocks_are_bit_identical(block_rows):
    rows, picks = block_rows
    V = rows.values
    for kind in CLASSICAL_KINDS:
        got = batch_statistic(kind, rows)
        # the whole matrix in one pass, and single rows on either side of each block edge
        np.testing.assert_array_equal(got, classical._batch_sorted(kind, V), kind)
        for i in picks:
            np.testing.assert_array_equal(got[i], batch_statistic(kind, UnitRows(V[i]))[0], f"{kind} row {i}")


# ---------------------------------------------------------------------------
# battery


class TestBattery:
    def test_runs_everything_once(self, rng):
        outcomes = classical_battery(UnitSample(rng.random(30)))
        assert [o.test_id for o in outcomes] == list(TEST_IDS)
        assert all(np.isfinite(o.statistic) for o in outcomes)

    def test_first_entry_is_the_new_statistic(self, rng):
        u = UnitSample(rng.random(20))
        outcomes = classical_battery(u)
        assert outcomes[0].test_id == "tm"
        assert outcomes[0].statistic == pytest.approx(tm_statistic(u))

    def test_a_failing_statistic_raises(self, rng, monkeypatch):
        def broken(kind, V):
            raise RuntimeError(f"{kind} failed")

        monkeypatch.setattr(classical, "_batch_sorted", broken)
        with pytest.raises(RuntimeError, match="ks failed"):
            classical_battery(UnitSample(rng.random(30)))

    def test_finite_across_many_draws(self, rng):
        U = rng.beta(2.0, 3.0, size=(500, 50))
        for kind in TEST_IDS:
            assert np.all(np.isfinite(batch_statistic(kind, U))), kind


# ---------------------------------------------------------------------------
# invariances and bounds


@given(interior_lists, st.randoms())
@settings(max_examples=60)
def test_permutation_invariance(values, shuffler):
    permuted = list(values)
    shuffler.shuffle(permuted)
    for kind in ("ks", "cvm", "ad", "sherman", "zc"):
        assert batch_statistic(kind, UnitSample(permuted))[0] == pytest.approx(
            batch_statistic(kind, UnitSample(values))[0], rel=1e-12, abs=1e-12
        )


def test_statistic_bounds_on_random_samples(rng):
    U = rng.random((2000, 23))
    ks = batch_statistic("ks", U)
    assert np.all((ks > 0.0) & (ks <= 1.0))
    kuiper = batch_statistic("kuiper", U)
    assert np.all((kuiper > 0.0) & (kuiper <= 2.0))
    assert np.all(kuiper >= ks)
    sherman = batch_statistic("sherman", U)
    assert np.all((sherman >= 0.0) & (sherman < 1.0))
    qm = batch_statistic("qm", U)
    assert np.all((qm > 0.0) & (qm <= 1.0))
    ad = batch_statistic("ad", U)
    assert np.all(ad > -1.0)


def test_zc_is_clamped_at_exact_endpoints():
    # an exact 0 or 1 would otherwise produce an infinite log
    u = UnitSample([0.0, 0.3, 1.0])
    assert np.isfinite(batch_statistic("zc", u)[0])


def test_ad_diverges_at_exact_endpoints():
    # Anderson-Darling genuinely blows up there; it must come back inf,
    # not raise or go NaN
    u = UnitSample([0.0, 0.5])
    assert batch_statistic("ad", u)[0] == np.inf
