"""Classical EDF and spacings statistics, checked three ways.

Hand anchors for tiny samples, naive loop reimplementations on random
data, and scipy where it offers the same statistic.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from unigof import (
    CLASSICAL_KINDS,
    TEST_IDS,
    StudyConfig,
    UnitSample,
    batch_statistic,
    classical_battery,
    estimate_critical_values,
    tm_statistic,
)
from unigof import classical, statistic
from unigof.statistic import _BLOCK_VALUES, UnitRows, tm_statistic_integral

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


def _spacings(V: np.ndarray) -> np.ndarray:
    # n + 1 gaps per row after augmenting with the interval endpoints
    R = V.shape[0]
    zeros = np.zeros((R, 1))
    ones = np.ones((R, 1))
    return np.diff(np.hstack([zeros, V, ones]), axis=1)


def oracle_sorted(kind: str, V: np.ndarray) -> np.ndarray:
    """Each statistic on its own, one expression per test, on sorted rows ``V``.

    These are the formulas the grouped kernels in ``classical`` must
    reproduce bit for bit; they share no code with them.
    """
    R, n = V.shape
    j = np.arange(1, n + 1, dtype=float)

    if kind == "ks":
        d_plus = np.max(j / n - V, axis=1)
        d_minus = np.max(V - (j - 1.0) / n, axis=1)
        return np.maximum(d_plus, d_minus)

    if kind == "kuiper":
        return np.max(j / n - V, axis=1) + np.max(V - (j - 1.0) / n, axis=1)

    if kind == "cvm":
        return 1.0 / (12.0 * n) + np.sum((V - (2.0 * j - 1.0) / (2.0 * n)) ** 2, axis=1)

    if kind == "watson":
        w2 = 1.0 / (12.0 * n) + np.sum((V - (2.0 * j - 1.0) / (2.0 * n)) ** 2, axis=1)
        return w2 - n * (np.mean(V, axis=1) - 0.5) ** 2

    if kind == "ad":
        with np.errstate(divide="ignore"):
            logs = np.log(V) + np.log1p(-V[:, ::-1])
        return -n - np.sum((2.0 * j - 1.0) * logs, axis=1) / n

    if kind == "sherman":
        return 0.5 * np.sum(np.abs(_spacings(V) - 1.0 / (n + 1.0)), axis=1)

    if kind == "qm":
        gaps = _spacings(V)
        # squared-gap sum runs over all n + 1 gaps, the cross term over the
        # first n adjacent pairs only
        return np.sum(gaps * gaps, axis=1) + np.sum(gaps[:, :-1] * gaps[:, 1:], axis=1)

    if kind == "frs":
        return np.sum(np.abs(V - (j - 0.5) / n), axis=1) / np.sqrt(n)

    assert kind == "zc", kind
    W = np.clip(V, 1e-12, 1.0 - 1e-12)
    ratio = (1.0 / W - 1.0) / ((n - 0.5) / (j - 0.75) - 1.0)
    return np.sum(np.log(ratio) ** 2, axis=1)


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
        np.testing.assert_array_equal(got, oracle_sorted(kind, V), kind)
        for i in picks:
            np.testing.assert_array_equal(got[i], batch_statistic(kind, UnitRows(V[i]))[0], f"{kind} row {i}")


def test_shared_passes_hand_out_copies(rng):
    # ks and kuiper come from one kept pass over the rows; what a caller
    # does to its array must not reach the other member, or the same test again
    rows = UnitRows(rng.random((300, 17)))
    ks = batch_statistic("ks", rows)
    ks[:] = -1.0
    for kind in ("ks", "kuiper"):
        np.testing.assert_array_equal(batch_statistic(kind, rows), oracle_sorted(kind, rows.values), kind)


def test_rows_from_one_matrix_keep_their_own_passes(rng):
    U = rng.random((50, 9))
    first, second = UnitRows(U), UnitRows(U)
    want = {kind: batch_statistic(kind, first) for kind in CLASSICAL_KINDS}
    assert second._memo == {}
    for kind in CLASSICAL_KINDS:
        np.testing.assert_array_equal(batch_statistic(kind, second), want[kind], kind)
    assert second._memo is not first._memo
    assert all(second._memo[k] is not first._memo[k] for k in first._memo)


# ---------------------------------------------------------------------------
# per-thread scratch: the kernels' temporaries, never their results

_ROW_KERNELS = (statistic._tm_rows,) + tuple(dict.fromkeys(kernel for kernel, _ in classical._KERNELS.values()))


@pytest.mark.parametrize("kernel", _ROW_KERNELS, ids=lambda kernel: kernel.__name__)
def test_a_kernel_result_outlives_the_next_call(kernel, rng):
    first = kernel(np.sort(rng.random((40, 30)), axis=1))
    kept = first.copy()
    kernel(np.sort(rng.random((70, 20)), axis=1))
    np.testing.assert_array_equal(first, kept)
    assert not any(np.shares_memory(first, slot) for slot in statistic._scratch.slots.values())


def test_threads_scoring_blocks_of_different_sizes_at_once_match_serial(rng):
    # three threads, more than the cores of a small host, each scoring its
    # own n at the same time, switching as often as the interpreter allows
    blocks = [rng.random((rows, n)) for rows, n in ((300, 7), (163, 200), (30, 1000))]
    serial = [{t: batch_statistic(t, UnitRows(V)) for t in TEST_IDS} for V in blocks]
    barrier, wrong, done = threading.Barrier(len(blocks), timeout=60), [], []

    def score(V, want):
        barrier.wait()
        for _ in range(10):
            rows = UnitRows(V)
            wrong.extend((V.shape, t) for t in TEST_IDS if not np.array_equal(batch_statistic(t, rows), want[t]))
        done.append(V.shape)

    threads = [threading.Thread(target=score, args=pair) for pair in zip(blocks, serial)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == len(blocks) and wrong == []


def test_a_row_longer_than_a_block_scores_right_and_keeps_no_scratch(rng):
    row = np.sort(rng.random(_BLOCK_VALUES + 1))
    block = UnitRows(rng.random((163, 200)))
    seen = {}

    def run():
        seen["first"] = {t: batch_statistic(t, UnitRows(row)) for t in TEST_IDS}
        seen["alone"] = dict(getattr(statistic._scratch, "slots", {}))
        for t in TEST_IDS:
            batch_statistic(t, block)
        seen["block"] = {k: slot.size for k, slot in statistic._scratch.slots.items()}
        seen["got"] = {t: batch_statistic(t, UnitRows(row)) for t in TEST_IDS}
        seen["after"] = {k: slot.size for k, slot in statistic._scratch.slots.items()}

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    # a fresh thread that scores only the long row keeps nothing, and the
    # long row leaves a block's slots as they were: one block plus one column per row
    assert seen["alone"] == {}
    assert seen["after"] == seen["block"] and max(seen["block"].values()) <= _BLOCK_VALUES + 163
    for kind in CLASSICAL_KINDS:
        np.testing.assert_array_equal(seen["got"][kind], oracle_sorted(kind, row[None, :]), kind)
    for t in TEST_IDS:
        np.testing.assert_array_equal(seen["got"][t], seen["first"][t], t)
    # the closed form cancels terms of size n / 30, about 2e-11 at this n
    assert seen["got"]["tm"][0] == pytest.approx(tm_statistic_integral(row), rel=0.0, abs=1e-10)


def _kuiper_limit_sf(x: float) -> float:
    # P(sqrt(n) V > x) in the limit: 2 sum_k (4 k^2 x^2 - 1) exp(-2 k^2 x^2)
    k = np.arange(1, 101)
    return float(2.0 * np.sum((4.0 * k**2 * x**2 - 1.0) * np.exp(-2.0 * k**2 * x**2)))


def _watson_limit_sf(x: float) -> float:
    # P(U^2 > x) in the limit: 2 sum_k (-1)^(k-1) exp(-2 k^2 pi^2 x)
    k = np.arange(1, 101)
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * np.pi**2 * x)))


def _cvm_limit_sf(x: float) -> float:
    # Anderson and Darling (1952): P(W^2 <= x) = (pi sqrt(x))^-1 sum_j Gamma(j + 1/2) / (Gamma(1/2) j!)
    # sqrt(4j + 1) exp(-z_j) K_{1/4}(z_j), with z_j = (4j + 1)^2 / (16 x)
    j = np.arange(20)
    z = (4.0 * j + 1.0) ** 2 / (16.0 * x)
    c = np.exp(special.gammaln(j + 0.5) - special.gammaln(0.5) - special.gammaln(j + 1.0))
    return 1.0 - float(np.sum(c * np.sqrt(4.0 * j + 1.0) * np.exp(-z) * special.kv(0.25, z)) / (np.pi * np.sqrt(x)))


def test_edf_critical_values_match_stephens_limits():
    # the engine's Monte Carlo points at n = 200 against the limit laws, through
    # Stephens' modified forms D (sqrt(n) + 0.12 + 0.11/sqrt(n)),
    # V (sqrt(n) + 0.155 + 0.24/sqrt(n)), W* = (W^2 - 0.4/n + 0.6/n^2)(1 + 1/n)
    # and U* = (U^2 - 0.1/n + 0.1/n^2)(1 + 0.8/n); the band is 4 Monte Carlo SE
    # plus 0.5% for the modification's own error (Kuiper's 10% point reads
    # 0.25-0.36% low, 3.2-4.5 SE, at seeds 1, 2, 3, 11 and 12; the largest
    # cvm or watson gap at those seeds is 2.1 SE)
    n = 200
    tests = ("ks", "kuiper", "cvm", "watson")
    result = estimate_critical_values(StudyConfig(
        mode="critical_values", tests=tests, family="uniform", alternatives=(), sizes=(n,),
        alphas=(0.10, 0.05, 0.01), replications=200_000, master_seed=1,
    ))
    root = np.sqrt(n)
    modified = {  # (shift, factor): the modified form is (statistic + shift) * factor
        "ks": (0.0, root + 0.12 + 0.11 / root),
        "kuiper": (0.0, root + 0.155 + 0.24 / root),
        "cvm": (-0.4 / n + 0.6 / n**2, 1.0 + 1.0 / n),
        "watson": (-0.1 / n + 0.1 / n**2, 1.0 + 0.8 / n),
    }
    limit_sf = {"kuiper": (_kuiper_limit_sf, 0.5, 3.0), "cvm": (_cvm_limit_sf, 0.05, 3.0),
                "watson": (_watson_limit_sf, 0.02, 1.0)}
    assert len(result.rows) == 12
    for row in result.rows:
        if row.test == "ks":
            limit = special.kolmogi(row.alpha)
        else:
            sf, lo, hi = limit_sf[row.test]
            limit = optimize.brentq(lambda x: sf(x) - row.alpha, lo, hi)
        shift, factor = modified[row.test]
        got, se = (row.estimate + shift) * factor, row.mc_se * factor
        assert abs(got - limit) <= 4.0 * se + 0.005 * limit, (row.test, row.alpha, got, limit, se)


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

    def test_outcomes_are_slotted_and_keep_their_values(self, rng):
        # slots change what an outcome weighs, not what the battery computes
        outcomes = classical_battery(UnitSample(rng.random(30)))
        assert not any(hasattr(o, "__dict__") for o in outcomes)
        pinned = {"tm": 0.09031398536178159, "ks": 0.1346916586974107, "cvm": 0.11398154612203713,
                  "ad": 0.7431493893352155, "watson": 0.11391415827582824, "sherman": 0.313530464722711,
                  "kuiper": 0.23885506187514335, "qm": 0.08248910611315712, "frs": 0.29650431088135937,
                  "zc": 14.237389374940014}
        assert {o.test_id: o.statistic for o in outcomes} == pytest.approx(pinned, rel=1e-13, abs=0.0)

    def test_rejects_more_than_one_sample(self, rng):
        with pytest.raises(ValueError, match="^classical_battery expects a single sample$"):
            classical_battery(rng.random((2, 30)))

    def test_a_failing_statistic_raises(self, rng, monkeypatch):
        def broken(V):
            raise RuntimeError("ks failed")

        monkeypatch.setitem(classical._KERNELS, "ks", (broken, 0))
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
