"""End-to-end command line tests driven through main(argv)."""

import numpy as np
import pytest

from unigof import bootstrap_pvalue
from unigof.cli import main
from unigof.mc import rng_substream


@pytest.fixture
def uniform_file(tmp_path):
    gen = np.random.default_rng(123)
    path = tmp_path / "unif.txt"
    path.write_text("\n".join(f"{x:.17g}" for x in gen.random(50)) + "\n")
    return str(path)


@pytest.fixture
def normal_file(tmp_path):
    gen = np.random.default_rng(124)
    path = tmp_path / "norm.txt"
    path.write_text("\n".join(f"{x:.17g}" for x in gen.normal(3.0, 2.0, 60)) + "\n")
    return str(path)


@pytest.fixture
def skewed_file(tmp_path):
    # values piled up near 1, far from uniform
    gen = np.random.default_rng(125)
    path = tmp_path / "skew.txt"
    path.write_text("\n".join(f"{x:.17g}" for x in gen.beta(8.0, 1.0, 60)) + "\n")
    return str(path)


class TestTestCommand:
    def test_uniform_data_retained(self, uniform_file, capsys):
        code = main(["test", uniform_file, "--critvals", "pearson", "--tests", "tm"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tm" in out and "retain" in out

    def test_skewed_data_rejected(self, skewed_file, capsys):
        code = main(["test", skewed_file, "--critvals", "pearson", "--tests", "tm"])
        out = capsys.readouterr().out
        assert code == 1
        assert "reject" in out

    def test_full_battery_with_mc_critvals(self, uniform_file, capsys):
        code = main(["test", uniform_file, "--reps", "500", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        for t in ("tm", "ks", "cvm", "ad", "watson", "sherman", "kuiper", "qm", "frs", "zc"):
            assert f"\n{t:>8s}" in out or out.startswith(f"{t:>8s}")

    def test_normal_null(self, normal_file, capsys):
        code = main(
            ["test", normal_file, "--null", "normal", "--tests", "tm", "--reps", "500"]
        )
        assert code == 0

    def test_normal_null_rejects_two_observations(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("1.5\n2.5\n")
        code = main(["test", str(path), "--null", "normal", "--tests", "tm", "--reps", "500"])
        assert code == 2
        assert "normal family needs samples of at least 3" in capsys.readouterr().err

    def test_normal_null_rejects_equal_values(self, tmp_path, capsys):
        # the rounded variance of three 0.1s is 7.7e-34, not 0, and the fit is still degenerate
        path = tmp_path / "c.txt"
        path.write_text("0.1\n0.1\n0.1\n")
        code = main(["test", str(path), "--null", "normal", "--tests", "tm", "--critvals", "mc",
                     "--reps", "200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: the normal fit is degenerate in 1 of 1 samples\n"

    def test_simple_null_via_spec(self, tmp_path, capsys):
        gen = np.random.default_rng(6)
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{x:.17g}" for x in gen.gamma(2.0, 1.0, 40)) + "\n")
        code = main(
            ["test", str(path), "--null", "gamma(2)", "--tests", "tm", "--reps", "500"]
        )
        assert code == 0

    def test_bad_line_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\nnot-a-number\n0.7\n")
        code = main(["test", str(path), "--critvals", "pearson", "--tests", "tm"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err and "not-a-number" in err

    def test_out_of_range_uniform_data_names_value(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("0.5\n1.7\n")
        code = main(["test", str(path), "--critvals", "pearson", "--tests", "tm"])
        err = capsys.readouterr().err
        assert code == 2
        assert "1.7" in err

    @pytest.mark.parametrize(
        "null, values, named",
        [("beta(2,2)", "0.3\n1.5\n0.6\n", ("1.5", "beta(2,2)", "[0, 1]")),
         ("gamma(2)", "0.8\n-0.25\n2.1\n", ("-0.25", "gamma(2)", "[0, inf]"))],
        ids=["beta-above-one", "gamma-negative"],
    )
    def test_simple_null_data_outside_the_support(self, tmp_path, capsys, null, values, named):
        # the CDF would clip these values to F = 0 or 1 and the test would go on
        path = tmp_path / "outside.txt"
        path.write_text(values)
        code = main(["test", str(path), "--null", null, "--tests", "tm,ad", "--critvals", "mc",
                     "--reps", "200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert all(part in captured.err for part in named), captured.err

    def test_simple_null_data_in_a_mixture_gap(self, tmp_path, capsys):
        # the null puts its mass on [0, 1] and [2, 3]; 1.5 lies in the hull only
        path = tmp_path / "gap.txt"
        path.write_text("1.5\n1.6\n0.2\n")
        code = main(["test", str(path), "--null", "mix(0.5,u,mix(0.5,u+1,u+1)+1)", "--tests", "tm",
                     "--critvals", "pearson"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "value 1.5 lies outside the support of mix(0.5,uniform,mix(0.5,uniform+1,uniform+1)+1)" in captured.err

    def test_simple_null_accepts_the_support_endpoints(self, tmp_path, capsys):
        path = tmp_path / "ends.txt"
        path.write_text("0\n0.2\n0.45\n0.7\n1\n")
        code = main(["test", str(path), "--null", "beta(2,2)", "--tests", "tm", "--critvals", "pearson"])
        assert code in (0, 1)
        assert "statistic" in capsys.readouterr().out

    def test_unknown_null_spec_prints_grammar(self, uniform_file, capsys):
        code = main(["test", uniform_file, "--null", "frobnitz(2)"])
        err = capsys.readouterr().err
        assert code == 2
        assert "spec :=" in err

    def test_pearson_critvals_restricted_to_tm(self, uniform_file, capsys):
        code = main(["test", uniform_file, "--critvals", "pearson", "--tests", "tm,ks"])
        err = capsys.readouterr().err
        assert code == 2
        assert "pearson" in err

    def test_pearson_critvals_reject_composite_null(self, normal_file, capsys):
        code = main(
            ["test", normal_file, "--null", "normal", "--critvals", "pearson", "--tests", "tm"]
        )
        assert code == 2

    def test_missing_file(self, capsys):
        code = main(["test", "/nonexistent/data.txt"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        code = main(["test", str(path)])
        assert code == 2
        assert "no observations" in capsys.readouterr().err


class TestCritvalCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cv.csv"
        code = main(
            ["critval", "--n", "15", "--alpha", "0.05", "--tests", "tm,ks",
             "--reps", "1000", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "test,null,n,alpha,estimate,mc_se,replications,seed"
        assert len(lines) == 3

    def test_prints_table_by_default(self, capsys):
        code = main(["critval", "--n", "15", "--reps", "500", "--alpha", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tm" in out

    def test_reused_critvals_give_identical_decisions(self, tmp_path, uniform_file, capsys):
        cv = tmp_path / "cv.csv"
        main(["critval", "--n", "50", "--alpha", "0.05", "--tests", "tm,ks",
              "--reps", "2000", "--seed", "9", "--out", str(cv)])
        capsys.readouterr()
        code_file = main(["test", uniform_file, "--tests", "tm,ks", "--critvals", str(cv)])
        out_file = capsys.readouterr().out
        code_mc = main(["test", uniform_file, "--tests", "tm,ks", "--reps", "2000", "--seed", "9"])
        out_mc = capsys.readouterr().out
        assert code_file == code_mc
        # identical critical values modulo the header line
        assert out_file.splitlines()[1:] == out_mc.splitlines()[1:]

    def test_csv_missing_cell_is_an_error(self, tmp_path, uniform_file, capsys):
        cv = tmp_path / "cv.csv"
        main(["critval", "--n", "10", "--alpha", "0.05", "--tests", "tm",
              "--reps", "500", "--out", str(cv)])
        capsys.readouterr()
        code = main(["test", uniform_file, "--tests", "tm", "--critvals", str(cv)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no critical value" in err

    @pytest.mark.parametrize("argv", [
        ["critval", "--n", "10", "--alpha", ""],
        ["power", "--alt", "beta(2,3)", "--n", "10", "--alpha", ","],
    ])
    def test_empty_alpha_list_is_an_error(self, argv, capsys):
        code = main(argv + ["--reps", "200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "alphas must be one or more levels" in captured.err

    def test_alpha_labels_keep_every_digit(self, uniform_file, capsys):
        # :g would print 0.0500000001 as 0.05, giving two levels one label
        alphas = "0.05,0.0500000001"
        assert main(["critval", "--n", "10,20", "--alpha", alphas, "--reps", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["0.0500000001", "0.05"]
        assert len({len(line) for line in lines[2:]}) == 1  # the label column is padded to its longest
        assert main(["power", "--alt", "beta(2,3)", "--n", "10", "--alpha", alphas, "--tests", "tm",
                     "--reps", "200", "--critval-reps", "200"]) == 0
        heads = [line for line in capsys.readouterr().out.splitlines() if line.startswith("n=")]
        assert heads == ["n=10, alpha=0.05, entries in %", "n=10, alpha=0.0500000001, entries in %"]
        main(["test", uniform_file, "--tests", "tm", "--critvals", "pearson", "--alpha", "0.0500000001"])
        assert "alpha = 0.0500000001," in capsys.readouterr().out

    def test_csv_missing_cell_names_file_and_cell(self, tmp_path, uniform_file, capsys):
        cv = tmp_path / "cv.csv"
        main(["critval", "--n", "50", "--alpha", "0.05", "--tests", "tm",
              "--reps", "500", "--out", str(cv)])
        capsys.readouterr()
        code = main(["test", uniform_file, "--tests", "tm,ks", "--critvals", str(cv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{cv}: missing critical value" in captured.err and "test='ks', n=50" in captured.err


@pytest.fixture
def uniform_cv(tmp_path):
    cv = tmp_path / "uniform_cv.csv"
    main(["critval", "--n", "50,60", "--alpha", "0.05", "--tests", "tm",
          "--reps", "500", "--out", str(cv)])
    return str(cv)


class TestCritvalsFromAnotherNull:
    def test_test_rejects_uniform_table_for_normal_null(self, normal_file, uniform_cv, capsys):
        capsys.readouterr()
        code = main(["test", normal_file, "--null", "normal", "--tests", "tm", "--critvals", uniform_cv])
        err = capsys.readouterr().err
        assert code == 2
        assert "uniform" in err and "normal" in err

    def test_power_rejects_uniform_table_for_normal_family(self, uniform_cv, capsys):
        capsys.readouterr()
        code = main(["power", "--family", "normal", "--alt", "chisq(5)", "--n", "60", "--reps", "300",
                     "--tests", "tm", "--critvals", uniform_cv])
        err = capsys.readouterr().err
        assert code == 2
        assert "uniform" in err and "normal" in err

    def test_power_study_csv_is_not_a_table(self, tmp_path, uniform_file, uniform_cv, capsys):
        study = tmp_path / "power.csv"
        main(["power", "--alt", "beta(2,3)", "--n", "50", "--reps", "300", "--tests", "tm",
              "--critvals", uniform_cv, "--out", str(study)])
        capsys.readouterr()
        code = main(["test", uniform_file, "--tests", "tm", "--critvals", str(study)])
        err = capsys.readouterr().err
        assert code == 2
        assert "beta(2,3)" in err and "uniform" in err

    def test_power_study_of_the_null_is_not_a_table(self, tmp_path, uniform_file, uniform_cv, capsys):
        # its only alternative is named like the null, so the family check cannot tell
        study = tmp_path / "power_uniform.csv"
        main(["power", "--alt", "uniform", "--n", "50", "--reps", "300", "--tests", "tm",
              "--critvals", uniform_cv, "--out", str(study)])
        capsys.readouterr()
        code = main(["test", uniform_file, "--tests", "tm", "--critvals", str(study)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "power study" in captured.err and "unigof critval --out" in captured.err


def test_an_infinite_parameter_fails_before_any_simulation(capsys):
    code = main(["power", "--family", "normal", "--alt", "normal(0,1e400)", "--n", "20",
                 "--reps", "200", "--critval-reps", "200", "--tests", "tm"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "normal parameters must be finite, got inf" in captured.err


def test_a_truncated_normal_without_mass_fails_before_any_simulation(capsys):
    code = main(["power", "--alt", "tn(-4,0.01)", "--n", "20", "--reps", "200",
                 "--critval-reps", "200", "--tests", "tm"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "truncnormal(-4,0.01): [0, 1] carries no normal mass in double precision" in captured.err


class TestRepeatedTests:
    @pytest.mark.parametrize("critvals", ["table", "pearson", "mc"])
    def test_every_route_rejects_a_repeat(self, uniform_file, uniform_cv, critvals, capsys):
        source = uniform_cv if critvals == "table" else critvals
        reps = ["--reps", "200"] if critvals == "mc" else []  # only mc takes --reps
        code = main(["test", uniform_file, "--tests", "tm,tm", "--critvals", source] + reps)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "tests lists 'tm' more than once" in captured.err


class TestPowerCommand:
    def test_power_table(self, capsys):
        code = main(
            ["power", "--alt", "beta(2,3)", "--n", "25", "--reps", "400",
             "--critval-reps", "2000", "--tests", "tm", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "beta(2,3)" in out

    def test_rejects_non_unit_alternative_for_uniform_family(self, capsys):
        code = main(
            ["power", "--alt", "gamma(1)", "--n", "25", "--reps", "400",
             "--critval-reps", "1000", "--tests", "tm"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "gamma(1) can draw values outside [0, 1]" in err

    def test_composite_family_power(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            ["power", "--family", "pareto", "--alt", "gamma(0.8)+1", "--n", "20",
             "--reps", "300", "--critval-reps", "1000", "--tests", "tm",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_degenerate_composite_fit_names_the_family(self, capsys):
        code = main(
            ["power", "--family", "pareto", "--alt", "gamma(0.001)+1", "--n", "5",
             "--reps", "200", "--critval-reps", "200", "--tests", "tm"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: the pareto fit is degenerate in 170 of 200 samples\n"


class TestCurveCommand:
    def test_writes_curve_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--alt", "beta(2,3)", "--n-range", "30:60:30",
             "--reps", "300", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,approx_power,empirical_power,mc_se"
        assert len(lines) == 3  # n = 30 and n = 60

    def test_prints_rows_without_out(self, capsys):
        code = main(["curve", "--alt", "beta(2,2)", "--n-range", "20", "--reps", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("n,approx_power")

    def test_bad_range(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["curve", "--alt", "beta(2,3)", "--n-range", "50:10", "--reps", "200"])
        assert excinfo.value.code == 2
        assert "range" in capsys.readouterr().err


class TestBootstrapCommand:
    def test_p_value_printed(self, normal_file, capsys):
        code = main(["bootstrap", normal_file, "--family", "normal", "-B", "199"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p-value" in out

    def test_pareto_domain_error_names_value(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        path.write_text("2.0\n0.5\n3.0\n")
        code = main(["bootstrap", str(path), "--family", "pareto", "-B", "199"])
        err = capsys.readouterr().err
        assert code == 2
        assert "0.5" in err

    def test_pareto_data_at_the_end_of_the_support(self, tmp_path, capsys):
        # 1 is in the closed support [1, inf) that "pareto(2)" already accepts
        path = tmp_path / "ones.txt"
        path.write_text("1.0\n1.7\n2.4\n1.0\n5.1\n1.3\n")
        assert main(["test", str(path), "--null", "pareto", "--tests", "tm", "--reps", "200"]) in (0, 1)
        assert "statistic" in capsys.readouterr().out
        assert main(["bootstrap", str(path), "--family", "pareto", "-B", "199"]) == 0
        assert "p-value" in capsys.readouterr().out

    def test_all_ones_pareto_data_is_a_degenerate_fit(self, tmp_path, capsys):
        path = tmp_path / "ones.txt"
        path.write_text("1\n1\n1\n")
        for argv in (["test", str(path), "--null", "pareto", "--tests", "tm", "--reps", "200"],
                     ["bootstrap", str(path), "--family", "pareto", "-B", "199"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: the pareto fit is degenerate in 1 of 1 samples\n"

    def test_near_constant_and_huge_data_get_a_p_value(self, tmp_path, capsys):
        # the replicates are standard draws, whatever the data's fitted sigma
        # (about 8e-16 here) or magnitude (values up to +-1.5e308)
        for values in (1.0 + np.array([0, 1, 2, 0, 1]) * 1e-15,
                       1.5e308 * np.array([1.0, -1.0, 0.3, -0.5, 0.9, 0.1, -0.8, 0.6])):
            path = tmp_path / "x.txt"
            path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
            code = main(["bootstrap", str(path), "--family", "normal", "-B", "999"])
            captured = capsys.readouterr()
            expected = bootstrap_pvalue("normal", "tm", values, 999, rng_substream(0, 0))
            assert (code, captured.err) == (0, "")
            assert f"p-value {expected.p_value:.6g} (999 bootstrap replications)" in captured.out

    def test_equal_values_are_a_degenerate_fit(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("0.1\n0.1\n0.1\n")
        code = main(["bootstrap", str(path), "--family", "normal", "-B", "199"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: the normal fit is degenerate in 1 of 1 samples\n"


# the full output, so that a moved printed digit fails; order 64 prints its
# own eigenvalues but takes the numeric cumulants from order 128
SPECTRUM_TAIL = (
    "trace: 0.133333333333 (mean of limit: 0.133333333333)\n"
    "cumulants (numeric vs exact): k1 0.1333333333/0.1333333333, "
    "k2 0.0269145290/0.0269135802, k3 0.0124050140/0.0124044597, "
    "k4 0.0086123203/0.0086118101\n"
)


class TestSpectrumCommand:
    def test_prints_eigenvalues_and_cumulants(self, capsys):
        code = main(["spectrum", "--order", "128", "--top", "5"])
        assert code == 0
        assert capsys.readouterr().out == (
            "leading eigenvalues (order 128):\n"
            "    1  0.115735950011\n"
            "    2  0.006946079010\n"
            "    3  0.002730377432\n"
            "    4  0.001979713544\n"
            "    5  0.001200113426\n"
        ) + SPECTRUM_TAIL

    def test_low_order_prints_its_own_power_sums(self, monkeypatch, capsys):
        # the cumulants are the power sums of the order-64 spectrum it prints,
        # from its one discretisation, not those of an order-128 rule
        from unigof import null_limit

        calls = []
        inner = null_limit.nystrom_discretize
        monkeypatch.setattr(null_limit, "nystrom_discretize", lambda *a: calls.append(a) or inner(*a))
        code = main(["spectrum", "--order", "64", "--top", "5"])
        assert code == 0 and len(calls) == 1
        assert capsys.readouterr().out == (
            "leading eigenvalues (order 64):\n"
            "    1  0.115741037849\n"
            "    2  0.006953193967\n"
            "    3  0.002736287827\n"
            "    4  0.001986134852\n"
            "    5  0.001206664367\n"
            "trace: 0.133333333333 (mean of limit: 0.133333333333)\n"
            "cumulants (numeric vs exact): k1 0.1333333333/0.1333333333, "
            "k2 0.0269173458/0.0269135802, k3 0.0124066601/0.0124044597, "
            "k4 0.0086138353/0.0086118101\n"
        )

    def test_order_256_discretises_once(self, monkeypatch, capsys):
        from unigof import null_limit

        calls = []
        inner = null_limit.nystrom_discretize
        monkeypatch.setattr(null_limit, "nystrom_discretize", lambda *a: calls.append(a) or inner(*a))
        assert main(["spectrum", "--order", "256", "--top", "3"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith("leading eigenvalues (order 256):\n")


class TestEveryRequestIsChecked:
    @pytest.mark.parametrize("argv, option", [
        (["critval", "--n", "10.5"], "--n"),
        (["critval", "--n", "10", "--alpha", "0.05,x"], "--alpha"),
        (["power", "--alt", "beta(2,3)", "--n", "20,abc"], "--n"),
        (["power", "--alt", "beta(2,3)", "--alpha", "5%"], "--alpha"),
        (["curve", "--alt", "beta(2,3)", "--n-range", "a:b"], "--n-range"),
        (["curve", "--alt", "beta(2,3)", "--n-range", "10:20:0"], "--n-range"),
        (["curve", "--alt", "beta(2,3)", "--n-range", "10,x"], "--n-range"),
    ])
    def test_malformed_list_option_is_named_by_argparse(self, argv, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert f"argument {option}: " in captured.err

    def test_power_names_critval_reps(self, capsys):
        code = main(["power", "--alt", "beta(2,3)", "--n", "10", "--tests", "tm",
                     "--reps", "200", "--critval-reps", "50"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--critval-reps: replications must be at least 100" in captured.err

    def test_power_refuses_critval_reps_with_a_table(self, uniform_cv, capsys):
        # a table's critical values were simulated already; --critval-reps could only be ignored
        with pytest.raises(SystemExit) as excinfo:
            main(["power", "--alt", "beta(2,3)", "--n", "50", "--tests", "tm",
                  "--reps", "200", "--critval-reps", "200", "--critvals", uniform_cv])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "argument --critvals: not allowed with argument --critval-reps" in captured.err

    @pytest.mark.parametrize("argv", [
        ["test", "{unif}", "--tests", "tm", "--reps", "200"],
        ["critval", "--n", "10", "--reps", "200"],
        ["power", "--alt", "beta(2,3)", "--n", "10", "--tests", "tm", "--reps", "200", "--critval-reps", "200"],
        ["curve", "--alt", "beta(2,3)", "--n-range", "10:20:10", "--reps", "200"],
    ], ids=["test", "critval", "power", "curve"])
    def test_workers_is_not_an_option(self, argv, uniform_file, capsys):
        # every study runs its (cell, row block) tasks on every core; taskset sets the count
        argv = [arg.format(unif=uniform_file) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", "2"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --workers 2" in captured.err
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], "--help"])
        assert excinfo.value.code == 0
        assert "--workers" not in capsys.readouterr().out

    @pytest.mark.parametrize("option, value, message", [
        ("--alpha", "1.5", "alphas must be one or more levels strictly inside (0, 1)"),
        ("--reps", "50", "replications must be at least 100"),
        ("--seed", "-1", "master_seed: expected a non-negative integer, got -1"),
        ("--tests", "tm,zz", "unknown test id 'zz'; expected one of tm, ks, cvm, ad, watson"),
    ])
    @pytest.mark.parametrize("critvals", ["pearson", "table", "mc"])
    def test_every_test_route_checks_the_study(self, uniform_file, uniform_cv, critvals,
                                               option, value, message, capsys):
        # --reps and --seed apply only to the route that simulates
        if critvals != "mc" and option in ("--reps", "--seed"):
            message = f"{option} applies only to --critvals mc, the route that simulates"
        source = uniform_cv if critvals == "table" else critvals
        code = main(["test", uniform_file, "--tests", "tm", "--critvals", source, option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_test_refuses_valid_reps_and_seed_where_nothing_is_simulated(self, uniform_file, uniform_cv,
                                                                        capsys):
        # a valid value is refused too: pearson and a CSV would ignore it
        for source in ("pearson", uniform_cv):
            for option, value in (("--reps", "50000"), ("--seed", "7")):
                code = main(["test", uniform_file, "--tests", "tm", "--critvals", source, option, value])
                captured = capsys.readouterr()
                assert (code, captured.out) == (2, "")
                assert captured.err == f"error: {option} applies only to --critvals mc, the route that simulates\n"
            assert main(["test", uniform_file, "--tests", "tm", "--critvals", source]) == 0
            assert "critical values: " in capsys.readouterr().out

    @pytest.mark.parametrize("top", ["-3", "0"])
    def test_spectrum_refuses_top_below_one(self, top, capsys):
        code = main(["spectrum", "--order", "64", "--top", top])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--top must be at least 1, got {top}" in captured.err

    def test_bootstrap_names_a_negative_seed(self, normal_file, capsys):
        code = main(["bootstrap", normal_file, "--family", "normal", "-B", "199", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "master_seed: expected a non-negative integer, got -1" in captured.err


class TestOutIsCheckedFirst:
    @pytest.mark.parametrize("argv, study", [
        (["critval", "--n", "200", "--reps", "200000", "--tests", "tm"], "estimate_critical_values"),
        (["power", "--alt", "beta(2,3)", "--n", "20", "--tests", "tm"], "estimate_critical_values"),
        (["curve", "--alt", "beta(2,3)", "--n-range", "10:20:10"], "run_power_curve"),
    ], ids=["critval", "power", "curve"])
    @pytest.mark.parametrize("where, reason", [
        ("missing/study.csv", "[Errno 2] No such file or directory"),
        ("", "[Errno 21] Is a directory"),
    ], ids=["missing-folder", "a-folder"])
    def test_unwritable_out_fails_before_any_draw(self, argv, study, where, reason, tmp_path,
                                                  monkeypatch, capsys):
        from unigof import cli

        calls = []
        monkeypatch.setattr(cli, study, lambda *a: calls.append(a))
        out = str(tmp_path / where)
        code = main(argv + ["--out", out])
        captured = capsys.readouterr()
        assert (code, captured.out, calls) == (2, "", [])
        assert captured.err == f"error: {reason}: {out!r}\n"

    def test_a_failing_study_creates_and_truncates_nothing(self, tmp_path, capsys):
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_text("an earlier study\n")
        for out in (kept, fresh):
            code = main(["power", "--alt", "beta(2,3)", "--n", "10", "--tests", "tm", "--reps", "200",
                         "--critval-reps", "50", "--out", str(out)])
            assert code == 2
        assert "--critval-reps: replications must be at least 100" in capsys.readouterr().err
        assert kept.read_text() == "an earlier study\n"
        assert not fresh.exists()


# stdout of one small fixed-seed run of each study command, byte for byte;
# {unif} and {norm} stand for the uniform_file and normal_file samples
PINNED_RUNS = {
    "test-uniform-mc": (["test", "{unif}", "--critvals", "mc", "--reps", "200", "--seed", "3"], (
        "n = 50, null = uniform, alpha = 0.05, critical values: mc\n"
        "      tm  statistic     0.024329  critical     0.384130  -> retain\n"
        "      ks  statistic     0.107258  critical     0.176061  -> retain\n"
        "     cvm  statistic     0.082879  critical     0.321621  -> retain\n"
        "      ad  statistic     0.574598  critical     1.976352  -> retain\n"
        "  watson  statistic     0.080030  critical     0.158757  -> retain\n"
        " sherman  statistic     0.461960  critical     0.422655  -> reject\n"
        "  kuiper  statistic     0.175501  critical     0.223753  -> retain\n"
        "      qm  statistic     0.070967  critical     0.066981  -> reject\n"
        "     frs  statistic     0.221288  critical     0.486923  -> retain\n"
        "      zc  statistic    12.962167  critical    23.982882  -> retain\n"
    )),
    "test-normal-mc": (["test", "{norm}", "--null", "normal", "--critvals", "mc", "--reps", "200",
                        "--tests", "tm,ks,ad"], (
        "n = 60, null = normal, alpha = 0.05, critical values: mc\n"
        "      tm  statistic     0.059446  critical     0.074505  -> retain\n"
        "      ks  statistic     0.073061  critical     0.118334  -> retain\n"
        "      ad  statistic     0.512329  critical     0.795104  -> retain\n"
    )),
    "test-pearson": (["test", "{unif}", "--critvals", "pearson", "--tests", "tm"], (
        "n = 50, null = uniform, alpha = 0.05, critical values: pearson\n"
        "      tm  statistic     0.024329  critical     0.462679  -> retain\n"
    )),
    "critval": (["critval", "--n", "10,20", "--tests", "tm,ks", "--reps", "200", "--seed", "5"], (
        "test ks\n"
        "alpha\\n        10       20\n"
        "0.1         0.367    0.265\n"
        "0.05        0.432    0.292\n"
        "0.01        0.487    0.344\n"
        "\n"
        "test tm\n"
        "alpha\\n        10       20\n"
        "0.1         0.363    0.291\n"
        "0.05        0.491    0.453\n"
        "0.01        0.778    0.606\n"
    )),
    "power": (["power", "--alt", "beta(2,3)", "--alt", "mix(0.5,u,beta(0.5,0.5))", "--n", "20",
               "--tests", "tm,ks", "--reps", "200", "--critval-reps", "200", "--seed", "7"], (
        "n=20, alpha=0.05, entries in %\n"
        "alternative                          tm       ks\n"
        "beta(2,3)                            76       51\n"
        "mix(0.5,uniform,beta(0.5,0.5))       10        7\n"
    )),
    "curve": (["curve", "--alt", "beta(2,3)", "--n-range", "10:30:10", "--reps", "200", "--seed", "2"], (
        "n,approx_power,empirical_power,mc_se\n"
        "10,0.230514,0.230000,0.029757\n"
        "20,0.695058,0.805000,0.028016\n"
        "30,0.895951,0.950000,0.015411\n"
    )),
    "bootstrap": (["bootstrap", "{norm}", "--family", "normal", "-B", "99", "--seed", "1"], (
        "test tm, family normal: statistic 0.059446, p-value 0.1 (99 bootstrap replications)\n"
    )),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_stdout_is_pinned(name, uniform_file, normal_file, capsys):
    argv, expected = PINNED_RUNS[name]
    code = main([arg.format(unif=uniform_file, norm=normal_file) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected
