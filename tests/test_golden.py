"""Published CLI output pinned byte for byte.

Each command runs in process through ``main(argv)``, and its stdout must
equal the committed ``tests/golden/<name>.txt`` exactly: no tolerance, and
no mode that rewrites a file on mismatch. A change that moves a printed
digit has to replace the golden file and say why.
"""

from pathlib import Path

import pytest

from unigof.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code); the samples are 40 draws of beta(2, 3) and of pareto(2.5), printed to
# 17 digits. Every Monte Carlo cell below spans more than one row block, so a change to how
# a cell's rows are drawn shows here.
BETA, PARETO = str(GOLDEN / "beta23_sample.txt"), str(GOLDEN / "pareto25_sample.txt")
_CRITVAL = ["critval", "--n", "10,50", "--reps", "5000", "--tests", "tm,ks"]
_POWER = ["power", "--n", "10,50", "--reps", "5000", "--critval-reps", "5000", "--tests", "tm,ks"]
COMMANDS = {
    "critval_uniform": (_CRITVAL, 0),
    "critval_normal": (_CRITVAL + ["--family", "normal"], 0),
    "critval_pareto": (_CRITVAL + ["--family", "pareto"], 0),
    "power_normal": (_POWER + ["--family", "normal", "--alt", "chisq(5)", "--alt", "t(3)"], 0),
    "power_pareto": (_POWER + ["--family", "pareto", "--alt", "gamma(0.8)+1", "--alt", "weibull(0.7)+1"], 0),
    "test_mc": (["test", BETA, "--critvals", "mc"], 1),
    "bootstrap_normal": (["bootstrap", BETA, "--family", "normal"], 0),
    "bootstrap_pareto": (["bootstrap", PARETO, "--family", "pareto"], 0),
    "spectrum": (["spectrum"], 0),
    "spectrum_order100": (["spectrum", "--order", "100"], 0),
    "curve_kumaraswamy": (["curve", "--alt", "kumaraswamy(1.5,2.5)", "--n-range", "10:50:20", "--reps", "300"], 0),
    "test_pearson_tm": (["test", BETA, "--critvals", "pearson", "--tests", "tm"], 1),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_the_golden_file(name, capsys):
    argv, code = COMMANDS[name]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
