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

# name -> (argv, exit code); the sample is 40 draws of beta(2, 3), printed to 17 digits
COMMANDS = {
    "spectrum": (["spectrum"], 0),
    "spectrum_order100": (["spectrum", "--order", "100"], 0),
    "curve_kumaraswamy": (["curve", "--alt", "kumaraswamy(1.5,2.5)", "--n-range", "10:50:20", "--reps", "300"], 0),
    "test_pearson_tm": (["test", str(GOLDEN / "beta23_sample.txt"), "--critvals", "pearson", "--tests", "tm"], 1),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_the_golden_file(name, capsys):
    argv, code = COMMANDS[name]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
