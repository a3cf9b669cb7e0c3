"""The package imports scipy only when a run first needs it.

Importing ``scipy.special`` costs several times the package's own import
(``scipy.special`` loads ``scipy._lib.array_api_compat``, which loads
``numpy.f2py``), and ``scipy.stats`` costs more again. So ``numerics.special``
imports ``scipy.special`` at its first use, and the package never imports
``scipy.stats``. A uniform- or Pareto-null study calls no scipy function and
starts without either import. Each check runs in a fresh interpreter, since
the test process has long since loaded scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import unigof
from unigof import StudyConfig, estimate_critical_values, statistic
from unigof.statistic import _BLOCK_VALUES

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter that imports this package from its source."""
    src = str(Path(unigof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


def _critval_config(family: str, replications: int) -> dict:
    return dict(mode="critical_values", tests=("tm", "ks"), family=family, alternatives=(), sizes=(10,),
                alphas=(0.05,), replications=replications, master_seed=11)


def test_cli_import_loads_no_scipy():
    assert _fresh(f"import sys, unigof, unigof.cli; print({SCIPY_LOADED})").strip() == "[]"


@pytest.mark.parametrize("family", ["uniform", "pareto"])
def test_a_study_under_a_null_without_scipy_calls_leaves_scipy_unloaded(family):
    code = ("import sys\nfrom unigof import StudyConfig, estimate_critical_values\n"
            f"result = estimate_critical_values(StudyConfig(**{_critval_config(family, 300)!r}))\n"
            f"assert len(result.rows) == 2\nprint({SCIPY_LOADED})")
    assert _fresh(code).strip() == "[]"


def test_uniform_critval_command_leaves_scipy_unloaded():
    code = ("import sys\nfrom unigof.cli import main\n"
            "assert main(['critval', '--n', '10,20', '--reps', '200']) == 0\n"
            f"print({SCIPY_LOADED})")
    assert _fresh(code).strip().splitlines()[-1] == "[]"


def test_three_threads_share_the_first_scipy_import(monkeypatch):
    # Three one-block tasks on three threads, more than the cores of a small
    # host; each thread waits at a barrier before its first normal CDF, so all
    # three make the first scipy call at once, while scipy.special is still
    # unimported, and switch threads as often as the interpreter allows.
    config = _critval_config("normal", 3 * (_BLOCK_VALUES // 10))
    code = f"""
import sys, threading
from unigof import StudyConfig, composite, estimate_critical_values, statistic
statistic._cores = lambda: 3
sys.setswitchinterval(1e-6)
barrier, first, cdf = threading.Barrier(3, timeout=60), set(), composite.normal_cdf

def normal_cdf(*args, **kwargs):
    if threading.get_ident() not in first:
        first.add(threading.get_ident())
        barrier.wait()
    return cdf(*args, **kwargs)

composite.normal_cdf = normal_cdf
config = StudyConfig(**{config!r})
assert 'scipy.special' not in sys.modules
result = estimate_critical_values(config)
assert len(first) == 3
print(repr(result.rows))
"""
    monkeypatch.setattr(statistic, "_cores", lambda: 1)
    expected = estimate_critical_values(StudyConfig(**config))
    assert _fresh(code).strip() == repr(expected.rows)
