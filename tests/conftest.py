import numpy as np
import pytest

import unigof
from unigof.statistic import _BLOCK_VALUES, UnitRows

# keep pytest from trying to collect the result dataclass as a test class
unigof.TestOutcome.__test__ = False


@pytest.fixture
def rng():
    """Fresh fixed-seed generator per test."""
    return np.random.default_rng(20260816)


def random_unit_matrix(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    return rng.random((rows, n))


def _block_shapes():
    # row counts of one block, one block and a row, two blocks and a row, at
    # each n; 10000 puts rows longer than numpy's 8192-value buffer three to
    # a block, and the last n puts one row in every block
    for n in (1, 2, 10, 50, 163, 200, 1000, 10000, _BLOCK_VALUES + 1):
        block = max(1, _BLOCK_VALUES // n)
        for rows in sorted({1, block, block + 1, 2 * block + 1}):
            yield rows, n, block


@pytest.fixture(params=list(_block_shapes()), ids=lambda p: f"{p[0]}x{p[1]}")
def block_rows(request, rng):
    """Sorted rows (with ties and exact endpoints) that fill whole and partial row blocks.

    Returns the :class:`UnitRows` and the indices of the rows at either side
    of each block boundary.
    """
    rows, n, block = request.param
    picks = sorted({0, block - 1, block, rows - 1} & set(range(rows)))
    return UnitRows(np.round(rng.random((rows, n)), 3)), picks
