"""Small numeric helpers shared across the library.

These are deliberately dependency-light: the heavy lifting (quadrature,
special functions) lives in :mod:`scipy`; what is collected here is the glue
the reservation algorithms need — the strict-monotonicity checks every
reservation sequence must pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Default tolerance used when comparing reservation lengths for strict
#: monotonicity.  Reservation grids are built from quantile functions whose
#: outputs can collide at double precision in flat regions of the CDF.
MONOTONE_ATOL = 1e-12


def is_strictly_increasing(values: Sequence[float], atol: float = MONOTONE_ATOL) -> bool:
    """Return True when ``values`` is strictly increasing (within ``atol``)."""
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return True
    return bool(np.all(np.diff(arr) > atol))


def first_nonincreasing_index(values: Sequence[float], atol: float = MONOTONE_ATOL) -> int:
    """Index of the first element that fails strict monotonicity, or ``-1``.

    The index returned is the position of the *offending* element, i.e. the
    smallest ``i`` such that ``values[i] <= values[i-1]``.
    """
    arr = np.asarray(values, dtype=float)
    bad = np.nonzero(np.diff(arr) <= atol)[0]
    return int(bad[0] + 1) if bad.size else -1
