"""Fixed reference work that measures how fast the machine runs right now.

Shared hosts change speed by up to 2x within minutes, as neighbours come
and go on the same cores and caches. The benchmark runs this loop right
before and after every timed request and cold start, and scales each
timing by ``REFERENCE_S / (slower of the two loop times)``. The scaled
time reads in seconds at the speed where the loop takes REFERENCE_S.

The loop mixes the kinds of work the toolkit's requests do, so that it
slows down with them: JSON parsing, Python-level Jacobi rotations on a
small numpy matrix, and small vectorized numpy contractions. It never
calls the toolkit, so a change to the toolkit cannot move it. Changing
this file changes the scale of every time metric.
"""

from __future__ import annotations

import json
import time

import numpy as np

# median of reference_s() on a 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4, one BLAS thread)
REFERENCE_S = 1.75e-3

_rng = np.random.default_rng(20160901)
_TEXT = json.dumps(_rng.standard_normal((60, 8)).tolist())
_SYM = _rng.standard_normal((5, 5))
_SYM = _SYM + _SYM.T
_BATCH = _rng.standard_normal((40, 8, 6))
_OPS = _rng.standard_normal((8, 6, 6))


def _jacobi_sweep(sym: np.ndarray) -> np.ndarray:
    a = sym.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            col_p, col_q = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p, row_q = a[p, :].copy(), a[q, :].copy()
            a[p, :] = c * row_p - s * row_q
            a[q, :] = s * row_p + c * row_q
    return a


def _work() -> None:
    json.loads(_TEXT)
    for _ in range(3):
        _jacobi_sweep(_SYM)
    for _ in range(10):
        np.einsum("snd,nde->se", _BATCH, _OPS)


def reference_s() -> float:
    """Wall time of one pass of the reference work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
