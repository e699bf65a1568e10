"""Reference helpers shared by the test modules."""

import numpy as np


def complex_jacobian(f, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Jacobian of a holomorphic f: C^m -> C^m at x, one central difference
    along the real axis of each coordinate (two evaluations per column)."""
    jac = np.empty((len(x), len(x)), dtype=complex)
    for j in range(len(x)):
        h = rel_step * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        jac[:, j] = (f(xp) - f(xm)) / (2.0 * h)
    return jac
