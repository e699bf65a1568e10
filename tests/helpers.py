"""Reference helpers shared by the test modules."""

from fractions import Fraction

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


def head_polys_reference(kmax: int) -> list[dict[int, Fraction]]:
    """Exact p_0..p_kmax with p_k(coth(z/2)) = sum_{n in Z} "1/(z-2pi*i*n)^k",
    rebuilt from p_1 = c/2 and p_{k+1} = -(1/k) p_k'(c) (1-c^2)/2 on every call."""
    polys: list[dict[int, Fraction]] = [{}, {1: Fraction(1, 2)}]
    for m in range(1, kmax):
        nxt: dict[int, Fraction] = {}
        for e, co in polys[m].items():
            if e == 0:
                continue
            d = co * e
            nxt[e - 1] = nxt.get(e - 1, Fraction(0)) - d / (2 * m)
            nxt[e + 1] = nxt.get(e + 1, Fraction(0)) + d / (2 * m)
        polys.append(nxt)
    return polys
