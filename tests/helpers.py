"""Reference helpers shared by the test modules."""

from fractions import Fraction

import numpy as np

from g2sew import elliptic
from g2sew.errors import ToleranceError
from g2sew.lattice import TWO_PI_I, reduce_mod_lattice


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


def _laurent_reference(k, z, dmin, eis, tol):
    """P_k from its z-Laurent series, tail test and sum in one loop over the
    given E_k table; ToleranceError when the table ends first."""
    az = abs(z)
    r = az / dmin
    if k == 1:
        total = 1.0 / z
        zp = 1.0 + 0j  # z^(m-1)
        for m in range(2, len(eis)):
            zp *= z
            if m % 2 == 0:
                total -= eis[m] * zp
            bound = elliptic._EISEN_LATTICE_BOUND * r ** (m + 1) / dmin / (1.0 - r)
            if bound < tol.abs_tol:
                return total
        raise ToleranceError("P_1 Laurent series not certified", achieved=bound)
    total = z ** (-k)
    kk = k - 1
    zp = 1.0 + 0j  # z^(l-1)
    for l in range(1, len(eis) - kk):
        if (kk + l) % 2 == 0:
            total += (-1) ** (kk + 1) * elliptic._comb_ratio(kk, l) / kk * eis[kk + l] * zp
        t_next = (
            elliptic._comb_ratio(kk, l + 1) / kk
            * elliptic._EISEN_LATTICE_BOUND * dmin ** (-(kk + l + 1)) * az**l
        )
        rho = r * (kk + l + 1) / (l + 1)
        if rho < 1.0 and t_next / (1.0 - rho) < tol.abs_tol:
            return total
        zp *= z
    raise ToleranceError(f"P_{k} Laurent series not certified", achieved=t_next)


def doubling_bounds(kmax: int) -> list[int]:
    """The E_k table weights ``weierstrass_reference`` tries, in order."""
    bounds = []
    kbound = max(kmax + 40, 2 * kmax)
    while kbound <= elliptic._LAURENT_MAX_WEIGHT:
        bounds.append(kbound)
        kbound = 2 * kbound + 2
    return bounds


def weierstrass_reference(t, kmax: int, z: complex) -> list[complex]:
    """[P_0..P_kmax](tau, z) on the torus t by a guess-and-double route:
    the Laurent route builds the E_k table to a guessed weight, and on any
    uncertified tail doubles it and re-sums every P_k, falling through to the
    q_z route past ``_LAURENT_MAX_WEIGHT``."""
    tau, tol = t.tau, t.tol
    z = complex(z)
    dmin = t.dmin
    z_near, m_near, _ = reduce_mod_lattice(tau, z, t.basis)
    out = [0j] * (kmax + 1)
    if abs(z_near) < 0.5 * dmin:
        for kbound in doubling_bounds(kmax):
            eis = t.eisenstein(kbound)
            try:
                for k in range(1, kmax + 1):
                    out[k] = _laurent_reference(k, z_near, dmin, eis, tol)
            except ToleranceError:
                continue
            out[1] -= m_near
            return out
    u = z / TWO_PI_I
    a = u.imag / tau.imag
    m_c = round(a)
    n_c = round(u.real - a * tau.real)
    z_c = z - TWO_PI_I * (m_c * tau + n_c)
    heads = elliptic._head_polys(kmax)
    for k in range(1, kmax + 1):
        out[k] = elliptic._p_qz_route(k, t.q, z_c, heads[k], tol, a - m_c)
    out[1] -= m_c
    return out
