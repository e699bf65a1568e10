"""Sphere self-sewing models: the simple q-sewing torus, the Catalan-series
sewing, the S_{n,k} sums, and the Eisenstein-from-Catalan identity.

These closed forms double as oracles for the generic moment machinery.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .elliptic import DEFAULT_TOL, SeriesTolerance, _first_passing, dedekind_eta, eisenstein_q
from .errors import DomainError, InvalidArgumentError, ToleranceError
from .lattice import TWO_PI_I, require_order
from .moments import (
    BlockMomentMatrix,
    a_matrix,
    det_id_minus,
    MomentMatrix,
    solve_id_minus,
    sphere_moments,
    x_blocks,
)


def catalan_f(chi: complex, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Catalan series f(chi) solving chi = f/(1+f)^2, f = chi + 2chi^2 + ...

    The closed form (1 - sqrt(1-4chi))/(2chi) - 1 cancels catastrophically
    for small chi, where the series is used instead.
    """
    chi = complex(chi)
    if not abs(chi) < 0.25:
        raise DomainError(f"catalan_f needs |chi| < 1/4, got {abs(chi)}")
    if chi == 0:
        return 0j
    if abs(chi) < 1e-3:
        def term(m: int) -> complex:
            return math.comb(2 * m, m + 1) / m * chi**m

        # |4 chi| < 4e-3 makes the tail past a term a fast geometric series
        # in 4 chi, bounded by that term over 1 - |4 chi|
        last = _first_passing(lambda m: abs(term(m)) / (1.0 - abs(4 * chi)) < tol.abs_tol,
                              2, tol.max_terms)
        if last > tol.max_terms:
            raise ToleranceError("catalan series not certified")
        total = 0j
        for m in range(1, last + 1):
            total += term(m)
        return total
    return (1.0 - cmath.sqrt(1.0 - 4.0 * chi)) / (2.0 * chi) - 1.0


def s_nk(n: int, k: int, chi: complex, truncation: int = 60) -> complex:
    """Nested binomial sum S_{n,k}(chi) by the recurrence
    S_{n,k} = sum_{j=1..m} chi^j C(k+j-1, j) S_{n-1,j}, S_{1,j} = 1, with
    every index summed to m = truncation."""
    require_order(n, "n", 1)
    require_order(k, "k", 1)
    require_order(truncation, "truncation", 1)
    chi = complex(chi)
    if not cmath.isfinite(chi):
        raise InvalidArgumentError(f"chi must be finite, got {chi}")
    if n == 1:
        return 1.0 + 0j
    m = truncation

    def krow(i: int) -> np.ndarray:
        return np.array([chi**j * math.comb(i + j - 1, j) for j in range(1, m + 1)])

    vec = np.ones(m, dtype=complex)  # S_{1,j} = 1
    kernel = np.array([krow(i) for i in range(1, m + 1)])
    for _ in range(n - 2):
        vec = kernel @ vec
    return complex(krow(k) @ vec)


def torus_modulus_simple(q: complex, n: int = 30) -> dict:
    """Verification report for the simplest sphere self-sewing (z = q z').

    The data has A = 0 and diagonal B, so I - R = diag(1 - q^k) twice over;
    det(I - R) is checked against prod_{k<=n}(1-q^k)^2 and q^(-1/12) eta^2.
    """
    q = complex(q)
    if not abs(q) < 1.0:
        raise DomainError("simple sewing requires |q| < 1")
    # the 1-form at infinity carries an orientation sign, so the diagonal
    # moment data entering the -[[B,A],[A,B^T]] assembly is B = -q^k delta
    b = np.diag([-(q**k) for k in range(1, n + 1)]).astype(complex)
    flat = np.zeros((2 * n, 2 * n), dtype=complex)
    flat[:n, :n] = -b
    flat[n:, n:] = -b.T
    r = BlockMomentMatrix(n, flat)
    det = det_id_minus(r).det
    prod = 1.0 + 0j
    for k in range(1, n + 1):
        prod *= (1.0 - q**k) ** 2
    report = {
        "det": det,
        "product": prod,
        "residual_product": abs(det - prod),
        "residual_diagonal": float(
            np.max(np.abs((np.eye(2 * n) - flat)
                          - np.diag([1.0 - q**k for k in range(1, n + 1)] * 2)))),
    }
    if q != 0:
        tau = cmath.log(q) / TWO_PI_I
        if tau.imag > 0:
            eta2 = q ** (-1.0 / 12.0) * dedekind_eta(tau) ** 2
            report["eta_sq"] = eta2
            report["residual_eta"] = abs(det - eta2)
    return report


def torus_modulus_catalan(chi: complex, n: int = 20) -> complex:
    """Torus nome q from the generic self-sewing pipeline on sphere data.

    2pi*i*tau = Log(chi) - beta (I - R)^-1 beta_bar^T with the genus-zero
    moments; returns exp(2pi*i*tau), which must equal f(chi).
    """
    chi = complex(chi)
    if not (0 < abs(chi) < 0.25):
        raise DomainError("torus_modulus_catalan needs 0 < |chi| < 1/4")
    r0, b0 = sphere_moments(chi, n)
    y = solve_id_minus(r0.flat, b0.barred().flat)
    two_pi_i_tau = cmath.log(chi) - b0.flat @ y
    return cmath.exp(two_pi_i_tau)


def e2_from_catalan(chi: complex, n: int = 24) -> complex:
    """E_2 at q = f(chi) from the Catalan sewing data:
    -1/12 + (2chi/(1-4chi)) (I + B0)^-1 (1,1)."""
    chi = complex(chi)
    if not (0 < abs(chi) < 0.25):
        raise DomainError("e2_from_catalan needs 0 < |chi| < 1/4")
    r0, _ = sphere_moments(chi, n)
    b0 = -r0.block(1, 1)  # R0 = -diag(B0, B0^T)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    inv_col = np.linalg.solve(np.eye(n, dtype=complex) + b0, e1)
    return -1.0 / 12.0 + 2.0 * chi / (1.0 - 4.0 * chi) * inv_col[0]


def catalan_g(chi: complex, n: int = 24) -> complex:
    """G(chi) = 1/12 + E_2(q = f(chi)), the degeneration coefficient."""
    return 1.0 / 12.0 + e2_from_catalan(chi, n)


def sphere_attach_check(tau: complex, eps: complex, n: int = 12) -> dict:
    """Attach a sphere (A2 = 0) to a torus and verify the X-block structure.

    With X_aa = A_a (I - A_abar A_a)^-1 the torus-side block X11 equals A1
    and the remaining three blocks vanish identically.
    """
    a1 = a_matrix(tau, eps, n)
    a2 = MomentMatrix(n, np.zeros((n, n), dtype=complex))
    x11, x12, x21, x22 = x_blocks(a1, a2)
    return {
        "residual_x11_minus_a1": float(np.max(np.abs(x11 - a1.entries))),
        "residual_x12": float(np.max(np.abs(x12))),
        "residual_x21": float(np.max(np.abs(x21))),
        "residual_x22": float(np.max(np.abs(x22))),
    }


def catalan_report(chi: complex, n: int = 24,
                   tol: SeriesTolerance = DEFAULT_TOL) -> dict:
    """Bundle of the Catalan-suite identities for the CLI."""
    chi = complex(chi)
    f = catalan_f(chi, tol)
    q_comp = torus_modulus_catalan(chi, n)
    tau = cmath.log(f) / TWO_PI_I
    e2_direct = eisenstein_q(2, f, tol)
    e2_cat = e2_from_catalan(chi, n)
    return {
        "f": f,
        "q_computed": q_comp,
        "residual_modulus": abs(q_comp - f),
        "residual_functional_eq": abs(chi - f / (1.0 + f) ** 2),
        "residual_e2": abs(e2_cat - e2_direct),
        "tau": tau,
    }
