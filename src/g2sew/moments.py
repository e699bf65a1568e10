"""Truncated moment matrices and vectors, X-blocks, and the determinant /
trace-log machinery for the (I - M)^-1 kernels of both sewing formalisms.

All matrices are dense numpy arrays indexed from 0 (entry (k,l) of the
mathematical object sits at [k-1, l-1]).  Block objects flatten the label
pair (a,k) to index (a-1)*N + (k-1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    DEFAULT_TOL,
    SeriesTolerance,
    _comb_ratio,
    eisenstein_dtau_range,
    eisenstein_range,
    weierstrass_range,
)
from .errors import (
    DomainError,
    InvalidArgumentError,
    NearDegenerateError,
    TruncationError,
)
from .lattice import require_tau

_SOLVE_RTOL = 1e-12


@dataclass(frozen=True)
class MomentMatrix:
    """Truncation of an infinite moment matrix; entry (k,l) carries the
    sewing parameter to the power (k+l)/2."""

    order: int
    entries: np.ndarray

    @property
    def known_eps_order(self) -> int:
        # dropping an interior index k > N costs at least parameter^(N+2)
        # in any end-normalized chain, so chains are exact through order N+1
        return self.order + 1

    def __post_init__(self):
        if self.entries.shape != (self.order, self.order):
            raise InvalidArgumentError("entries shape does not match order")


@dataclass(frozen=True)
class BlockMomentMatrix:
    """2x2 arrangement of N x N blocks indexed by (a,b) in {1,2}^2."""

    order: int
    flat: np.ndarray  # (2N, 2N)

    def block(self, a: int, b: int) -> np.ndarray:
        n = self.order
        return self.flat[(a - 1) * n:a * n, (b - 1) * n:b * n]

    def __post_init__(self):
        if self.flat.shape != (2 * self.order, 2 * self.order):
            raise InvalidArgumentError("flat shape does not match order")


@dataclass(frozen=True)
class MomentVector:
    """Pair of length-N blocks indexed by a in {1,2}, flattened to 2N."""

    order: int
    flat: np.ndarray  # (2N,)

    def block(self, a: int) -> np.ndarray:
        n = self.order
        return self.flat[(a - 1) * n:a * n]

    def barred(self) -> "MomentVector":
        """Swap the two blocks (the index involution a -> a-bar)."""
        n = self.order
        return MomentVector(n, np.concatenate([self.flat[n:], self.flat[:n]]))


@dataclass(frozen=True)
class DetResult:
    det: complex
    log_det: complex
    truncation_order: int
    reconciled: bool = True


def _c_entries(table: list[complex], pw: list[complex], n: int) -> np.ndarray:
    """pw[k+l]/sqrt(kl) (-1)^(k+1) (k+l-1)!/((k-1)!(l-1)!) table[k+l] at even
    k + l: A(k,l) from the E_k table, dA/dtau from the dE_k/dtau table."""
    out = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            if (k + l) % 2 == 0:
                v = (pw[k + l] / math.sqrt(k * l)
                     * (-1) ** (k + 1) * _comb_ratio(k, l) * table[k + l])
                out[k - 1, l - 1] = v
                out[l - 1, k - 1] = v
    return out


def _half_powers(param: complex, n: int, half_power_sign: int) -> list[complex]:
    s = half_power_sign * cmath.sqrt(param)
    return [s**j for j in range(n + 1)]


def a_matrix(tau: complex, eps: complex, n: int,
             tol: SeriesTolerance = DEFAULT_TOL,
             half_power_sign: int = 1) -> MomentMatrix:
    """Torus moment matrix A(k,l) = eps^((k+l)/2)/sqrt(kl) * C(k,l,tau).

    half_power_sign = -1 replaces the principal eps^(1/2) by its negative
    (used by branch-flip invariance checks; all physical outputs carry
    integer powers and are unaffected).
    """
    tau = require_tau(tau)
    if n < 1:
        raise InvalidArgumentError("order must be >= 1")
    eis = eisenstein_range(2 * n, tau, tol)
    return MomentMatrix(n, _c_entries(eis, _half_powers(eps, 2 * n, half_power_sign), n))


def a_matrix_dtau(tau: complex, eps: complex, n: int,
                  tol: SeriesTolerance = DEFAULT_TOL,
                  half_power_sign: int = 1) -> MomentMatrix:
    """dA/dtau: A(k,l) with E_{k+l} replaced by dE_{k+l}/dtau.

    dA/deps needs no table: it is the diagonal scaling A(k,l) (k+l)/(2 eps).
    """
    tau = require_tau(tau)
    if n < 1:
        raise InvalidArgumentError("order must be >= 1")
    deis = eisenstein_dtau_range(2 * n, tau, tol)
    return MomentMatrix(n, _c_entries(deis, _half_powers(eps, 2 * n, half_power_sign), n))


def _r_entries(eis: list[complex], pks: list[complex], pw: list[complex],
               n: int) -> np.ndarray:
    """Flat R from the E_k and P_k(tau, w) tables (k <= 2n).

    Block (2,2) is the transpose of block (1,1) and the off-diagonal blocks
    are equal and symmetric, so R^T is R with the blocks swapped.
    """
    flat = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            s = -pw[k + l] / math.sqrt(k * l)
            dkl = (-1) ** (k + 1) * _comb_ratio(k, l) * pks[k + l]
            dlk = (-1) ** (l + 1) * _comb_ratio(l, k) * pks[k + l]
            ckl = ((-1) ** (k + 1) * _comb_ratio(k, l) * eis[k + l]
                   if (k + l) % 2 == 0 else 0j)
            flat[k - 1, l - 1] = s * dkl
            flat[k - 1, n + l - 1] = s * ckl
            flat[n + k - 1, l - 1] = s * ckl
            flat[n + k - 1, n + l - 1] = s * dlk
    return flat


def _beta_entries(eis: list[complex], pks: list[complex], pw: list[complex],
                  n: int) -> np.ndarray:
    """Flat beta from the E_k and P_k(tau, w) tables (k <= n)."""
    flat = np.zeros(2 * n, dtype=complex)
    for k in range(1, n + 1):
        base = pw[k] / math.sqrt(k) * (pks[k] - eis[k])
        flat[k - 1] = -base
        flat[n + k - 1] = (-1) ** k * base
    return flat


def r_matrix(tau: complex, w: complex, rho: complex, n: int,
             tol: SeriesTolerance = DEFAULT_TOL,
             half_power_sign: int = 1) -> BlockMomentMatrix:
    """Self-sewing block moment matrix R_ab(k,l) of the rho-formalism.

    Diagonal blocks carry D(k,l,tau,w) and D(l,k,tau,w); off-diagonal blocks
    carry C(k,l,tau); the overall minus sign is included.
    """
    tau = require_tau(tau)
    if n < 1:
        raise InvalidArgumentError("order must be >= 1")
    eis = eisenstein_range(2 * n, tau, tol)
    pks = weierstrass_range(2 * n, tau, w, tol)
    pw = _half_powers(rho, 2 * n, half_power_sign)
    return BlockMomentMatrix(n, _r_entries(eis, pks, pw, n))


def beta_vector(tau: complex, w: complex, rho: complex, n: int,
                tol: SeriesTolerance = DEFAULT_TOL,
                half_power_sign: int = 1) -> MomentVector:
    """beta_a(k) = rho^(k/2)/sqrt(k) (P_k(tau,w) - E_k(tau)) * [-1, (-1)^k].

    There is no k = 1 Eisenstein term (the P_1 series has none).
    """
    tau = require_tau(tau)
    eis = eisenstein_range(max(2, n), tau, tol)
    pks = weierstrass_range(n, tau, w, tol)
    pw = _half_powers(rho, n, half_power_sign)
    return MomentVector(n, _beta_entries(eis, pks, pw, n))


def rho_moments_dw(tau: complex, w: complex, rho: complex, n: int,
                   tol: SeriesTolerance = DEFAULT_TOL, half_power_sign: int = 1):
    """(R, beta, dR/dw, dbeta/dw, P_1(tau, w)) from one E_k table and one
    P_k table, using dP_k/dw = -k P_{k+1} (k >= 1).

    dR/drho and dbeta/drho need no table: they are the diagonal scalings
    R(k,l) (k+l)/(2 rho) and beta(k) k/(2 rho).  P_1 = d log K(tau, w)/dw.
    """
    tau = require_tau(tau)
    if n < 1:
        raise InvalidArgumentError("order must be >= 1")
    eis = eisenstein_range(2 * n, tau, tol)
    pks = weierstrass_range(2 * n + 1, tau, w, tol)
    dpks = [0j] + [-k * pks[k + 1] for k in range(1, 2 * n + 1)]
    no_eis = [0j] * (2 * n + 1)
    pw = _half_powers(rho, 2 * n, half_power_sign)
    return (BlockMomentMatrix(n, _r_entries(eis, pks, pw, n)),
            MomentVector(n, _beta_entries(eis, pks, pw, n)),
            BlockMomentMatrix(n, _r_entries(no_eis, dpks, pw, n)),
            MomentVector(n, _beta_entries(no_eis, dpks, pw, n)),
            pks[1])


def sphere_moments(chi: complex, n: int,
                   half_power_sign: int = 1) -> tuple[BlockMomentMatrix, MomentVector]:
    """Genus-zero self-sewing data: R^(0) with A^(0) = 0 and the stated
    B^(0), plus beta^(0).  Valid for 0 < |chi| < 1/4."""
    if n < 1:
        raise InvalidArgumentError("order must be >= 1")
    if not 0 < abs(chi) < 0.25:
        raise DomainError(f"sphere moments need 0 < |chi| < 1/4, got {abs(chi)}")
    sc = half_power_sign * cmath.sqrt(-chi)
    pw = [sc**j for j in range(2 * n + 1)]
    b = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            b[k - 1, l - 1] = (pw[k + l] / math.sqrt(k * l)
                               * (-1) ** (k + 1) * _comb_ratio(k, l))
    flat = np.zeros((2 * n, 2 * n), dtype=complex)
    flat[:n, :n] = -b
    flat[n:, n:] = -b.T
    vec = np.zeros(2 * n, dtype=complex)
    for k in range(1, n + 1):
        base = pw[k] / math.sqrt(k)
        vec[k - 1] = -base
        vec[n + k - 1] = (-1) ** k * base
    return BlockMomentMatrix(n, flat), MomentVector(n, vec)


def solve_id_minus(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(I - M)^-1 rhs by a dense direct solve with an enforced residual."""
    m = np.asarray(m, dtype=complex)
    sys = np.eye(m.shape[0], dtype=complex) - m
    try:
        x = np.linalg.solve(sys, rhs)
    except np.linalg.LinAlgError:
        sv = np.linalg.svd(sys, compute_uv=False)[-1]
        raise NearDegenerateError("I - M is singular at this truncation",
                                  smallest_singular_value=sv) from None
    res = np.linalg.norm(sys @ x - rhs)
    if res > _SOLVE_RTOL * max(np.linalg.norm(rhs), 1e-300):
        sv = np.linalg.svd(sys, compute_uv=False)[-1]
        raise NearDegenerateError(
            f"(I - M) solve residual {res:.3e} exceeds tolerance",
            smallest_singular_value=sv)
    return x


def x_blocks(a1: MomentMatrix, a2: MomentMatrix):
    """X_aa = A_a (I - A_abar A_a)^-1 and X_a,abar = I - (I - A_a A_abar)^-1.

    Returns (X11, X12, X21, X22) as plain arrays.
    """
    if a1.order != a2.order:
        raise InvalidArgumentError("incompatible moment-matrix orders")
    n = a1.order
    m1, m2 = a1.entries, a2.entries
    eye = np.eye(n, dtype=complex)
    inv_12 = solve_id_minus(m1 @ m2, eye)   # (I - A1 A2)^-1
    inv_21 = solve_id_minus(m2 @ m1, eye)   # (I - A2 A1)^-1
    x11 = m1 @ inv_21
    x22 = m2 @ inv_12
    x12 = eye - inv_12
    x21 = eye - inv_21
    return x11, x12, x21, x22


def _lu_log_det(m: np.ndarray) -> tuple[complex, complex]:
    """Determinant and log-determinant via LU with partial pivoting.

    The log accumulates each pivot's principal argument (plus i*pi per row
    swap), tracking the winding along the factor sequence.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    log_det = 0j
    det = 1 + 0j
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if abs(a[p, j]) == 0.0:
            return 0j, complex("-inf")
        if p != j:
            a[[j, p]] = a[[p, j]]
            log_det += 1j * math.pi
            det = -det
        piv = a[j, j]
        det *= piv
        log_det += cmath.log(piv)
        if j + 1 < n:
            f = a[j + 1:, j] / piv
            a[j + 1:, j + 1:] -= np.outer(f, a[j, j + 1:])
    return det, log_det


def _trace_log_series(m: np.ndarray, tol: float = 1e-13, nmax: int = 600):
    """-sum Tr(M^n)/n if it converges; None when divergence is detected."""
    total = 0j
    power = np.array(m, dtype=complex)
    prev = math.inf
    for n in range(1, nmax + 1):
        term = np.trace(power) / n
        total -= term
        mag = abs(term)
        if mag < tol and mag <= prev:
            return total
        if n > 40 and mag > prev * 1.05 and mag > 1.0:
            return None
        prev = mag
        power = power @ m
    return None


def truncated_product(a1: MomentMatrix, a2: MomentMatrix, n_eps: int) -> np.ndarray:
    """Index-dependent truncation T_N(k,l) = sum_{m <= N-(k+l)/2} A1(k,m)A2(m,l),
    a (2N-3) x (2N-3) matrix approximating A1 A2 through parameter order N."""
    if n_eps < 2:
        raise InvalidArgumentError("series order must be >= 2")
    size = 2 * n_eps - 3
    if size > a1.order:
        raise InvalidArgumentError(
            f"series order {n_eps} needs moment matrices of order >= {size}")
    m1, m2 = a1.entries, a2.entries
    t = np.zeros((size, size), dtype=complex)
    for k in range(1, size + 1):
        for l in range(1, size + 1):
            mmax = min(a1.order, n_eps - (k + l) // 2)
            if mmax >= 1:
                t[k - 1, l - 1] = m1[k - 1, :mmax] @ m2[:mmax, l - 1]
    return t


def _det_result(t: np.ndarray, truncation_order: int) -> DetResult:
    det, log_det = _lu_log_det(np.eye(t.shape[0], dtype=complex) - t)
    series = _trace_log_series(t)
    reconciled = series is not None
    if reconciled:
        scale = max(abs(log_det), 1.0)
        if abs(log_det - series) > 1e-8 * scale:
            raise TruncationError(
                f"log det {log_det} and trace-log {series} disagree; "
                "truncation too coarse")
    return DetResult(det=det, log_det=log_det,
                     truncation_order=truncation_order, reconciled=reconciled)


def det_id_minus_product(a1: MomentMatrix, a2: MomentMatrix,
                         n_eps: int | None = None) -> DetResult:
    """det(I - A1 A2) with the log computed two independent ways.

    With n_eps given, the product is the index-dependent truncation
    ``truncated_product``; otherwise the plain product of the stored
    truncations is used.
    """
    if a1.order != a2.order:
        raise InvalidArgumentError("incompatible moment-matrix orders")
    if n_eps is None:
        t = a1.entries @ a2.entries
        order = a1.known_eps_order
    else:
        t = truncated_product(a1, a2, n_eps)
        order = n_eps
    return _det_result(t, order)


def det_id_minus(r: BlockMomentMatrix) -> DetResult:
    """det(I - R) on the flattened 2N x 2N truncation."""
    return _det_result(r.flat, r.order + 1)
