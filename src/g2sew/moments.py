"""Truncated moment matrices and vectors, X-blocks, and the determinant /
trace-log machinery for the (I - M)^-1 kernels of both sewing formalisms.

All matrices are dense numpy arrays indexed from 0 (entry (k,l) of the
mathematical object sits at [k-1, l-1]).  Block objects flatten the label
pair (a,k) to index (a-1)*N + (k-1).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from ._record import Record, _set
from .elliptic import (
    DEFAULT_TOL,
    SeriesTolerance,
    Torus,
    _comb_ratio,
    _heat_dtau,
    _log_prime_form_dtau,
)
from .errors import (
    DomainError,
    InvalidArgumentError,
    NearDegenerateError,
    RangeOverflowError,
    TruncationError,
)
from .lattice import require_order

_SOLVE_RTOL = 1e-12


class MomentMatrix(Record):
    """Truncation of an infinite moment matrix; entry (k,l) carries the
    sewing parameter to the power (k+l)/2."""

    __slots__ = ("order", "entries")

    def __init__(self, order: int, entries: np.ndarray):
        _set(self, "order", order)
        _set(self, "entries", entries)
        if entries.shape != (order, order):
            raise InvalidArgumentError("entries shape does not match order")

    @property
    def known_eps_order(self) -> int:
        # dropping an interior index k > N costs at least parameter^(N+2)
        # in any end-normalized chain, so chains are exact through order N+1
        return self.order + 1


class BlockMomentMatrix(Record):
    """2x2 arrangement of N x N blocks indexed by (a,b) in {1,2}^2."""

    __slots__ = ("order", "flat")

    def __init__(self, order: int, flat: np.ndarray):
        _set(self, "order", order)
        _set(self, "flat", flat)  # (2N, 2N)
        if flat.shape != (2 * order, 2 * order):
            raise InvalidArgumentError("flat shape does not match order")

    def block(self, a: int, b: int) -> np.ndarray:
        n = self.order
        return self.flat[(a - 1) * n:a * n, (b - 1) * n:b * n]


class MomentVector(Record):
    """Pair of length-N blocks indexed by a in {1,2}, flattened to 2N."""

    __slots__ = ("order", "flat")

    def __init__(self, order: int, flat: np.ndarray):
        _set(self, "order", order)
        _set(self, "flat", flat)  # (2N,)

    def block(self, a: int) -> np.ndarray:
        n = self.order
        return self.flat[(a - 1) * n:a * n]

    def barred(self) -> "MomentVector":
        """Swap the two blocks (the index involution a -> a-bar)."""
        n = self.order
        return MomentVector(n, np.concatenate([self.flat[n:], self.flat[:n]]))


class DetResult(Record):
    __slots__ = ("det", "log_det", "truncation_order", "reconciled")

    def __init__(self, det: complex, log_det: complex, truncation_order: int,
                 reconciled: bool = True):
        _set(self, "det", det)
        _set(self, "log_det", log_det)
        _set(self, "truncation_order", truncation_order)
        _set(self, "reconciled", reconciled)


@functools.lru_cache(maxsize=32)
def _kernel_coeffs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moment kernel at order n as (coef, weight, beta_div), read-only
    and kept for the 32 orders used last: coef (-1)^(k+1) ``_comb(k, l)``
    over sqrt(kl), the weight k + l of entry (k,l), and beta's divisor
    sqrt(k)."""
    coef = np.array([[(-1) ** (k + 1) * _comb_ratio(k, l) / math.sqrt(k * l)
                      for l in range(1, n + 1)] for k in range(1, n + 1)])
    kk = np.arange(1, n + 1)
    weight = kk[:, None] + kk[None, :]
    beta_div = np.sqrt(kk)
    for arr in (coef, weight, beta_div):
        arr.setflags(write=False)
    return coef, weight, beta_div


def _scaling(param: complex, n: int, half_power_sign: int) -> np.ndarray:
    """Diagonal of S(param): (half_power_sign * param^(1/2))^k, k = 1..n.

    half_power_sign = -1 replaces the principal param^(1/2) by its negative
    (used by branch-flip invariance checks; all physical outputs carry
    integer powers and are unaffected).
    """
    require_order(n, "n", 1)
    if not cmath.isfinite(param):
        raise InvalidArgumentError(f"sewing parameter must be finite, got {param}")
    return (half_power_sign * cmath.sqrt(param)) ** np.arange(1, n + 1)


def _sks(kernel, table, s: np.ndarray) -> np.ndarray:
    """S K(table) S for the kernel (coef, weight, beta_div) at order n = len(s):
    K(table)[k,l] = coef[k,l] table[k+l] from a table indexed by weight
    through 2n.

    For ``_kernel_coeffs`` K(E) carries C(k,l,tau)/sqrt(kl) and K(P) carries
    D(k,l,tau,w)/sqrt(kl).
    """
    coef, weight, _ = kernel
    return coef * np.asarray(table)[weight] * np.outer(s, s)


def _rho_pair(kernel, eis, pks, s: np.ndarray) -> tuple[BlockMomentMatrix, MomentVector]:
    """R = -S2 [[K(P), K(E)], [K(E), Sigma K(P) Sigma]] S2 with S2 = (S, S)
    and Sigma = diag((-1)^k), and beta = S/beta_div (P_k - E_k) (x) [-1, (-1)^k],
    from E and P tables reaching weight 2n.

    For ``_kernel_coeffs`` Sigma K(P) Sigma = K(P)^T, and R^T is R with its
    blocks swapped.
    """
    n = len(s)
    coef, weight, beta_div = kernel
    eis, pks = np.asarray(eis), np.asarray(pks)
    ss, kp = np.outer(s, s), pks[weight]
    sgn = (-1) ** np.arange(1, n + 1)
    d, c = coef * kp * ss, coef * eis[weight] * ss
    # Sigma K(P) Sigma with s_l s_k for s_k s_l: K(P)^T to the bit when
    # coef^T = Sigma coef Sigma
    d22 = sgn[:, None] * coef * sgn * kp * ss.T
    base = s / beta_div * (pks[1:n + 1] - eis[1:n + 1])
    return (BlockMomentMatrix(n, -np.block([[d, c], [c, d22]])),
            MomentVector(n, np.concatenate([-base, sgn * base])))


def a_matrix(tau: complex, eps: complex, n: int,
             tol: SeriesTolerance = DEFAULT_TOL,
             half_power_sign: int = 1) -> MomentMatrix:
    """Torus moment matrix A(k,l) = eps^((k+l)/2)/sqrt(kl) * C(k,l,tau),
    that is S(eps) K(E) S(eps)."""
    return _a_matrix(Torus(tau, tol).eisenstein(2 * n), eps, n, half_power_sign)


def _a_matrix(table, eps: complex, n: int, half_power_sign: int = 1) -> MomentMatrix:
    """S(eps) K(table) S(eps) from a table indexed by weight through 2n: A
    from the E_k of a torus, dA/dtau from its dE_k/dtau.

    dA/deps needs no table: it is the diagonal scaling A(k,l) (k+l)/(2 eps).
    """
    return MomentMatrix(n, _sks(_kernel_coeffs(n), table, _scaling(eps, n, half_power_sign)))


def rho_moments(t: Torus, w: complex, rho: complex, n: int,
                half_power_sign: int = 1) -> tuple[BlockMomentMatrix, MomentVector]:
    """(R, beta) of the rho-formalism at the torus t, from its E_k and its
    P_k(tau, w) (k <= 2n).

    R_ab(k,l) = -rho^((k+l)/2)/sqrt(kl) times D(k,l,tau,w) on block (1,1),
    D(l,k,tau,w) on block (2,2) and C(k,l,tau) off the diagonal;
    beta_a(k) = rho^(k/2)/sqrt(k) (P_k(tau,w) - E_k(tau)) * [-1, (-1)^k]
    (P_1 has no Eisenstein term).
    """
    s = _scaling(rho, n, half_power_sign)
    return _rho_pair(_kernel_coeffs(n), t.eisenstein(2 * n), t.weierstrass(2 * n, w), s)


def r_matrix(tau: complex, w: complex, rho: complex, n: int,
             tol: SeriesTolerance = DEFAULT_TOL,
             half_power_sign: int = 1) -> BlockMomentMatrix:
    """Self-sewing block moment matrix R of ``rho_moments``."""
    return rho_moments(Torus(tau, tol), w, rho, n, half_power_sign)[0]


def beta_vector(tau: complex, w: complex, rho: complex, n: int,
                tol: SeriesTolerance = DEFAULT_TOL,
                half_power_sign: int = 1) -> MomentVector:
    """Self-sewing moment vector beta of ``rho_moments``."""
    return rho_moments(Torus(tau, tol), w, rho, n, half_power_sign)[1]


def _rho_moments_jacobian(t: Torus, w: complex, rho: complex, n: int):
    """(R, beta) at the torus t, and a zero-argument callable giving
    (dR/dw, dbeta/dw), (dR/dtau, dbeta/dtau), d log K/dw and d log K/dtau.
    Both read the tables built here, E_k to weight 2n and P_k(tau, w) to
    weight 2n + 2; the callable adds dE_k/dtau, which reads E_(2n+2), and
    assembles, so an evaluation whose J is never formed pays for neither.

    Each pair is ``_rho_pair`` of a table pair: (E, P), then (0, dP/dw)
    with dP_k/dw = -k P_(k+1), then (dE/dtau, dP/dtau) with dP_k/dtau from
    the heat equation (``_heat_dtau``).  S(rho) does not depend on
    tau or w.  dR/drho and dbeta/drho need no table: they are the diagonal
    scalings R(k,l) (k+l)/(2 rho) and beta(k) k/(2 rho).
    d log K/dw = P_1 and d log K/dtau = pi*i (P_1^2 - P_2 + 3 E_2).
    """
    s = _scaling(rho, n, 1)
    kernel = _kernel_coeffs(n)
    eis = t.eisenstein(2 * n)
    pks = np.asarray(t.weierstrass(2 * n + 2, w))

    def derivatives():
        dpks_dw = np.zeros(2 * n + 1, dtype=complex)
        dpks_dw[1:] = -np.arange(1, 2 * n + 1) * pks[2:2 * n + 2]
        return (_rho_pair(kernel, np.zeros(2 * n + 1), dpks_dw, s),
                _rho_pair(kernel, t.eisenstein_dtau(2 * n), _heat_dtau(pks, 0), s),
                complex(pks[1]), _log_prime_form_dtau(pks[1], pks[2], eis[2]))

    return _rho_pair(kernel, eis, pks, s), derivatives


def sphere_moments(chi: complex, n: int,
                   half_power_sign: int = 1) -> tuple[BlockMomentMatrix, MomentVector]:
    """Genus-zero self-sewing data: R^(0) with A^(0) = 0 and
    B^(0) = S K(1) S, S = S(-chi), plus beta^(0): the rho-formalism pair
    with P_k = 1 and E_k = 0.  Valid for 0 < |chi| < 1/4."""
    s = _scaling(-chi, n, half_power_sign)
    if not 0 < abs(chi) < 0.25:
        raise DomainError(f"sphere moments need 0 < |chi| < 1/4, got {abs(chi)}")
    return _rho_pair(_kernel_coeffs(n), np.zeros(2 * n + 1), np.ones(2 * n + 1), s)


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


def neumann_id_minus(m: np.ndarray, rhs: np.ndarray, order: int) -> np.ndarray:
    """(I - M)^-1 rhs truncated at parameter order ``order``, with no solve.

    M is 2x2 blocks of N x N, labels 1..N in each; entry (k,l) carries the
    parameter to the power (k+l)/2.  sum_j M^j rhs sums walks, and a walk's
    order is the sum of its edges'.  Those of order <= ``order`` are kept by
    the doubled-order recursion Y_0 = rhs, Y_c = sum_d M_d Y_(c-d) (M_d the
    entries of doubled order d), which splits each walk at its first edge.

    Float, complex and object entries are summed as they are: complex
    numbers for the necklace routes, exact polynomials in object arrays for
    ``formal``; integer and boolean entries are summed as complex.
    """
    return _walk_sum(m, rhs, order)


def _walk_sum(m: np.ndarray, rhs: np.ndarray, order: int, start=None) -> np.ndarray:
    """``neumann_id_minus``; with ``start`` (doubled orders, broadcast to
    rhs's shape) each rhs entry enters the recursion at Y_start rather than
    Y_0, for entries that carry the parameter^(start/2) already: a walk
    ending there is kept while its order plus start/2 is <= ``order``."""
    require_order(order, "order")
    m, rhs = np.asarray(m), np.asarray(rhs)
    size = m.shape[0]
    if m.shape != (size, size) or size < 2 or size % 2 or rhs.shape[:1] != (size,):
        raise InvalidArgumentError("need a 2N x 2N M and 2N rows of rhs")
    n = size // 2
    k = np.arange(size) % n + 1
    rows = np.arange(size)
    # ys[n + c] = Y_c, zero below c = 0; vs[e] = M Z_e with Z_e[l] = Y_(e-k_l)[l],
    # so that Y_c[i] = sum_l M[i,l] Y_(c-k_i-k_l)[l] = vs[c - k_i][i]
    dtype = np.result_type(m, rhs)
    if dtype.kind not in "fcO":
        dtype = np.dtype(complex)
    ys = np.zeros((n + 2 * order + 1,) + rhs.shape, dtype=dtype)
    vs = np.zeros((2 * order + 1,) + rhs.shape, dtype=dtype)
    ys[n] = rhs if start is None else np.where(start == 0, rhs, 0)
    for c in range(1, 2 * order + 1):
        vs[c - 1] = m @ ys[n + c - 1 - k, rows]
        ys[n + c] = vs[np.maximum(c - k, 0), rows]
        if start is not None:
            ys[n + c] += np.where(start == c, rhs, 0)
    return ys[n:].sum(axis=0)


def _chequered_walks(a1: np.ndarray, a2: np.ndarray, order: int):
    """(x12, u1, u2) = (I - A1 A2)^-1, (I - A1 A2)^-1 A1 and A2 (I - A1 A2)^-1
    at (1,1), truncated at parameter order ``order``: the walks from label 1
    through M = [[0, A1], [A2, 0]] alternate A1 and A2, so they are
    (I - M)^-1 [e_(1,1), e_(1,2)] read at label 1."""
    n = len(a1)
    m = np.zeros((2 * n, 2 * n), dtype=np.result_type(a1, a2))
    m[:n, n:], m[n:, :n] = a1, a2
    rhs = np.zeros((2 * n, 2), dtype=m.dtype)
    rhs[0, 0] = rhs[n, 1] = 1
    sol = neumann_id_minus(m, rhs, order)
    return sol[0, 0], sol[0, 1], sol[n, 0]


def _rho_walks(r: np.ndarray, beta: np.ndarray, bbar: np.ndarray,
               order: int | None = None, start=None):
    """g = (I-R)^-1 u (u the sum of the unit vectors at k = 1), z =
    (I-R)^-1 beta_bar and Omega's readouts (u.g, beta.g, beta.z); with
    ``order`` given, (I-R)^-1 is the walk sum truncated at that order, its
    columns (u, beta_bar) entering at ``start`` as in ``_walk_sum``."""
    n = len(r) // 2
    rhs = np.zeros((2 * n, 2), dtype=np.result_type(r, bbar))
    rhs[0, 0] = rhs[n, 0] = 1
    rhs[:, 1] = bbar
    sol = solve_id_minus(r, rhs) if order is None else _walk_sum(r, rhs, order, start)
    g, z = sol[:, 0], sol[:, 1]
    return g, z, (g[0] + g[n], beta @ g, beta @ z)


def x_blocks(a1: MomentMatrix, a2: MomentMatrix):
    """X_aa = A_a (I - A_abar A_a)^-1 and X_a,abar = I - (I - A_a A_abar)^-1.

    One solve G = (I - A1 A2)^-1 gives all four by the push-through
    identities, which hold for any A1, A2: X11 = G A1, X22 = A2 G,
    X12 = I - G, X21 = -A2 G A1.  Returns (X11, X12, X21, X22) as plain
    arrays.
    """
    if a1.order != a2.order:
        raise InvalidArgumentError("incompatible moment-matrix orders")
    m1, m2 = a1.entries, a2.entries
    eye = np.eye(a1.order, dtype=complex)
    g = solve_id_minus(m1 @ m2, eye)
    x11 = g @ m1
    return x11, eye - g, -(m2 @ x11), m2 @ g


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
    require_order(n_eps, "n_eps", 2)
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
    """det(I - t) and its log, checked against the trace-log series where
    that converges.  The log is then the series' branch (continuous from
    t = 0), reached from the principal one by the nearest multiple of
    2pi*i; otherwise it is the principal log."""
    sign, log_abs = np.linalg.slogdet(np.eye(t.shape[0], dtype=complex) - t)
    try:
        det = complex(sign) * math.exp(log_abs)  # 0 when singular
    except OverflowError:
        raise RangeOverflowError(f"det(I - M) = exp({log_abs:.6g}) overflows") from None
    log_det = complex(log_abs, cmath.phase(sign))
    series = _trace_log_series(t)
    reconciled = series is not None
    if reconciled:
        log_det += 2j * math.pi * round((series - log_det).imag / (2 * math.pi))
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
