"""The two-tori sewing pipeline: domain test, period matrix, necklace
expansion, bilinear form, the G-action and its equivariance residuals, and
Newton inversion of the sewing map.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, _set
from .elliptic import DEFAULT_TOL, SeriesTolerance, Torus, eisenstein
from .errors import ConvergenceError, DomainError, InvalidArgumentError, SewingError
from .lattice import TWO_PI_I, lattice_min, mobius, require_order, require_sl2, require_tau
from .moments import _a_matrix, _chequered_walks, a_matrix, solve_id_minus, x_blocks
from .siegel import PeriodMatrix, require_siegel, symplectic_action

SL2_T = ((1, 1), (0, 1))
SL2_S = ((0, -1), (1, 0))


class EpsPoint(Record):
    __slots__ = ("tau1", "tau2", "eps")

    def __init__(self, tau1: complex, tau2: complex, eps: complex):
        _set(self, "tau1", tau1)
        _set(self, "tau2", tau2)
        _set(self, "eps", eps)


class DomainCheck(Record):
    __slots__ = ("ok", "margin")

    def __init__(self, ok: bool, margin: float):
        _set(self, "ok", ok)
        _set(self, "margin", margin)  # |parameter| relative to the sharp bound; < 1 inside

    def __bool__(self) -> bool:
        return self.ok


class GElement(Record):
    """Generator data for G = (SL(2,Z) x SL(2,Z)) semidirect Z_2."""

    __slots__ = ("kind", "mat")

    def __init__(self, kind: str, mat: tuple | None = None):
        _set(self, "kind", kind)  # "gamma1" | "gamma2" | "beta"
        _set(self, "mat", mat)  # 2x2 integer matrix for the gamma kinds
        if kind not in ("gamma1", "gamma2", "beta"):
            raise InvalidArgumentError(f"unknown G element kind {kind!r}")
        if kind != "beta":
            require_sl2(mat)

    def sp4(self) -> np.ndarray:
        g = np.eye(4, dtype=int)
        if self.kind == "beta":
            g = np.zeros((4, 4), dtype=int)
            g[0, 1] = g[1, 0] = g[2, 3] = g[3, 2] = 1
            return g
        (a, b), (c, d) = self.mat
        if self.kind == "gamma1":
            g[0, 0], g[0, 2], g[2, 0], g[2, 2] = a, b, c, d
        else:
            g[1, 1], g[1, 3], g[3, 1], g[3, 3] = a, b, c, d
        return g


def in_domain_eps(p: EpsPoint) -> DomainCheck:
    """|eps| < (1/4) D(Lambda_tau1) D(Lambda_tau2)."""
    require_tau(p.tau1)
    require_tau(p.tau2)
    bound = 0.25 * lattice_min(p.tau1) * lattice_min(p.tau2)
    margin = abs(p.eps) / bound
    return DomainCheck(margin < 1.0, margin)


def _require_eps_domain(p: EpsPoint) -> None:
    check = in_domain_eps(p)
    if not check.ok:
        raise DomainError(f"(tau1, tau2, eps) outside D^eps, margin {check.margin:.3f}")


def period_matrix_eps(p: EpsPoint, n: int = 12,
                      tol: SeriesTolerance = DEFAULT_TOL,
                      half_power_sign: int = 1) -> PeriodMatrix:
    """Genus-two period matrix from the moment-matrix formulas.

    2pi*i*Om11 = 2pi*i*tau1 + eps (A2 (I - A1 A2)^-1)(1,1), symmetrically for
    Om22, and 2pi*i*Om12 = -eps (I - A1 A2)^-1 (1,1).
    """
    _require_eps_domain(p)
    return require_siegel(_period_eps(p, n, tol, half_power_sign)[0], n)


def _omega_eps(p: EpsPoint, x12: complex, u1: complex, u2: complex) -> PeriodMatrix:
    """Omega from the label-1 entries x12 = ((I - A1 A2)^-1)(1,1),
    u1 = ((I - A1 A2)^-1 A1)(1,1) and u2 = (A2 (I - A1 A2)^-1)(1,1)."""
    om11 = TWO_PI_I * p.tau1 + p.eps * u2
    om22 = TWO_PI_I * p.tau2 + p.eps * u1
    om12 = -p.eps * x12
    return PeriodMatrix(complex(om11 / TWO_PI_I), complex(om12 / TWO_PI_I),
                        complex(om22 / TWO_PI_I))


def _period_eps(p: EpsPoint, n: int, tol: SeriesTolerance,
                half_power_sign: int = 1):
    """(Omega, jacobian): ``jacobian()`` forms J = d(Om11, Om22, Om12)/
    d(tau1, tau2, eps) from this evaluation's tables and its one
    factorization of I - A1 A2, and costs nothing until it is called.  The
    caller checks the domain.

    With G12 = (I - A1 A2)^-1 and G21 = (I - A2 A1)^-1 = G12^T (A1, A2
    symmetric), the push-through identity A1 G21 = G12 A1 gives every
    vector from the one solve G12 [e1, A1 e1] = [x12, u1]:
    u2 = A2 x12 and x21 = G21 e1 = e1 + A2 u1.  Then
    d x12(1) = x21.dA1 u2 + u1.dA2 x12,  d u2(1) = u2.dA1 u2 + x12.dA2 x12,
    and d u1(1) is the latter with the labels swapped.
    """
    require_order(n, "n", 1)
    t1, t2 = Torus(p.tau1, tol), Torus(p.tau2, tol)
    a1 = _a_matrix(t1.eisenstein(2 * n), p.eps, n, half_power_sign).entries
    a2 = _a_matrix(t2.eisenstein(2 * n), p.eps, n, half_power_sign).entries
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = 1.0
    rhs[:, 1] = a1[:, 0]
    sol = solve_id_minus(a1 @ a2, rhs)
    x12, u1 = sol[:, 0], sol[:, 1]
    u2 = a2 @ x12

    def jacobian() -> np.ndarray:
        x21 = a2 @ u1
        x21[0] += 1.0
        da1 = _a_matrix(t1.eisenstein_dtau(2 * n), p.eps, n, half_power_sign).entries
        da2 = _a_matrix(t2.eisenstein_dtau(2 * n), p.eps, n, half_power_sign).entries
        kk = np.arange(1, n + 1)
        half = (kk[:, None] + kk[None, :]) / 2.0
        h1, h2 = a1 * half, a2 * half  # eps dA1/deps, eps dA2/deps
        e = p.eps
        # d(2pi*i Om11, 2pi*i Om22, 2pi*i Om12) / d(tau1, tau2, eps), less the
        # 2pi*i on the diagonal of the tau columns
        jac = np.array([
            [e * (u2 @ da1 @ u2), e * (x12 @ da2 @ x12),
             u2[0] + u2 @ h1 @ u2 + x12 @ h2 @ x12],
            [e * (x21 @ da1 @ x21), e * (u1 @ da2 @ u1),
             u1[0] + x21 @ h1 @ x21 + u1 @ h2 @ u1],
            [-e * (x21 @ da1 @ u2), -e * (u1 @ da2 @ x12),
             -(x12[0] + x21 @ h1 @ u2 + u1 @ h2 @ x12)],
        ]) / TWO_PI_I
        jac[0, 0] += 1.0
        jac[1, 1] += 1.0
        return jac

    return _omega_eps(p, x12[0], u1[0], u2[0]), jacobian


def necklace_period_eps(p: EpsPoint, max_eps_order: int,
                        tol: SeriesTolerance = DEFAULT_TOL) -> PeriodMatrix:
    """Period matrix from the chequered necklaces of total parameter exponent
    <= max_eps_order: the walks from label 1 through M = [[0, A1], [A2, 0]]
    alternate A1 and A2, so they are (I - M)^-1 [e_(1,1), e_(1,2)] truncated
    at that order (``_chequered_walks``), read at label 1 as x12, u1 and u2.
    Agrees with ``period_matrix_eps`` to O(eps^(max_eps_order+1)).
    """
    _require_eps_domain(p)
    require_order(max_eps_order, "max_eps_order")
    # interior labels of a chain of exponent <= max_eps_order stay below it
    n = max(1, max_eps_order - 1)
    return _omega_eps(p, *_chequered_walks(a_matrix(p.tau1, p.eps, n, tol).entries,
                                           a_matrix(p.tau2, p.eps, n, tol).entries,
                                           max_eps_order))


def bilinear_form_eps(p: EpsPoint, x: complex, y: complex,
                      which_surface_pair: tuple[int, int], n: int = 12,
                      tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Scalar density f of the sewn bilinear form omega(x,y) = f dx dy.

    x lives on the surface-pair's first torus, y on the second, in the
    punctured-torus coordinates.
    """
    a, b = which_surface_pair
    if a not in (1, 2) or b not in (1, 2):
        raise InvalidArgumentError("surface labels must be 1 or 2")
    require_order(n, "n", 1)
    _require_eps_domain(p)
    tori = {1: Torus(p.tau1, tol), 2: Torus(p.tau2, tol)}
    x11, x12, x21, x22 = x_blocks(_a_matrix(tori[1].eisenstein(2 * n), p.eps, n),
                                  _a_matrix(tori[2].eisenstein(2 * n), p.eps, n))
    xb = {(1, 1): x11, (1, 2): x12, (2, 1): x21, (2, 2): x22}
    se = np.sqrt(complex(p.eps))
    pk_x = tori[a].weierstrass(n + 1, x)
    pk_y = tori[b].weierstrass(n + 1, y)
    vec_x = np.array([math.sqrt(k) * se**k * pk_x[k + 1] for k in range(1, n + 1)])
    vec_y = np.array([math.sqrt(k) * se**k * pk_y[k + 1] for k in range(1, n + 1)])
    if a == b:
        abar = 3 - a
        base = tori[a].weierstrass(2, x - y)[2]
        return base + vec_x @ xb[(abar, abar)] @ vec_y
    return vec_x @ (-np.eye(n) + xb[(3 - a, a)]) @ vec_y


def g_action_eps(g: GElement, p: EpsPoint) -> EpsPoint:
    """Left action of G on D^eps (Dehn-twist data stays implicit)."""
    if g.kind == "beta":
        img = EpsPoint(p.tau2, p.tau1, p.eps)
    elif g.kind == "gamma1":
        (_, _), (c, d) = g.mat
        img = EpsPoint(mobius(g.mat, p.tau1), p.tau2, p.eps / (c * p.tau1 + d))
    else:
        (_, _), (c, d) = g.mat
        img = EpsPoint(p.tau1, mobius(g.mat, p.tau2), p.eps / (c * p.tau2 + d))
    check = in_domain_eps(img)
    if not check.ok and in_domain_eps(p).ok:
        raise DomainError(f"G-action image leaves D^eps, margin {check.margin!r}")
    return img


def sp4_action(g: GElement, omega: PeriodMatrix) -> PeriodMatrix:
    """Action of a G element on H_2 through its Sp(4,Z) embedding."""
    return symplectic_action(g.sp4(), omega)


def equivariance_residual_eps(g: GElement, p: EpsPoint, n: int = 16,
                              tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """max-entry |F(g.p) - g.(F(p))|."""
    left = period_matrix_eps(g_action_eps(g, p), n, tol)
    right = sp4_action(g, period_matrix_eps(p, n, tol))
    return left.max_abs_diff(right)


def _eps_seed(target: PeriodMatrix, tol: SeriesTolerance) -> EpsPoint:
    """Leading-order inversion of the two-tori degeneration."""
    om11, om22, om12 = target.omega11, target.omega22, target.omega12
    tau1 = om11 - TWO_PI_I * om12**2 * eisenstein(2, om22, tol)
    tau2 = om22 - TWO_PI_I * om12**2 * eisenstein(2, om11, tol)
    return EpsPoint(tau1, tau2, -TWO_PI_I * om12)


# A seed takes at most this many defect-correction passes, fewer when its
# model's defect stops falling
_SEED_PASSES = 3
# the eps chart's model: the period map at order 3 (E_2..E_6 per torus)
_SEED_ORDER = 3


def _refine_seed(model, correct, inside, x: np.ndarray) -> np.ndarray:
    """Defect correction of a Newton seed against a cheap model of the map.

    ``model(x)`` is the model's defect at x (model minus target);
    ``correct(x, d)`` moves x by that defect; ``inside(x)`` tells whether
    Newton may start at x.  The model is evaluated outside the domain too,
    so a seed can pass into it.  Returns the last point evaluated inside the
    domain (its defect is the least, since the passes stop once the defect
    stops falling), or x itself when there is none.  A model that raises a
    ``SewingError`` (tau off the upper half-plane, chi off its chart, a
    singular solve) ends the passes; Newton checks every point at full order.
    """
    best, last = x, math.inf
    for k in range(_SEED_PASSES + 1):
        try:
            d = model(x)
        except SewingError:
            break
        res = max(abs(d[0]), abs(d[1]), abs(d[2]))
        if not res < last:
            break
        last = res
        if inside(x):
            best = x
        if k < _SEED_PASSES:
            x = correct(x, d)
    return best


def _refined_eps_seed(target: PeriodMatrix, tol: SeriesTolerance) -> EpsPoint:
    """``_eps_seed`` refined against the period map at order _SEED_ORDER:
    a pass moves tau1 and tau2 by the model's defect in Om11 and Om22 and
    scales eps by Om12 over the model's."""
    goal = np.array([target.omega11, target.omega22, target.omega12])

    def model(v: np.ndarray) -> np.ndarray:
        om = _period_eps(EpsPoint(v[0], v[1], v[2]), _SEED_ORDER, tol)[0]
        return np.array([om.omega11, om.omega22, om.omega12]) - goal

    def correct(v: np.ndarray, d: np.ndarray) -> np.ndarray:
        return np.array([v[0] - d[0], v[1] - d[1], v[2] * goal[2] / (goal[2] + d[2])])

    lead = _eps_seed(target, tol)
    x = _refine_seed(model, correct, lambda v: in_domain_eps(EpsPoint(*v)).ok,
                     np.array([lead.tau1, lead.tau2, lead.eps]))
    return EpsPoint(complex(x[0]), complex(x[1]), complex(x[2]))


def _newton(f, x0: np.ndarray, newton_tol: float, max_iter: int = 50):
    """Damped Newton for a holomorphic map C^m -> C^m.

    f(x) returns the residual F and a zero-argument callable that forms the
    complex Jacobian J from the work F already did.  J is formed only at the
    point a step leaves from, so a line-search trial costs one call of f
    and the returned point no J.  A ``ConvergenceError`` carries the last
    residual and, in ``steps``, each accepted step's (residual, lam).
    """
    x = np.array(x0, dtype=complex)
    fx, jac = f(x)
    res = float(np.max(np.abs(fx)))
    steps = []
    for _ in range(max_iter):
        if res < newton_tol:
            return x
        try:
            step = np.linalg.solve(jac(), fx)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Newton Jacobian", last_residual=res,
                                   steps=steps) from None
        lam = 1.0
        for _ in range(30):
            try:
                fx_new, jac_new = f(x - lam * step)
            except DomainError:
                lam *= 0.5
                continue
            res_new = float(np.max(np.abs(fx_new)))
            if res_new < res:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                "Newton step could not reduce the residual inside the domain",
                last_residual=res, steps=steps)
        x = x - lam * step
        fx, jac, res = fx_new, jac_new, res_new
        steps.append((res, lam))
    if res < newton_tol:
        return x
    raise ConvergenceError(f"no convergence in {max_iter} iterations",
                           last_residual=res, steps=steps)


def invert_eps(target: PeriodMatrix, seed: EpsPoint | None = None,
               newton_tol: float = 1e-10, n: int = 12,
               tol: SeriesTolerance = DEFAULT_TOL) -> EpsPoint:
    """Invert the sewing map near the two-tori degeneration.

    Newton iteration on (tau1, tau2, eps) with the closed-form Jacobian; the
    auto-seed is the leading inversion formulas refined against the order-3
    period map (``_refined_eps_seed``), and an explicit seed is used as
    given.  diag targets return (tau1, tau2, 0) exactly.
    """
    if abs(target.omega12) < 1e-15:
        return EpsPoint(target.omega11, target.omega22, 0j)
    if seed is None:
        seed = _refined_eps_seed(target, tol)
    goal = np.array([target.omega11, target.omega22, target.omega12])

    def f(v: np.ndarray):
        p = EpsPoint(v[0], v[1], v[2])
        if not (p.tau1.imag > 0.0 and p.tau2.imag > 0.0):
            raise DomainError("tau left the upper half-plane")
        _require_eps_domain(p)
        om, jac = _period_eps(p, n, tol)
        return np.array([om.omega11, om.omega22, om.omega12]) - goal, jac

    x = _newton(f, np.array([seed.tau1, seed.tau2, seed.eps]), newton_tol)
    return EpsPoint(complex(x[0]), complex(x[1]), complex(x[2]))
