"""The self-sewing pipeline: domain test, period matrix with explicit
log-branch handling, necklace expansion, the Heisenberg/modular action and
its equivariance residuals, degeneration formulas, Newton inversion in the
chi chart, and the composition into the two-tori chart.

The covering space that makes log(-rho/K^2) single-valued is replaced by an
integer ``branch`` carried on every point; group actions transport it so the
lifted logarithm law holds exactly.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._record import Record, _set
from .elliptic import DEFAULT_TOL, SeriesTolerance, Torus, eisenstein, eisenstein_q
from .epsilon import DomainCheck, EpsPoint, _newton, _refine_seed, invert_eps
from .errors import DomainError, InvalidArgumentError
from .lattice import (
    TWO_PI_I,
    lattice_distance,
    lattice_min,
    mobius,
    require_order,
    require_sl2,
    require_tau,
)
from .moments import _rho_moments_jacobian, _rho_walks, rho_moments
from .siegel import PeriodMatrix, require_siegel, symplectic_action
from .sphere import catalan_f


class RhoPoint(Record):
    __slots__ = ("tau", "w", "rho", "branch")

    def __init__(self, tau: complex, w: complex, rho: complex, branch: int = 0):
        _set(self, "tau", tau)
        _set(self, "w", w)
        _set(self, "rho", rho)
        _set(self, "branch", branch)


class ChiPoint(Record):
    __slots__ = ("tau", "w", "chi")

    def __init__(self, tau: complex, w: complex, chi: complex):
        _set(self, "tau", tau)
        _set(self, "w", w)
        _set(self, "chi", chi)

    def rho_point(self, branch: int = 0) -> RhoPoint:
        return RhoPoint(self.tau, self.w, -self.w**2 * self.chi, branch)


class LElement(Record):
    """Generator data for L = Hhat . Gamma_1."""

    __slots__ = ("kind", "abc", "mat")

    def __init__(self, kind: str, abc: tuple[int, int, int] | None = None,
                 mat: tuple | None = None):
        _set(self, "kind", kind)  # "mu" | "gamma1"
        _set(self, "abc", abc)
        _set(self, "mat", mat)
        if kind not in ("mu", "gamma1"):
            raise InvalidArgumentError(f"unknown L element kind {kind!r}")
        if kind == "gamma1":
            require_sl2(mat)
        elif not (isinstance(abc, (tuple, list)) and len(abc) == 3):
            raise InvalidArgumentError(f"mu needs integers abc = (a, b, c), got {abc!r}")
        else:
            for x in abc:
                require_order(x, "an entry of mu's abc", -math.inf)

    def sp4(self) -> np.ndarray:
        if self.kind == "mu":
            a, b, c = self.abc
            return np.array([[1, 0, 0, b],
                             [a, 1, b, c],
                             [0, 0, 1, -a],
                             [0, 0, 0, 1]], dtype=int)
        (a, b), (c, d) = self.mat
        g = np.eye(4, dtype=int)
        g[0, 0], g[0, 2], g[2, 0], g[2, 2] = a, b, c, d
        return g


def in_domain_rho(p: RhoPoint) -> DomainCheck:
    """|w - lambda| > 2|rho|^(1/2) > 0 for every lattice point lambda, and
    D(Lambda_tau) > 2|rho|^(1/2), so that no sewing disc overlaps its own
    lattice translates.  Every rho map passes through it, so it also
    rejects a branch that is not an integer."""
    require_tau(p.tau)
    require_order(p.branch, "branch", -math.inf)
    bound = min(lattice_distance(p.tau, p.w), lattice_min(p.tau))
    if p.rho == 0 or bound == 0:
        return DomainCheck(False, math.inf)
    margin = 2.0 * math.sqrt(abs(p.rho)) / bound
    return DomainCheck(margin < 1.0, margin)


def _log_head(p: RhoPoint, t: Torus) -> complex:
    """Branch-resolved logarithm Log(-rho / K(tau,w)^2) + 2pi*i*branch, with
    the prime form of the torus t at p.tau."""
    k = t.prime_form(p.w)
    return cmath.log(-p.rho / (k * k)) + TWO_PI_I * p.branch


def period_matrix_rho(p: RhoPoint, n: int = 12,
                      tol: SeriesTolerance = DEFAULT_TOL,
                      half_power_sign: int = 1) -> PeriodMatrix:
    """Genus-two period matrix of the self-sewn torus.

    2pi*i*Om11 = 2pi*i*tau - rho * sigma((I-R)^-1 (1,1));
    2pi*i*Om12 = w - rho^(1/2) * sigma(beta (I-R)^-1 (1));
    2pi*i*Om22 = Log(-rho/K^2) + 2pi*i*branch - beta (I-R)^-1 beta_bar^T,
    where sigma sums block entries at (k,l) = (1,1).
    """
    _require_rho_domain(p)
    t = Torus(p.tau, tol)
    r, beta = rho_moments(t, p.w, p.rho, n, half_power_sign)
    return require_siegel(_rho_solve(p, r, beta, t, half_power_sign)[0], n)


def _require_rho_domain(p: RhoPoint) -> None:
    check = in_domain_rho(p)
    if not check.ok:
        raise DomainError(f"(tau, w, rho) outside D^rho, margin {check.margin:.3f}")


def _rho_solve(p: RhoPoint, r, beta, t: Torus, half_power_sign: int,
               order: int | None = None):
    """Omega from one factorization of I - R, with the solutions
    g = (I-R)^-1 u (u the sum of the unit vectors at k = 1) and
    z = (I-R)^-1 beta_bar that its derivatives reuse.  With ``order`` given,
    (I-R)^-1 is instead the necklace sum truncated at that rho order.

    R^T is R with its blocks swapped, so beta (I-R)^-1 is z with its blocks
    swapped and needs no second solve.
    """
    g, z, (sigma, beta_g, beta_z) = _rho_walks(r.flat, beta.flat, beta.barred().flat, order)
    sr = half_power_sign * cmath.sqrt(p.rho)
    om11 = TWO_PI_I * p.tau - p.rho * sigma
    om12 = p.w - sr * beta_g
    om22 = _log_head(p, t) - beta_z
    return PeriodMatrix(complex(om11 / TWO_PI_I), complex(om12 / TWO_PI_I),
                        complex(om22 / TWO_PI_I)), g, z


def necklace_period_rho(p: RhoPoint, max_rho_order: int,
                        tol: SeriesTolerance = DEFAULT_TOL) -> PeriodMatrix:
    """Necklace-sum evaluation of the self-sewing period matrix, exact in
    rho through max_rho_order: the matrix route's formulas with the walks
    through R up to that order (``neumann_id_minus``) in place of (I - R)^-1.
    Agrees with ``period_matrix_rho`` to O(rho^(max_rho_order+1))."""
    _require_rho_domain(p)
    require_order(max_rho_order, "max_rho_order", 1)
    t = Torus(p.tau, tol)
    r, beta = rho_moments(t, p.w, p.rho, max_rho_order)
    return _rho_solve(p, r, beta, t, 1, max_rho_order)[0]


def l_action_rho(g: LElement, p: RhoPoint,
                 tol: SeriesTolerance = DEFAULT_TOL) -> RhoPoint:
    """Left action of L on D^rho with branch transport.

    mu(a,b,c) translates w by 2pi*i(a tau + b) and shifts the lifted log by
    2pi*i a^2 tau + 2aw + 2pi*i(ab+c); gamma1 rescales (w, rho) by the
    cocycle and shifts the lifted log by -c1 w^2 / (2pi*i (c1 tau + d1)).
    The integer branch of the image realizes those laws exactly.
    """
    _require_rho_domain(p)
    t = Torus(p.tau, tol)
    head = _log_head(p, t)
    if g.kind == "mu":
        a, b, c = g.abc
        img = RhoPoint(p.tau, p.w + TWO_PI_I * (a * p.tau + b), p.rho, 0)
        lifted = head + TWO_PI_I * a * a * p.tau + 2.0 * a * p.w + TWO_PI_I * (a * b + c)
    else:
        (_, _), (c1, d1) = g.mat
        j = c1 * p.tau + d1
        img = RhoPoint(mobius(g.mat, p.tau), p.w / j, p.rho / (j * j), 0)
        lifted = head - c1 * p.w**2 / (TWO_PI_I * j)
    # branch-0 head at the image point; mu keeps tau, and with it the torus
    base = _log_head(img, t if g.kind == "mu" else Torus(img.tau, tol))
    shift = (lifted - base) / TWO_PI_I
    branch = round(shift.real)
    if abs(shift - branch) > 1e-6:
        raise InvalidArgumentError(
            f"branch transport failed to land on an integer: {shift}")
    img = RhoPoint(img.tau, img.w, img.rho, branch)
    _require_rho_domain(img)
    return img


def sp4_action_rho(g: LElement, omega: PeriodMatrix) -> PeriodMatrix:
    return symplectic_action(g.sp4(), omega)


def equivariance_residual_rho(g: LElement, p: RhoPoint, n: int = 16,
                              tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """max-entry |F(g.p) - g.(F(p))| with exact branch bookkeeping."""
    left = period_matrix_rho(l_action_rho(g, p, tol), n, tol)
    right = sp4_action_rho(g, period_matrix_rho(p, n, tol))
    return left.max_abs_diff(right)


def degeneration_period(c: ChiPoint, tol: SeriesTolerance = DEFAULT_TOL) -> PeriodMatrix:
    """Leading-order (through w^2) period matrix near the two-tori
    degeneration at fixed chi; the remainder is O(w^4).

    Its coefficient G(chi) = 1/12 + E_2(q = f(chi)) (``sphere.catalan_g``
    reads E_2 off the sphere's sewing data) is summed here as E_2's
    certified q-series at the nome f(chi).
    """
    require_tau(c.tau)
    if not 0 < abs(c.chi) < 0.25:
        raise DomainError("degeneration chart needs 0 < |chi| < 1/4")
    if not cmath.isfinite(c.w):
        raise InvalidArgumentError(f"w must be finite, got {c.w}")
    f = catalan_f(c.chi, tol)
    g = 1.0 / 12.0 + eisenstein_q(2, f, tol)
    e2 = eisenstein(2, c.tau, tol)
    w2 = c.w * c.w
    fac = 1.0 - 4.0 * c.chi
    om11 = TWO_PI_I * c.tau + w2 * fac * g
    om12 = c.w * cmath.sqrt(fac) * (1.0 + w2 * fac * e2 * g)
    om22 = cmath.log(f) + w2 * fac * e2
    return PeriodMatrix(complex(om11 / TWO_PI_I), complex(om12 / TWO_PI_I),
                        complex(om22 / TWO_PI_I))


def chi_period(c: ChiPoint, n: int = 12,
               tol: SeriesTolerance = DEFAULT_TOL) -> PeriodMatrix:
    """F^chi: the full rho-pipeline in the chi chart (branch 0)."""
    return period_matrix_rho(c.rho_point(), n, tol)


def _chi_seed(target: PeriodMatrix) -> ChiPoint:
    f0 = cmath.exp(TWO_PI_I * target.omega22)
    chi0 = f0 / (1.0 + f0) ** 2
    w0 = TWO_PI_I * target.omega12 / cmath.sqrt(1.0 - 4.0 * chi0)
    return ChiPoint(target.omega11, w0, chi0)


def _chi_period_jacobian(c: ChiPoint, n: int, tol: SeriesTolerance):
    """(F^chi(c), jacobian): ``jacobian()`` forms J = d(Om11, Om12, Om22)/
    d(tau, w, chi) from the tables this evaluation read
    (``_rho_moments_jacobian``) and its one factorization, and costs
    nothing until it is called.

    With G = (I-R)^-1, y = G^T beta and any parameter s,
    d sigma11 = (Pg).dR g,  d(beta G u) = dbeta.g + y.dR g,
    d(beta G beta_bar) = 2 dbeta.z + y.dR z  (P swaps the blocks).
    rho = -w^2 chi does not depend on tau, so the tau column is
    (2pi*i - rho d sigma11, -rho^(1/2) d(beta G u),
    -2 d log K/dtau - d(beta G beta_bar)) / 2pi*i along dR/dtau, dbeta/dtau.
    """
    p = c.rho_point()
    _require_rho_domain(p)
    t = Torus(p.tau, tol)
    (r, beta), derivatives = _rho_moments_jacobian(t, p.w, p.rho, n)
    omega, g, z = _rho_solve(p, r, beta, t, 1)

    def jacobian() -> np.ndarray:
        (dr_dw, dbeta_dw), (dr_dtau, dbeta_dtau), p1, dlogk_dtau = derivatives()
        kk = np.tile(np.arange(1, n + 1), 2)
        dr_drho = r.flat * (kk[:, None] + kk[None, :]) / (2.0 * p.rho)
        dbeta_drho = beta.flat * kk / (2.0 * p.rho)
        pg = np.concatenate([g[n:], g[:n]])
        y = np.concatenate([z[n:], z[:n]])

        def partials(dr, dbeta):
            return np.array([pg @ dr @ g, dbeta @ g + y @ dr @ g,
                             2.0 * (dbeta @ z) + y @ dr @ z])

        sr = cmath.sqrt(p.rho)
        s_rho = partials(dr_drho, dbeta_drho)
        s_w = partials(dr_dw.flat, dbeta_dw.flat)
        s_tau = partials(dr_dtau.flat, dbeta_dtau.flat)
        # d(2pi*i Om11, 2pi*i Om12, 2pi*i Om22) along rho and along w at fixed
        # tau, and along tau at fixed (w, rho)
        d_rho = np.array([-(g[0] + g[n]) - p.rho * s_rho[0],
                          -sr / (2.0 * p.rho) * (beta.flat @ g) - sr * s_rho[1],
                          1.0 / p.rho - s_rho[2]])
        d_w = np.array([-p.rho * s_w[0], 1.0 - sr * s_w[1], -2.0 * p1 - s_w[2]])
        d_tau = np.array([TWO_PI_I - p.rho * s_tau[0], -sr * s_tau[1],
                          -2.0 * dlogk_dtau - s_tau[2]])
        jac = np.empty((3, 3), dtype=complex)
        jac[:, 0] = d_tau / TWO_PI_I
        jac[:, 1] = (d_w - 2.0 * c.w * c.chi * d_rho) / TWO_PI_I  # rho = -w^2 chi
        jac[:, 2] = -c.w**2 * d_rho / TWO_PI_I
        return jac

    return np.array([omega.omega11, omega.omega12, omega.omega22]), jacobian


def _refined_chi_seed(target: PeriodMatrix, tol: SeriesTolerance) -> ChiPoint:
    """``_chi_seed`` refined against ``degeneration_period``, the paper's
    through-w^2 formula: a pass moves tau by the defect in Om11, scales w by
    Om12 over the model's and moves chi by the defect in Om22 through
    d log f/dchi = 1/(chi sqrt(1 - 4 chi)).  The defect in Om22 is taken
    mod 1, as Newton's residual is."""
    goal = np.array([target.omega11, target.omega12, target.omega22])

    def model(v: np.ndarray) -> np.ndarray:
        om = degeneration_period(ChiPoint(v[0], v[1], v[2]), tol)
        return _mod_cut(np.array([om.omega11, om.omega12, om.omega22]) - goal)

    def correct(v: np.ndarray, d: np.ndarray) -> np.ndarray:
        tau, w, chi = v
        return np.array([tau - d[0], w * goal[1] / (goal[1] + d[1]),
                         chi - TWO_PI_I * d[2] * chi * cmath.sqrt(1.0 - 4.0 * chi)])

    lead = _chi_seed(target)
    x = _refine_seed(model, correct,
                     lambda v: in_domain_rho(ChiPoint(v[0], v[1], v[2]).rho_point()).ok,
                     np.array([lead.tau, lead.w, lead.chi]))
    return ChiPoint(complex(x[0]), complex(x[1]), complex(x[2]))


def _mod_cut(res: np.ndarray) -> np.ndarray:
    """A residual in (Om11, Om12, Om22) with Om22's reduced mod 1: F mod 1
    is holomorphic across the cut of omega22's principal log."""
    res[2] -= round(res[2].real)
    return res


def invert_chi(target: PeriodMatrix, seed: ChiPoint | None = None,
               newton_tol: float = 1e-10, n: int = 12,
               tol: SeriesTolerance = DEFAULT_TOL) -> ChiPoint:
    """Invert F^chi near a two-tori degeneration point.

    The auto-seed is the leading inversion refined against
    ``degeneration_period`` (``_refined_chi_seed``); an explicit seed is
    used as given.  Targets with vanishing off-diagonal entry return the
    w = 0 fixed point (tau, 0, chi) directly.
    """
    if abs(target.omega12) < 1e-14:
        return ChiPoint(target.omega11, 0j, (_chi_seed(target) if seed is None else seed).chi)
    if seed is None:
        seed = _refined_chi_seed(target, tol)
    goal = np.array([target.omega11, target.omega12, target.omega22])

    def f(v: np.ndarray):
        cp = ChiPoint(v[0], v[1], v[2])
        if not cp.tau.imag > 0.0:
            raise DomainError("tau left the upper half-plane")
        if not (0 < abs(cp.chi) < 0.25):
            raise DomainError("chi left the chart")
        om, jac = _chi_period_jacobian(cp, n, tol)
        return _mod_cut(om - goal), jac

    x = _newton(f, np.array([seed.tau, seed.w, seed.chi]), newton_tol)
    return ChiPoint(complex(x[0]), complex(x[1]), complex(x[2]))


def eps_from_rho(c: ChiPoint, n: int = 12, newton_tol: float = 1e-10,
                 tol: SeriesTolerance = DEFAULT_TOL) -> EpsPoint:
    """Composition into the two-tori chart: invert_eps(F^chi(c)).

    Leading behavior: tau1 ~ tau + w^2(1-4chi)/(24 pi i), tau2 ~
    log f(chi)/(2pi*i), eps ~ -w sqrt(1-4chi).
    """
    require_tau(c.tau)
    if abs(c.w) < 1e-14:
        f = catalan_f(c.chi, tol)
        return EpsPoint(c.tau, cmath.log(f) / TWO_PI_I, 0j)
    omega = chi_period(c, n, tol)
    return invert_eps(omega, newton_tol=newton_tol, n=n, tol=tol)
