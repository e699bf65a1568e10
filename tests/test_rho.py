"""Self-sewing pipeline: domain, period matrix with branch bookkeeping,
necklaces, L-action, degeneration, inversion, and the chart composition."""

import cmath
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from g2sew import (
    ChiPoint,
    DomainError,
    EpsPoint,
    GElement,
    LElement,
    PeriodMatrix,
    RhoPoint,
    SL2_S,
    SL2_T,
    catalan_f,
    chi_period,
    degeneration_period,
    eisenstein,
    eps_from_rho,
    equivariance_residual_rho,
    in_domain_rho,
    invert_chi,
    l_action_rho,
    lattice_distance,
    lattice_min,
    TruncationError,
    necklace_period_eps,
    necklace_period_rho,
    period_matrix_eps,
    period_matrix_rho,
    prime_form,
    sp4_action,
    sp4_action_rho,
    weierstrass_p,
)
from g2sew import epsilon as eps_mod
from g2sew import rho as rho_mod
from g2sew.epsilon import in_domain_eps
from g2sew.lattice import TWO_PI_I
from helpers import complex_jacobian

SAMPLE_POINTS = [
    RhoPoint(1j, 1j * math.pi, 0.02),
    RhoPoint(0.1 + 1j, 1.5 + 1.2j, 0.02),
    RhoPoint(-0.2 + 0.9j, 0.8 - 1.9j, 0.01 + 0.015j),
]

GENERATORS = {
    "mu100": LElement("mu", (1, 0, 0)),
    "mu010": LElement("mu", (0, 1, 0)),
    "mu001": LElement("mu", (0, 0, 1)),
    "T": LElement("gamma1", mat=SL2_T),
    "S": LElement("gamma1", mat=SL2_S),
}


class TestDomain:
    def test_interior_point(self):
        chk = in_domain_rho(RhoPoint(1j, 1j * math.pi, 0.01))
        assert chk.ok
        assert chk.margin == pytest.approx(0.2 / math.pi)

    def test_large_rho_rejected(self):
        assert not in_domain_rho(RhoPoint(1j, 1j * math.pi, 3.0)).ok

    def test_rho_zero_rejected(self):
        assert not in_domain_rho(RhoPoint(1j, 1j * math.pi, 0.0)).ok

    def test_puncture_on_the_lattice_rejected(self):
        for w in (0, 2j * math.pi, 2j * math.pi * (1 + 1j)):
            chk = in_domain_rho(RhoPoint(1j, w, 0.01))
            assert not chk.ok and chk.margin == math.inf

    def test_disc_overlapping_its_lattice_translates_rejected(self):
        # dist(w, lattice) > 2|rho|^(1/2), but the lattice minimum D is not:
        # the truncated solve would return Im Omega not positive definite
        p = RhoPoint(0.05215 + 0.22178j, -0.36204 + 3.73323j,
                     -0.59580 + 0.87800j, 1)
        assert not in_domain_rho(p).ok
        with pytest.raises(DomainError):
            period_matrix_rho(p, 12)


class TestPeriodMatrix:
    def test_leading_orders_against_appendix(self):
        tau, w, rho = 0.1 + 1.0j, 1.2 + 0.7j, 0.004
        om = period_matrix_rho(RhoPoint(tau, w, rho), 14)
        p1 = weierstrass_p(1, tau, w)
        p2 = weierstrass_p(2, tau, w)
        e2 = eisenstein(2, tau)
        k = prime_form(tau, w)
        lhs11 = TWO_PI_I * (om.omega11 - tau)
        assert abs(lhs11 - (-2 * rho + 2 * (p2 + e2) * rho**2)) < 40 * rho**3
        lhs12 = TWO_PI_I * om.omega12 - w
        assert abs(lhs12 - 2 * p1 * rho) < 30 * rho**2
        lhs22 = TWO_PI_I * om.omega22 - cmath.log(-rho / k**2)
        assert abs(lhs22 - (-2 * p1**2 * rho)) < 40 * rho**2

    def test_omega12_order_rho_exactness_scaling(self):
        tau, w = 1j, 1.7 + 0.6j
        p1 = weierstrass_p(1, tau, w)

        def rem(rho):
            om = period_matrix_rho(RhoPoint(tau, w, rho), 14)
            return abs(TWO_PI_I * om.omega12 - w - 2 * p1 * rho)

        assert rem(0.02) / rem(0.01) == pytest.approx(4.0, rel=0.25)

    def test_branch_shifts_omega22_by_integers(self):
        p0 = RhoPoint(1j, 1j * math.pi, 0.02, branch=0)
        p3 = RhoPoint(1j, 1j * math.pi, 0.02, branch=3)
        a, b = period_matrix_rho(p0, 10), period_matrix_rho(p3, 10)
        assert abs(b.omega22 - a.omega22 - 3) < 1e-13
        assert abs(b.omega11 - a.omega11) == 0
        # single-valued invariant: exp(2pi*i*Omega22) is branch independent
        ea = cmath.exp(TWO_PI_I * a.omega22)
        eb = cmath.exp(TWO_PI_I * b.omega22)
        assert abs(ea - eb) < 1e-10 * abs(ea)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            period_matrix_rho(RhoPoint(1j, 1j * math.pi, 3.0), 8)

    def test_siegel_membership(self):
        for p in SAMPLE_POINTS:
            om = period_matrix_rho(p, 12)
            assert om.imag_positive_definite()

    def test_branch_flip_invariance(self):
        for p in SAMPLE_POINTS[:2]:
            a = period_matrix_rho(p, 12, half_power_sign=1)
            b = period_matrix_rho(p, 12, half_power_sign=-1)
            assert a.max_abs_diff(b) < 1e-12

    def test_sigma_block_symmetry(self):
        # omega_beta1 = omega_1betabar via R_ab(k,l) = R_bbar_abar(l,k)
        from g2sew.moments import beta_vector, r_matrix, solve_id_minus
        p = SAMPLE_POINTS[1]
        n = 10
        r = r_matrix(p.tau, p.w, p.rho, n)
        beta = beta_vector(p.tau, p.w, p.rho, n)
        rows = np.zeros((2 * n, 2), dtype=complex)
        rows[0, 0] = rows[n, 1] = 1.0
        left = solve_id_minus(r.flat.T, beta.flat)         # beta (I-R)^-1
        om_b1 = left @ rows[:, 0] + left @ rows[:, 1]
        right = solve_id_minus(r.flat, beta.barred().flat)  # (I-R)^-1 beta_bar^T
        om_1bb = right[0] + right[n]
        assert abs(om_b1 - om_1bb) < 1e-12

    def test_one_table_pair_per_call(self, count_calls):
        # R and beta, the Laurent route of P_k and the series route of the
        # prime form read one E_k table, built to the weight 33 that the
        # tail certificates of P_1..P_24 name at |w|/D = 0.20: E_2..E_32,
        # each computed once
        counts = count_calls("eisenstein_q")
        period_matrix_rho(RhoPoint(1j, 1 + 0.8j, 0.01), 12)
        assert counts == {"eisenstein_q": 16}

    def test_one_gauss_reduction_per_torus(self, count_calls):
        # the domain test reduces the lattice basis twice (distance to w and
        # D); the one Torus reduces it once for D, P_k and the prime form
        counts = count_calls("gauss_reduce")
        period_matrix_rho(RhoPoint(1j, 1 + 0.8j, 0.01), 12)
        assert counts == {"gauss_reduce": 3}


class TestNecklace:
    def test_order_one_hand_enumeration(self):
        # budget 1 admits exactly the two degenerate necklaces (weight 1 each,
        # giving the -2 rho term) plus the four one-edge (1,a)->(1,b) chains
        # whose weights sum to sigma(R(1,1)) = -2 rho (P_2 + E_2)
        p = RhoPoint(1j, 1.0 + 0.8j, 0.001)
        nk = necklace_period_rho(p, 1)
        tau, w = p.tau, p.w
        p1 = weierstrass_p(1, tau, w)
        p2 = weierstrass_p(2, tau, w)
        e2 = eisenstein(2, tau)
        k = prime_form(tau, w)
        om11_exp = -2 * p.rho - p.rho * (-2 * p.rho * (p2 + e2))
        assert abs(TWO_PI_I * (nk.omega11 - tau) - om11_exp) < 1e-15
        # the rho-linear parts come from the single-node classes alone;
        # one-edge chains only touch the next order
        assert abs(TWO_PI_I * nk.omega12 - w - 2 * p1 * p.rho) < 40 * abs(p.rho) ** 2
        lhs22 = TWO_PI_I * nk.omega22 - cmath.log(-p.rho / k**2)
        assert abs(lhs22 - (-2 * p1**2 * p.rho)) < 40 * abs(p.rho) ** 2

    def test_matches_matrix_route(self):
        for p in SAMPLE_POINTS[:2]:
            nk = necklace_period_rho(p, 6)
            mt = period_matrix_rho(p, 14)
            assert nk.max_abs_diff(mt) < 1e-10


class TestLAction:
    def test_mu_translation(self):
        p = RhoPoint(1j, 1.0, 0.001)
        q = l_action_rho(LElement("mu", (0, 1, 0)), p)
        assert abs(q.w - (1.0 + 2j * math.pi)) < 1e-15
        assert q.tau == p.tau and q.rho == p.rho

    def test_gamma_t(self):
        p = RhoPoint(1j, 1.0 + 1.0j, 0.001)
        q = l_action_rho(LElement("gamma1", mat=SL2_T), p)
        assert q.tau == p.tau + 1 and q.w == p.w and q.rho == p.rho

    def test_gamma_s_at_i(self):
        p = RhoPoint(1j, 1.0 + 1.0j, 0.001)
        q = l_action_rho(LElement("gamma1", mat=SL2_S), p)
        assert abs(q.tau - 1j) < 1e-15
        assert abs(q.w - p.w / 1j) < 1e-15
        assert abs(q.rho - p.rho / (1j * 1j)) < 1e-15

    def test_image_leaving_domain_raises_domain_error(self):
        # margin 1 - 1e-16 maps to margin 1.0 under S by rounding alone
        p = RhoPoint(0.21412948361120254 + 1.450292160577841j,
                     -0.6302195759955365 + 1.8054526259113697j,
                     -0.8594218717535977 + 0.3117243904168962j)
        assert in_domain_rho(p).ok
        with pytest.raises(DomainError):
            l_action_rho(LElement("gamma1", mat=SL2_S), p)

    def test_heisenberg_relation_integer_exact(self):
        # A.B = (B.A).C^2 as transformations of (w, branch)
        a = LElement("mu", (1, 0, 0))
        b = LElement("mu", (0, 1, 0))
        c2 = LElement("mu", (0, 0, 2))
        p = RhoPoint(0.1 + 1j, 1.5 + 1.2j, 0.02, branch=0)
        left = l_action_rho(a, l_action_rho(b, p))
        right = l_action_rho(b, l_action_rho(a, l_action_rho(c2, p)))
        assert abs(left.w - right.w) < 1e-12
        assert left.branch == right.branch
        assert left.tau == right.tau and left.rho == right.rho


class TestEquivariance:
    def test_central_shift_exact(self):
        for p in SAMPLE_POINTS:
            r = equivariance_residual_rho(GENERATORS["mu001"], p, 12)
            assert r < 1e-12

    def test_all_generators(self):
        for p in SAMPLE_POINTS:
            for name, gel in GENERATORS.items():
                assert equivariance_residual_rho(gel, p, 16) < 1e-8, name


class TestDegeneration:
    def test_w_zero_diag(self):
        c = ChiPoint(1j, 0.0, 0.05)
        om = degeneration_period(c)
        f = catalan_f(0.05)
        assert abs(om.omega11 - 1j) < 1e-15
        assert om.omega12 == 0
        assert abs(om.omega22 - cmath.log(f) / TWO_PI_I) < 1e-13

    def test_o_w4_error_scaling(self):
        def resid(w):
            c = ChiPoint(1j, w, 0.05)
            return chi_period(c, 16).max_abs_diff(degeneration_period(c))

        ratio = resid(0.2) / resid(0.1)
        assert 12.0 <= ratio <= 20.0

    def test_g_vanishes_at_chi_zero(self):
        from g2sew import catalan_g
        assert abs(catalan_g(1e-9)) < 1e-7

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            degeneration_period(ChiPoint(1j, 0.1, 0.3))


class TestInversion:
    def test_target_at_the_omega22_log_cut(self):
        # Re omega22 = -0.4998 lies next to the principal log's cut, and the
        # auto-seed lands across it, where F is larger by 1 in omega22
        c = ChiPoint(-0.1402 + 1.9036j, 0.1965 + 0.1454j, -0.1500 - 0.0017j)
        target = chi_period(c, 12)
        assert target.omega22.real < -0.49
        assert chi_period(rho_mod._chi_seed(target), 12).omega22.real > 0.49
        x = invert_chi(target, newton_tol=1e-11, n=12)
        assert max(abs(x.tau - c.tau), abs(x.w - c.w), abs(x.chi - c.chi)) < 1e-9

    def test_diag_target_fixed_point(self):
        chi0 = 0.05
        f = catalan_f(chi0)
        target = PeriodMatrix(1j, 0.0, cmath.log(f) / TWO_PI_I)
        c = invert_chi(target)
        assert c.w == 0
        assert abs(c.tau - 1j) < 1e-12
        assert abs(c.chi - chi0) < 1e-12

    def test_round_trip(self):
        c = ChiPoint(1j, 0.3, 0.05)
        om = chi_period(c, 12)
        cc = invert_chi(om, newton_tol=1e-11, n=12)
        assert abs(cc.tau - c.tau) < 1e-9
        assert abs(cc.w - c.w) < 1e-9
        assert abs(cc.chi - c.chi) < 1e-9

    @pytest.mark.parametrize("tau, w, chi, margin", [
        (1j, 0.3, 0.05, None),
        (0.0583 + 0.3004j, 0.4 * cmath.exp(0.5j), 0.05 * cmath.exp(1j), None),
        (0.4 + 0.95j, 2.5 + 1.0j, None, 0.9)],
        ids=["fundamental-domain", "skewed", "margin-0.9-qz-route"])
    def test_closed_form_jacobian_matches_central_difference(self, tau, w, chi, margin):
        if chi is None:
            bound = min(lattice_distance(tau, w), lattice_min(tau))
            chi = -(0.5 * margin * bound) ** 2 * cmath.exp(0.4j) / w**2
        c = ChiPoint(tau, w, chi)
        if margin is not None:
            assert in_domain_rho(c.rho_point()).margin == pytest.approx(margin)
        x0 = np.array([tau, w, chi])

        def f(v):
            om = chi_period(ChiPoint(*v), 12)
            return np.array([om.omega11, om.omega12, om.omega22])

        val, jac = rho_mod._chi_period_jacobian(c, 12, rho_mod.DEFAULT_TOL)
        assert np.max(np.abs(val - f(x0))) < 1e-13
        ref = complex_jacobian(f, x0)
        assert np.max(np.abs(jac - ref)) < 1e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("tau, w, chi", [
        (1j, 1e-3, 0.05), (0.4 + 0.95j, 1e-3 * cmath.exp(2.0j), 0.07 * cmath.exp(-0.6j))],
        ids=["fundamental-domain", "skewed"])
    def test_closed_form_jacobian_at_small_w(self, tau, w, chi):
        x0 = np.array([tau, w, chi])

        def f(v):
            om = chi_period(ChiPoint(*v), 12)
            return np.array([om.omega11, om.omega12, om.omega22])

        _, jac = rho_mod._chi_period_jacobian(ChiPoint(tau, w, chi), 12, rho_mod.DEFAULT_TOL)
        ref = complex_jacobian(f, x0)
        assert np.max(np.abs(jac - ref)) < 1e-7 * np.max(np.abs(ref))

    def test_jacobian_costs_one_rho_evaluation(self, count_calls):
        # the tau column comes from the heat equation, not from forward
        # calls; the P_k table reaches weight 2n + 2 = 26, whose Laurent
        # tails certify by weight 26, the weight dE_k/dtau reads anyway
        counts = count_calls("chi_period", "eisenstein_q")
        rho_mod._chi_period_jacobian(ChiPoint(1j, 0.3, 0.05), 12, rho_mod.DEFAULT_TOL)
        assert counts == {"chi_period": 0, "eisenstein_q": 13}

    def test_jacobian_determinant_near_degeneration(self):
        # |det d(Om11,Om12,Om22)/d(tau,w,chi)| -> 1/(4 pi^2 chi) as w -> 0
        chi0 = 0.05
        h = 1e-5
        w0 = 0.01

        def f(v):
            om = chi_period(ChiPoint(v[0], v[1], v[2]), 10)
            return np.array([om.omega11, om.omega12, om.omega22])

        x0 = np.array([1j, w0 + 0j, chi0 + 0j])
        jac = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (f(xp) - f(xm)) / (2 * h)
        det = np.linalg.det(jac)
        assert abs(det) == pytest.approx(1.0 / (4 * math.pi**2 * chi0), rel=1e-3)


class TestComposition:
    def test_w_zero_limit(self):
        c = ChiPoint(1j, 0.0, 0.07)
        p = eps_from_rho(c)
        f = catalan_f(0.07)
        assert p.eps == 0
        assert p.tau1 == 1j
        assert abs(p.tau2 - cmath.log(f) / TWO_PI_I) < 1e-13

    def test_leading_laws(self):
        tau, w, chi = 1j, 0.05, 0.05
        p = eps_from_rho(ChiPoint(tau, w, chi), 12)
        fac = math.sqrt(1 - 4 * chi)
        assert abs(p.eps / (-w * fac) - 1) < 1e-3
        assert abs(p.tau2 - cmath.log(catalan_f(chi)) / TWO_PI_I) < 1e-4
        lead = tau + w**2 * (1 - 4 * chi) / 12.0 / TWO_PI_I
        assert abs(p.tau1 - lead) < 1e-6
        assert in_domain_eps(p).ok

    def test_gamma1_invariance_under_t(self):
        # the composition intertwines the Gamma_1 actions on both charts
        c = ChiPoint(0.2 + 1.1j, 0.05, 0.04)
        p = eps_from_rho(c, 12)
        ct = ChiPoint(c.tau + 1, c.w, c.chi)
        pt = eps_from_rho(ct, 12)
        assert abs(pt.tau1 - (p.tau1 + 1)) < 1e-7
        assert abs(pt.tau2 - p.tau2) < 1e-7
        assert abs(pt.eps - p.eps) < 1e-7


@pytest.mark.parametrize("value", [
    PeriodMatrix(1j, 0.1 + 0.2j, 2j),
    EpsPoint(1j, 2j, 0.05),
    RhoPoint(1j, 1 + 0.8j, 0.01, 2),
    ChiPoint(1j, 0.3, 0.05),
], ids=lambda v: type(v).__name__)
def test_points_and_results_are_slotted_values(value):
    assert not hasattr(value, "__dict__")
    assert hash(value) == hash(dataclasses.astuple(value))
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


_EPS = EpsPoint(1j, 2j, 0.1)
_RHO = RhoPoint(1j, 1 + 0.8j, 0.01)
PERIOD_MATRIX_ROUTES = {
    "period_matrix_eps": lambda: period_matrix_eps(_EPS),
    "necklace_period_eps": lambda: necklace_period_eps(_EPS, 4),
    "sp4_action": lambda: sp4_action(GElement("beta"), period_matrix_eps(_EPS)),
    "period_matrix_rho": lambda: period_matrix_rho(_RHO),
    "necklace_period_rho": lambda: necklace_period_rho(_RHO, 3),
    "sp4_action_rho": lambda: sp4_action_rho(LElement("mu", (1, 0, 0)), period_matrix_rho(_RHO)),
    "chi_period": lambda: chi_period(ChiPoint(1j, 0.3, 0.05)),
    "degeneration_period": lambda: degeneration_period(ChiPoint(1j, 0.3, 0.05)),
}


@pytest.mark.parametrize("route", list(PERIOD_MATRIX_ROUTES))
def test_period_matrix_entries_are_complex(route):
    omega = PERIOD_MATRIX_ROUTES[route]()
    assert all(type(getattr(omega, f)) is complex for f in ("omega11", "omega12", "omega22"))


def test_imag_positive_definite_closed_form():
    assert PeriodMatrix(1j, 0.5j, 1j).imag_positive_definite()
    assert not PeriodMatrix(1j, 2j, 1j).imag_positive_definite()  # det Im = -3
    assert not PeriodMatrix(-1j, 0j, -1j).imag_positive_definite()  # det Im = +1
    assert not PeriodMatrix(0j, 0j, 1j).imag_positive_definite()


@pytest.mark.parametrize("chart", ["eps", "rho"])
def test_period_matrix_outside_h2_raises(monkeypatch, chart):
    # a guard, not an assert: it must hold under python -O as well
    bad = PeriodMatrix(1j, 2j, 1j)
    if chart == "eps":
        monkeypatch.setattr(eps_mod, "_omega_eps", lambda *args: bad)
        call = lambda: period_matrix_eps(_EPS)  # noqa: E731
    else:
        solve = rho_mod._rho_solve
        monkeypatch.setattr(rho_mod, "_rho_solve",
                            lambda *args, **kw: (bad,) + solve(*args, **kw)[1:])
        call = lambda: period_matrix_rho(_RHO)  # noqa: E731
    with pytest.raises(TruncationError, match="not positive definite"):
        call()
