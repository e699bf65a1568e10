"""Two-tori pipeline: domain, period matrix, necklaces, bilinear form,
G-action, equivariance, Newton inversion."""

import cmath
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from g2sew import (
    ChiPoint,
    ConvergenceError,
    DomainError,
    EpsPoint,
    GElement,
    InvalidArgumentError,
    LElement,
    PeriodMatrix,
    RangeOverflowError,
    RhoPoint,
    SL2_S,
    SL2_T,
    SeriesTolerance,
    Torus,
    a_matrix,
    bilinear_form_eps,
    c_coeff,
    chi_period,
    degeneration_period,
    eisenstein,
    eisenstein_range,
    equivariance_residual_eps,
    g_action_eps,
    in_domain_eps,
    invert_eps,
    lattice_min,
    necklace_period_eps,
    necklace_period_rho,
    neumann_id_minus,
    period_matrix_eps,
    period_matrix_rho,
    prime_form,
    s_nk,
    sp4_action,
    symbolic_period_eps,
    symbolic_period_rho,
    theta1,
    weierstrass_p,
    weierstrass_range,
)
from g2sew import epsilon as eps_mod
from g2sew.lattice import TWO_PI_I
from helpers import complex_jacobian

RNG = np.random.default_rng(777)


def random_points(n, margin_max=0.25):
    pts = []
    while len(pts) < n:
        tau1 = complex(RNG.uniform(-0.4, 0.4), RNG.uniform(0.8, 1.5))
        tau2 = complex(RNG.uniform(-0.4, 0.4), RNG.uniform(0.8, 1.5))
        bound = 0.25 * lattice_min(tau1) * lattice_min(tau2)
        r = RNG.uniform(0.05, margin_max) * bound
        phi = RNG.uniform(0, 2 * math.pi)
        pts.append(EpsPoint(tau1, tau2, r * cmath.exp(1j * phi)))
    return pts


# inside D^eps by one rounding step; its image under S is not
EDGE_POINT = EpsPoint(-0.39777284188995177 + 1.122200742523469j,
                      -0.47767788897867614 + 1.354682294867849j,
                      9.14591553093825 - 3.709625336195679j)

GENERATORS = {
    "T1": GElement("gamma1", SL2_T),
    "S1": GElement("gamma1", SL2_S),
    "T2": GElement("gamma2", SL2_T),
    "S2": GElement("gamma2", SL2_S),
    "beta": GElement("beta"),
}


class TestDomain:
    def test_square_tori(self):
        chk = in_domain_eps(EpsPoint(1j, 1j, 0.1))
        assert chk.ok
        assert chk.margin == pytest.approx(0.1 / (math.pi**2))

    def test_rejects_large_eps(self):
        assert not in_domain_eps(EpsPoint(1j, 1j, 10.0)).ok

    @pytest.mark.parametrize("call", [
        lambda p: period_matrix_eps(p, 12),
        lambda p: necklace_period_eps(p, 4),
        lambda p: bilinear_form_eps(p, 0.3 + 0.1j, 0.2 - 0.2j, (1, 2), 12)],
        ids=["period", "necklace", "bilinear"])
    def test_every_eps_route_shares_one_guard(self, call):
        with pytest.raises(DomainError, match="outside D\\^eps"):
            call(EpsPoint(1j, 1j, 10.0))

    def test_g_action_preserves_domain(self):
        for p in random_points(4):
            for gel in GENERATORS.values():
                assert in_domain_eps(g_action_eps(gel, p)).ok


class TestPeriodMatrix:
    def test_degeneration_exact(self):
        om = period_matrix_eps(EpsPoint(0.3 + 1.0j, 2j, 0.0), 10)
        assert om.omega11 == 0.3 + 1.0j
        assert om.omega12 == 0
        assert om.omega22 == 2j

    def test_leading_orders(self):
        tau1, tau2, eps = 1j, 2j, 0.05
        om = period_matrix_eps(EpsPoint(tau1, tau2, eps), 14)
        f2, e2 = eisenstein(2, tau2), eisenstein(2, tau1)
        lhs11 = TWO_PI_I * (om.omega11 - tau1)
        assert abs(lhs11 - eps**2 * f2) < 5 * eps**4
        lhs12 = TWO_PI_I * om.omega12
        assert abs(lhs12 + eps * (1 + eps**2 * e2 * f2)) < 5 * eps**5

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            period_matrix_eps(EpsPoint(1j, 1j, 11.0), 8)

    def test_off_diagonal_duality(self):
        # -eps (I-A1A2)^-1 (1,1) = -eps (I-A2A1)^-1 (1,1)
        from g2sew.moments import a_matrix, solve_id_minus
        tau1, tau2, eps, n = 0.2 + 0.9j, -0.1 + 1.3j, 0.4, 12
        a1, a2 = a_matrix(tau1, eps, n), a_matrix(tau2, eps, n)
        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0
        x12 = solve_id_minus(a1.entries @ a2.entries, e1)[0]
        x21 = solve_id_minus(a2.entries @ a1.entries, e1)[0]
        assert abs(x12 - x21) < 1e-12

    def test_truncation_order_scaling(self):
        # |Omega(N) - Omega(N+2)| drops by ~2^(N+1) when eps halves
        tau1, tau2, n = 1j, 1j, 6

        def gap(eps):
            p = EpsPoint(tau1, tau2, eps)
            return period_matrix_eps(p, n).max_abs_diff(period_matrix_eps(p, n + 2))

        ratio = gap(1.6) / gap(0.8)
        assert 2 ** (n - 1) < ratio < 2 ** (n + 4)

    def test_siegel_membership(self):
        for p in random_points(5, margin_max=0.45):
            om = period_matrix_eps(p, 12)
            assert om.imag_positive_definite()

    def test_holomorphy_circle_mean(self):
        # Cauchy mean-value over a small eps-circle reproduces the center
        tau1, tau2, eps0 = 1j, 2j, 0.3 + 0.1j
        center = period_matrix_eps(EpsPoint(tau1, tau2, eps0), 12)
        npts = 16
        acc = np.zeros((2, 2), dtype=complex)
        for j in range(npts):
            e = eps0 + 0.05 * cmath.exp(2j * math.pi * j / npts)
            acc += period_matrix_eps(EpsPoint(tau1, tau2, e), 12).as_array()
        mean = PeriodMatrix.from_array(acc / npts)
        assert mean.max_abs_diff(center) < 1e-8

    def test_branch_flip_invariance(self):
        p = EpsPoint(0.2 + 1.1j, -0.3 + 0.8j, 0.3 + 0.2j)
        a = period_matrix_eps(p, 12, half_power_sign=1)
        b = period_matrix_eps(p, 12, half_power_sign=-1)
        assert a.max_abs_diff(b) < 1e-12


class TestNecklace:
    def test_order_zero_hand_enumeration(self):
        # only the degenerate necklace survives: Omega = diag + the -eps/2pi*i
        # off-diagonal from the single-node class
        p = EpsPoint(1j, 2j, 0.1)
        om = necklace_period_eps(p, 0)
        assert om.omega11 == p.tau1
        assert om.omega22 == p.tau2
        assert abs(om.omega12 - (-p.eps / TWO_PI_I)) < 1e-15

    def test_single_two_node_necklace(self):
        # the lone two-node necklace A_2(1,1) produces the eps^2 E_2(tau_2)
        # term of 2pi*i*Omega_11
        p = EpsPoint(1j, 2j, 0.1)
        om = necklace_period_eps(p, 1)
        expect = p.tau1 + p.eps * (p.eps * eisenstein(2, p.tau2)) / TWO_PI_I
        assert abs(om.omega11 - expect) < 1e-15

    def test_matches_matrix_route(self):
        p = EpsPoint(1j, 2j, 0.2)
        nk = necklace_period_eps(p, 8)
        mt = period_matrix_eps(p, 16)
        assert nk.max_abs_diff(mt) < 1e-10

    def test_cross_validation_random_points(self):
        for p in random_points(5):
            nk = necklace_period_eps(p, 8)
            mt = period_matrix_eps(p, 16)
            bound = 0.25 * lattice_min(p.tau1) * lattice_min(p.tau2)
            margin = abs(p.eps) / bound
            assert nk.max_abs_diff(mt) < max(50 * margin**9, 1e-12)


class TestBilinearForm:
    def test_degeneration_limit_same_torus(self):
        tau1, x, y = 1j, 1.1 + 0.2j, 0.4 - 0.3j
        f = bilinear_form_eps(EpsPoint(tau1, 2j, 1e-6), x, y, (1, 1), 10)
        assert abs(f - weierstrass_p(2, tau1, x - y)) < 1e-10

    def test_symmetry(self):
        p = EpsPoint(1j, 2j, 0.3)
        x, y = 1.1 + 0.2j, 0.7 - 0.4j
        for pair in ((1, 1), (1, 2), (2, 2)):
            a, b = pair
            f1 = bilinear_form_eps(p, x, y, (a, b), 10)
            f2 = bilinear_form_eps(p, y, x, (b, a), 10)
            assert abs(f1 - f2) < 1e-10 * max(1.0, abs(f1))

    @pytest.mark.parametrize("pair", [(1, 1), (1, 2)])
    def test_one_torus_per_tau(self, count_calls, pair):
        # A_a reads E_2..E_24 of torus a; the tail certificates of the
        # Laurent routes at x, y and x - y (kmax 13, |z|/D < 0.06) name
        # weight 20 at most, so they read that same table and grow neither:
        # 12 weights per torus
        counts = count_calls("eisenstein_q")
        bilinear_form_eps(EpsPoint(1j, 2j, 0.1), 0.3 + 0.1j, 0.2 - 0.2j, pair, 12)
        assert counts == {"eisenstein_q": 24}

    def test_cross_term_leading_order(self):
        # omega(x in S1, y in S2) ~ -sum_k a_1(k,x) a_2(k,y) at small eps
        tau1, tau2, eps = 1j, 2j, 1e-4
        x, y = 1.0 + 0.3j, 0.8 - 0.2j
        f = bilinear_form_eps(EpsPoint(tau1, tau2, eps), x, y, (1, 2), 10)
        lead = -sum(k * eps**k
                    * weierstrass_p(k + 1, tau1, x) * weierstrass_p(k + 1, tau2, y)
                    for k in range(1, 6))
        assert abs(f - lead) < 1e-14


class TestGroupAction:
    def test_beta_swap(self):
        p = EpsPoint(1j, 2j, 0.1)
        q = g_action_eps(GElement("beta"), p)
        assert (q.tau1, q.tau2, q.eps) == (2j, 1j, 0.1)

    def test_t_translation(self):
        q = g_action_eps(GElement("gamma1", SL2_T), EpsPoint(1j, 1j, 0.1))
        assert q.tau1 == 1j + 1 and q.tau2 == 1j and q.eps == 0.1

    def test_s_inversion(self):
        q = g_action_eps(GElement("gamma1", SL2_S), EpsPoint(1j, 1j, 0.1))
        assert abs(q.tau1 - 1j) < 1e-15
        assert abs(q.eps - 0.1 / 1j) < 1e-16

    def test_image_leaving_domain_raises_domain_error(self):
        # margin 1 - 2e-16 maps to margin 1.0 under S by rounding alone
        with pytest.raises(DomainError):
            g_action_eps(GElement("gamma1", SL2_S), EDGE_POINT)

    def test_domain_guards_survive_optimisation(self):
        # the guards of both group actions are real checks, so python -O
        # keeps them; the rho point sits on its domain's edge the same way
        rho_edge = RhoPoint(0.21412948361120254 + 1.450292160577841j,
                            -0.6302195759955365 + 1.8054526259113697j,
                            -0.8594218717535977 + 0.3117243904168962j)
        code = (
            "from g2sew import *\n"
            f"for act, el, p in [(g_action_eps, GElement('gamma1', SL2_S), {EDGE_POINT!r}),\n"
            f"                   (l_action_rho, LElement('gamma1', mat=SL2_S), {rho_edge!r})]:\n"
            "    try:\n"
            "        act(el, p)\n"
            "    except DomainError:\n"
            "        print('DomainError')\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["DomainError", "DomainError"]

    def test_sp4_identity(self):
        om = PeriodMatrix(1j, 0.1 + 0.02j, 2j)
        ident = GElement("gamma1", ((1, 0), (0, 1)))
        assert sp4_action(ident, om).max_abs_diff(om) == 0

    def test_sp4_beta_swaps_diag(self):
        om = PeriodMatrix(1j, 0.1 + 0.02j, 2j)
        out = sp4_action(GElement("beta"), om)
        assert out.omega11 == om.omega22
        assert out.omega22 == om.omega11
        assert out.omega12 == om.omega12

    def test_sp4_t_shifts_omega11(self):
        om = PeriodMatrix(1j, 0.1 + 0.02j, 2j)
        out = sp4_action(GElement("gamma1", SL2_T), om)
        assert abs(out.omega11 - (om.omega11 + 1)) < 1e-15
        assert abs(out.omega12 - om.omega12) < 1e-15
        assert abs(out.omega22 - om.omega22) < 1e-15


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, error", [(make, InvalidArgumentError) for make in [
    lambda: GElement("gamma1"),
    lambda: LElement("gamma1"),
    lambda: LElement("mu"),
    lambda: GElement("gamma2", ((1, 0), (0, 1), (1, 1))),
    lambda: LElement("gamma1", mat=((1, 0), (0, 1), (1, 1))),
    lambda: GElement("gamma1", ((1, 1), (0, 2))),
    lambda: GElement("gamma1", ((1, 0.5), (0, 1))),
    lambda: LElement("gamma1", mat=((1, 0.5), (0, 1))),
    lambda: LElement("mu", (0.5, 0, 0)),
    lambda: prime_form(1j, 0, route="bogus"),
    lambda: s_nk(2, 1, 0.1, truncation=0),
    lambda: s_nk(2, 1, 0.1, truncation=-5),
    lambda: symbolic_period_eps(11),
    lambda: symbolic_period_rho(6),
    lambda: symbolic_period_eps(2.5),
    lambda: symbolic_period_eps(True),
    lambda: symbolic_period_rho(True),
    lambda: necklace_period_eps(EpsPoint(1j, 2j, 0.1), False),
    lambda: necklace_period_rho(RhoPoint(1j, 1 + 0.8j, 0.01), True),
    lambda: neumann_id_minus(np.zeros((4, 4)), np.zeros(4), False),
    # a branch, an order or a count that is not an integer (or is a bool)
    lambda: period_matrix_rho(RhoPoint(1j, 1 + 0.3j, 0.01, 0.5)),
    lambda: period_matrix_rho(RhoPoint(1j, 1 + 0.3j, 0.01, True)),
    lambda: necklace_period_rho(RhoPoint(1j, 1 + 0.3j, 0.01, 0.5), 2),
    lambda: LElement("mu", (True, 0, 0)),
    lambda: period_matrix_eps(EpsPoint(1j, 2j, 0.1), 2.5),
    lambda: period_matrix_eps(EpsPoint(1j, 2j, 0.1), True),
    lambda: period_matrix_rho(RhoPoint(1j, 1 + 0.3j, 0.01), 2.0),
    lambda: invert_eps(period_matrix_eps(EpsPoint(1j, 2j, 0.1)), n=2.5),
    lambda: eisenstein(4.0, 1j),
    lambda: eisenstein_range(2.5, 1j),
    lambda: weierstrass_range(2.5, 1j, 1.0),
    lambda: c_coeff(1.5, 2.5, 1j),
    lambda: s_nk(2.5, 1, 0.1),
    lambda: s_nk(3, 1, 0.1, truncation=2.5),
    lambda: SeriesTolerance(max_terms=2.5),
    lambda: SeriesTolerance(max_terms=True),
    # inputs that are not finite
    lambda: weierstrass_range(4, 1j, NAN),
    lambda: period_matrix_rho(RhoPoint(1j, NAN, 0.01)),
    lambda: weierstrass_range(4, 1j, INF),
    lambda: prime_form(1j, INF),
    lambda: s_nk(3, 1, NAN),
    lambda: theta1(1j, NAN),
    lambda: a_matrix(1j, NAN, 4),
    lambda: degeneration_period(ChiPoint(1j, NAN, 0.1)),
]] + [
    (lambda: theta1(1j, 1e6), RangeOverflowError),
    (lambda: weierstrass_range(200, 1j, math.pi * (1j - 1)), RangeOverflowError),
], ids=["G-no-mat", "L-no-mat", "mu-no-abc", "G-3-rows", "L-3-rows", "G-det-2",
        "G-non-integer", "L-non-integer", "mu-non-integer", "prime-form-route",
        "s-nk-no-terms", "s-nk-negative-terms", "eps-series-past-cap",
        "rho-series-past-cap", "eps-series-non-integral", "eps-series-true",
        "rho-series-true", "necklace-eps-false", "necklace-rho-true", "walk-sum-false",
        "rho-fractional-branch", "rho-true-branch", "necklace-rho-fractional-branch",
        "mu-true", "eps-fractional-n", "eps-true-n", "rho-float-n", "invert-eps-fractional-n",
        "eisenstein-float-k", "eisenstein-range-fractional", "weierstrass-range-fractional",
        "c-coeff-fractional", "s-nk-fractional-n", "s-nk-fractional-truncation",
        "tolerance-fractional-max-terms", "tolerance-true-max-terms",
        "weierstrass-nan-z", "rho-nan-w", "weierstrass-inf-z", "prime-form-inf-z",
        "s-nk-nan-chi", "theta1-nan-z", "a-matrix-nan-eps", "degeneration-nan-w",
        "theta1-peak-past-double-range",
        "qz-route-past-double-range"])
def test_outside_input_raises_typed_error(make, error):
    with pytest.raises(error):
        make()


class TestEquivariance:
    def test_identity_element(self):
        ident = GElement("gamma1", ((1, 0), (0, 1)))
        assert equivariance_residual_eps(ident, EpsPoint(1j, 2j, 0.1), 10) == 0

    def test_beta_exact(self):
        r = equivariance_residual_eps(GElement("beta"), EpsPoint(1j, 2j, 0.3), 12)
        assert r < 1e-9

    def test_s_left_factor(self):
        gel = GElement("gamma1", SL2_S)
        r = equivariance_residual_eps(gel, EpsPoint(1j, 2j, 0.2), 16)
        assert r < 1e-8

    def test_all_generators_random_points(self):
        for p in random_points(3):
            for gel in GENERATORS.values():
                assert equivariance_residual_eps(gel, p, 16) < 1e-8


class TestInversion:
    def test_diag_fixed_point(self):
        p = invert_eps(PeriodMatrix(1j, 0.0, 2j))
        assert (p.tau1, p.tau2, p.eps) == (1j, 2j, 0j)

    def test_round_trip(self):
        p = EpsPoint(1j, 2j, 0.1)
        om = period_matrix_eps(p, 12)
        q = invert_eps(om, newton_tol=1e-11, n=12)
        assert abs(q.tau1 - p.tau1) < 1e-9
        assert abs(q.tau2 - p.tau2) < 1e-9
        assert abs(q.eps - p.eps) < 1e-9

    @pytest.mark.parametrize("chart", ["eps", "chi"])
    def test_complex_jacobian_matches_real_split(self, chart):
        # the period maps are holomorphic, so the complex Jacobian from real
        # steps alone must match the 2m x 2m real one built from real and
        # imaginary steps; both are central differences at the same h
        if chart == "eps":
            x0 = np.array([1j, 2j, 0.1 + 0j])

            def f(v):
                om = period_matrix_eps(EpsPoint(v[0], v[1], v[2]), 12)
                return np.array([om.omega11, om.omega22, om.omega12])
        else:
            x0 = np.array([1j, 0.3 + 0j, 0.05 + 0j])

            def f(v):
                om = chi_period(ChiPoint(v[0], v[1], v[2]), 12)
                return np.array([om.omega11, om.omega12, om.omega22])

        jac = complex_jacobian(f, x0)
        ref = real_split_jacobian(f, x0)
        scale = np.max(np.abs(jac))
        # the real-split columns hold Re/Im of J e_j and of i J e_j
        assert np.max(np.abs(ref[0::2, 0::2] + 1j * ref[1::2, 0::2] - jac)) < 1e-7 * scale
        assert np.max(np.abs(ref[0::2, 1::2] + 1j * ref[1::2, 1::2] - 1j * jac)) < 1e-7 * scale

    @pytest.mark.parametrize("tau1, tau2, margin", [
        (1j, 2j, 0.3), (1.37 + 0.31j, 0.45 + 0.9j, 0.5), (0.3 + 0.96j, -0.2 + 1.3j, 0.9)],
        ids=["fundamental-domain", "skewed", "margin-0.9"])
    def test_closed_form_jacobian_matches_central_difference(self, tau1, tau2, margin):
        bound = 0.25 * lattice_min(tau1) * lattice_min(tau2)
        x0 = np.array([tau1, tau2, margin * bound * cmath.exp(0.7j)])

        def f(v):
            om = period_matrix_eps(EpsPoint(*v), 16)
            return np.array([om.omega11, om.omega22, om.omega12])

        om, jac = eps_mod._period_eps(EpsPoint(*x0), 16, eps_mod.DEFAULT_TOL,
                                      jacobian=True)
        assert np.array_equal(f(x0), [om.omega11, om.omega22, om.omega12])
        ref = complex_jacobian(f, x0)
        assert np.max(np.abs(jac - ref)) < 1e-7 * np.max(np.abs(ref))

    def test_jacobian_reads_only_the_two_eisenstein_tables(self, record_calls):
        # dE_k/dtau comes from the E_k table by the heat law: J sums the
        # q-series of E_2..E_34 (weight 2n + 2) of each torus once each, and
        # no other; a q-series' terms are fixed by its (k, q)
        calls = record_calls("eisenstein_q")
        Torus(1j).eisenstein(34)
        Torus(2j).eisenstein(34)
        tables = [args[:2] for args in calls]
        assert tables == [(k, Torus(tau).q) for tau in (1j, 2j) for k in range(2, 35, 2)]
        calls.clear()
        eps_mod._period_eps(EpsPoint(1j, 2j, 0.1), 16, eps_mod.DEFAULT_TOL, jacobian=True)
        assert Counter(args[:2] for args in calls) == Counter(tables)

    def test_newton_step_costs_one_evaluation_per_line_search_trial(self):
        # z^2 = 4 from z = 1 in each of m = 3 coordinates, the objective
        # returning its Jacobian 2z with the residual: the full step lands
        # on 2.5, outside the |z| <= 2.2 guard, so the step costs two calls
        # (lam = 1 rejected, lam = 1/2 accepted) and its Jacobian none
        calls = []

        def f(v):
            calls.append(v.copy())
            if np.max(np.abs(v)) > 2.2:
                raise DomainError("outside the guard")
            return v**2 - 4.0, np.diag(2.0 * v)

        with pytest.raises(ConvergenceError):
            eps_mod._newton(f, np.ones(3, dtype=complex), 1e-12, max_iter=1)
        assert len(calls) == 1 + 2
        assert np.allclose(calls[1], 2.5)
        assert np.allclose(calls[-1], 1.75)

    def test_jacobian_determinant_at_degeneration(self):
        # complex Jacobian of (Om11, Om22, 2pi*i*Om12) wrt (tau1, tau2, eps)
        # at eps = 0 has determinant -1
        tau1, tau2 = 1j, 2j
        h = 1e-6

        def f(v):
            om = period_matrix_eps(EpsPoint(v[0], v[1], v[2]), 10)
            return np.array([om.omega11, om.omega22, TWO_PI_I * om.omega12])

        x0 = np.array([tau1, tau2, 0j])
        jac = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (f(xp) - f(xm)) / (2 * h)
        assert abs(np.linalg.det(jac) - (-1.0)) < 1e-6


def real_split_jacobian(f, x, rel_step=1e-6):
    """The 2m x 2m real central-difference Jacobian, each complex coordinate
    split into its real and imaginary parts (rows and columns interleaved)."""
    m = len(x)
    jac = np.zeros((2 * m, 2 * m))
    for j in range(m):
        h = rel_step * (1.0 + abs(x[j]))
        for part, delta in ((0, h), (1, 1j * h)):
            xp = x.copy(); xp[j] += delta
            xm = x.copy(); xm[j] -= delta
            col = (f(xp) - f(xm)) / (2.0 * h)
            jac[0::2, 2 * j + part] = col.real
            jac[1::2, 2 * j + part] = col.imag
    return jac
