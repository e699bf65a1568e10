"""Exact symbolic engine: appendix tables, half-power cancellation,
swap symmetry, numeric consistency, evaluation."""

import cmath
import math
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from g2sew import (
    EpsPoint,
    GradedPoly,
    RhoPoint,
    UnassignedGeneratorError,
    eisenstein,
    evaluate_series,
    period_matrix_eps,
    period_matrix_rho,
    prime_form,
    symbolic_period_eps,
    symbolic_period_rho,
    weierstrass_p,
)
from g2sew import formal
from g2sew.lattice import TWO_PI_I
from helpers import symbolic_reference


def gp(kind, idx):
    return GradedPoly.generator(kind, idx)


def mul(*ps):
    out = GradedPoly.const(1)
    for p in ps:
        out = out.mul(p)
    return out


def poly(*terms):
    """terms: (coeff, [generator factors]) pairs at parameter power 0."""
    out = GradedPoly.zero()
    for coeff, factors in terms:
        out = out + mul(*factors).scale(Fraction(coeff))
    return out


E2, E4, E6, E8 = (gp("E", k) for k in (2, 4, 6, 8))
F2, F4, F6, F8 = (gp("F", k) for k in (2, 4, 6, 8))
P1, P2, P3, P4 = (gp("P", k) for k in (1, 2, 3, 4))

# --- appendix tables (two-tori formalism) ---------------------------------
# The eps^8 bracket of 2pi*i*Omega_12 is transcribed with one documented
# erratum: the E2*E6*F2*F6 coefficient prints as 5 in the source but the
# defining moment formulas force 15 (three weight-5 chains; see the
# independent enumeration below and the numeric-oracle test).

OM11_EPS = {
    2: poly((1, [F2])),
    4: poly((1, [E2, F2, F2])),
    6: poly((1, [E2, E2, F2, F2, F2]), (6, [E4, F2, F4])),
    8: poly((1, [E2, E2, E2, F2, F2, F2, F2]),
            (12, [E2, E4, F2, F2, F4]),
            (10, [E6, F2, F6]),
            (30, [E6, F4, F4])),
}

OM12_EPS = {
    1: poly((-1, [])),
    3: poly((-1, [E2, F2])),
    5: poly((-1, [E2, E2, F2, F2]), (-3, [E4, F4])),
    7: poly((-1, [E2, E2, E2, F2, F2, F2]),
            (-9, [E2, E4, F2, F4]),
            (-5, [E6, F6])),
    9: poly((-1, [E2, E2, E2, E2, F2, F2, F2, F2]),
            (-15, [E2, E2, E4, F2, F2, F4]),
            (-15, [E2, E6, F2, F6]),   # erratum: printed as 5
            (-30, [E2, E6, F4, F4]),
            (-30, [E4, E4, F2, F6]),
            (-9, [E4, E4, F4, F4]),
            (-7, [E8, F8])),
}

# --- appendix tables (self-sewing formalism), expanded from the factored
#     display ----------------------------------------------------------------

P2E2 = poly((1, [P2]), (1, [E2]))
P2mE2 = poly((1, [P2]), (-1, [E2]))

OM11_RHO = {
    1: poly((-2, [])),
    2: P2E2.scale(2),
    3: mul(P2E2, P2E2).scale(-2),
    4: mul(P2E2, P2E2, P2E2).scale(2) + poly((4, [P3, P3])),
}

OM12_RHO = {
    1: poly((2, [P1])),
    2: mul(P1, P2E2).scale(-2),
    3: (mul(P1, P2E2, P2E2) + mul(P3, P2mE2)).scale(2),
    4: (mul(P3, poly((1, [P4]), (1, [E4])))
        + mul(P1, P2E2, P2E2, P2E2)
        + mul(P1, P3, P3).scale(2)
        + mul(P3, poly((1, [P2, P2]), (-1, [E2, E2])))).scale(-2),
}

OM22_RHO = {
    1: poly((-2, [P1, P1])),
    2: mul(P1, P1, P2E2).scale(2) + mul(P2mE2, P2mE2),
    3: (mul(P1, P1, P2E2, P2E2).scale(2)
        + poly((Fraction(2, 3), [P3, P3]))
        + mul(P1, P3, P2mE2).scale(4)).scale(-1),
    4: (poly((Fraction(1, 2), [P4, P4]), (Fraction(1, 2), [E4, E4]))
        + mul(poly((1, [P4]), (-1, [E4])), P2mE2, P2mE2).scale(3)
        + mul(P1, P1, P2E2, P2E2, P2E2).scale(2)
        + poly((-1, [E4, P4]))
        + mul(P3, P1, poly((1, [P1, P3]), (1, [E4]), (1, [P4]),
                           (1, [P2, P2]), (-1, [E2, E2]))).scale(4)),
}


def coefficient_of_e2e6f2f6_in_om12_eps9() -> Fraction:
    """Independent exact enumeration of the disputed appendix coefficient.

    2pi*i*Omega_12 = -eps (I - A1 A2)^-1 (1,1) expands over alternating
    chains 1 -> k_1 -> ... -> 1.  This walks every interior label sequence
    with sum 7 directly (no matrix algebra shared with the engine) and
    collects the coefficient of the monomial E2*E6*F2*F6 at eps^9.
    """
    def c_num(k, l):  # C(k,l) = c_num * E_(k+l), exact
        return Fraction((-1) ** (k + 1)
                        * math.factorial(k + l - 1),
                        math.factorial(k - 1) * math.factorial(l - 1))

    total = Fraction(0)
    # interior sequences of odd length (chains alternate M1, M2, ..., M2)
    def walk(seq_sum, seq):
        if seq and len(seq) % 2 == 1 and seq_sum == 7:
            nodes = [1] + list(seq) + [1]
            weights = {"E": [], "F": []}
            coeff = Fraction(1)
            for i in range(len(nodes) - 1):
                k, l = nodes[i], nodes[i + 1]
                torus = "E" if i % 2 == 0 else "F"
                weights[torus].append(k + l)
                coeff *= c_num(k, l) / k  # conjugated entry C(k,l)/k
            if sorted(weights["E"]) == [2, 6] and sorted(weights["F"]) == [2, 6]:
                total_local = coeff
                return total_local
            return Fraction(0)
        return Fraction(0)

    def rec(seq, seq_sum):
        nonlocal total
        total += walk(seq_sum, seq)
        if seq_sum >= 7:
            return
        for k in range(1, 8 - seq_sum):
            rec(seq + (k,), seq_sum + k)

    rec((), 0)
    return -total  # the -eps prefactor


class TestAppendixEps:
    def test_every_displayed_coefficient(self):
        s11, s12, s22 = symbolic_period_eps(9)
        for p, expect in OM11_EPS.items():
            assert s11.coefficient_of_power(p) == expect, f"Om11 eps^{p}"
        for p in (1, 3, 5, 7, 9):
            assert s11.coefficient_of_power(p) == GradedPoly.zero()
        for p, expect in OM12_EPS.items():
            assert s12.coefficient_of_power(p) == expect, f"Om12 eps^{p}"
        head = s11.coefficient_of_power(0)
        assert head == GradedPoly.generator("TAU", 1)

    def test_erratum_coefficient_independent_enumeration(self):
        assert coefficient_of_e2e6f2f6_in_om12_eps9() == Fraction(-15)

    def test_swap_symmetry(self):
        # 2pi*i*Omega_22(tau1,tau2,eps) = 2pi*i*Omega_11(tau2,tau1,eps)
        s11, _, s22 = symbolic_period_eps(8)
        swap = {"E": "F", "F": "E"}
        swapped = {}
        for (p, mono), c in s11.terms.items():
            new = tuple(sorted((((swap.get(kind, kind), idx), e)
                                for (kind, idx), e in mono),
                               key=lambda item: (item[0][0], item[0][1])))
            if mono and mono[0][0][0] == "TAU":
                new = ((("TAU", 2), 1),)
            swapped[(p, new)] = c
        assert GradedPoly(swapped) == GradedPoly(s22.terms)

    def test_half_powers_cancel(self):
        for s in symbolic_period_eps(7):
            assert s.has_integer_powers()


@pytest.mark.parametrize("formalism, orders", [("eps", range(1, 11)), ("rho", range(1, 6))])
def test_every_supported_order_matches_reference(formalism, orders):
    # the row-Neumann engine over nested lists, kept in helpers, against the
    # walk sum over object arrays at every order the engine supports
    fn = symbolic_period_eps if formalism == "eps" else symbolic_period_rho
    for order in orders:
        got = [s.terms for s in fn(order)]
        assert got == [s.terms for s in symbolic_reference(formalism, order)], order


class TestSeriesTable:
    """Each supported order is built once per process and shared read-only."""

    def test_repeat_call_returns_the_same_object(self):
        assert symbolic_period_eps(6) is symbolic_period_eps(6)
        assert symbolic_period_rho(3) is symbolic_period_rho(3)

    def test_shared_series_are_read_only(self):
        s = symbolic_period_eps(4)[0]
        key = next(iter(s.terms))
        with pytest.raises(TypeError):
            s.terms[key] = Fraction(0)
        with pytest.raises(AttributeError):
            s.terms = {}
        assert s == symbolic_period_eps(4)[0] == pickle.loads(pickle.dumps(s))

    def test_racing_first_builds_share_one_build(self, monkeypatch):
        # cold start; four threads ask for the same order at once while the
        # interpreter switches threads as often as it can
        monkeypatch.setattr(formal, "_series_table", {})
        ready = threading.Barrier(4)
        got = [None] * 4

        def build(i):
            ready.wait(timeout=60)
            got[i] = symbolic_period_rho(5)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        want = [s.terms for s in symbolic_reference("rho", 5)]
        for series in got:
            assert series is got[0]
            assert [s.terms for s in series] == want


class TestAppendixRho:
    def test_every_displayed_coefficient(self):
        s11, s12, s22 = symbolic_period_rho(4)
        for p, expect in OM11_RHO.items():
            assert s11.coefficient_of_power(p) == expect, f"Om11 rho^{p}"
        for p, expect in OM12_RHO.items():
            assert s12.coefficient_of_power(p) == expect, f"Om12 rho^{p}"
        for p, expect in OM22_RHO.items():
            assert s22.coefficient_of_power(p) == expect, f"Om22 rho^{p}"
        assert s11.coefficient_of_power(0) == GradedPoly.generator("TAU", 0)
        assert s12.coefficient_of_power(0) == GradedPoly.generator("W", 0)
        assert s22.coefficient_of_power(0) == GradedPoly.generator("LOG", 0)

    def test_half_powers_cancel(self):
        for s in symbolic_period_rho(4):
            assert s.has_integer_powers()


def eps_assignment(tau1, tau2):
    out = {"2pi_i_tau1": TWO_PI_I * tau1, "2pi_i_tau2": TWO_PI_I * tau2}
    for k in range(2, 20, 2):
        out[f"E{k}"] = eisenstein(k, tau1)
        out[f"F{k}"] = eisenstein(k, tau2)
    return out


def rho_assignment(tau, w, rho, branch=0):
    k = prime_form(tau, w)
    out = {"2pi_i_tau": TWO_PI_I * tau, "w": w,
           "log(-rho/K^2)": cmath.log(-rho / k**2) + TWO_PI_I * branch}
    for m in range(2, 12, 2):
        out[f"E{m}"] = eisenstein(m, tau)
    for m in range(1, 11):
        out[f"P{m}"] = weierstrass_p(m, tau, w)
    return out


class TestEvaluation:
    def test_constant_series(self):
        s = GradedPoly.const(Fraction(7, 3))
        assert evaluate_series(s, {}, 0.3) == pytest.approx(7 / 3)

    def test_zero_assignment_kills_generators(self):
        s = symbolic_period_eps(5)[0]
        assign = {name: 0j for name in s.generators()}
        assign["2pi_i_tau1"] = 0j
        assert evaluate_series(s, assign, 0.2) == 0

    def test_unassigned_generator_raises(self):
        s = symbolic_period_eps(3)[0]
        with pytest.raises(UnassignedGeneratorError):
            evaluate_series(s, {}, 0.1)

    @pytest.mark.parametrize("tau1,tau2,eps", [
        (1j, 2j, 0.1),
        (0.2 + 0.9j, -0.3 + 1.2j, 0.15 + 0.1j),
        (0.05 + 1.4j, 0.4 + 0.8j, -0.2j),
    ])
    def test_eps_series_matches_numeric(self, tau1, tau2, eps):
        series = symbolic_period_eps(9)
        assign = eps_assignment(tau1, tau2)
        om = period_matrix_eps(EpsPoint(tau1, tau2, eps), 16)
        for s, num in zip(series, (om.omega11, om.omega12, om.omega22)):
            sym = evaluate_series(s, assign, eps) / TWO_PI_I
            assert abs(sym - num) < 50 * abs(eps) ** 10

    @pytest.mark.parametrize("tau,w,rho", [
        (1j, 1j * math.pi, 0.02),
        (0.1 + 1j, 1.5 + 1.2j, 0.015 + 0.01j),
        (-0.2 + 0.9j, 0.8 - 1.9j, 0.01),
    ])
    def test_rho_series_matches_numeric(self, tau, w, rho):
        series = symbolic_period_rho(4)
        assign = rho_assignment(tau, w, rho)
        om = period_matrix_rho(RhoPoint(tau, w, rho), 14)
        for s, num in zip(series, (om.omega11, om.omega12, om.omega22)):
            sym = evaluate_series(s, assign, rho) / TWO_PI_I
            assert abs(sym - num) < 100 * abs(rho) ** 5


class TestSerialization:
    def test_generator_weights(self):
        from g2sew import series_generators
        gens = {g.symbol: g.weight for g in series_generators(*symbolic_period_rho(3))}
        assert gens["P3"] == 3 and gens["E2"] == 2
        assert gens["log(-rho/K^2)"] == 0 and gens["w"] == 0

    def test_deterministic_text(self):
        a = symbolic_period_eps(6)[1].text()
        b = symbolic_period_eps(6)[1].text()
        assert a == b
        assert "eps^3" in a

    def test_term_list_structure(self):
        terms = symbolic_period_rho(2)[2].term_list("rho")
        assert terms[0]["monomial"] == {"log(-rho/K^2)": 1}
        powers = [t["rho_power"] for t in terms]
        assert powers == sorted(powers)


def test_half_power_check_survives_optimisation():
    # the integer-power check of both assembled series is a real raise, so
    # python -O keeps it; a GradedPoly that reports half powers must trip it
    code = (
        "from g2sew import SewingError, formal\n"
        "formal.GradedPoly.has_integer_powers = lambda self: False\n"
        "for fn in (formal.symbolic_period_eps, formal.symbolic_period_rho):\n"
        "    try:\n"
        "        fn(2)\n"
        "    except SewingError:\n"
        "        print('SewingError')\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["SewingError", "SewingError"]
