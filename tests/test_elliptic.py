"""Special-function tests: series oracles, quasi-periodicity, dual routes,
modular transformation laws."""

import cmath
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sew import (
    InvalidArgumentError,
    PoleError,
    RangeOverflowError,
    SeriesTolerance,
    SewingError,
    ToleranceError,
    bernoulli,
    c_coeff,
    d_coeff,
    dedekind_eta,
    eisenstein,
    eisenstein_q,
    eisenstein_range,
    lattice_min,
    prime_form,
    weierstrass_p,
    weierstrass_range,
)
from g2sew import elliptic
from g2sew.lattice import TWO_PI_I, gauss_reduce, lattice_basis, reduce_mod_lattice
from helpers import (centred_point, doubling_bounds, eisenstein_q_reference,
                     eisenstein_recurrence, head_values_reference,
                     laurent_weight_reference, weierstrass_reference)

S = ((0, -1), (1, 0))
T = ((1, 1), (0, 1))


def mobius(g, tau):
    (a, b), (c, d) = g
    return (a * tau + b) / (c * tau + d)


@pytest.fixture
def searches(monkeypatch):
    """The live list of (arguments, stop) of each ``elliptic._first_passing`` call."""
    found = []
    search = elliptic._first_passing

    def recorded(*args):
        found.append((args, search(*args)))
        return found[-1][1]

    monkeypatch.setattr(elliptic, "_first_passing", recorded)
    return found


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)

    def test_generating_series_coefficients(self):
        # t/(e^t-1) - 1 + t/2 = t^2/12 - t^4/720 + t^6/30240 + ...
        assert bernoulli(2) / math.factorial(2) == Fraction(1, 12)
        assert bernoulli(4) / math.factorial(4) == Fraction(-1, 720)
        assert bernoulli(6) / math.factorial(6) == Fraction(1, 30240)

    def test_odd_or_small_rejected(self):
        for k in (0, 1, 3, 7):
            with pytest.raises(InvalidArgumentError):
                bernoulli(k)

    def test_memo_is_complete_and_unshared_under_threads(self, monkeypatch):
        # cold start; each thread extends the memo to its own sizes while the
        # interpreter switches threads as often as it can
        monkeypatch.setattr(elliptic, "_bernoulli_table", (Fraction(1),))
        sizes = [[4 * (i + 1) + 24 * r for r in range(6)] for i in range(8)]
        want = bernoulli_reference(max(map(max, sizes)))
        bad = []

        def work(mine):
            for kmax in mine:
                table = elliptic._bernoulli_memo(kmax)
                if table != want[:len(table)] or len(table) <= kmax:
                    bad.append(kmax)

        threads = [threading.Thread(target=work, args=(s,)) for s in sizes]
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
        assert bad == []
        assert elliptic._bernoulli_table == want

    def test_returned_table_cannot_change_the_next_call(self):
        table = elliptic._bernoulli_memo(12)
        with pytest.raises(TypeError):
            table[2] = Fraction(0)
        eis = eisenstein_range(12, 1j)
        eis[4] = 0j
        assert elliptic._bernoulli_memo(12)[:13] == bernoulli_reference(12)
        assert eisenstein_range(12, 1j)[4] == eisenstein(4, 1j)


def bernoulli_reference(kmax):
    """(B_0..B_kmax) from the recurrence, computed afresh."""
    b = [Fraction(1)]
    for m in range(1, kmax + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b)


def eisenstein_oracle(k, tau, nterms=200):
    """Direct q-series summation, independent of the adaptive implementation."""
    q = cmath.exp(TWO_PI_I * tau)
    total = complex(Fraction(-bernoulli(k), math.factorial(k)))
    for n in range(1, nterms):
        sig = sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        total += 2.0 / math.factorial(k - 1) * sig * q**n
    return total


class TestEisenstein:
    def test_odd_weight_vanishes(self):
        assert eisenstein(3, 1j) == 0
        assert eisenstein(5, 0.3 + 0.9j) == 0

    def test_large_im_tau_constant_term(self):
        assert abs(eisenstein(4, 60j) - 1.0 / 720.0) < 1e-15

    def test_e2_at_i(self):
        # frozen from the direct summation oracle; equals -1/(4*pi)
        assert abs(eisenstein(2, 1j) - (-0.07957747154594767)) < 1e-13
        assert abs(eisenstein(2, 1j) - eisenstein_oracle(2, 1j)) < 1e-14

    def test_constant_term_matches_fraction(self):
        # at q = 0 only the constant -B_k/k! is left, formed by one int division
        for k in range(2, 401, 2):
            ref = complex(Fraction(-bernoulli(k), math.factorial(k)))
            assert repr(eisenstein_q(k, 0)) == repr(ref), k

    def test_sieve_matches_trial_division(self):
        # sigma_(k-1) is exact either way, so every E_k is the same float:
        # seeded fundamental-domain, skewed and near-real tori, k <= 100
        rng = random.Random(1936)
        taus = []
        while len(taus) < 4:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.86, 2.5))
            if abs(tau) >= 1:
                taus.append(tau)
        taus += [complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 0.6)) for _ in range(4)]
        taus += [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.09, 0.11)) for _ in range(2)]
        for tau in taus:
            q = elliptic.Torus(tau).q
            ref = [0j, 0j] + [eisenstein_q_reference(k, q) for k in range(2, 101)]
            assert repr(elliptic.Torus(tau).eisenstein(100)) == repr(ref), tau
            assert repr([0j, 0j] + [eisenstein_q(k, q) for k in range(2, 101)]) == repr(ref), tau

    def test_sieve_matches_trial_division_in_log_space(self, searches):
        # at tau = 0.05i the coefficient 2 sigma_199(n)/199! of the last
        # terms of E_200 leaves the double range, and those terms are formed
        # in log space
        q = elliptic.Torus(0.05j).q
        value = eisenstein_q(200, q)
        stop = searches[0][1]
        with pytest.raises(OverflowError):
            2 * stop**199 / math.factorial(199)
        assert repr(value) == repr(eisenstein_q_reference(200, q))

    def test_sieve_holds_one_list_of_ints(self, searches):
        # at tau = 0.1i E_128 sums past 1,000 terms; sigma_127(n) <
        # 2 stop^127, so stop + 1 slots of such ints bound the peak, which a
        # second list, of the powers d^127, would about double
        q = elliptic.Torus(0.1j).q
        eisenstein_q(128, q)
        searches.clear()
        tracemalloc.start()
        try:
            eisenstein_q(128, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((_, stop),) = searches
        assert stop > 1000
        assert peak < (stop + 1) * (8 + sys.getsizeof(2 * stop**127))

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 12])
    @pytest.mark.parametrize("tau", [1j, 0.25 + 0.8j, -0.4 + 1.7j])
    def test_matches_direct_summation(self, k, tau):
        assert abs(eisenstein(k, tau) - eisenstein_oracle(k, tau)) < 1e-13

    def test_modularity_weight_4_and_6(self):
        for tau in (0.2 + 1.1j, -0.37 + 0.74j):
            for g in (S, T):
                (_, _), (c, d) = g
                j = c * tau + d
                for k in (4, 6):
                    lhs = eisenstein(k, mobius(g, tau))
                    assert abs(lhs - j**k * eisenstein(k, tau)) < 1e-10

    def test_e2_exceptional_law(self):
        for tau in (0.2 + 1.1j, -0.37 + 0.74j, 1j):
            for g in (S, T):
                (_, _), (c, d) = g
                j = c * tau + d
                lhs = eisenstein(2, mobius(g, tau))
                rhs = j**2 * eisenstein(2, tau) - c * j / TWO_PI_I
                assert abs(lhs - rhs) < 1e-10

    def test_tolerance_error_carries_bound(self):
        with pytest.raises(ToleranceError) as exc:
            eisenstein(4, 0.02j, SeriesTolerance(abs_tol=1e-14, max_terms=3))
        assert exc.value.achieved is not None

    def test_bad_tau_rejected(self):
        with pytest.raises(InvalidArgumentError):
            eisenstein(4, 1.0 - 2.0j)

    def test_weight_64_agrees_with_the_recurrence_from_e4_and_e6(self):
        # seeded fundamental-domain tori, i, and the corners e^(i pi/3) and
        # e^(2i pi/3), where |q| is largest: the q-series table reads at
        # most 5.8e-13 D^-k from the recurrence (e^(i pi/3), k = 64)
        rng = random.Random(64)
        taus = [1j, cmath.exp(1j * math.pi / 3), cmath.exp(2j * math.pi / 3)]
        while len(taus) < 43:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.86, 2.5))
            if abs(tau) >= 1:
                taus.append(tau)
        for tau in taus:
            table = elliptic.Torus(tau).eisenstein(64)
            ref = eisenstein_recurrence(table[4], table[6], 64)
            dmin = lattice_min(tau)
            for k in range(8, 65, 2):
                assert abs(table[k] - ref[k]) * dmin**k < 1e-12, (tau, k)

    @pytest.mark.parametrize("tau", [1j, 0.31 + 0.87j])
    def test_dtau_table_matches_central_difference(self, tau):
        h = 1e-6
        d = elliptic.Torus(tau).eisenstein_dtau(48)
        plus = eisenstein_range(48, tau + h)
        minus = eisenstein_range(48, tau - h)
        for k in range(2, 49, 2):
            fd = (plus[k] - minus[k]) / (2 * h)
            assert abs(fd - d[k]) < 1e-7 * abs(d[k])
        assert all(d[k] == 0 for k in range(1, 49, 2))

    @pytest.mark.parametrize("call", [lambda: eisenstein(390, 1j),
                                      lambda: eisenstein_range(400, 0.3j)[400],
                                      lambda: eisenstein(400, 0.05j)],
                             ids=["w390", "range400", "w400-near-real"])
    def test_high_weight_finite_or_typed_error(self, call):
        # from weight ~388 the constant term -B_k/k! underflows; the tail
        # test must neither take log(0) nor let an overflow escape untyped
        try:
            value = call()
        except SewingError:
            return
        assert cmath.isfinite(value)

    @pytest.mark.parametrize("k", [200, 240])
    def test_high_weight_near_real_axis_matches_modular_image(self, k):
        # at tau = 0.05i the coefficient 2 sigma_(k-1)(n)/(k-1)! leaves the
        # double range while the terms stay finite; E_k(tau) =
        # tau^-k E_k(-1/tau), with -1/tau = 20i deep in the cusp
        tau = 0.05j
        ref = eisenstein(k, -1 / tau) * (1 / tau) ** (k // 2) * (1 / tau) ** (k // 2)
        assert abs(eisenstein(k, tau) - ref) < 1e-10 * abs(ref)

    def test_lattice_bound_holds(self):
        # the z-Laurent tail certificates of P_k and the prime form assume
        # |E_k| D^k <= _EISEN_LATTICE_BOUND; check it on fundamental-domain
        # and on skewed, near-real tori
        rng = np.random.default_rng(4040)
        worst = 0.0
        for i in range(200):
            if i < 100:
                x = rng.uniform(-0.5, 0.5)
                tau = complex(x, rng.uniform(math.sqrt(1.0 - x * x), 3.0))
            else:
                tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 0.6))
            d = lattice_min(tau)
            eis = eisenstein_range(40, tau)
            worst = max(worst, max(abs(eis[k]) * d**k for k in range(2, 41, 2)))
        assert worst <= elliptic._EISEN_LATTICE_BOUND


class TestLattice:
    def test_min_square_lattice(self):
        assert abs(lattice_min(1j) - 2 * math.pi) < 1e-12

    def test_min_tall_lattice(self):
        # shortest vector is 2*pi*i itself
        assert abs(lattice_min(2j) - 2 * math.pi) < 1e-12

    def test_scaling_law_under_modular_action(self):
        for tau in (0.3 + 0.8j, 1j, -0.45 + 1.3j):
            for g in (S, T):
                (_, _), (c, d) = g
                lhs = lattice_min(mobius(g, tau))
                assert abs(lhs - lattice_min(tau) / abs(c * tau + d)) < 1e-10

    def test_gauss_reduction_shortest(self):
        v1, v2 = gauss_reduce(*lattice_basis(0.49 + 0.02j))
        assert abs(v1) <= abs(v2)
        assert abs(v2) <= min(abs(v2 + v1), abs(v2 - v1)) + 1e-12

    def test_reduce_mod_lattice_roundtrip(self):
        tau = 0.3 + 1.2j
        z = 7.3 - 11.2j
        z_red, m, n = reduce_mod_lattice(tau, z)
        assert abs(z - (z_red + TWO_PI_I * (m * tau + n))) < 1e-10


class TestWeierstrass:
    def test_p1_quasi_periods(self):
        tau, z = 1j, 0.4 + 0.3j
        p1 = weierstrass_p(1, tau, z)
        assert abs(weierstrass_p(1, tau, z + 2j * math.pi) - p1) < 1e-10
        assert abs(weierstrass_p(1, tau, z + TWO_PI_I * tau) - (p1 - 1)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.45, 0.45), st.floats(0.05, 0.45),
           st.floats(-0.4, 0.4), st.floats(0.6, 1.6))
    def test_p1_quasi_periods_random(self, a, b, re_tau, im_tau):
        tau = complex(re_tau, im_tau)
        z = TWO_PI_I * (a * tau + b)
        if abs(z) < 1e-3 or min(abs(a), abs(b)) < 0.02:
            return
        p1 = weierstrass_p(1, tau, z)
        assert abs(weierstrass_p(1, tau, z + 2j * math.pi) - p1) < 1e-10
        assert abs(weierstrass_p(1, tau, z + TWO_PI_I * tau) - (p1 - 1)) < 1e-10

    def test_p2_small_z_laurent_data(self):
        # P_2 - 1/z^2 -> sum (k-1) E_k z^(k-2): check the partial sums as z -> 0
        tau = 0.2 + 1.0j
        for z in (0.01, 0.005 + 0.007j):
            lhs = weierstrass_p(2, tau, z) - 1.0 / (z * z)
            rhs = sum((k - 1) * eisenstein(k, tau) * z ** (k - 2)
                      for k in range(2, 12, 2))
            assert abs(lhs - rhs) < 1e-9

    def test_derivative_chain_finite_difference(self):
        # P_(k+1) = -(1/k) dP_k/dz, central differences
        tau, z = 1j, 1.0 + 0.0j
        h = 1e-5
        for k in range(1, 7):
            fd = (weierstrass_p(k, tau, z + h) - weierstrass_p(k, tau, z - h)) / (2 * h)
            target = weierstrass_p(k + 1, tau, z)
            assert abs(-fd / k - target) < 1e-6 * max(1.0, abs(target))

    @pytest.mark.parametrize("z, laurent", [
        (1.0 + 0.5j, True), (2.5 + 2.5j, False),
        (1.0 + 0.5j + TWO_PI_I * (0.2 + 1.1j), True)],
        ids=["laurent", "qz", "laurent-shifted"])
    def test_w_derivatives_of_p_and_log_prime_form(self, z, laurent):
        # the rho chart's Jacobian uses dP_k/dw = -k P_(k+1) through k = 2n
        # and d log K/dw = P_1, quasi-period correction included
        tau, h = 0.2 + 1.1j, 1e-5
        assert laurent == (abs(reduce_mod_lattice(tau, z)[0]) < 0.5 * lattice_min(tau))
        pk = weierstrass_range(25, tau, z)
        plus = weierstrass_range(24, tau, z + h)
        minus = weierstrass_range(24, tau, z - h)
        for k in range(1, 25):
            fd = (plus[k] - minus[k]) / (2 * h)
            assert abs(fd + k * pk[k + 1]) < 1e-6 * max(1.0, abs(k * pk[k + 1]))
        dlog_k = ((prime_form(tau, z + h) - prime_form(tau, z - h)) / (2 * h)
                  / prime_form(tau, z))
        assert abs(dlog_k - pk[1]) < 1e-8

    @pytest.mark.parametrize("z, laurent", [
        (1.0 + 0.5j, True), (2.5 + 2.5j, False),
        (1.0 + 0.5j + TWO_PI_I * (0.2 + 1.1j), True)],
        ids=["laurent", "qz", "laurent-shifted"])
    def test_tau_derivatives_of_p_from_heat_equation(self, z, laurent):
        # the rho chart's tau column uses dP_k/dtau from the heat equation
        # through k = 2n.  On the Laurent route entry k is scaled by
        # |z_red|^k, the size of the exact head z_red^-k; the q_z route
        # certifies P_k to an absolute tolerance, so its entries are not
        tau, h = 0.2 + 1.1j, 1e-6
        z_red = reduce_mod_lattice(tau, z)[0]
        assert laurent == (abs(z_red) < 0.5 * lattice_min(tau))
        closed = elliptic._heat_dtau(weierstrass_range(26, tau, z), 0)[1:]
        fd = (np.array(weierstrass_range(24, tau + h, z))
              - np.array(weierstrass_range(24, tau - h, z)))[1:] / (2 * h)
        scale = (abs(z_red) if laurent else 1.0) ** np.arange(1, 25)
        assert np.max(scale * np.abs(fd - closed)) < 1e-7 * np.max(scale * np.abs(closed))

    @pytest.mark.parametrize("route, z", [
        ("series", 1.0 + 0.5j), ("theta", 1.0 + 0.5j), ("theta", 2.5 + 2.5j)],
        ids=["series", "theta", "theta-qz"])
    def test_tau_derivative_of_log_prime_form(self, route, z):
        # d log K/dtau = pi*i (P_1^2 - P_2 + 3 E_2) at fixed z
        tau, h = 0.2 + 1.1j, 1e-6
        pk = weierstrass_range(2, tau, z)
        closed = elliptic._log_prime_form_dtau(pk[1], pk[2], eisenstein(2, tau))
        fd = cmath.log(prime_form(tau + h, z, route=route)
                       / prime_form(tau - h, z, route=route)) / (2 * h)
        assert abs(fd - closed) < 1e-7 * abs(closed)

    def test_p3_at_i_finite_difference_oracle(self):
        tau, z = 1j, 1.0
        h = 2e-5
        fd = (weierstrass_p(2, tau, z + h) - weierstrass_p(2, tau, z - h)) / (2 * h)
        assert abs(weierstrass_p(3, tau, z) - (-0.5 * fd)) < 1e-8

    def test_expansion_consistency_remainder_scaling(self):
        # P_(k+1) - 1/z^(k+1) - (1/k) sum_(l<=L) C(k,l) z^(l-1) = O(z^L):
        # the first omitted term is l = L+1 carrying z^L
        tau, k, L = 0.2 + 1.0j, 2, 5
        def remainder(z):
            head = weierstrass_p(k + 1, tau, z) - z ** (-(k + 1))
            series = sum(c_coeff(k, l, tau) / k * z ** (l - 1)
                         for l in range(1, L + 1))
            return abs(head - series)
        r1, r2 = remainder(0.4), remainder(0.2)
        assert r1 / r2 == pytest.approx(2 ** L, rel=0.35)

    def test_pole_error_on_lattice(self):
        with pytest.raises(PoleError):
            weierstrass_p(2, 1j, 0)
        with pytest.raises(PoleError):
            weierstrass_p(4, 1j, TWO_PI_I * (1j + 1))

    def test_dual_route_agreement(self):
        # nearest-point representative is small (Laurent); shifting by a
        # lattice vector forces the exponential-coordinate route
        tau = 0.13 + 0.9j
        for k in (2, 3, 4, 5):
            for z in (0.4 + 0.2j, 1.1 - 0.8j):
                a = weierstrass_p(k, tau, z)
                b = weierstrass_p(k, tau, z + TWO_PI_I * (2 * tau + 1))
                assert abs(a - b) < 1e-11 * max(1.0, abs(a))
        # skewed torus, |z| = 0.48 D: the certificates of P_1..P_48 name
        # weight 200, inside the Laurent route's cap; the guess-and-double
        # reference stops at 194 and answers from the q_z route
        tau = 0.0583 + 0.3004j
        _, v2 = gauss_reduce(*lattice_basis(tau))
        z = 0.48 * lattice_min(tau) * cmath.exp(0.3j) * v2 / abs(v2)
        t = elliptic.Torus(tau)
        full = t.weierstrass(48, z)
        assert len(t._eis) - 1 == 200
        qz = weierstrass_reference(elliptic.Torus(tau), 48, z)
        for k in range(1, 49):
            assert abs(qz[k] - full[k]) < 1e-12 * max(1.0, abs(full[k]))
        for k in (2, 3, 4, 5, 24, 47):
            a = weierstrass_p(k, tau, z)
            assert abs(a - full[k]) < 1e-11 * max(1.0, abs(a))


_TORI = st.one_of(
    st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.87, 2.0)),  # fundamental domain
    st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.2, 0.6)),   # skewed
    st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.03, 0.12)),  # near-real
)


def certified_weight(tau, z, kmax):
    """Largest weight of E_k that the Laurent tails of P_1..P_kmax name."""
    dmin = lattice_min(tau)
    return max(elliptic._laurent_weight(k, abs(z), dmin, elliptic.DEFAULT_TOL)
               for k in range(1, kmax + 1))


class TestCertificateFirstRoute:
    """The Laurent route of P_k reads its tail certificates first and builds
    the E_k table once, to the largest weight they name."""

    # the route never reads an E_k value to choose its terms, so these tests
    # stand in the constant term for E_k: weight-384 tables on near-real tori
    # then cost nothing, and both routes still read one and the same table
    _exact = staticmethod(elliptic.eisenstein_q)

    @classmethod
    def constant_term(cls, k, q, tol=elliptic.DEFAULT_TOL):
        return cls._exact(k, 0j, tol)

    @settings(max_examples=60, deadline=None)
    @given(tau=_TORI, r=st.floats(0.02, 0.499), phase=st.floats(0.0, 2 * math.pi),
           kmax=st.integers(2, 50), held=st.integers(1, 300))
    def test_matches_guess_and_double_where_it_was_laurent(self, tau, r, phase, kmax, held):
        z = r * lattice_min(tau) * cmath.exp(1j * phase)
        weight = certified_weight(tau, z, kmax)
        with patch.object(elliptic, "eisenstein_q", self.constant_term):
            t = elliptic.Torus(tau)
            t.eisenstein(held)
            out = t.weierstrass(kmax, z)
            laurent = weight <= elliptic._LAURENT_MAX_WEIGHT
            assert len(t._eis) - 1 == (max(weight, held) if laurent else held)
            bounds = doubling_bounds(kmax)
            if bounds and weight <= bounds[-1]:
                ref = weierstrass_reference(elliptic.Torus(tau), kmax, z)
                assert repr(out) == repr(ref)

    @pytest.mark.parametrize("tau, r, kmax", [
        (1j, 0.3, 12), (0.3 + 0.2j, 0.38, 48), (0.0583 + 0.3004j, 0.45, 24),
        (0.4 + 0.5j, 0.49, 12)])
    def test_matches_guess_and_double_on_true_tables(self, tau, r, kmax):
        z = r * lattice_min(tau) * cmath.exp(0.7j)
        assert certified_weight(tau, z, kmax) <= doubling_bounds(kmax)[-1]
        out = elliptic.Torus(tau).weierstrass(kmax, z)
        assert repr(out) == repr(weierstrass_reference(elliptic.Torus(tau), kmax, z))

    def test_table_ends_at_the_certified_weight(self):
        # skewed torus at |w| = 0.38 D, kmax 48: the certificates name weight
        # 130 (the guess-and-double reference builds 96, then 194)
        tau = 0.3 + 0.2j
        t = elliptic.Torus(tau)
        t.weierstrass(48, 0.38 * t.dmin * cmath.exp(0.3j))
        assert len(t._eis) - 1 == 130

    def test_search_matches_linear_scan(self):
        # seeded grid: fundamental-domain, skewed and thin tori (D < 0.16,
        # where the bound leaves the double range before the cap), |z|/D up
        # to just under 1/2, k from 1, and no guess, P_(k-1)'s weight (as
        # Torus.weierstrass passes it) or a stray one
        rng = random.Random(15)
        tori = [1j, 0.3 + 0.2j, 0.05j, 0.02j, 0.013 + 0.02j, 0.5 + 0.05j]
        tori += [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.02, 1.5)) for _ in range(6)]
        ratios = [0.005, 0.3, 0.45, 0.49, 0.499, 0.4999] + [rng.uniform(0.0, 0.5) for _ in range(4)]
        weights, overflowed = set(), False
        for tau in tori:
            dmin = lattice_min(tau)
            for r in ratios:
                az, last = r * dmin, None
                for k in [1, 2, 3] + sorted(rng.sample(range(4, 61), 8)):
                    want = laurent_weight_reference(k, az, dmin, elliptic.DEFAULT_TOL)
                    for guess in (None, last, rng.randint(0, 400)):
                        assert elliptic._laurent_weight(k, az, dmin, elliptic.DEFAULT_TOL,
                                                        guess) == want
                    last = want
                    weights.add(want)
                    overflowed |= elliptic._laurent_tail(k, 384, az, dmin) == math.inf
        assert overflowed and 385 in weights and len(weights) > 50

    @pytest.mark.parametrize("tau, r, weight, built", [
        (0.05j, 0.49, 384, 384), (0.05j, 0.499, 385, 1), (0.02j, 0.45, 385, 1)])
    def test_route_rule_at_the_cap(self, tau, r, weight, built):
        # near-real tori, kmax 50: certificates naming weight 384 build the
        # table to it; one more, and the q_z route answers with no E_k built.
        # At D = 0.126 the bound D^-(k+l) leaves the double range first.
        z = r * lattice_min(tau)
        assert certified_weight(tau, z, 50) == weight
        with patch.object(elliptic, "eisenstein_q", self.constant_term):
            t = elliptic.Torus(tau)
            t.weierstrass(50, z)
        assert len(t._eis) - 1 == built


def qz_points(seed, count):
    """Seeded (tau, w) pairs, half on skewed tori, whose P_k take the q_z route."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        if len(points) % 2:
            tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 0.6))
        else:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
        w = TWO_PI_I * (rng.uniform(-0.5, 0.5) * tau + rng.uniform(-0.5, 0.5))
        if abs(reduce_mod_lattice(tau, w)[0]) >= 0.5 * lattice_min(tau):
            points.append((tau, w))
    return points


class TestCothHeads:
    """The q_z route's heads h_k(z_c) = sum_n "1/(z_c-2pi*i*n)^k" come from
    the Riccati law of h_1 = coth(z_c/2)/2, in floats, per call."""

    def test_relative_to_the_exact_polynomials_at_the_same_c(self):
        # centred q_z points, half on skewed tori, where |Re z_c| reaches
        # about 4 and p_k(c) evaluated in floats loses every digit
        worst = 0.0
        for tau, w in qz_points(7, 12):
            z_c = centred_point(tau, w)[0]
            want = head_values_reference(1.0 / cmath.tanh(z_c / 2.0), 60)
            got = elliptic._coth_heads(z_c, 60)
            assert len(got) == 61
            worst = max(worst, max(abs(g - h) / abs(h) for g, h in zip(got[1:], want[1:])))
        assert worst < 1e-12


class TestPrimeForm:
    def test_zero_at_origin_and_lattice(self):
        assert prime_form(1j, 0) == 0
        assert prime_form(1j, TWO_PI_I) == 0

    def test_k_over_z_to_one(self):
        for z in (1e-3, 1e-3j, 7e-4 + 5e-4j):
            assert abs(prime_form(1j, z) / z - 1.0) < 1e-5

    def test_odd(self):
        for tau, z in ((1j, 0.7 + 0.2j), (0.3 + 1.4j, 2.5 - 1.0j)):
            assert abs(prime_form(tau, -z) + prime_form(tau, z)) < 1e-12

    def test_quasi_period_2pi_i(self):
        tau, z = 1j, 0.6 + 0.4j
        lhs = prime_form(tau, z + 2j * math.pi)
        assert abs(lhs + prime_form(tau, z)) < 1e-12

    def test_quasi_period_2pi_i_tau(self):
        tau, z = 0.2 + 1.1j, 0.5 - 0.3j
        q_z = cmath.exp(z)
        q_half = cmath.exp(1j * math.pi * tau)
        lhs = prime_form(tau, z + TWO_PI_I * tau)
        rhs = -prime_form(tau, z) / (q_z * q_half)
        assert abs(lhs - rhs) < 1e-12

    def test_route_consistency(self):
        for tau in (1j, 0.3 + 0.8j):
            dmin = lattice_min(tau)
            for frac in (0.1, 0.25, 0.39):
                z = frac * dmin * cmath.exp(0.7j)
                a = prime_form(tau, z, route="series")
                b = prime_form(tau, z, route="theta")
                assert abs(a - b) < 1e-10

    def test_series_route_reads_only_the_weights_it_needs(self, count_calls):
        # the tail test certifies at weight 20 for |z|/D = 0.2: E_2..E_20
        counts = count_calls("eisenstein_q")
        prime_form(1j, 1 + 0.8j)
        assert counts == {"eisenstein_q": 10}

    def test_series_route_overflow_is_typed(self):
        # near its radius the series reads E_k past the table's cap (weight
        # about 620 at 0.95 D): on a skewed torus its exponent would leave
        # the double range, at tau = i E_k underflows while z^k overflows
        # (NaN); the theta route gives -1.42+1.58i and -4.90+10.22i there
        for tau, arg in ((0.2 + 0.4j, 2.1), (1j, 0.7)):
            z = 0.95 * lattice_min(tau) * cmath.exp(arg * 1j)
            with pytest.raises(RangeOverflowError):
                prime_form(tau, z, route="series")

    def test_series_route_radius_guard(self):
        with pytest.raises(InvalidArgumentError):
            prime_form(1j, 10.0, route="series")


class TestTorus:
    """One Torus serves every consumer of an evaluation; what it returns must
    not depend on which consumer grew its E_k table first."""

    OPS = {
        "eisenstein": lambda t, w: t.eisenstein(30),
        "eisenstein_dtau": lambda t, w: t.eisenstein_dtau(30),
        "weierstrass": lambda t, w: t.weierstrass(20, w),
        "prime_form": lambda t, w: t.prime_form(w),
    }

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.25j], ids=["fundamental", "skewed"])
    @pytest.mark.parametrize("route", ["laurent", "qz"])
    def test_shared_equals_fresh_in_any_order(self, tau, route):
        dmin = lattice_min(tau)
        if route == "laurent":
            w = 0.3 * dmin * cmath.exp(0.4j)
        else:
            w = TWO_PI_I * (0.5 * tau + 0.5)  # a half period, far from the lattice
        assert (abs(reduce_mod_lattice(tau, w)[0]) < 0.5 * dmin) == (route == "laurent")
        fresh = {name: op(elliptic.Torus(tau), w) for name, op in self.OPS.items()}
        names = list(self.OPS)
        # each consumer asked first, and each asked before and after the others
        orders = [names[i:] + names[:i] for i in range(len(names))]
        for order in orders + [o[::-1] for o in orders]:
            t = elliptic.Torus(tau)
            for name in order:
                assert self.OPS[name](t, w) == fresh[name], (order, name)

    def test_wrappers_read_a_fresh_torus(self):
        tau, w = 0.3 + 0.25j, 0.2 - 0.1j
        t = elliptic.Torus(tau)
        assert eisenstein_range(24, tau) == t.eisenstein(24)
        assert weierstrass_range(12, tau, w) == t.weierstrass(12, w)
        assert prime_form(tau, w) == t.prime_form(w)


class TestEta:
    def test_theta1_and_eta_searches_start_at_or_below_their_stops(self, searches):
        # each guess solves the tail test with a nonnegative term dropped,
        # so it bounds the stop from below and no search gallops from 0
        rng = random.Random(38)
        for _ in range(200):
            tau = complex(rng.uniform(-2.0, 2.0), 10 ** rng.uniform(-1.0, 0.5))
            elliptic.theta1(tau, complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)))
            dedekind_eta(tau)
        assert len(searches) == 600
        assert all(args[3] <= stop for args, stop in searches)

    def test_value_at_i(self):
        # Gamma(1/4) / (2 pi^(3/4)), and the direct truncated-product oracle
        closed = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
        assert abs(dedekind_eta(1j) - closed) < 1e-12
        q = cmath.exp(-2 * math.pi)
        prod = cmath.exp(-2 * math.pi / 24)
        for n in range(1, 60):
            prod *= 1 - q**n
        assert abs(dedekind_eta(1j) - prod) < 1e-13

    def test_leading_factor_large_im(self):
        tau = 40j
        assert abs(dedekind_eta(tau) - cmath.exp(TWO_PI_I * tau / 24)) < 1e-14

    def test_conjugation_symmetry(self):
        # |eta| at +-Re tau agree (real q-product structure)
        for re in (0.3, 0.17):
            a = dedekind_eta(complex(re, 1.1))
            b = dedekind_eta(complex(-re, 1.1))
            assert abs(abs(a) - abs(b)) < 1e-13


class TestMomentCoefficients:
    def test_c_11_is_e2(self):
        tau = 0.3 + 0.9j
        assert abs(c_coeff(1, 1, tau) - eisenstein(2, tau)) < 1e-14

    def test_c_12_vanishes(self):
        assert c_coeff(1, 2, 1j) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10))
    def test_c_symmetric(self, k, l):
        tau = 0.1 + 1.0j
        assert abs(c_coeff(k, l, tau) - c_coeff(l, k, tau)) < 1e-12

    def test_d_11_is_p2(self):
        tau, z = 1j, 0.7 + 0.1j
        assert abs(d_coeff(1, 1, tau, z) - weierstrass_p(2, tau, z)) < 1e-13

    def test_d_21_is_minus_two_p3(self):
        tau, z = 1j, 0.7 + 0.1j
        assert abs(d_coeff(2, 1, tau, z) + 2 * weierstrass_p(3, tau, z)) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8))
    def test_d_graded_antisymmetric(self, k, l):
        tau, z = 0.2 + 1.1j, 0.5 + 0.4j
        lhs = d_coeff(k, l, tau, z)
        rhs = (-1) ** (k + l) * d_coeff(l, k, tau, z)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))

    def test_factorial_range_error(self):
        with pytest.raises(RangeOverflowError):
            c_coeff(600, 600, 1j)
