"""Moment-matrix construction, X-block relations, determinant identities."""

import cmath
import math

import numpy as np
import pytest

from g2sew import (
    InvalidArgumentError,
    NearDegenerateError,
    RangeOverflowError,
    a_matrix,
    beta_vector,
    det_id_minus,
    det_id_minus_product,
    eisenstein,
    r_matrix,
    solve_id_minus,
    sphere_moments,
    truncated_product,
    weierstrass_p,
    x_blocks,
)
from g2sew.moments import BlockMomentMatrix, MomentMatrix

RNG = np.random.default_rng(20240817)


class TestAMatrix:
    def test_display_entries(self):
        tau, eps = 0.3 + 0.9j, 0.2 + 0.1j
        a = a_matrix(tau, eps, 4).entries
        e = {k: eisenstein(k, tau) for k in (2, 4, 6, 8)}
        assert abs(a[0, 0] - eps * e[2]) < 1e-13
        assert a[0, 1] == 0
        assert abs(a[0, 2] - math.sqrt(3) * eps**2 * e[4]) < 1e-13
        assert abs(a[1, 1] + 3 * eps**2 * e[4]) < 1e-13
        assert abs(a[1, 3] + 5 * math.sqrt(2) * eps**3 * e[6]) < 1e-12
        assert abs(a[2, 2] - 10 * eps**3 * e[6]) < 1e-12
        assert abs(a[3, 3] + 35 * eps**4 * e[8]) < 1e-12

    def test_symmetric(self):
        a = a_matrix(0.1 + 1.3j, 0.4, 9).entries
        assert np.max(np.abs(a - a.T)) < 1e-14

    def test_odd_index_sum_vanishes(self):
        a = a_matrix(1j, 0.5, 6).entries
        for k in range(6):
            for l in range(6):
                if (k + l) % 2 == 1:  # (k+1)+(l+1) odd
                    assert a[k, l] == 0


class TestRMatrixAndBeta:
    tau, w, rho = 0.2 + 1.1j, 1.3 + 0.4j, 0.015 + 0.01j

    def test_block_entries(self):
        r = r_matrix(self.tau, self.w, self.rho, 3)
        e2 = eisenstein(2, self.tau)
        p2 = weierstrass_p(2, self.tau, self.w)
        assert abs(r.block(1, 2)[0, 0] + self.rho * e2) < 1e-13
        assert abs(r.block(1, 1)[0, 0] + self.rho * p2) < 1e-13

    def test_block_symmetry(self):
        # R_ab(k,l) = R_(bbar)(abar)(l,k)
        n = 5
        r = r_matrix(self.tau, self.w, self.rho, n)
        bar = {1: 2, 2: 1}
        for a in (1, 2):
            for b in (1, 2):
                lhs = r.block(a, b)
                rhs = r.block(bar[b], bar[a]).T
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_beta_entries_and_signs(self):
        n = 6
        beta = beta_vector(self.tau, self.w, self.rho, n)
        sr = cmath.sqrt(self.rho)
        p1 = weierstrass_p(1, self.tau, self.w)
        assert abs(beta.block(1)[0] + sr * p1) < 1e-13
        e2 = eisenstein(2, self.tau)
        p2 = weierstrass_p(2, self.tau, self.w)
        assert abs(beta.block(2)[1] - self.rho * (p2 - e2) / math.sqrt(2)) < 1e-13
        for k in range(1, n + 1):
            lhs = beta.block(2)[k - 1]
            rhs = (-1) ** (k + 1) * beta.block(1)[k - 1]
            assert abs(lhs - rhs) < 1e-15

    def test_barred_swaps_blocks(self):
        beta = beta_vector(self.tau, self.w, self.rho, 4)
        bb = beta.barred()
        assert np.array_equal(bb.block(1), beta.block(2))
        assert np.array_equal(bb.block(2), beta.block(1))


class TestSphereMoments:
    def test_entries(self):
        chi = 0.07 + 0.02j
        r0, b0 = sphere_moments(chi, 4)
        b = -r0.block(1, 1)
        assert abs(b[0, 0] + chi) < 1e-15          # B(1,1) = -chi
        assert np.max(np.abs(r0.block(1, 2))) == 0  # A-block vanishes
        assert np.max(np.abs(r0.block(2, 1))) == 0
        assert np.max(np.abs(r0.block(2, 2) + b.T)) < 1e-15
        sc = cmath.sqrt(-chi)
        assert abs(b0.block(1)[0] + sc) < 1e-15
        assert abs(b0.block(2)[0] + sc) < 1e-15


class TestSolveIdMinus:
    def test_zero_matrix(self):
        rhs = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        assert np.allclose(solve_id_minus(np.zeros((5, 5)), rhs), rhs)

    def test_nilpotent_neumann(self):
        m = np.array([[0.0, 0.7], [0.0, 0.0]], dtype=complex)
        rhs = np.array([1.0, 2.0], dtype=complex)
        expect = (np.eye(2) + m) @ rhs
        assert np.allclose(solve_id_minus(m, rhs), expect, atol=1e-14)

    def test_neumann_series_oracle(self):
        m = (RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8)))
        m *= 0.4 / max(abs(np.linalg.eigvals(m)))
        rhs = RNG.normal(size=8) + 1j * RNG.normal(size=8)
        acc = rhs.copy()
        term = rhs.copy()
        for _ in range(60):
            term = m @ term
            acc += term
        assert np.max(np.abs(solve_id_minus(m, rhs) - acc)) < 1e-12

    def test_singular_reports_sigma(self):
        with pytest.raises(NearDegenerateError) as exc:
            solve_id_minus(np.eye(3), np.ones(3))
        assert exc.value.smallest_singular_value is not None
        assert exc.value.smallest_singular_value < 1e-12


class TestXBlocks:
    def test_sphere_attachment_structure(self):
        # A2 = 0 forces X11 = A1 and all other blocks to vanish
        a1 = a_matrix(1j, 0.3, 8)
        a2 = MomentMatrix(8, np.zeros((8, 8), dtype=complex))
        x11, x12, x21, x22 = x_blocks(a1, a2)
        assert np.max(np.abs(x11 - a1.entries)) < 1e-14
        assert np.max(np.abs(x12)) == 0
        assert np.max(np.abs(x21)) == 0
        assert np.max(np.abs(x22)) == 0

    def test_all_zero(self):
        z = MomentMatrix(5, np.zeros((5, 5), dtype=complex))
        for x in x_blocks(z, z):
            assert np.max(np.abs(x)) == 0

    def test_fixed_point_relation(self):
        # X = A + QX with A = diag(A1,A2), Q = [[0,-A1],[-A2,0]]
        n = 6
        a1 = a_matrix(1j, 0.2 + 0.3j, n)
        a2 = a_matrix(0.2 + 0.8j, 0.2 + 0.3j, n)
        x11, x12, x21, x22 = x_blocks(a1, a2)
        x = np.block([[x11, x12], [x21, x22]])
        a = np.block([[a1.entries, np.zeros((n, n))],
                      [np.zeros((n, n)), a2.entries]])
        q = np.block([[np.zeros((n, n)), -a1.entries],
                      [-a2.entries, np.zeros((n, n))]])
        assert np.max(np.abs(x - (a + q @ x))) < 1e-12

    def test_one_solve_matches_two_solves(self):
        # the push-through identities hold for non-symmetric A1, A2 too
        rng = np.random.default_rng(20261018)
        n = 6
        eye = np.eye(n)
        for _ in range(10):
            m1, m2 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                      for _ in range(2))
            m1 *= 0.5 / np.linalg.norm(m1, 2)
            m2 *= 0.5 / np.linalg.norm(m2, 2)
            inv_12 = np.linalg.solve(eye - m1 @ m2, eye)
            inv_21 = np.linalg.solve(eye - m2 @ m1, eye)
            expect = (m1 @ inv_21, eye - inv_12, eye - inv_21, m2 @ inv_12)
            got = x_blocks(MomentMatrix(n, m1), MomentMatrix(n, m2))
            for x, y in zip(got, expect):
                assert np.max(np.abs(x - y)) < 1e-12


class TestDeterminants:
    def test_zero_factor(self):
        a1 = MomentMatrix(6, np.zeros((6, 6), dtype=complex))
        a2 = a_matrix(1j, 0.3, 6)
        res = det_id_minus_product(a1, a2)
        assert res.det == 1

    def test_zero_block(self):
        r = BlockMomentMatrix(4, np.zeros((8, 8), dtype=complex))
        assert det_id_minus(r).det == 1

    def test_log_det_reconciles_and_exponentiates(self):
        a1 = a_matrix(1j, 0.6, 10)
        a2 = a_matrix(0.3 + 1.2j, 0.6, 10)
        res = det_id_minus_product(a1, a2)
        assert res.reconciled
        assert abs(cmath.exp(res.log_det) - res.det) < 1e-10 * abs(res.det)

    def test_log_det_on_the_series_branch_across_a_row_swap(self):
        # pivoting swaps the rows of I - R; the trace-log series converges
        # to log 0.25, and the log det must sit on its branch, not 2pi*i off
        res = det_id_minus(BlockMomentMatrix(1, np.array([[0.5, 0], [5, 0.5]], dtype=complex)))
        assert res.reconciled
        assert abs(res.det - 0.25) < 1e-15
        assert abs(res.log_det - math.log(0.25)) < 1e-12

    def test_overflow_is_typed(self):
        with pytest.raises(RangeOverflowError):
            det_id_minus(BlockMomentMatrix(1, np.diag([1e200, 1e200]).astype(complex)))

    def test_det_q_block_identity(self):
        # det(I +- Q) = det(I - A1 A2)
        n = 10
        a1 = a_matrix(1j, 0.5 + 0.2j, n)
        a2 = a_matrix(0.3 + 1.2j, 0.5 + 0.2j, n)
        d = det_id_minus_product(a1, a2).det
        for sign in (+1, -1):
            q = np.block([[np.zeros((n, n)), -a1.entries],
                          [-a2.entries, np.zeros((n, n))]])
            dq = np.linalg.det(np.eye(2 * n) - sign * q)
            assert abs(dq - d) < 1e-10

    def test_det_q_squared_is_t_squared(self):
        n = 8
        a1 = a_matrix(0.2 + 0.9j, 0.35, n)
        a2 = a_matrix(2j, 0.35, n)
        q = np.block([[np.zeros((n, n)), -a1.entries],
                      [-a2.entries, np.zeros((n, n))]])
        lhs = np.linalg.det(np.eye(2 * n) - q @ q)
        rhs = np.linalg.det(np.eye(n) - a1.entries @ a2.entries) ** 2
        assert abs(lhs - rhs) < 1e-12

    def test_truncated_product_structure(self):
        # T_N(k,l) sums m <= N - (k+l)/2 and sits in a (2N-3)-sized square
        n_eps = 5
        a1 = a_matrix(1j, 0.3, 7)
        a2 = a_matrix(2j, 0.3, 7)
        t = truncated_product(a1, a2, n_eps)
        assert t.shape == (7, 7)
        full = a1.entries @ a2.entries
        assert abs(t[0, 0] - sum(a1.entries[0, m] * a2.entries[m, 0]
                                 for m in range(4))) < 1e-15
        # high-index corner entries truncate to empty sums
        assert t[6, 6] == 0 and abs(full[6, 6]) > 0

    def test_truncated_det_matches_full_to_declared_order(self):
        # index-dependent truncation keeps the determinant exact through eps^N
        tau1, tau2 = 1j, 0.4 + 1.1j
        n_eps = 5

        def dets(eps):
            a1, a2 = a_matrix(tau1, eps, 12), a_matrix(tau2, eps, 12)
            d_t = det_id_minus_product(a1, a2, n_eps).det
            d_full = det_id_minus_product(a1, a2).det
            return abs(d_t - d_full)

        r1, r2 = dets(0.8), dets(0.4)
        assert r1 / r2 > 2 ** (n_eps - 1)  # residual at least O(eps^(N+1))

    def test_incompatible_orders_rejected(self):
        a1 = a_matrix(1j, 0.3, 5)
        a2 = a_matrix(1j, 0.3, 6)
        with pytest.raises(InvalidArgumentError):
            det_id_minus_product(a1, a2)


class TestBranchFlipInvariance:
    def test_moment_data_flip(self):
        # the period combinations carry integer powers only
        tau, w, rho = 0.2 + 1.1j, 1.3 + 0.4j, 0.02 + 0.01j
        n = 8
        rp = r_matrix(tau, w, rho, n, half_power_sign=1)
        rm = r_matrix(tau, w, rho, n, half_power_sign=-1)
        bp = beta_vector(tau, w, rho, n, half_power_sign=1)
        bm = beta_vector(tau, w, rho, n, half_power_sign=-1)
        eye = np.eye(2 * n)
        contract_p = bp.flat @ np.linalg.solve(eye - rp.flat, bp.barred().flat)
        contract_m = bm.flat @ np.linalg.solve(eye - rm.flat, bm.barred().flat)
        assert abs(contract_p - contract_m) < 1e-12

    def test_power_counting_of_chains(self):
        # leading eps-order of (A1 A2)^n (1,1) is eps^(2n)
        tau1, tau2 = 1j, 0.4 + 0.9j
        for n_pow in (1, 2, 3):
            def val(eps):
                m = (a_matrix(tau1, eps, 8).entries
                     @ a_matrix(tau2, eps, 8).entries)
                return abs(np.linalg.matrix_power(m, n_pow)[0, 0])
            slope = math.log2(val(0.5) / val(0.25))
            assert slope == pytest.approx(2 * n_pow, abs=0.2)
