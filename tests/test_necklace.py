"""Necklace sums as (I - M)^-1 truncated by parameter order: the graded
walk sum against a brute-force walk enumeration, and both necklace routes
against their matrix routes."""

from fractions import Fraction

import numpy as np
import pytest

from g2sew import (
    EpsPoint,
    InvalidArgumentError,
    RhoPoint,
    necklace_period_eps,
    necklace_period_rho,
    neumann_id_minus,
    period_matrix_eps,
    period_matrix_rho,
)

RNG = np.random.default_rng(8080)


def walk_sum(m, rhs, order):
    """sum over walks i -> ... -> j through M of their edge weights times
    rhs[j], for every walk whose edges (k,l) total (k+l)/2 <= order, by
    recursion over the next edge; labels run 1..N in each half of M."""
    size = m.shape[0]
    label = np.arange(size) % (size // 2) + 1
    out = np.zeros_like(rhs)

    def extend(start, i, weight, doubled):
        out[start] += weight * rhs[i]
        for l in range(size):
            cost = label[i] + label[l]
            if doubled + cost <= 2 * order:
                extend(start, l, weight * m[i, l], doubled + cost)

    for i in range(size):
        extend(i, i, 1, 0)
    return out


class TestNeumannIdMinus:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_matches_walk_enumeration(self, n, order):
        m = RNG.normal(size=(2 * n, 2 * n)) + 1j * RNG.normal(size=(2 * n, 2 * n))
        rhs = RNG.normal(size=(2 * n, 2)) + 1j * RNG.normal(size=(2 * n, 2))
        want = walk_sum(m, rhs, order)
        tol = 1e-14 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(neumann_id_minus(m, rhs, order) - want)) < tol
        # one right-hand side at a time
        assert np.max(np.abs(neumann_id_minus(m, rhs[:, 0], order) - want[:, 0])) < tol
        # exact entries: Fractions in object arrays, summed with no rounding
        m_q = np.vectorize(Fraction, otypes=[object])(RNG.integers(-9, 10, size=m.shape), 7)
        rhs_q = np.vectorize(Fraction, otypes=[object])(RNG.integers(-9, 10, size=rhs.shape), 5)
        assert (neumann_id_minus(m_q, rhs_q, order) == walk_sum(m_q, rhs_q, order)).all()
        # integer entries are summed as complex, with no int64 wraparound
        m_i = RNG.integers(-9, 10, size=m.shape)
        rhs_i = RNG.integers(-9, 10, size=rhs.shape)
        got = neumann_id_minus(m_i, rhs_i, order)
        assert got.dtype == complex
        assert (got == walk_sum(m_i.astype(object), rhs_i.astype(object), order)).all()

    @pytest.mark.parametrize("m, rhs, order", [
        (np.zeros((3, 3)), np.zeros(3), 2),   # odd size
        (np.zeros((4, 2)), np.zeros(4), 2),   # not square
        (np.zeros((4, 4)), np.zeros(2), 2),   # rhs rows
        (np.zeros((4, 4)), np.zeros(4), -1),  # negative order
        (np.zeros((4, 4)), np.zeros(4), 2.5),  # non-integral order
    ])
    def test_rejects_bad_shapes_and_orders(self, m, rhs, order):
        with pytest.raises(InvalidArgumentError):
            neumann_id_minus(m, rhs, order)


class TestNecklaceRoutes:
    def test_no_linear_solve(self, count_calls):
        counts = count_calls("solve_id_minus")
        necklace_period_eps(EpsPoint(1j, 2j, 0.1), 8)
        necklace_period_rho(RhoPoint(1j, 1 + 0.8j, 0.01), 6)
        assert counts == {"solve_id_minus": 0}

    def test_high_order_eps(self):
        p = EpsPoint(1j, 2j, 0.1)
        assert necklace_period_eps(p, 20).max_abs_diff(period_matrix_eps(p, 24)) < 1e-12

    def test_high_order_rho(self):
        p = RhoPoint(1j, 1 + 0.8j, 0.01)
        assert necklace_period_rho(p, 12).max_abs_diff(period_matrix_rho(p, 24)) < 1e-12
