"""Newton inversion in both charts: seeded round trips with their objective
counts, explicit seeds, the Jacobian formed only for a step, and the trace a
failed solve carries."""

import cmath
import math
import random

import numpy as np
import pytest

from g2sew import (
    ChiPoint,
    ConvergenceError,
    EpsPoint,
    PeriodMatrix,
    chi_period,
    in_domain_rho,
    invert_chi,
    invert_eps,
    lattice_min,
    period_matrix_eps,
)
from g2sew import epsilon as eps_mod
from g2sew import rho as rho_mod

ROUND_TRIP = 1e-9  # acceptance criterion 9
NEWTON_TOL = 1e-11


def fundamental_tau(rng: random.Random) -> complex:
    """|Re tau| <= 1/2, |tau| >= 1, Im tau <= 2."""
    x = rng.uniform(-0.5, 0.5)
    lo = math.sqrt(1.0 - x * x)
    return complex(x, rng.uniform(lo, 2.0))


def eps_case(rng: random.Random, lo: float, hi: float) -> EpsPoint:
    tau1, tau2 = fundamental_tau(rng), fundamental_tau(rng)
    bound = 0.25 * lattice_min(tau1) * lattice_min(tau2)
    return EpsPoint(tau1, tau2, rng.uniform(lo, hi) * bound * cmath.exp(2j * math.pi * rng.random()))


def chi_case(rng: random.Random, hi: float) -> ChiPoint:
    """A chi-chart point whose rho-domain margin is at most hi."""
    while True:
        c = ChiPoint(fundamental_tau(rng), rng.uniform(0.03, 0.6) * cmath.exp(2j * math.pi * rng.random()),
                     rng.uniform(0.02, 0.2) * cmath.exp(2j * math.pi * rng.random()))
        if in_domain_rho(c.rho_point()).margin <= hi:
            return c


@pytest.fixture
def objective_log(monkeypatch):
    """Wraps the Newton solver of both charts; returns the live list of one
    entry per objective evaluation: [point, times its Jacobian was formed]."""
    log = []

    def wrap(newton):
        def traced(f, *args, **kwargs):
            def g(x):
                entry = [np.array(x), 0]
                log.append(entry)
                res, jac = f(x)

                def counted():
                    entry[1] += 1
                    return jac()

                return res, counted

            return newton(g, *args, **kwargs)

        return traced

    monkeypatch.setattr(eps_mod, "_newton", wrap(eps_mod._newton))
    monkeypatch.setattr(rho_mod, "_newton", wrap(rho_mod._newton))
    return log


def _diff(a, b, fields) -> float:
    return max(abs(getattr(a, f) - getattr(b, f)) for f in fields)


class TestSeededRoundTrips:
    # (lowest margin, highest margin, most objective evaluations or None)
    @pytest.mark.parametrize("lo, hi, most", [
        (0.02, 0.16, 2), (0.16, 0.3, 3), (0.3, 0.6, None)],
        ids=["near", "far", "margin-0.6"])
    def test_eps(self, lo, hi, most, objective_log):
        rng = random.Random(f"eps:{lo}")
        for _ in range(12):
            p = eps_case(rng, lo, hi)
            target = period_matrix_eps(p, 16)
            objective_log.clear()
            q = invert_eps(target, newton_tol=NEWTON_TOL, n=16)
            assert _diff(q, p, ("tau1", "tau2", "eps")) < ROUND_TRIP, p
            if most is not None:
                assert len(objective_log) <= most, p

    @pytest.mark.parametrize("hi", [0.3, 0.6])
    def test_chi(self, hi, objective_log):
        rng = random.Random(f"chi:{hi}")
        for _ in range(12):
            c = chi_case(rng, hi)
            target = chi_period(c, 12)
            objective_log.clear()
            x = invert_chi(target, newton_tol=NEWTON_TOL, n=12)
            assert _diff(x, c, ("tau", "w", "chi")) < ROUND_TRIP, c
            assert len(objective_log) <= 3, c


class TestSeedsAndJacobians:
    def test_explicit_seed_is_used_as_given(self, objective_log, monkeypatch):
        def refused(*args):
            raise AssertionError("an explicit seed is not refined")

        monkeypatch.setattr(eps_mod, "_refined_eps_seed", refused)
        monkeypatch.setattr(rho_mod, "_refined_chi_seed", refused)
        p = EpsPoint(1j, 2j, 0.3)
        seed = EpsPoint(1.001j, 1.999j, 0.31)
        q = invert_eps(period_matrix_eps(p, 12), seed=seed, newton_tol=NEWTON_TOL)
        assert np.array_equal(objective_log[0][0], [seed.tau1, seed.tau2, seed.eps])
        assert _diff(q, p, ("tau1", "tau2", "eps")) < ROUND_TRIP
        objective_log.clear()
        c = ChiPoint(1j, 0.3, 0.05)
        cseed = ChiPoint(1.001j, 0.29, 0.051)
        x = invert_chi(chi_period(c, 12), seed=cseed, newton_tol=NEWTON_TOL)
        assert np.array_equal(objective_log[0][0], [cseed.tau, cseed.w, cseed.chi])
        assert _diff(x, c, ("tau", "w", "chi")) < ROUND_TRIP

    @pytest.mark.parametrize("chart", ["eps", "chi"])
    def test_jacobian_once_per_step_and_never_at_the_answer(self, chart, objective_log):
        # every trial here is accepted at lam = 1, so each evaluated point but
        # the last starts one step and forms its J once; the last is returned
        if chart == "eps":
            p = EpsPoint(0.2 + 1.1j, -0.1 + 1.4j, 0.25 * 2.0 * cmath.exp(0.8j))
            x = invert_eps(period_matrix_eps(p, 16), newton_tol=NEWTON_TOL, n=16)
            got = [x.tau1, x.tau2, x.eps]
        else:
            c = ChiPoint(0.1 + 1.2j, 0.3 * cmath.exp(0.4j), 0.1 * cmath.exp(-1.1j))
            x = invert_chi(chi_period(c, 12), newton_tol=NEWTON_TOL, n=12)
            got = [x.tau, x.w, x.chi]
        assert len(objective_log) >= 2
        assert [formed for _, formed in objective_log] == [1] * (len(objective_log) - 1) + [0]
        assert np.array_equal(objective_log[-1][0], got)

    def test_failed_solve_carries_its_steps(self):
        # no solve reaches a zero residual in floats: the line search fails
        # once rounding stops the residual falling, after the steps it took
        target = period_matrix_eps(EpsPoint(1j, 2j, 0.3), 12)
        with pytest.raises(ConvergenceError) as err:
            invert_eps(target, newton_tol=0.0)
        steps = err.value.steps
        assert steps and all(0.0 < lam <= 1.0 for _, lam in steps)
        residuals = [res for res, _ in steps]
        assert residuals == sorted(residuals, reverse=True)
        assert err.value.last_residual == residuals[-1]

    def test_fixed_points_skip_the_seed_passes(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a fixed point takes no seed pass")

        monkeypatch.setattr(eps_mod, "_refined_eps_seed", refused)
        monkeypatch.setattr(rho_mod, "_refined_chi_seed", refused)
        assert invert_eps(PeriodMatrix(1j, 0.0, 2j)) == EpsPoint(1j, 2j, 0j)
        assert invert_chi(PeriodMatrix(1j, 0.0, 0.3j)).w == 0
