"""Newton inversion in both charts: seeded round trips with their objective
counts, the eps continuation fallback at large margins, explicit seeds, the
Jacobian formed only for a step, and the trace a failed solve carries."""

import cmath
import math
import random

import numpy as np
import pytest

from g2sew import (
    DEFAULT_TOL,
    ChiPoint,
    ConvergenceError,
    DomainError,
    EpsPoint,
    PeriodMatrix,
    SewingError,
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
    # (lowest margin, highest margin, most objective evaluations)
    @pytest.mark.parametrize("lo, hi, most", [
        (0.02, 0.16, 2), (0.16, 0.3, 2), (0.3, 0.6, 4)],
        ids=["near", "far", "margin-0.6"])
    def test_eps(self, lo, hi, most, objective_log):
        rng = random.Random(f"eps:{lo}")
        for _ in range(12):
            p = eps_case(rng, lo, hi)
            target = period_matrix_eps(p, 16)
            objective_log.clear()
            q = invert_eps(target, newton_tol=NEWTON_TOL, n=16)
            assert _diff(q, p, ("tau1", "tau2", "eps")) < ROUND_TRIP, p
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


class TestLargeMargins:
    """30 eps images per margin up to 0.95 of the sharp bound, on fundamental
    tori with 0.8 <= Im tau <= 2.5: the auto-seeded solve alone, and with
    the continuation fallback for the targets where it fails."""

    MARGINS = (0.3, 0.6, 0.8, 0.9, 0.95)
    DIRECT = [30, 30, 26, 23, 21]  # solved by the auto-seeded solve alone
    SOLVED = [30, 30, 30, 30, 30]

    @staticmethod
    def images():
        rng = random.Random(7)

        def tau():
            while True:
                t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.5))
                if abs(t) >= 1.0:
                    return t

        for margin in TestLargeMargins.MARGINS:
            for _ in range(30):
                tau1, tau2 = tau(), tau()
                bound = 0.25 * lattice_min(tau1) * lattice_min(tau2)
                p = EpsPoint(tau1, tau2, margin * bound * cmath.exp(2j * math.pi * rng.random()))
                yield margin, p, period_matrix_eps(p, 16)

    def test_round_trip_or_typed_error(self, objective_log):
        direct = dict.fromkeys(self.MARGINS, 0)
        solved = dict.fromkeys(self.MARGINS, 0)
        for margin, p, target in self.images():
            # an explicit seed never falls back, so this is the direct solve
            objective_log.clear()
            try:
                invert_eps(target, seed=eps_mod._refined_eps_seed(target, DEFAULT_TOL),
                           newton_tol=NEWTON_TOL, n=16)
                direct[margin] += 1
                ok = True
            except SewingError:
                ok = False
            evals = len(objective_log)
            objective_log.clear()
            try:
                q = invert_eps(target, newton_tol=NEWTON_TOL, n=16)
            except SewingError:
                pass
            else:
                assert _diff(q, p, ("tau1", "tau2", "eps")) < ROUND_TRIP, p
                solved[margin] += 1
            # a direct solve that succeeds is the whole solve; one that fails
            # is followed by the continuation's evaluations
            if ok:
                assert len(objective_log) == evals, p
            else:
                assert len(objective_log) > evals, p
        assert list(direct.values()) == self.DIRECT
        assert list(solved.values()) == self.SOLVED

    def test_failed_fallback_raises_the_direct_error(self, monkeypatch):
        raised = []
        solve = eps_mod._solve_eps

        def recorded(*args):
            try:
                return solve(*args)
            except SewingError as err:
                raised.append(err)
                raise

        # every seed lands outside D^eps, so each solve fails at its first point
        monkeypatch.setattr(eps_mod, "_solve_eps", recorded)
        monkeypatch.setattr(eps_mod, "_refined_eps_seed", lambda t, tol: EpsPoint(1j, 1j, 20.0))
        with pytest.raises(DomainError) as err:
            invert_eps(period_matrix_eps(EpsPoint(1j, 2j, 0.3), 12))
        assert len(raised) == 2 and err.value is raised[0]

    def test_explicit_seed_never_falls_back(self, objective_log):
        with pytest.raises(DomainError):
            invert_eps(period_matrix_eps(EpsPoint(1j, 2j, 0.3), 12), seed=EpsPoint(1j, 1j, 20.0))
        assert len(objective_log) == 1


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
        # the last starts one step and forms its J once; the last is returned.
        # The eps point sits at margin 0.41, where the seed is two steps out
        # (nearer in, it is already within newton_tol and no step is taken)
        if chart == "eps":
            p = EpsPoint(0.2 + 1.1j, -0.1 + 1.4j, 4.0 * cmath.exp(0.8j))
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

    def test_a_correction_that_is_not_finite_ends_the_passes(self, monkeypatch):
        # a model Om12 of 0 leaves the eps pass's ratio r without a value:
        # the passes end after the first model call, at the leading seed
        target = period_matrix_eps(EpsPoint(1j, 2j, 0.3), 12)
        calls = []

        def flat_model(p, n, tol):
            calls.append(n)
            return PeriodMatrix(p.tau1, 0j, p.tau2), None

        monkeypatch.setattr(eps_mod, "_period_eps", flat_model)
        seed = eps_mod._refined_eps_seed(target, DEFAULT_TOL)
        assert seed == eps_mod._eps_seed(target, DEFAULT_TOL)
        assert calls == [eps_mod._SEED_ORDER]

    def test_fixed_points_skip_the_seed_passes(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a fixed point takes no seed pass")

        monkeypatch.setattr(eps_mod, "_refined_eps_seed", refused)
        monkeypatch.setattr(rho_mod, "_refined_chi_seed", refused)
        assert invert_eps(PeriodMatrix(1j, 0.0, 2j)) == EpsPoint(1j, 2j, 0j)
        assert invert_chi(PeriodMatrix(1j, 0.0, 0.3j)).w == 0
