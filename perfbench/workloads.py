"""The four workloads: seeded input streams, the timed op, the output check.

Every workload is a closed loop with one client.  Op ``k`` has kind
``k % len(KINDS)`` and draws its continuous parameters from point ``k // len(KINDS)``
of a randomly shifted R_d low-discrepancy sequence, one sequence per kind,
shifted by the seed.  So any whole number of rounds holds the same mix of
kinds and an evenly spread set of parameters whatever the seed, which keeps
per-run figures steady without any input repeating.

A workload object is built on an imported ``g2sew`` package and looks every
library function up on its module at call time, so wrappers that the tracer
installs are seen and removed wrappers are not.
"""

from __future__ import annotations

import cmath
import csv
import importlib
import math
import random

TWO_PI = 2.0 * math.pi
ROUTES = ("laurent", "qz")  # the two ways P_k(tau, w) is summed
_FD_IM_MAX = 2.0  # the fundamental domain is cut off at Im tau = 2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


def _rd_alpha(d: int) -> list[float]:
    """Generator of the R_d sequence: powers of 1/phi_d, phi_d^(d+1) = phi_d + 1."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return [(1.0 / phi) ** (j + 1) % 1.0 for j in range(d)]


class Stream:
    """Points of [0,1)^d: the R_d sequence under a seeded random shift."""

    def __init__(self, rng: random.Random, d: int):
        self.alpha = _rd_alpha(d)
        self.shift = [rng.random() for _ in range(d)]

    def point(self, j: int) -> list[float]:
        return [(s + j * a) % 1.0 for s, a in zip(self.shift, self.alpha)]


def fd_tau(u: float, v: float) -> complex:
    """Standard fundamental domain, |Re| <= 1/2, |tau| >= 1, Im tau <= 2."""
    x = u - 0.5
    lo = math.sqrt(1.0 - x * x)
    return complex(x, lo + v * (_FD_IM_MAX - lo))


def skew_tau(u: float, v: float) -> complex:
    """Skewed or near-real torus: |Re tau| <= 2, Im tau in [0.2, 0.6]."""
    return complex(4.0 * u - 2.0, 0.2 + 0.4 * v)


def lattice_w(tau: complex, a: float, b: float) -> complex:
    """Puncture separation 2*pi*i*(a*tau + b) in the period parallelogram."""
    return 2j * math.pi * (a * tau + b)


# Laurent-route separations stay below 0.38 D.  On skewed tori, where the
# lattice minimum D is small, weierstrass_range(48, ...) raises ValueError or
# OverflowError once |w| passes a threshold below the route switch at 0.5 D:
# about 0.42 D at Im tau = 0.2 (D = 1.26), 0.46 D at D = 1.77, 0.48 D at
# D = 1.92.  Its Eisenstein table grows past 400 entries, and then the
# constant term of E_k underflows or a q-series coefficient overflows a
# float.  That known defect is left out of the inputs so no op fails on it.
_LAURENT_R = (0.05, 0.38)


def puncture(g, tau: complex, route: str, u: float, v: float) -> complex:
    """A puncture separation w whose P_k(tau, w) takes the given route.

    "laurent": |w| = r D (D the lattice minimum) with r^2 uniform over
    _LAURENT_R, so w is its own nearest-point representative, inside D/2.
    "qz": w uniform in the period parallelogram, with the points whose
    nearest-point representative lies inside D/2 skipped.
    """
    dmin = g.lattice_min(tau)
    if route == "laurent":
        lo, hi = _LAURENT_R
        r = math.sqrt(lo * lo + u * (hi * hi - lo * lo))
        return r * dmin * cmath.exp(1j * TWO_PI * v)
    while True:
        w = lattice_w(tau, u, v)
        if g.lattice_distance(tau, w) >= 0.5 * dmin:
            return w
        u, v = (u + _GOLDEN) % 1.0, (v + _SILVER) % 1.0


def sqrt_rho_bound(g, tau: complex, w: complex) -> float:
    """Largest |rho|^(1/2) at which the two sewing discs still fit:
    half the smaller of dist(w, lattice) and the lattice minimum D.

    The program's own test, in_domain_rho, checks only dist(w, lattice).  On
    skewed tori a point can pass it with 2|rho|^(1/2) > D, where a disc
    overlaps its own lattice translates; there the truncated solve returns a
    wrong Omega (Im Omega not positive definite at n = 12) or raises
    NearDegenerateError at higher n.  That known defect is left out of the
    inputs by measuring rho margins against this bound.
    """
    return 0.5 * min(g.lattice_distance(tau, w), g.lattice_min(tau))


def cli_complex(z: complex) -> str:
    """A complex number as the CLI parses it, exact to the last bit."""
    return f"{z.real!r}{z.imag:+}i"


def finite(om) -> bool:
    return all(cmath.isfinite(v) for v in (om.omega11, om.omega12, om.omega22))


def _point_diff(a, b, fields) -> float:
    return max(abs(getattr(a, f) - getattr(b, f)) for f in fields)


class Workload:
    """Base: ``KINDS`` is the op cycle; ``TAIL_PCT`` the reported tail
    percentile; ``MIN_OPS`` the sample count that leaves at least ten
    samples beyond it (a whole number of rounds)."""

    KINDS: tuple = ()
    DIMS = 0
    TAIL_PCT = 90
    MIN_OPS = 100

    def __init__(self, g, seed: int, scratch_dir):
        self.g = g
        self.scratch = scratch_dir
        rng = random.Random(f"{type(self).__name__}:{seed}")
        self.streams = [Stream(rng, self.DIMS) for _ in self.KINDS]
        self.offset = rng.randrange(1000)  # seeded start of discrete cycles

    def draw(self, k: int):
        """Kind, round and parameter point of op ``k``."""
        rnd = len(self.KINDS)
        return self.KINDS[k % rnd], k // rnd, self.streams[k % rnd].point(k // rnd)

    def prepare(self, k: int):
        """Everything the op needs, built before its timer starts."""
        raise NotImplementedError

    def run(self, inp):
        """The timed op."""
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None when the output is correct, else the reason."""
        raise NotImplementedError

    def keys(self, inp) -> list:
        """Torus (or series order) of each evaluation the op requests."""
        raise NotImplementedError

    def warmup(self):
        """One fixed op, the same for every seed."""
        self.run(self.fixed_input())


# ---------------------------------------------------------------- forward


class ForwardScatter(Workload):
    """One period_matrix_eps or period_matrix_rho call on a fresh point."""

    # chart x order x domain class (three rounds in the fundamental domain,
    # one skewed): 16 kinds, half per chart, a quarter of tori skewed
    KINDS = tuple((chart, n, dom) for dom in ("fd", "fd", "fd", "skew")
                  for n in (12, 24) for chart in ("eps", "rho"))
    DIMS = 6
    TAIL_PCT = 91
    MIN_OPS = 112  # 7 rounds of 16
    FULL_CHECK_EVERY = 8  # rounds; the sign-flip and higher-order checks
    EXTRA_ORDER = 12
    # Above order 28 the q_z-route P_k lose their precision: R's entries grow
    # instead of decaying, and at rho margins near 0.9 the (I - R) solve fails
    # its residual test from order 30 or 32 on.  The reference order stops at
    # 28, where no such failure was seen; the timed ops (n <= 24) pass that
    # test.
    REF_ORDER_MAX = 28
    # truncation-aware agreement of order n with the reference: the gap decays
    # like m^(n+1) in the margin m.  Gaps up to 3.4e-4 * m^(n+1) (eps) and
    # 5.5e-8 * m^(n+1) (rho) were seen; the cap keeps a wrong torus or
    # branch (an O(1) change of some entry) detectable.
    TRUNC_CONST = 1e-2
    TRUNC_CAP = 1e-3

    def prepare(self, k):
        (chart, n, dom), j, u = self.draw(k)
        tf = fd_tau if dom == "fd" else skew_tau
        g = self.g
        margin = 0.05 + 0.85 * u[4]
        phase = cmath.exp(1j * TWO_PI * u[5])
        if chart == "eps":
            tau1, tau2 = tf(u[0], u[1]), tf(u[2], u[3])
            bound = 0.25 * g.lattice_min(tau1) * g.lattice_min(tau2)
            p = g.EpsPoint(tau1, tau2, margin * bound * phase)
        else:
            # the P_k route alternates, so both show in every run
            tau = tf(u[0], u[1])
            w = puncture(g, tau, ROUTES[(j + self.offset) % 2], u[2], u[3])
            p = g.RhoPoint(tau, w, (margin * sqrt_rho_bound(g, tau, w)) ** 2 * phase,
                           (-1, 0, 1)[(j + self.offset) % 3])
        full = (j % self.FULL_CHECK_EVERY) == 0
        return chart, n, p, margin, full

    def _eval(self, chart, p, n, half_power_sign=1):
        if chart == "eps":
            return self.g.period_matrix_eps(p, n, half_power_sign=half_power_sign)
        return self.g.period_matrix_rho(p, n, half_power_sign=half_power_sign)

    def run(self, inp):
        chart, n, p, _, _ = inp
        return self._eval(chart, p, n)

    def check(self, inp, out):
        chart, n, p, margin, full = inp
        if not finite(out):
            return "non-finite period matrix"
        if not out.imag_positive_definite():
            return "Im Omega not positive definite"
        if not full:
            return None
        flip = out.max_abs_diff(self._eval(chart, p, n, half_power_sign=-1))
        if not flip < 1e-12:
            return f"half_power_sign=-1 differs by {flip:.3e}"
        ref = min(n + self.EXTRA_ORDER, self.REF_ORDER_MAX)
        gap = out.max_abs_diff(self._eval(chart, p, ref))
        limit = min(self.TRUNC_CONST * margin ** (n + 1), self.TRUNC_CAP) + 1e-11
        if not gap < limit:
            return f"order {n} vs {ref} gap {gap:.3e} > {limit:.3e}"
        return None

    def keys(self, inp):
        chart, _, p, _, _ = inp
        return [(p.tau1, p.tau2) if chart == "eps" else (p.tau, p.w)]

    def fixed_input(self):
        return "eps", 12, self.g.EpsPoint(1j, 2j, 0.1), None, False


# ---------------------------------------------------------------- sweep


class SweepFixedTorus(Workload):
    """One eps sweep then one rho sweep, each a 20-point in-process
    ``g2sew sweep`` call on its own torus, CSV written to a scratch file."""

    # the rho sweep's P_k route, two Laurent to one q_z: a rho sweep costs
    # several times more on the Laurent route, and an even split would put
    # the median op on the gap between the two
    KINDS = ("laurent", "laurent", "qz")
    DIMS = 10
    TAIL_PCT = 72
    MIN_OPS = 36
    COUNT = 20
    ORDER = 12  # the CLI default
    MARGINS = (0.04, 0.8)
    SAMPLED_ROWS = 2  # rows per sweep recomputed by direct library calls

    def __init__(self, g, seed, scratch_dir):
        super().__init__(g, seed, scratch_dir)
        self.cli = importlib.import_module("g2sew.cli")

    def _sweeps(self, tau1, tau2, eps_phase, tau, w, rho_phase):
        g = self.g
        lo, hi = self.MARGINS
        bound = 0.25 * g.lattice_min(tau1) * g.lattice_min(tau2)
        root_bound = sqrt_rho_bound(g, tau, w)
        return (
            ["sweep", "--over", "eps",
             f"--start={cli_complex(lo * bound * eps_phase)}",
             f"--stop={cli_complex(hi * bound * eps_phase)}",
             f"--count={self.COUNT}",
             f"--tau1={cli_complex(tau1)}", f"--tau2={cli_complex(tau2)}",
             f"--output={self.scratch / 'sweep-eps.csv'}"],
            ["sweep", "--over", "rho",
             f"--start={cli_complex((lo * root_bound) ** 2 * rho_phase)}",
             f"--stop={cli_complex((hi * root_bound) ** 2 * rho_phase)}",
             f"--count={self.COUNT}",
             f"--tau={cli_complex(tau)}", f"--w={cli_complex(w)}",
             f"--output={self.scratch / 'sweep-rho.csv'}"],
        )

    def prepare(self, k):
        route, j, u = self.draw(k)
        tau1, tau2, tau = fd_tau(u[0], u[1]), fd_tau(u[2], u[3]), fd_tau(u[5], u[6])
        w = puncture(self.g, tau, route, u[7], u[8])
        argvs = self._sweeps(tau1, tau2, cmath.exp(1j * TWO_PI * u[4]),
                             tau, w, cmath.exp(1j * TWO_PI * u[9]))
        rows = [(j * 7 + self.offset + 11 * r) % self.COUNT
                for r in range(self.SAMPLED_ROWS)]
        return (tau1, tau2, tau, w), argvs, rows

    def run(self, inp):
        _, argvs, _ = inp
        out = []
        for argv in argvs:
            code = self.cli.main(argv)
            # the CSV is the op's output; reading it back is part of the op
            with open(argv[-1].split("=", 1)[1], newline="") as fh:
                out.append((code, fh.read()))
        return out

    def check(self, inp, out):
        (tau1, tau2, tau, w), _, rows = inp
        g = self.g
        tol = g.SeriesTolerance(abs_tol=1e-12)  # the CLI's default --tol
        for over, (code, text) in zip(("eps", "rho"), out):
            if code != 0:
                return f"{over} sweep exited with {code}"
            table = list(csv.reader(text.splitlines()))[1:]
            if len(table) != self.COUNT:
                return f"{over} sweep wrote {len(table)} rows"
            if any(row[-1] != "ok" for row in table):
                return f"{over} sweep row not ok"
            for r in rows:
                row = table[r]
                param = complex(float(row[0]), float(row[1]))
                if over == "eps":
                    om = g.period_matrix_eps(g.EpsPoint(tau1, tau2, param),
                                             self.ORDER, tol)
                else:
                    om = g.period_matrix_rho(g.RhoPoint(tau, w, param),
                                             self.ORDER, tol)
                got = g.PeriodMatrix(complex(float(row[2]), float(row[3])),
                                     complex(float(row[4]), float(row[5])),
                                     complex(float(row[6]), float(row[7])))
                if not got.max_abs_diff(om) < 1e-12:
                    return f"{over} sweep row {r} differs from the library"
        return None

    def keys(self, inp):
        (tau1, tau2, tau, w), _, _ = inp
        return [(tau1, tau2)] * self.COUNT + [(tau, w)] * self.COUNT

    def fixed_input(self):
        return None, self._sweeps(1j, 2j, 1.0, 1j, 1j * math.pi, 1.0), []


# ---------------------------------------------------------------- invert


class InvertRoundtrip(Workload):
    """invert_eps(n=16) or invert_chi(n=12), 3:1, auto-seeded, on the
    forward image of a seeded point near the degeneration."""

    # an eps solve takes two Newton steps below a margin of about 0.16 and
    # three above; one near to two far puts the median op inside the
    # three-step group rather than on the gap between the two
    KINDS = ("eps-near", "eps-far", "eps-far", "chi")
    EPS_MARGINS = {"eps-near": (0.02, 0.16), "eps-far": (0.16, 0.3)}
    DIMS = 6
    TAIL_PCT = 84
    MIN_OPS = 64
    NEWTON_TOL = 1e-11
    ROUNDTRIP = 1e-9  # acceptance criterion 9

    def prepare(self, k):
        kind, _, u = self.draw(k)
        g = self.g
        tau = fd_tau(u[0], u[1])
        if kind in self.EPS_MARGINS:
            lo, hi = self.EPS_MARGINS[kind]
            tau2 = fd_tau(u[2], u[3])
            bound = 0.25 * g.lattice_min(tau) * g.lattice_min(tau2)
            margin = lo + (hi - lo) * u[4]
            p = g.EpsPoint(tau, tau2, margin * bound * cmath.exp(1j * TWO_PI * u[5]))
            return "eps", p, g.period_matrix_eps(p, 16)
        w = (0.03 + 0.22 * u[2]) * cmath.exp(1j * TWO_PI * u[3])
        chi = (0.02 + 0.13 * u[4]) * cmath.exp(1j * TWO_PI * u[5])
        c = g.ChiPoint(tau, w, chi)
        return "chi", c, g.chi_period(c, 12)

    def run(self, inp):
        chart, _, target = inp
        if chart == "eps":
            return self.g.invert_eps(target, newton_tol=self.NEWTON_TOL, n=16)
        return self.g.invert_chi(target, newton_tol=self.NEWTON_TOL, n=12)

    def check(self, inp, out):
        chart, p, _ = inp
        fields = ("tau1", "tau2", "eps") if chart == "eps" else ("tau", "w", "chi")
        err = _point_diff(out, p, fields)
        if not err < self.ROUNDTRIP:
            return f"{chart} round trip error {err:.3e}"
        return None

    def keys(self, inp):
        chart, p, _ = inp
        return [(p.tau1, p.tau2) if chart == "eps" else (p.tau, p.w)]

    def fixed_input(self):
        p = self.g.EpsPoint(1j, 2j, 0.1)
        return "eps", p, self.g.period_matrix_eps(p, 16)


# ---------------------------------------------------------------- oracles


class Oracles(Workload):
    """Necklace enumerations, exact series with numeric evaluation, and the
    sphere (Catalan) identities."""

    KINDS = ("necklace-eps", "necklace-rho", "symbolic-eps", "symbolic-rho",
             "catalan")
    DIMS = 6
    TAIL_PCT = 90
    MIN_OPS = 100
    # tolerances of the acceptance and series tests: necklaces and series
    # agree with the matrix route to C * parameter^(order + 1), and never
    # closer than ROUNDOFF
    NECK_EPS_CONST = 50.0   # in the eps domain margin
    SERIES_EPS_CONST = 50.0  # in |eps|
    SERIES_RHO_CONST = 100.0  # in |rho|, also for rho necklaces
    ROUNDOFF = 1e-12

    def _rho_point(self, u):
        tau = fd_tau(u[0], u[1])
        w = lattice_w(tau, 0.25 + 0.5 * u[2], 0.25 + 0.5 * u[3])
        return self.g.RhoPoint(tau, w, (0.002 + 0.018 * u[4])
                               * cmath.exp(1j * TWO_PI * u[5]))

    def prepare(self, k):
        kind, j, u = self.draw(k)
        g = self.g
        c = j + self.offset
        if kind == "necklace-eps":
            tau1, tau2 = fd_tau(u[0], u[1]), fd_tau(u[2], u[3])
            bound = 0.25 * g.lattice_min(tau1) * g.lattice_min(tau2)
            p = g.EpsPoint(tau1, tau2, (0.05 + 0.2 * u[4]) * bound
                           * cmath.exp(1j * TWO_PI * u[5]))
            return kind, 1 + c % 10, p, None
        if kind == "necklace-rho":
            return kind, 1 + c % 4, self._rho_point(u), None
        if kind == "symbolic-eps":
            # |eps| in [0.02, 0.2], as in the series tests
            p = g.EpsPoint(fd_tau(u[0], u[1]), fd_tau(u[2], u[3]),
                           (0.02 + 0.18 * u[4]) * cmath.exp(1j * TWO_PI * u[5]))
            e1 = g.eisenstein_range(20, p.tau1)
            e2 = g.eisenstein_range(20, p.tau2)
            assign = {"2pi_i_tau1": 2j * math.pi * p.tau1,
                      "2pi_i_tau2": 2j * math.pi * p.tau2}
            for m in range(2, 21, 2):
                assign[f"E{m}"], assign[f"F{m}"] = e1[m], e2[m]
            return kind, 1 + c % 10, p, assign
        if kind == "symbolic-rho":
            p = self._rho_point(u)
            eis = g.eisenstein_range(10, p.tau)
            pks = g.weierstrass_range(10, p.tau, p.w)
            kf = g.prime_form(p.tau, p.w)
            assign = {"2pi_i_tau": 2j * math.pi * p.tau, "w": p.w,
                      "log(-rho/K^2)": cmath.log(-p.rho / kf**2)}
            for m in range(2, 11, 2):
                assign[f"E{m}"] = eis[m]
            for m in range(1, 11):
                assign[f"P{m}"] = pks[m]
            return kind, 1 + c % 5, p, assign
        chi = (0.02 + 0.18 * u[0]) * cmath.exp(1j * TWO_PI * u[1])
        return kind, 1 + c % 4, chi, None

    def run(self, inp):
        kind, order, p, assign = inp
        g = self.g
        if kind == "necklace-eps":
            return g.necklace_period_eps(p, order)
        if kind == "necklace-rho":
            return g.necklace_period_rho(p, order)
        if kind == "symbolic-eps":
            series = g.symbolic_period_eps(order)
            return [g.evaluate_series(s, assign, p.eps) for s in series]
        if kind == "symbolic-rho":
            series = g.symbolic_period_rho(order)
            return [g.evaluate_series(s, assign, p.rho) for s in series]
        report = g.catalan_report(p)
        total = sum(g.s_nk(n, order, p, truncation=50) for n in range(1, 41))
        return report, total

    def check(self, inp, out):
        kind, order, p, _ = inp
        g = self.g
        if kind == "necklace-eps":
            margin = g.in_domain_eps(p).margin
            gap = out.max_abs_diff(g.period_matrix_eps(p, 16))
            limit = self.NECK_EPS_CONST * margin ** (order + 1)
        elif kind == "necklace-rho":
            gap = out.max_abs_diff(g.period_matrix_rho(p, 14))
            limit = self.SERIES_RHO_CONST * abs(p.rho) ** (order + 1)
        elif kind in ("symbolic-eps", "symbolic-rho"):
            if kind == "symbolic-eps":
                om = g.period_matrix_eps(p, 16)
                limit = self.SERIES_EPS_CONST * abs(p.eps) ** (order + 1)
            else:
                om = g.period_matrix_rho(p, 14)
                limit = self.SERIES_RHO_CONST * abs(p.rho) ** (order + 1)
            nums = (om.omega11, om.omega12, om.omega22)
            gap = max(abs(s / (2j * math.pi) - v) for s, v in zip(out, nums))
        else:
            report, total = out
            f = report["f"]
            if not (report["residual_functional_eq"] < 1e-13
                    and report["residual_modulus"] < 1e-9
                    and report["residual_e2"] < 1e-9):
                return f"Catalan identities fail at chi={p}"
            gap = abs(total - (1 + f) ** order)
            limit = 1e-8
        limit = max(limit, self.ROUNDOFF)
        if not gap < limit:
            return f"{kind} order {order}: gap {gap:.3e} > {limit:.3e}"
        return None

    def keys(self, inp):
        kind, order, p, _ = inp
        if kind.startswith("symbolic"):
            return [(kind, order)]
        if kind == "catalan":
            return [p]
        return [(p.tau1, p.tau2) if kind == "necklace-eps" else (p.tau, p.w)]

    def fixed_input(self):
        return "necklace-eps", 4, self.g.EpsPoint(1j, 2j, 0.1), None


WORKLOADS = {
    "forward-scatter": ForwardScatter,
    "sweep-fixed-torus": SweepFixedTorus,
    "invert-roundtrip": InvertRoundtrip,
    "oracles": Oracles,
}
