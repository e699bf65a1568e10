"""Eisenstein series, Weierstrass-type functions P_k, the elliptic prime
form, Dedekind eta, and the C/D moment coefficients.  ``Torus`` holds the
series of one tau; the module-level functions each read a fresh one.  The
only state shared across calls is the Bernoulli table; the q_z route's
heads come from the Riccati law of coth(z/2) per call (``_coth_heads``).

Conventions: the lattice is Lambda_tau = Z*2pi*i*tau + Z*2pi*i, q = exp(2pi*i*tau),
and the Eisenstein normalization is E_k = -B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n
(so E_2(i) = -1/(4pi)).  Logs and fractional powers are principal everywhere.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import threading
from fractions import Fraction

import numpy as np

from ._record import Record, _set
from .errors import (
    InvalidArgumentError,
    PoleError,
    RangeOverflowError,
    ToleranceError,
)
from .lattice import (
    TWO_PI_I,
    gauss_reduce,
    lattice_basis,
    lattice_min,
    reduce_mod_lattice,
    require_order,
    require_tau,
)

# Crude uniform bound on |E_j(tau)| * D(Lambda_tau)^j used only for tail
# certificates of z-Laurent series (lattice-sum comparison, j >= 2).
_EISEN_LATTICE_BOUND = 40.0

# Largest weight of the Eisenstein table behind the Laurent route of P_k and
# the series route of the prime form.  From k of about 386 on, the constant
# term 2 (2pi)^-k of E_k leaves the normal double range, so the table stops
# there: the q_z route of P_k takes over, and the prime form's series raises.
_LAURENT_MAX_WEIGHT = 384

# a series whose bound passes exp(_LOG_DOUBLE_MAX) leaves the double range
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


class SeriesTolerance(Record):
    """Adaptive q-series truncation control."""

    __slots__ = ("abs_tol", "max_terms")

    def __init__(self, abs_tol: float = 1e-14, max_terms: int = 10000):
        _set(self, "abs_tol", abs_tol)
        _set(self, "max_terms", max_terms)
        if not (abs_tol > 0.0):
            raise InvalidArgumentError("abs_tol must be positive")
        require_order(max_terms, "max_terms", 1)


DEFAULT_TOL = SeriesTolerance()


def _first_passing(passes, lo: int, cap: int, guess: int | None = None) -> int:
    """The least index in lo..cap where the tail test ``passes`` holds (once
    it holds, it holds at every later index), or cap + 1: every series names
    its stop by it before it sums.  Gallops up from lo, or from ``guess``
    where guess - 1 fails, then bisects; any guess gives the same index."""
    hi = cap + 1  # the least index known to pass, or cap + 1
    if guess is not None and lo < guess <= hi:
        if passes(guess - 1):
            hi = guess - 1
        else:
            lo = guess
    probe, step = lo, 1
    while probe < hi:
        if passes(probe):
            hi = probe
        else:
            lo, probe, step = probe + 1, probe + 1 + step, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


# [B_0..B_K] for the largest K asked for so far.  Extensions are built under
# the lock and published by rebinding to a new tuple, so a reader sees either
# the old table or the new one, never a partial or shared mutable one.
_bernoulli_table: tuple[Fraction, ...] = (Fraction(1),)
_bernoulli_lock = threading.Lock()


def _bernoulli_memo(kmax: int) -> tuple[Fraction, ...]:
    """The memo (B_0..B_K), K >= kmax, from the defining recurrence
    sum_(j<=m) C(m+1, j) B_j = 0; grown to kmax first if it is shorter.
    B_m = 0 for odd m >= 3, so the sum runs over j = 0, 1 and the even j
    only, in integers over the common denominator of the table so far."""
    global _bernoulli_table
    table = _bernoulli_table
    if len(table) <= kmax:
        with _bernoulli_lock:
            b = list(_bernoulli_table)
            den = math.lcm(*(x.denominator for x in b))
            for m in range(len(b), kmax + 1):
                if m > 1 and m % 2:
                    b.append(Fraction(0))
                    continue
                s = sum(math.comb(m + 1, j) * b[j].numerator * (den // b[j].denominator)
                        for j in range(m) if j < 2 or j % 2 == 0)
                b.append(Fraction(-s, (m + 1) * den))
                den = math.lcm(den, b[m].denominator)
            _bernoulli_table = table = tuple(b)
    return table


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k for even k >= 2, from t/(e^t-1) - 1 + t/2."""
    if k < 2 or k % 2 != 0:
        raise InvalidArgumentError(f"bernoulli requires even k >= 2, got {k}")
    return _bernoulli_memo(k)[k]


def eisenstein_q(k: int, q: complex, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """E_k evaluated directly from the nome q, |q| < 1.

    The sum stops at the first term past which the q-series tail is
    certified below abs_tol * min(1, |B_k|/k!): E_k is of that order,
    ~ 2/(2pi)^k, so downstream z^k amplification meets the tolerance in
    relative terms too.  The test runs in log space, where that anchor
    cannot underflow at high weight.
    """
    require_order(k, "k", 2)
    if k % 2 == 1:
        return 0j
    q = complex(q)
    aq = abs(q)
    if not aq < 1.0:
        raise InvalidArgumentError(f"|q| must be < 1, got {aq}")
    bk = _bernoulli_memo(k)[k]
    const = -bk.numerator / (bk.denominator * math.factorial(k))
    if aq == 0.0:
        return const + 0j
    log_const = (math.log(abs(bk.numerator)) - math.log(bk.denominator)
                 - math.lgamma(k + 1))
    log_goal = math.log(tol.abs_tol) + min(0.0, log_const)
    # sigma_{k-1}(n) <= n^k, so the tail past term n is dominated by the
    # geometric-ish series u_m = (2/(k-1)!) m^k |q|^m once u_(m+1)/u_m < 1
    log_pref = math.log(2.0) - math.lgamma(k)
    log_aq = math.log(aq)

    def certified(n: int) -> bool:
        rho = aq * ((n + 2) / (n + 1)) ** k
        return rho < 1.0 and (log_pref + k * math.log(n + 1) + (n + 1) * log_aq
                              < log_goal + math.log1p(-rho))

    # no n below first passes, since passing needs (n+1) log|q| below
    # log_goal - log_pref - k log 2 (k log(n+1) >= k log 2, log1p(-rho) <= 0);
    # one index is spare for rounding
    first = max(1, math.floor((log_goal - log_pref - k * math.log(2.0)) / log_aq) - 1)
    fact = math.factorial(k - 1)
    log_q = cmath.log(q)
    total = 0j
    qn = 1 + 0j
    try:
        stop = _first_passing(certified, first, tol.max_terms)
        if stop > tol.max_terms:
            log_achieved = log_pref + k * math.log(tol.max_terms) + tol.max_terms * log_aq
            raise ToleranceError(
                f"E_{k} q-series not certified within {tol.max_terms} terms",
                achieved=math.exp(min(log_achieved, 700.0)))
        # sigma_(k-1)(0..stop) in one list: each d raised once to k - 1, then
        # (from stop // 2 down, so slot d still holds d^(k-1)) added to its proper multiples
        sigmas = [d ** (k - 1) for d in range(stop + 1)]
        for d in range(stop // 2, 0, -1):
            power = sigmas[d]
            for m in range(2 * d, stop + 1, d):
                sigmas[m] += power
        for n in range(1, stop + 1):
            qn *= q
            sigma = sigmas[n]
            try:
                c = 2 * sigma / fact
            except OverflowError:
                # the coefficient leaves the double range while its term
                # need not: form the term in log space
                total += cmath.exp(math.log(2 * sigma) - math.lgamma(k) + n * log_q)
            else:
                total += c * qn
    except OverflowError:
        raise RangeOverflowError(f"E_{k} q-series leaves the double range") from None
    return const + total


def eisenstein(k: int, tau: complex, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Eisenstein series E_k(tau); identically 0 for odd k."""
    tau = require_tau(tau)
    q = cmath.exp(TWO_PI_I * tau)
    _require_nome(q, tau)
    return eisenstein_q(k, q, tol)


def _require_nome(q: complex, tau: complex) -> None:
    """A valid tau whose |q| rounds to 1 in floats has no certifiable
    q-series: ToleranceError, as eta and theta_1 raise there."""
    if not abs(q) < 1.0:
        raise ToleranceError(f"E_k q-series not certified: |q| rounds to 1 at tau = {tau}",
                             achieved=math.inf)


def _comb(k: int, l: int) -> int:
    """(k+l-1)! / ((k-1)!(l-1)!), the magnitude of the moment kernel, exact."""
    return math.comb(k + l - 1, k - 1) * l


def _comb_ratio(k: int, l: int) -> float:
    """``_comb`` as a float; RangeOverflowError past the double range, which
    k + l <= ~1000 (well past the required 64) stays inside."""
    try:
        return float(_comb(k, l))
    except OverflowError:
        raise RangeOverflowError(
            f"factorial ratio overflows double range at (k,l)=({k},{l})"
        ) from None


def c_coeff(k: int, l: int, tau: complex, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Moment coefficient C(k,l,tau); symmetric in (k,l)."""
    require_order(k, "k", 1)
    require_order(l, "l", 1)
    if (k + l) % 2 == 1:
        return 0j
    return (-1) ** (k + 1) * _comb_ratio(k, l) * eisenstein(k + l, tau, tol)


def d_coeff(k: int, l: int, tau: complex, z: complex, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Moment coefficient D(k,l,tau,z) = combinatorial factor * P_{k+l}(tau,z)."""
    require_order(k, "k", 1)
    require_order(l, "l", 1)
    return (-1) ** (k + 1) * _comb_ratio(k, l) * weierstrass_p(k + l, tau, z, tol)


def _coth_heads(z: complex, kmax: int) -> list[complex]:
    """[h_0..h_kmax](z), h_0 slot unused (0j), h_k(z) = sum_{n in Z} "1/(z-2pi*i*n)^k".

    h_1 = coth(z/2)/2 solves the Riccati equation h_1' = 1/4 - h_1^2, and
    h_(k+1) = -(1/k) h_k', so h_2 = h_1^2 - 1/4 and
    (k-1) h_k = sum_(a+b=k; a,b>=1) h_a h_b for k >= 3.
    """
    h1 = 0.5 * (1.0 / cmath.tanh(z / 2.0))
    heads = [0j, h1, h1 * h1 - 0.25]
    for k in range(3, kmax + 1):
        heads.append(sum(heads[a] * heads[k - a] for a in range(1, k)) / (k - 1))
    return heads[:kmax + 1]


def _p_qz_route(k: int, q: complex, z: complex, head: complex,
                tol: SeriesTolerance, a_coeff: float) -> complex:
    """P_k via the exponential-coordinate series, head h_k(z) from
    ``_coth_heads``; needs |a_coeff| < 1."""
    aq = abs(q)
    if aq == 0.0:
        return head
    r_decay = aq ** (1.0 - abs(a_coeff))
    if not r_decay < 1.0:
        raise ToleranceError("q_z series diverges at |a| >= 1", achieved=math.inf)
    sgn = (-1) ** k

    def certified(n: int) -> bool:
        # the terms past n are dominated by pref 2 m^(k-1) r_decay^m / (1 - |q|),
        # m > n, whose ratio is below rho; the search may test an n whose
        # (n+1)^(k-1) leaves the double range, where the bound is read in logs
        rho = r_decay * ((n + 2) / (n + 1)) ** (k - 1)
        if not rho < 1.0:
            return False
        try:
            return (pref * (n + 1) ** (k - 1) * 2.0 * r_decay ** (n + 1)
                    / (1.0 - aq) / (1.0 - rho) < tol.abs_tol)
        except OverflowError:
            return (math.log(2.0 * pref / (1.0 - aq) / (1.0 - rho)) + (k - 1) * math.log(n + 1)
                    + (n + 1) * math.log(r_decay) < math.log(tol.abs_tol))

    qz = cmath.exp(z)
    total = 0j
    qn = 1 + 0j
    qzn = 1 + 0j
    qzi = 1 + 0j
    try:
        pref = 1.0 / math.factorial(k - 1)
        stop = _first_passing(certified, 1, tol.max_terms)
        if stop > tol.max_terms:
            raise ToleranceError(
                f"P_{k} q_z-series not certified within {tol.max_terms} terms",
                achieved=pref * 2.0 * r_decay**tol.max_terms / (1.0 - aq))
        for n in range(1, stop + 1):
            qn *= q
            qzn *= qz
            qzi /= qz
            total += n ** (k - 1) * qn / (1.0 - qn) * (qzn + sgn * qzi)
    except OverflowError:
        raise RangeOverflowError(f"P_{k} q_z-series leaves the double range") from None
    return head + sgn * pref * total


def _laurent_tail(k: int, w: int, az: float, dmin: float) -> float:
    """Bound on the tail of the z-Laurent series of P_k about 0 at |z| = az
    past E_w, for k = 1, or for k >= 2 where its ratio test holds; inf where
    it leaves the double range."""
    r = az / dmin
    try:
        if k == 1:
            return _EISEN_LATTICE_BOUND * r ** (w + 1) / dmin / (1.0 - r)
        # term_(l+1) bound at l = w - kk, over 1 - the ratio of its terms
        kk = k - 1
        l = w - kk
        rho = r * (kk + l + 1) / (l + 1)
        return (_comb_ratio(kk, l + 1) / kk * _EISEN_LATTICE_BOUND
                * dmin ** (-(kk + l + 1)) * az**l) / (1.0 - rho)
    except OverflowError:
        return math.inf


def _laurent_weight(k: int, az: float, dmin: float, tol: SeriesTolerance,
                    guess: int | None = None) -> int:
    """Weight of the last E_m that the z-Laurent series of P_k about 0 reads
    at |z| = az < D(Lambda_tau): its tail bound certifies below abs_tol
    there, and reads no E_m.  Past _LAURENT_MAX_WEIGHT (or a bound that
    leaves the double range) it returns _LAURENT_MAX_WEIGHT + 1.

    Once the ratio r (w+1)/(w-k+2) of the tail's terms is below 1 it stays
    so, and the bound falls with w, by at least that ratio a step; the
    range is left past some weight and not before it.  So "the ratio is
    below 1 and the bound not above abs_tol" is a tail test for
    ``_first_passing``, searched from ``guess`` when that is given
    (P_(k-1)'s weight, which P_k's is at or just above)."""
    r = az / dmin
    bounds = {}

    def not_above(w: int) -> bool:
        if k > 1 and not r * (w + 1) / (w - k + 2) < 1.0:
            return False
        bounds[w] = _laurent_tail(k, w, az, dmin)
        return not tol.abs_tol <= bounds[w] < math.inf

    weight = _first_passing(not_above, max(2, k), _LAURENT_MAX_WEIGHT, guess)
    return weight if bounds.get(weight, math.inf) < tol.abs_tol else _LAURENT_MAX_WEIGHT + 1


def _p_laurent_route(k: int, z: complex, eis: list[complex], weight: int) -> complex:
    """P_k from its z-Laurent series about 0, summed through E_weight."""
    if k == 1:
        total = 1.0 / z
        zp = 1.0 + 0j  # z^(m-1)
        for m in range(2, weight + 1):
            zp *= z
            if m % 2 == 0:
                total -= eis[m] * zp
        return total
    total = z ** (-k)
    kk = k - 1
    zp = 1.0 + 0j  # z^(l-1)
    for l in range(1, weight - kk + 1):
        if (kk + l) % 2 == 0:
            total += (-1) ** (kk + 1) * _comb_ratio(kk, l) / kk * eis[kk + l] * zp
        zp *= z
    return total


def _heat_dtau(table, shift: int) -> np.ndarray:
    """[dT_0/dtau..dT_K/dtau] from [T_0..T_(K+2)], slot 0 unused (0j), for
    T = P(tau, z) at fixed z (shift 0) or T = E(tau) (shift 2):
    dT_k/dtau = pi*i k [(k+1+shift) T_(k+2) - sum_(a+b=k+2; a,b>=1) T_a T_b].

    theta_1 solves the heat equation d theta_1/dtau = pi*i d^2 theta_1/dz^2,
    so L = log K, with dL/dz = P_1 and P_(k+1) = -(1/k) dP_k/dz, has
    dL/dtau = pi*i (L_zz + L_z^2) + const(tau), whence the law for P_k.  E_k
    is the z-regular part of P_k at z -> 0; at k = 2 its law is Ramanujan's
    dE_2/dtau = 2pi*i (5 E_4 - E_2^2).
    """
    table = np.asarray(table)
    kmax = len(table) - 3
    first = table[1:kmax + 2]  # T_1..T_(K+1)
    conv = np.convolve(first, first)[1:kmax + 1]
    kk = np.arange(1, kmax + 1)
    out = np.zeros(kmax + 1, dtype=complex)
    out[1:] = 1j * math.pi * kk * ((kk + 1 + shift) * table[3:] - conv)
    return out


def _log_prime_form_dtau(p1: complex, p2: complex, e2: complex) -> complex:
    """d log K(tau, z)/dtau = pi*i (P_1^2 - P_2 + 3 E_2) at fixed z, from the
    heat equation of theta_1 and d log eta/dtau = -pi*i E_2."""
    return 1j * math.pi * (p1 * p1 - p2 + 3.0 * e2)


def dedekind_eta(tau: complex, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Dedekind eta, q^(1/24) prod (1-q^n), principal 24th root; the product
    stops where |q|^(n+1)/(1-|q|)^2 bounds the rest below abs_tol."""
    tau = require_tau(tau)
    q24 = cmath.exp(TWO_PI_I * tau / 24.0)
    q = cmath.exp(TWO_PI_I * tau)
    aq = abs(q)
    if not aq < 1.0:
        raise ToleranceError(f"eta product not certified: |q| rounds to {aq} at tau = {tau}",
                             achieved=math.inf)
    # passing needs |q|^(n+1) < abs_tol, log|q| = -2pi Im tau: no n below guess does
    guess = int(min(math.log(tol.abs_tol) / (-2.0 * math.pi * tau.imag), tol.max_terms))
    stop = _first_passing(lambda n: aq ** (n + 1) / (1.0 - aq) ** 2 < tol.abs_tol,
                          1, tol.max_terms, guess)
    if stop > tol.max_terms:
        raise ToleranceError("eta product not certified",
                             achieved=aq ** (tol.max_terms + 1) / (1.0 - aq) ** 2)
    prod = q24
    qn = 1 + 0j
    for _ in range(stop):
        qn *= q
        prod *= 1.0 - qn
    return prod


def theta1(tau: complex, z: complex, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Jacobi theta_1 in lattice-scaled coordinates (z in units of Lambda_tau).

    theta_1(tau, z) = sum_n exp(pi*i*tau (n+1/2)^2 + (n+1/2)(z + i*pi)).

    |term| = exp(-a h^2 + b h), h = n + 1/2, a = pi Im tau, b = Re z, peaks
    at h = b/(2a); away from it a term over the last is below exp(-a), so a
    wing past h sums to at most |term(h)| / (1 - that ratio), and the series
    to 2 exp(b^2/(4a)) / (1 - exp(-a)), which must stay in the double range.
    Each wing stops where its tail is below abs_tol/2.
    """
    tau = require_tau(tau)
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidArgumentError(f"z must be finite, got {z}")
    a, b = math.pi * tau.imag, z.real
    if not math.exp(-2.0 * a) < 1.0:
        raise ToleranceError(f"theta_1 series not certified: |q| rounds to 1 at tau = {tau}",
                             achieved=math.inf)
    peak = b / (2.0 * a)
    if b * peak / 2.0 + math.log(2.0 / -math.expm1(-a)) > _LOG_DOUBLE_MAX:
        raise RangeOverflowError(
            f"theta_1 at Re z = {b:.6g} leaves the double range")
    n0 = round(peak - 0.5)
    log_goal = math.log(tol.abs_tol / 2.0)

    def log_tail(s: int, j: int) -> float:
        # the wing s = +1 (n > n0) or -1 (n < n0) past its j-th term, from
        # the next term at h = s u
        u = s * (n0 + 0.5) + j + 1
        return -a * u * u + s * b * u - math.log1p(-math.exp(s * b - a * (2 * u + 1)))

    # a wing's tail test fails below the larger root of -a u^2 + s b u = log_goal
    root = math.sqrt(b * b - 4.0 * a * log_goal)
    cap = tol.max_terms // 2
    hi, lo = (_first_passing(lambda j: log_tail(s, j) < log_goal, 0, cap,
                             math.ceil((s * b + root) / (2.0 * a) - s * (n0 + 0.5) - 1))
              for s in (1, -1))
    if max(hi, lo) > cap:
        raise ToleranceError("theta_1 series not certified", achieved=math.exp(
            min(max(log_tail(1, cap), log_tail(-1, cap)), 700.0)))
    total = 0j
    for n in range(n0 - lo, n0 + hi + 1):
        h = n + 0.5
        total += cmath.exp(1j * math.pi * tau * h * h + h * (z + 1j * math.pi))
    return total


class Torus:
    """E_k, dE_k/dtau (read off the E_k table by the heat law), P_k(tau, z)
    and the prime form K(tau, z) of one torus at one tolerance.  One
    evaluation reads one Torus per tau (A or R and beta, the Laurent route
    of P_k, the series route of K), so no weight of E_k is computed twice in
    it.  Made afresh per evaluation; nothing outlives it."""

    def __init__(self, tau: complex, tol: SeriesTolerance = DEFAULT_TOL):
        self.tau = require_tau(tau)
        self.tol = tol
        self.q = cmath.exp(TWO_PI_I * self.tau)
        self._eis = [0j, 0j]

    @functools.cached_property
    def basis(self) -> tuple[complex, complex]:
        """Gauss-reduced basis of Lambda_tau, behind ``dmin`` and every
        nearest-point reduction of z."""
        return gauss_reduce(*lattice_basis(self.tau))

    @functools.cached_property
    def dmin(self) -> float:
        """Lattice minimum D(Lambda_tau)."""
        return lattice_min(self.tau, self.basis)

    def eisenstein(self, kmax: int) -> list[complex]:
        """[E_0..E_kmax], zero at E_0, E_1 and every odd weight, kept and grown on demand."""
        require_order(kmax, "kmax")
        values = self._eis
        if kmax >= len(values):
            _require_nome(self.q, self.tau)
        for k in range(len(values), kmax + 1):
            values.append(eisenstein_q(k, self.q, self.tol) if k % 2 == 0 else 0j)
        return values[:kmax + 1]

    def eisenstein_dtau(self, kmax: int) -> list[complex]:
        """[dE_0/dtau..dE_kmax/dtau], zero at odd k (slots 0 and 1 unused), by
        ``_heat_dtau`` from the E_k table to weight kmax + 2."""
        return _heat_dtau(self.eisenstein(kmax + 2), 2).tolist()

    def weierstrass(self, kmax: int, z: complex) -> list[complex]:
        """[P_0..P_kmax](tau, z) with P_0 slot unused (0j).

        z is reduced modulo the lattice first: the nearest-point representative
        feeds the Laurent route when |z_red| < D/2 and the tail certificates
        name weight <= _LAURENT_MAX_WEIGHT, otherwise the centered
        parallelogram representative feeds the exponential-coordinate route.
        P_1 picks up the quasi-period correction -m from the reduction.
        """
        tau, tol = self.tau, self.tol
        require_order(kmax, "kmax", 1)
        z = complex(z)
        dmin = self.dmin
        z_near, m_near, _ = reduce_mod_lattice(tau, z, self.basis)
        if abs(z_near) < 1e-13 * dmin:
            raise PoleError(f"z = {z} lies on the lattice Lambda_tau")
        out = [0j] * (kmax + 1)
        if abs(z_near) < 0.5 * dmin:
            # every tail certificate first, then one E_k table to the weight
            # they name; past the cap the q_z route, which converges off the lattice
            weights = [_laurent_weight(1, abs(z_near), dmin, tol)]
            for k in range(2, kmax + 1):
                weights.append(_laurent_weight(k, abs(z_near), dmin, tol, weights[-1]))
            if max(weights) <= _LAURENT_MAX_WEIGHT:
                eis = self.eisenstein(max(weights))
                for k, weight in enumerate(weights, 1):
                    out[k] = _p_laurent_route(k, z_near, eis, weight)
                out[1] -= m_near
                return out
        # centered reduction in the original basis keeps |a| <= 1/2
        u = z / TWO_PI_I
        a = u.imag / tau.imag
        m_c = round(a)
        b = u.real - a * tau.real
        n_c = round(b)
        z_c = z - TWO_PI_I * (m_c * tau + n_c)
        a_c = a - m_c
        heads = _coth_heads(z_c, kmax)
        for k in range(1, kmax + 1):
            out[k] = _p_qz_route(k, self.q, z_c, heads[k], tol, a_c)
        out[1] -= m_c
        return out

    def prime_form(self, z: complex, route: str = "auto") -> complex:
        """Elliptic prime form K(tau, z) = exp(-P_0(tau, z)).

        Two routes: the defining series (radius D(Lambda_tau) around 0) and
        the theta/eta quotient -i*theta_1/eta^3 (any z).  K vanishes exactly
        on the lattice; z there returns 0 exactly.
        """
        tau, tol = self.tau, self.tol
        if route not in ("auto", "series", "theta"):
            raise InvalidArgumentError(f"unknown prime_form route {route!r}")
        z = complex(z)
        dmin = self.dmin
        z_near, _, _ = reduce_mod_lattice(tau, z, self.basis)
        if abs(z_near) < 1e-13 * dmin:
            return 0j
        if route == "auto":
            route = "series" if abs(z) < 0.5 * dmin else "theta"
        if route == "series":
            if not abs(z) < dmin:
                raise InvalidArgumentError(
                    f"series route needs |z| < D(Lambda_tau) = {dmin:.6g}, got |z| = {abs(z):.6g}")
            # the sum stops before the first even weight 2h past 2 whose
            # tail bound is below abs_tol; that weight reads r and abs_tol alone
            r = abs(z) / dmin
            cap = _LAURENT_MAX_WEIGHT // 2 + 1
            half = _first_passing(
                lambda h: _EISEN_LATTICE_BOUND * r ** (2 * h) / (2 * h * (1.0 - r * r)) < tol.abs_tol,
                2, cap)
            if half > cap:
                raise RangeOverflowError(
                    f"prime form series at |z|/D = {r:.6g} needs E_k past weight "
                    f"{_LAURENT_MAX_WEIGHT}; the theta route serves any z")
            stop = 2 * half
            eis = self.eisenstein(stop - 2)
            total = 0j
            zp = z * z
            for k in range(2, stop, 2):
                total += eis[k] / k * zp
                zp *= z * z
            try:
                return z * cmath.exp(-total)
            except OverflowError:
                raise RangeOverflowError(f"prime form series overflows at z = {z}") from None
        return -1j * theta1(tau, z, tol) / dedekind_eta(tau, tol) ** 3


def eisenstein_range(kmax: int, tau: complex, tol: SeriesTolerance = DEFAULT_TOL) -> list[complex]:
    """[E_0..E_kmax] with the convention E_0 = E_1 = 0 (E_0 unused)."""
    return Torus(tau, tol).eisenstein(kmax)


def weierstrass_range(kmax: int, tau: complex, z: complex,
                      tol: SeriesTolerance = DEFAULT_TOL) -> list[complex]:
    """[P_0..P_kmax](tau, z) with P_0 slot unused (0j); see ``Torus.weierstrass``."""
    return Torus(tau, tol).weierstrass(kmax, z)


def weierstrass_p(k: int, tau: complex, z: complex,
                  tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Weierstrass-type P_k(tau, z); P_2 is the classical P-function shifted by E_2."""
    return weierstrass_range(k, tau, z, tol)[k]


def prime_form(tau: complex, z: complex, tol: SeriesTolerance = DEFAULT_TOL,
               route: str = "auto") -> complex:
    """Elliptic prime form K(tau, z); see ``Torus.prime_form``."""
    return Torus(tau, tol).prime_form(z, route)
