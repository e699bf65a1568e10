"""Reference helpers shared by the test modules."""

import cmath
import math
from fractions import Fraction

import numpy as np

from g2sew import elliptic
from g2sew.errors import InvalidArgumentError, RangeOverflowError, ToleranceError
from g2sew.formal import GradedPoly, _mono_mul
from g2sew.lattice import TWO_PI_I, reduce_mod_lattice, require_order


def complex_jacobian(f, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Jacobian of a holomorphic f: C^m -> C^m at x, one central difference
    along the real axis of each coordinate (two evaluations per column)."""
    jac = np.empty((len(x), len(x)), dtype=complex)
    for j in range(len(x)):
        h = rel_step * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        jac[:, j] = (f(xp) - f(xm)) / (2.0 * h)
    return jac


def eisenstein_recurrence(e4: complex, e6: complex, kmax: int) -> list[complex]:
    """[E_0..E_kmax] from E_4 and E_6 alone by the Weierstrass recurrence of
    c_m = (2m-1) E_2m: c_k = 3/((2k+1)(k-3)) sum_(m=2..k-2) c_m c_(k-m),
    k >= 4.  E_0, E_2 and every odd slot are 0 (E_2 is not in the recurrence)."""
    c = {2: 3 * e4, 3: 5 * e6}
    for k in range(4, kmax // 2 + 1):
        c[k] = 3 / ((2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1))
    out = [0j] * (kmax + 1)
    for m, cm in c.items():
        if 2 * m <= kmax:
            out[2 * m] = cm / (2 * m - 1)
    return out


def _sigma_reference(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) by trial division up to sqrt(n)."""
    s = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            s += d**k
            e = n // d
            if e != d:
                s += e**k
        d += 1
    return s


def bernoulli_reference(kmax: int) -> tuple[Fraction, ...]:
    """(B_0..B_kmax) from the full recurrence B_m = -sum_(j<m) C(m+1, j)
    B_j / (m+1) in Fractions, odd j included, computed afresh."""
    b = [Fraction(1)]
    for m in range(1, kmax + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b)


def eisenstein_q_reference(k: int, q: complex, tol=elliptic.DEFAULT_TOL) -> complex:
    """``elliptic.eisenstein_q`` with sigma_(k-1)(n) found afresh by trial
    division for every term: the same certificate, stop and sum."""
    require_order(k, "k", 2)
    if k % 2 == 1:
        return 0j
    q = complex(q)
    aq = abs(q)
    if not aq < 1.0:
        raise InvalidArgumentError(f"|q| must be < 1, got {aq}")
    bk = elliptic._bernoulli_memo(k)[k]
    const = -bk.numerator / (bk.denominator * math.factorial(k))
    if aq == 0.0:
        return const + 0j
    log_const = (math.log(abs(bk.numerator)) - math.log(bk.denominator)
                 - math.lgamma(k + 1))
    log_goal = math.log(tol.abs_tol) + min(0.0, log_const)
    log_pref = math.log(2.0) - math.lgamma(k)
    log_aq = math.log(aq)

    def certified(n: int) -> bool:
        rho = aq * ((n + 2) / (n + 1)) ** k
        return rho < 1.0 and (log_pref + k * math.log(n + 1) + (n + 1) * log_aq
                              < log_goal + math.log1p(-rho))

    first = max(1, math.floor((log_goal - log_pref - k * math.log(2.0)) / log_aq) - 1)
    fact = math.factorial(k - 1)
    log_q = cmath.log(q)
    total = 0j
    qn = 1 + 0j
    try:
        stop = elliptic._first_passing(certified, first, tol.max_terms)
        if stop > tol.max_terms:
            log_achieved = log_pref + k * math.log(tol.max_terms) + tol.max_terms * log_aq
            raise ToleranceError(
                f"E_{k} q-series not certified within {tol.max_terms} terms",
                achieved=math.exp(min(log_achieved, 700.0)))
        for n in range(1, stop + 1):
            qn *= q
            sigma = _sigma_reference(k - 1, n)
            try:
                c = 2 * sigma / fact
            except OverflowError:
                total += cmath.exp(math.log(2 * sigma) - math.lgamma(k) + n * log_q)
            else:
                total += c * qn
    except OverflowError:
        raise RangeOverflowError(f"E_{k} q-series leaves the double range") from None
    return const + total


def head_polys_reference(kmax: int) -> list[dict[int, Fraction]]:
    """Exact p_0..p_kmax with p_k(coth(z/2)) = sum_{n in Z} "1/(z-2pi*i*n)^k",
    rebuilt from p_1 = c/2 and p_{k+1} = -(1/k) p_k'(c) (1-c^2)/2 on every call."""
    polys: list[dict[int, Fraction]] = [{}, {1: Fraction(1, 2)}]
    for m in range(1, kmax):
        nxt: dict[int, Fraction] = {}
        for e, co in polys[m].items():
            if e == 0:
                continue
            d = co * e
            nxt[e - 1] = nxt.get(e - 1, Fraction(0)) - d / (2 * m)
            nxt[e + 1] = nxt.get(e + 1, Fraction(0)) + d / (2 * m)
        polys.append(nxt)
    return polys


def _laurent_reference(k, z, dmin, eis, tol):
    """P_k from its z-Laurent series, tail test and sum in one loop over the
    given E_k table; ToleranceError when the table ends first."""
    az = abs(z)
    r = az / dmin
    if k == 1:
        total = 1.0 / z
        zp = 1.0 + 0j  # z^(m-1)
        for m in range(2, len(eis)):
            zp *= z
            if m % 2 == 0:
                total -= eis[m] * zp
            bound = elliptic._EISEN_LATTICE_BOUND * r ** (m + 1) / dmin / (1.0 - r)
            if bound < tol.abs_tol:
                return total
        raise ToleranceError("P_1 Laurent series not certified", achieved=bound)
    total = z ** (-k)
    kk = k - 1
    zp = 1.0 + 0j  # z^(l-1)
    for l in range(1, len(eis) - kk):
        if (kk + l) % 2 == 0:
            total += (-1) ** (kk + 1) * elliptic._comb_ratio(kk, l) / kk * eis[kk + l] * zp
        t_next = (
            elliptic._comb_ratio(kk, l + 1) / kk
            * elliptic._EISEN_LATTICE_BOUND * dmin ** (-(kk + l + 1)) * az**l
        )
        rho = r * (kk + l + 1) / (l + 1)
        if rho < 1.0 and t_next / (1.0 - rho) < tol.abs_tol:
            return total
        zp *= z
    raise ToleranceError(f"P_{k} Laurent series not certified", achieved=t_next)


def laurent_weight_reference(k: int, az: float, dmin: float, tol) -> int:
    """``elliptic._laurent_weight`` by a linear scan over the weights: the
    first whose tail bound is below abs_tol, _LAURENT_MAX_WEIGHT + 1 past
    the cap or once the bound leaves the double range."""
    r = az / dmin
    kk = k - 1
    try:
        for w in range(max(2, k), elliptic._LAURENT_MAX_WEIGHT + 1):
            if k == 1:
                bound = elliptic._EISEN_LATTICE_BOUND * r ** (w + 1) / dmin / (1.0 - r)
            else:
                # term_(l+1) bound at l = w - kk, once the ratio is below 1
                l = w - kk
                rho = r * (kk + l + 1) / (l + 1)
                if not rho < 1.0:
                    continue
                bound = (elliptic._comb_ratio(kk, l + 1) / kk * elliptic._EISEN_LATTICE_BOUND
                         * dmin ** (-(kk + l + 1)) * az**l) / (1.0 - rho)
            if bound < tol.abs_tol:
                return w
    except OverflowError:
        pass
    return elliptic._LAURENT_MAX_WEIGHT + 1


def doubling_bounds(kmax: int) -> list[int]:
    """The E_k table weights ``weierstrass_reference`` tries, in order."""
    bounds = []
    kbound = max(kmax + 40, 2 * kmax)
    while kbound <= elliptic._LAURENT_MAX_WEIGHT:
        bounds.append(kbound)
        kbound = 2 * kbound + 2
    return bounds


def weierstrass_reference(t, kmax: int, z: complex) -> list[complex]:
    """[P_0..P_kmax](tau, z) on the torus t by a guess-and-double route:
    the Laurent route builds the E_k table to a guessed weight, and on any
    uncertified tail doubles it and re-sums every P_k, falling through to the
    q_z route past ``_LAURENT_MAX_WEIGHT``."""
    tau, tol = t.tau, t.tol
    z = complex(z)
    dmin = t.dmin
    z_near, m_near, _ = reduce_mod_lattice(tau, z, t.basis)
    out = [0j] * (kmax + 1)
    if abs(z_near) < 0.5 * dmin:
        for kbound in doubling_bounds(kmax):
            eis = t.eisenstein(kbound)
            try:
                for k in range(1, kmax + 1):
                    out[k] = _laurent_reference(k, z_near, dmin, eis, tol)
            except ToleranceError:
                continue
            out[1] -= m_near
            return out
    z_c, m_c, a_c = centred_point(tau, z)
    heads = elliptic._coth_heads(z_c, kmax)
    for k in range(1, kmax + 1):
        out[k] = elliptic._p_qz_route(k, t.q, z_c, heads[k], tol, a_c)
    out[1] -= m_c
    return out


def centred_point(tau: complex, z: complex) -> tuple[complex, int, float]:
    """(z_c, m_c, a_c): z less the lattice point m_c 2pi*i*tau + n_c 2pi*i
    that centres it in the original basis, as the q_z route reduces it, and
    its tau-coordinate a_c, |a_c| <= 1/2."""
    u = z / TWO_PI_I
    a = u.imag / tau.imag
    m_c = round(a)
    n_c = round(u.real - a * tau.real)
    return z - TWO_PI_I * (m_c * tau + n_c), m_c, a - m_c


def head_values_reference(c: complex, kmax: int) -> list[complex]:
    """[h_0..h_kmax] as ``head_polys_reference`` evaluated at the float c in
    exact rational arithmetic (real and imaginary parts as Fractions), each
    rounded to a complex once at the end."""
    cr, ci = Fraction(c.real), Fraction(c.imag)
    powers = [(Fraction(1), Fraction(0))]
    for _ in range(kmax + 1):
        x, y = powers[-1]
        powers.append((x * cr - y * ci, x * ci + y * cr))
    out = []
    for poly in head_polys_reference(kmax):
        re = sum((co * powers[e][0] for e, co in poly.items()), Fraction(0))
        im = sum((co * powers[e][1] for e, co in poly.items()), Fraction(0))
        out.append(complex(float(re), float(im)))
    return out


def _mul_reference(a: GradedPoly, b: GradedPoly, max_pow2: int) -> GradedPoly:
    """a * b with every term above parameter^(max_pow2/2) dropped."""
    out: dict = {}
    for (p1, m1), c1 in a.terms.items():
        for (p2, m2), c2 in b.terms.items():
            if p1 + p2 <= max_pow2:
                key = (p1 + p2, _mono_mul(m1, m2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
    return GradedPoly(out)


def _c_reference(k: int, l: int, torus: str, max_pow2: int) -> GradedPoly:
    """parameter^((k+l)/2) C(k,l)/k for the given torus symbol."""
    if (k + l) % 2 == 1 or k + l > max_pow2:
        return GradedPoly()
    coeff = Fraction((-1) ** (k + 1) * math.comb(k + l - 1, k - 1) * l, k)
    return GradedPoly.generator(torus, k + l, coeff, pow2=k + l)


def _d_reference(k: int, l: int, max_pow2: int) -> GradedPoly:
    """parameter^((k+l)/2) D(k,l) in P_(k+l)."""
    if k + l > max_pow2:
        return GradedPoly()
    coeff = Fraction((-1) ** (k + 1) * math.comb(k + l - 1, k - 1) * l)
    return GradedPoly.generator("P", k + l, coeff, pow2=k + l)


def _beta_reference(k: int, sign: int, max_pow2: int, over: int = 1) -> GradedPoly:
    """parameter^(k/2) (P_k - E_k) * sign / over."""
    if k > max_pow2:
        return GradedPoly()
    c = Fraction(sign, over)
    out = GradedPoly.generator("P", k, c, pow2=k)
    if k >= 2 and k % 2 == 0:
        out = out + GradedPoly.generator("E", k, -c, pow2=k)
    return out


def _row_times_matrix_reference(row, mat, max_pow2):
    out = [GradedPoly() for _ in mat[0]]
    for i, cell in enumerate(row):
        for j, entry in enumerate(mat[i]):
            if cell and entry:
                out[j] = out[j] + _mul_reference(cell, entry, max_pow2)
    return out


def _neumann_row_reference(start, mat, max_pow2):
    """start^T (I - mat)^-1 as a formal series, truncated at max_pow2."""
    acc, row = list(start), list(start)
    while any(row):
        row = _row_times_matrix_reference(row, mat, max_pow2)
        acc = [a + r for a, r in zip(acc, row)]
    return acc


def symbolic_reference(formalism: str, order: int) -> tuple[GradedPoly, ...]:
    """(2pi*i*Om11, 2pi*i*Om12, 2pi*i*Om22) through parameter^order by row
    Neumann sums over nested lists of rational entries, every product
    truncated at the order: eps from (I - M1 M2)^-1 with
    M_a(k,l) = eps^((k+l)/2) C(k,l)/k, rho from (I - R)^-1 with the D/C block
    pattern of R over k and the beta, beta-bar rows."""
    max_pow2 = 2 * order
    eps1 = GradedPoly.const(1, pow2=2)
    if formalism == "eps":
        n = max(1, order - 2)
        m1 = [[_c_reference(k, l, "E", max_pow2) for l in range(1, n + 1)]
              for k in range(1, n + 1)]
        m2 = [[_c_reference(k, l, "F", max_pow2) for l in range(1, n + 1)]
              for k in range(1, n + 1)]
        m12 = [_row_times_matrix_reference(row, m2, max_pow2) for row in m1]
        m21 = [_row_times_matrix_reference(row, m1, max_pow2) for row in m2]
        e1 = [GradedPoly.const(1)] + [GradedPoly()] * (n - 1)
        om12 = _neumann_row_reference(e1, m12, max_pow2 - 2)[0]
        om11 = _neumann_row_reference(m2[0], m12, max_pow2 - 2)[0]
        om22 = _neumann_row_reference(m1[0], m21, max_pow2 - 2)[0]
        return (GradedPoly.generator("TAU", 1) + _mul_reference(eps1, om11, max_pow2),
                _mul_reference(eps1, om12, max_pow2).scale(-1),
                GradedPoly.generator("TAU", 2) + _mul_reference(eps1, om22, max_pow2))
    n = order

    def entry(a, k, b, l):
        if a == b == 1:
            base = _d_reference(k, l, max_pow2)
        elif a == b == 2:
            base = _d_reference(l, k, max_pow2)
        else:
            base = _c_reference(k, l, "E", max_pow2).scale(k)
        return base.scale(Fraction(-1, k))

    def sign(a, k):
        return -1 if a == 1 else (-1) ** k

    labels = [(a, k) for a in (1, 2) for k in range(1, n + 1)]
    rmat = [[entry(a, k, b, l) for b, l in labels] for a, k in labels]
    beta_row = [_beta_reference(k, sign(a, k), max_pow2) for a, k in labels]
    bbar_col = [_beta_reference(l, sign(3 - b, l), max_pow2, over=l) for b, l in labels]
    om11 = GradedPoly()
    for start in (0, n):
        unit = [GradedPoly.const(1) if j == start else GradedPoly() for j in range(2 * n)]
        row = _neumann_row_reference(unit, rmat, max_pow2 - 2)
        om11 = om11 + row[0] + row[n]
    beta_inv = _neumann_row_reference(beta_row, rmat, max_pow2 - 1)
    om_bb = GradedPoly()
    for cell, b in zip(beta_inv, bbar_col):
        om_bb = om_bb + _mul_reference(cell, b, max_pow2)
    rho_half = GradedPoly.const(1, pow2=1)
    return (GradedPoly.generator("TAU", 0) + _mul_reference(eps1, om11, max_pow2).scale(-1),
            GradedPoly.generator("W", 0)
            + _mul_reference(rho_half, beta_inv[0] + beta_inv[n], max_pow2).scale(-1),
            GradedPoly.generator("LOG", 0) + om_bb.scale(-1))
