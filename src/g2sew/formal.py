"""Exact symbolic series for the genus-two period matrices.

Coefficients are rationals; generators are the Eisenstein values of the two
tori (E_k, F_k), the elliptic values P_k, the series heads (2pi*i*tau's, w)
and an opaque log head.  The formal sewing parameter is tracked by twice its
exponent so half-integer powers exist internally; the assembled period series
must come out with integer powers only.

The series are the necklace routes' walk sums (``neumann_id_minus``) run over
exact entries: the moment matrices are numpy object arrays of ``GradedPoly``
built from the same integer kernel, and Omega is read at label 1 as there.
Each supported order is built once per process and shared: ``GradedPoly`` is
immutable, so no caller can change a shared series.
"""

from __future__ import annotations

import cmath
import threading
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .elliptic import _comb
from .errors import SewingError, UnassignedGeneratorError
from .lattice import require_order
from .moments import _chequered_walks
from .moments import _rho_pair, _rho_walks, _sks

# generator kinds, in canonical display order
_KIND_ORDER = {"TAU": 0, "W": 1, "LOG": 2, "E": 3, "F": 4, "P": 5}

Monomial = tuple[tuple[tuple[str, int], int], ...]  # ((kind, idx), exponent)


def gen_name(kind: str, idx: int) -> str:
    if kind == "TAU":
        return f"2pi_i_tau{idx}" if idx else "2pi_i_tau"
    if kind == "W":
        return "w"
    if kind == "LOG":
        return "log(-rho/K^2)"
    return f"{kind}{idx}"


def gen_weight(kind: str, idx: int) -> int:
    return idx if kind in ("E", "F", "P") else 0


@dataclass(frozen=True)
class Generator:
    """Named generator with its modular weight."""

    symbol: str
    weight: int


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return m1 or m2
    d: dict[tuple[str, int], int] = dict(m1)
    for g, e in m2:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(
        ((g, e) for g, e in d.items() if e),
        key=lambda item: (_KIND_ORDER[item[0][0]], item[0][1])))


def _mono_weight(m: Monomial) -> int:
    return sum(gen_weight(k, i) * e for (k, i), e in m)


class GradedPoly:
    """Multivariate polynomial over the generators, graded by the formal
    parameter with exponents stored as pow2 = 2 * exponent.  Immutable:
    every operation builds a new polynomial."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, Monomial], Fraction] | None = None):
        self._terms = MappingProxyType({k: v for k, v in (terms or {}).items() if v})

    @property
    def terms(self) -> MappingProxyType:
        """{(pow2, monomial): coefficient}, read-only."""
        return self._terms

    def __reduce__(self):
        return GradedPoly, (dict(self._terms),)

    @classmethod
    def zero(cls) -> "GradedPoly":
        return cls()

    @classmethod
    def const(cls, c, pow2: int = 0) -> "GradedPoly":
        return cls({(pow2, ()): Fraction(c)})

    @classmethod
    def generator(cls, kind: str, idx: int, coeff=1, pow2: int = 0) -> "GradedPoly":
        return cls({(pow2, (((kind, idx), 1),)): Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedPoly) and self.terms == other.terms

    def __add__(self, other) -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            if not other:
                return self
            other = GradedPoly.const(other)
        out = self.terms.copy()
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return GradedPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        return self.scale(-1)

    def __sub__(self, other) -> "GradedPoly":
        return self + -other

    def scale(self, c) -> "GradedPoly":
        if c == 1:
            return self
        c = Fraction(c)
        return GradedPoly({k: v * c for k, v in self.terms.items()})

    def mul(self, other):
        """Product with a polynomial or a rational; a product with a zero
        number is the integer 0, which numpy object sums add cheaply."""
        if not isinstance(other, GradedPoly):
            return self.scale(other) if other else 0
        out: dict[tuple[int, Monomial], Fraction] = {}
        for (p1, m1), c1 in self.terms.items():
            for (p2, m2), c2 in other.terms.items():
                key = (p1 + p2, _mono_mul(m1, m2))
                c = c1 * c2
                out[key] = out[key] + c if key in out else c
        return GradedPoly(out)

    __mul__ = __rmul__ = mul

    def truncate(self, max_pow2: int) -> "GradedPoly":
        return GradedPoly({k: v for k, v in self.terms.items() if k[0] <= max_pow2})

    def coefficient_of_power(self, power: int) -> "GradedPoly":
        """Sub-polynomial multiplying parameter^power (integer power)."""
        return GradedPoly({(0, m): c for (p, m), c in self.terms.items()
                           if p == 2 * power})

    def has_integer_powers(self) -> bool:
        return all(p % 2 == 0 for p, _ in self.terms)

    def generators(self) -> set[str]:
        out = set()
        for (_, mono) in self.terms:
            for (kind, idx), _ in mono:
                out.add(gen_name(kind, idx))
        return out

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0], _mono_weight(kv[0][1]), kv[0][1]))

    def text(self, param: str = "eps") -> str:
        if not self.terms:
            return "0"
        parts = []
        for (p, mono), c in self.sorted_terms():
            factors = []
            if c != 1 or (not mono and p == 0):
                factors.append(str(c))
            for (kind, idx), e in mono:
                nm = gen_name(kind, idx)
                factors.append(nm if e == 1 else f"{nm}^{e}")
            if p:
                factors.append(f"{param}^{p // 2}" if p % 2 == 0
                               else f"{param}^{p}/2")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    def term_list(self, param: str = "eps") -> list[dict]:
        out = []
        for (p, mono), c in self.sorted_terms():
            out.append({
                f"{param}_power": p / 2 if p % 2 else p // 2,
                "coeff": str(c),
                "monomial": {gen_name(kind, idx): e for (kind, idx), e in mono},
            })
        return out

    def __repr__(self) -> str:
        return f"GradedPoly({self.text()})"


def _exact_layout(n: int):
    """(kernel, S, 1/k) at order n.  The kernel is ``_kernel_coeffs``'s under
    the similarity D = diag(sqrt k), 1 at label 1 where Omega is read: its coef
    is (-1)^(k+1) ``_comb(k, l)`` over k in place of sqrt(kl), beta's entries
    are undivided, and beta_bar takes 1/k.  S is 1: the parameter^(w/2) of an
    entry of weight w rides on the tables (``_table``)."""
    kk = range(1, n + 1)
    coef = np.array([[GradedPoly.const(Fraction((-1) ** (k + 1) * _comb(k, l), k)) for l in kk]
                     for k in kk], dtype=object)
    inv_k = np.array([GradedPoly.const(Fraction(1, k)) for k in kk], dtype=object)
    weight = np.add.outer(kk, kk)
    return (coef, weight, 1), np.ones(n, int), inv_k


def _table(kind: str, top: int) -> list:
    """[X_0..X_top] of a generator kind, X_w times parameter^(w/2), 0 at X_0
    and at odd E_k, F_k."""
    return [GradedPoly.generator(kind, w, pow2=w) if w and (kind == "P" or w % 2 == 0) else 0
            for w in range(top + 1)]


def _integer_series(max_pow2: int, *series: GradedPoly) -> tuple[GradedPoly, ...]:
    """The series through parameter^(max_pow2/2), checked for integer powers."""
    out = tuple(s.truncate(max_pow2) for s in series)
    if not all(s.has_integer_powers() for s in out):
        raise SewingError("half powers must cancel")
    return out


# {(formalism, order): series} for the orders asked for so far.  Extensions
# are built under the lock and published by rebinding to a new dict, like
# elliptic's Bernoulli table, so a reader needs no lock; the caps of
# symbolic_period_eps/rho bound it to 15 entries.
_series_table: dict[tuple[str, int], tuple[GradedPoly, ...]] = {}
_series_lock = threading.Lock()


def _series(formalism: str, order: int, build) -> tuple[GradedPoly, ...]:
    """The table's series at (formalism, order), ``build(order)`` on first
    request."""
    global _series_table
    series = _series_table.get((formalism, order))
    if series is None:
        with _series_lock:
            series = _series_table.get((formalism, order))
            if series is None:
                series = build(order)
                _series_table = {**_series_table, (formalism, order): series}
    return series


def symbolic_period_eps(max_order: int = 9):
    """Exact series of (2pi*i*Om11, 2pi*i*Om12, 2pi*i*Om22) in the two-tori
    formalism, complete through eps^max_order.

    ``necklace_period_eps`` over exact entries: the walks through
    M = [[0, A1], [A2, 0]] of order < max_order, read at label 1 as x12, u1
    and u2, with A_a(k,l) = eps^((k+l)/2) C(k,l)/k.  Each order is built
    once per process and the same read-only series returned to every call.
    """
    require_order(max_order, "max_order", 1, 10)
    return _series("eps", max_order, _build_eps)


def _build_eps(max_order: int) -> tuple[GradedPoly, ...]:
    # the walks 1 -> 1 of order < max_order pass labels below max_order - 1
    n = max(1, max_order - 2)
    kernel, s, _ = _exact_layout(n)
    x12, u1, u2 = _chequered_walks(_sks(kernel, _table("E", 2 * n), s),
                                   _sks(kernel, _table("F", 2 * n), s), max_order - 1)
    eps = GradedPoly.const(1, pow2=2)
    return _integer_series(2 * max_order, GradedPoly.generator("TAU", 1) + eps * u2,
                           -(eps * x12), GradedPoly.generator("TAU", 2) + eps * u1)


def symbolic_period_rho(max_order: int = 4):
    """Exact series of (2pi*i*Om11, 2pi*i*Om12, 2pi*i*Om22) in the
    self-sewing formalism, complete through rho^max_order; the Om22 log head
    is the opaque generator log(-rho/K^2).

    ``necklace_period_rho`` over exact entries: the walks through R read as
    u.g, beta.g and beta.z.  Each order is built once per process and the
    same read-only series returned to every call.
    """
    require_order(max_order, "max_order", 1, 5)
    return _series("rho", max_order, _build_rho)


def _build_rho(max_order: int) -> tuple[GradedPoly, ...]:
    n = max_order
    kernel, s, inv_k = _exact_layout(n)
    r, beta = _rho_pair(kernel, _table("E", 2 * n), _table("P", 2 * n), s)
    # each readout carries rho^1 besides its walk (rho u.g, rho^(1/2) beta_k g
    # and beta_k z with k >= 1), so the walks run to order max_order - 1; a
    # walk to beta_bar(l) also carries its rho^(l/2), so it enters l - 1
    # doubled orders late and is summed only as far as the readout keeps
    start = np.stack([np.zeros(2 * n, int), np.tile(np.arange(n), 2)], axis=1)
    _, _, (sigma, beta_g, beta_z) = _rho_walks(
        r.flat, beta.flat, beta.barred().flat * np.tile(inv_k, 2), max_order - 1, start)
    return _integer_series(
        2 * max_order, GradedPoly.generator("TAU", 0) - GradedPoly.const(1, pow2=2) * sigma,
        GradedPoly.generator("W", 0) - GradedPoly.const(1, pow2=1) * beta_g,
        GradedPoly.generator("LOG", 0) - beta_z)


def series_generators(*series: GradedPoly) -> list[Generator]:
    """Deduplicated, canonically ordered generators appearing in the series."""
    seen: dict[str, Generator] = {}
    for s in series:
        for (_, mono) in s.terms:
            for (kind, idx), _ in mono:
                name = gen_name(kind, idx)
                seen.setdefault(name, Generator(name, gen_weight(kind, idx)))
    return [seen[k] for k in sorted(seen)]


def evaluate_series(s: GradedPoly, assignment: dict[str, complex],
                    param: complex) -> complex:
    """Horner-style numeric evaluation; rationals convert to float at the
    final multiply.  Generators are looked up by display name."""
    by_pow: dict[int, complex] = {}
    for (p, mono), c in s.terms.items():
        val = complex(1.0)
        for (kind, idx), e in mono:
            name = gen_name(kind, idx)
            if name not in assignment:
                raise UnassignedGeneratorError(f"no value assigned for generator {name}")
            val *= assignment[name] ** e
        by_pow[p] = by_pow.get(p, 0j) + float(c.numerator) / float(c.denominator) * val
    if not by_pow:
        return 0j
    # Horner over the pow2 grid in the principal sqrt of the parameter
    base = cmath.sqrt(param)
    pmax = max(by_pow)
    total = 0j
    for p in range(pmax, -1, -1):
        total = total * base + by_pow.get(p, 0j)
    return total
