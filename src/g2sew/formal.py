"""Exact symbolic series for the genus-two period matrices.

Coefficients are rationals; generators are the Eisenstein values of the two
tori (E_k, F_k), the elliptic values P_k, the series heads (2pi*i*tau's, w)
and an opaque log head.  The formal sewing parameter is tracked by twice its
exponent so half-integer powers exist internally; the assembled period series
must come out with integer powers only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError, SewingError, UnassignedGeneratorError

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
    parameter with exponents stored as pow2 = 2 * exponent."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, Monomial], Fraction] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

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

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return GradedPoly(out)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "GradedPoly":
        c = Fraction(c)
        return GradedPoly({k: v * c for k, v in self.terms.items()})

    def mul(self, other: "GradedPoly", max_pow2: int | None = None) -> "GradedPoly":
        out: dict[tuple[int, Monomial], Fraction] = {}
        for (p1, m1), c1 in self.terms.items():
            for (p2, m2), c2 in other.terms.items():
                p = p1 + p2
                if max_pow2 is not None and p > max_pow2:
                    continue
                key = (p, _mono_mul(m1, m2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return GradedPoly(out)

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


def _comb_fraction(k: int, l: int) -> Fraction:
    return Fraction(math.comb(k + l - 1, k - 1) * l)


def _c_sym(k: int, l: int, torus: str, max_pow2: int) -> GradedPoly:
    """Symbolic parameter^((k+l)/2) C(k,l)/k for the given torus symbol."""
    if (k + l) % 2 == 1 or k + l > max_pow2:
        return GradedPoly.zero()
    coeff = Fraction((-1) ** (k + 1)) * _comb_fraction(k, l) / k
    return GradedPoly.generator(torus, k + l, coeff, pow2=k + l)


def _row_times_matrix(row: list[GradedPoly], mat: list[list[GradedPoly]],
                      max_pow2: int) -> list[GradedPoly]:
    n = len(mat[0])
    out = [GradedPoly.zero() for _ in range(n)]
    for i, cell in enumerate(row):
        if not cell:
            continue
        for j in range(n):
            if mat[i][j]:
                out[j] = out[j] + cell.mul(mat[i][j], max_pow2)
    return out


def _neumann_row(start: list[GradedPoly], mat: list[list[GradedPoly]],
                 max_pow2: int) -> list[GradedPoly]:
    """start^T (I - mat)^-1 as a formal series, truncated at max_pow2."""
    acc = list(start)
    row = list(start)
    while any(row):
        row = _row_times_matrix(row, mat, max_pow2)
        acc = [a + r for a, r in zip(acc, row)]
    return acc


def symbolic_period_eps(max_order: int = 9):
    """Exact series of (2pi*i*Om11, 2pi*i*Om12, 2pi*i*Om22) in the two-tori
    formalism, complete through eps^max_order.

    The 1/sqrt(kl) entry weights conjugate away along any end-normalized
    chain, leaving the rational matrix M_a(k,l) = eps^((k+l)/2) C(k,l)/k.
    """
    if not 1 <= max_order <= 10:
        raise InvalidArgumentError("supported eps order range is 1..10")
    max_pow2 = 2 * max_order
    n = max(1, max_order - 2)
    m1 = [[_c_sym(k, l, "E", max_pow2) for l in range(1, n + 1)]
          for k in range(1, n + 1)]
    m2 = [[_c_sym(k, l, "F", max_pow2) for l in range(1, n + 1)]
          for k in range(1, n + 1)]

    def prod(a, b):
        return [_row_times_matrix(a[i], b, max_pow2) for i in range(n)]

    m12 = prod(m1, m2)
    m21 = prod(m2, m1)
    e1 = [GradedPoly.const(1) if j == 0 else GradedPoly.zero() for j in range(n)]
    om12 = _neumann_row(e1, m12, max_pow2 - 2)[0]
    om11 = _neumann_row(m2[0], m12, max_pow2 - 2)[0]  # e1^T M2 (I-M1M2)^-1
    om22 = _neumann_row(m1[0], m21, max_pow2 - 2)[0]
    eps1 = GradedPoly.const(1, pow2=2)
    s11 = GradedPoly.generator("TAU", 1) + eps1.mul(om11, max_pow2)
    s22 = GradedPoly.generator("TAU", 2) + eps1.mul(om22, max_pow2)
    s12 = eps1.mul(om12, max_pow2).scale(-1)
    if not all(s.has_integer_powers() for s in (s11, s12, s22)):
        raise SewingError("half powers must cancel")
    return s11, s12, s22


def _d_sym(k: int, l: int, max_pow2: int) -> GradedPoly:
    if k + l > max_pow2:
        return GradedPoly.zero()
    coeff = Fraction((-1) ** (k + 1)) * _comb_fraction(k, l)
    return GradedPoly.generator("P", k + l, coeff, pow2=k + l)


def _beta_sym(k: int, sign: int, max_pow2: int, over: int = 1) -> GradedPoly:
    """rho^(k/2) (P_k - E_k) * sign / over."""
    if k > max_pow2:
        return GradedPoly.zero()
    c = Fraction(sign, over)
    out = GradedPoly.generator("P", k, c, pow2=k)
    if k >= 2 and k % 2 == 0:
        out = out - GradedPoly.generator("E", k, c, pow2=k)
    return out


def symbolic_period_rho(max_order: int = 4):
    """Exact series of (2pi*i*Om11, 2pi*i*Om12, 2pi*i*Om22) in the
    self-sewing formalism, complete through rho^max_order; the Om22 log head
    is the opaque generator log(-rho/K^2)."""
    if not 1 <= max_order <= 5:
        raise InvalidArgumentError("supported rho order range is 1..5")
    max_pow2 = 2 * max_order
    n = max_order
    size = 2 * n

    def rt(a: int, k: int, b: int, l: int) -> GradedPoly:
        # -rho^((k+l)/2)/k times the D/C block pattern
        if a == b == 1:
            base = _d_sym(k, l, max_pow2)
        elif a == b == 2:
            base = _d_sym(l, k, max_pow2)
        else:
            base = _c_sym(k, l, "E", max_pow2).scale(k)  # undo the /k inside
        return base.scale(Fraction(-1, k))

    rmat = [[rt(a, k, b, l)
             for b in (1, 2) for l in range(1, n + 1)]
            for a in (1, 2) for k in range(1, n + 1)]

    def sgn(a: int, k: int) -> int:
        return -1 if a == 1 else (-1) ** k

    beta_row = [_beta_sym(k, sgn(a, k), max_pow2)
                for a in (1, 2) for k in range(1, n + 1)]
    bbar_col = [_beta_sym(l, sgn(2 if b == 1 else 1, l), max_pow2, over=l)
                for b in (1, 2) for l in range(1, n + 1)]

    unit = [[GradedPoly.const(1) if j == i else GradedPoly.zero()
             for j in range(size)] for i in (0, n)]
    inv_rows = [_neumann_row(unit[0], rmat, max_pow2 - 2),
                _neumann_row(unit[1], rmat, max_pow2 - 2)]
    om11 = GradedPoly.zero()
    for row in inv_rows:
        om11 = om11 + row[0] + row[n]
    beta_inv = _neumann_row(beta_row, rmat, max_pow2 - 1)
    om_b1 = beta_inv[0] + beta_inv[n]
    om_bb = GradedPoly.zero()
    for cell, b in zip(beta_inv, bbar_col):
        if cell and b:
            om_bb = om_bb + cell.mul(b, max_pow2)
    rho1 = GradedPoly.const(1, pow2=2)
    rho_half = GradedPoly.const(1, pow2=1)
    s11 = GradedPoly.generator("TAU", 0) + rho1.mul(om11, max_pow2).scale(-1)
    s12 = GradedPoly.generator("W", 0) + rho_half.mul(om_b1, max_pow2).scale(-1)
    s22 = GradedPoly.generator("LOG", 0) - om_bb.truncate(max_pow2)
    if not all(s.has_integer_powers() for s in (s11, s12, s22)):
        raise SewingError("half powers must cancel")
    return s11, s12, s22


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
