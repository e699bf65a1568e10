"""Two-dimensional lattice utilities for Lambda_tau = Z*2pi*i*tau + Z*2pi*i.

Gauss reduction makes every shortest-vector and nearest-point search a
finite window scan, independent of how skew tau is.
"""

from __future__ import annotations

import cmath
import math
import numbers

from .errors import InvalidArgumentError

TWO_PI_I = 2j * math.pi


def require_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not (tau.imag > 0.0) or not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise InvalidArgumentError(f"tau must lie in the upper half-plane, got {tau}")
    return tau


def require_sl2(mat) -> None:
    """Reject anything but an integer 2x2 matrix ((a, b), (c, d)) with ad - bc = 1."""
    try:
        (a, b), (c, d) = mat
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"expected a 2x2 matrix, got {mat!r}") from None
    if not all(isinstance(x, numbers.Integral) for x in (a, b, c, d)) or a * d - b * c != 1:
        raise InvalidArgumentError(f"matrix {mat!r} must be integer with determinant 1")


def require_order(value, name: str, least: float = 0, most: float = math.inf) -> None:
    """The one check of an order, count or branch: an integer (not a bool) in
    least..most, made by every entry point that takes one before it sizes
    or indexes anything by it."""
    # type(value) is int first: an ABC isinstance test costs more than the
    # short series that take an order
    if (not (type(value) is int or isinstance(value, numbers.Integral)
             and not isinstance(value, bool)) or not least <= value <= most):
        bound = (f" in {least}..{most}" if most < math.inf
                 else f" >= {least}" if least > -math.inf else "")
        raise InvalidArgumentError(f"{name} must be an integer{bound}, got {value!r}")


def lattice_basis(tau: complex) -> tuple[complex, complex]:
    """Standard basis (2*pi*i*tau, 2*pi*i) of Lambda_tau."""
    tau = require_tau(tau)
    return TWO_PI_I * tau, TWO_PI_I


def gauss_reduce(b1: complex, b2: complex) -> tuple[complex, complex]:
    """Gauss-reduce a rank-2 basis: |v1| <= |v2| <= |v2 +- v1|."""
    v1, v2 = b1, b2
    if abs(v1) > abs(v2):
        v1, v2 = v2, v1
    while True:
        mu = round((v2 * v1.conjugate()).real / abs(v1) ** 2)
        v2 = v2 - mu * v1
        if abs(v2) >= abs(v1):
            return v1, v2
        v1, v2 = v2, v1


def lattice_min(tau: complex, basis: tuple[complex, complex] | None = None) -> float:
    """Minimal length D(Lambda_tau) of a nonzero lattice vector; ``basis``
    is its Gauss-reduced basis when the caller holds it already."""
    v1, v2 = gauss_reduce(*lattice_basis(tau)) if basis is None else basis
    best = abs(v1)
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            if m == 0 and n == 0:
                continue
            best = min(best, abs(m * v1 + n * v2))
    return best


def reduce_mod_lattice(tau: complex, z: complex,
                       basis: tuple[complex, complex] | None = None) -> tuple[complex, int, int]:
    """Reduce z to the nearest-point representative modulo Lambda_tau.

    Returns (z_red, m, n) with z = z_red + 2*pi*i*(m*tau + n) and |z_red|
    minimal over the lattice.  m is exactly the quasi-period count needed
    by P_1 and P_0.  ``basis`` is as in ``lattice_min``.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidArgumentError(f"z must be finite, got {z}")
    v1, v2 = gauss_reduce(*lattice_basis(tau)) if basis is None else basis
    # Solve z = x*v1 + y*v2 over the reals.
    det = v1.real * v2.imag - v1.imag * v2.real
    x = (z.real * v2.imag - z.imag * v2.real) / det
    y = (v1.real * z.imag - v1.imag * z.real) / det
    x0, y0 = round(x), round(y)
    best = None
    for dm in (-1, 0, 1):
        for dn in (-1, 0, 1):
            lam = (x0 + dm) * v1 + (y0 + dn) * v2
            r = z - lam
            if best is None or abs(r) < abs(best[0]):
                best = (r, lam)
    z_red, lam = best
    # Express the shift in the original basis (2*pi*i*tau, 2*pi*i).
    w = lam / TWO_PI_I
    m = round(w.imag / tau.imag)
    n = round(w.real - m * tau.real)
    return z_red, m, n


def lattice_distance(tau: complex, z: complex) -> float:
    """Distance from z to the nearest point of Lambda_tau (0 included)."""
    z_red, _, _ = reduce_mod_lattice(tau, z)
    return abs(z_red)


def mobius(gamma, tau: complex) -> complex:
    """Fractional-linear action of a 2x2 matrix on the upper half-plane."""
    (a, b), (c, d) = gamma
    return (a * tau + b) / (c * tau + d)
