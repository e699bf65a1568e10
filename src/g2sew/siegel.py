"""Genus-two period matrices and the Sp(4,Z) fractional-linear action."""

from __future__ import annotations

import numpy as np

from ._record import Record, _set
from .errors import ActionSingularError, TruncationError

_PM_KEYS = ("omega11", "omega12", "omega22")


class PeriodMatrix(Record):
    """Symmetric 2x2 complex matrix, stored by its three entries."""

    __slots__ = _PM_KEYS

    def __init__(self, omega11: complex, omega12: complex, omega22: complex):
        _set(self, "omega11", omega11)
        _set(self, "omega12", omega12)
        _set(self, "omega22", omega22)

    def as_array(self) -> np.ndarray:
        return np.array([[self.omega11, self.omega12],
                         [self.omega12, self.omega22]], dtype=complex)

    @classmethod
    def from_array(cls, m) -> "PeriodMatrix":
        m = np.asarray(m, dtype=complex)
        return cls(complex(m[0, 0]), complex(0.5 * (m[0, 1] + m[1, 0])),
                   complex(m[1, 1]))

    def max_abs_diff(self, other: "PeriodMatrix") -> float:
        return max(abs(self.omega11 - other.omega11),
                   abs(self.omega12 - other.omega12),
                   abs(self.omega22 - other.omega22))

    def imag_positive_definite(self) -> bool:
        y11, y12, y22 = self.omega11.imag, self.omega12.imag, self.omega22.imag
        return y11 > 0.0 and y11 * y22 - y12**2 > 0.0

    def to_json_dict(self) -> dict:
        return {k: {"re": getattr(self, k).real, "im": getattr(self, k).imag}
                for k in _PM_KEYS}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PeriodMatrix":
        vals = [complex(d[k]["re"], d[k]["im"]) for k in _PM_KEYS]
        return cls(*vals)


def require_siegel(omega: PeriodMatrix, n: int) -> PeriodMatrix:
    """omega, checked to lie in H_2: a truncation at order n whose Im Omega
    is not positive definite raises TruncationError."""
    if not omega.imag_positive_definite():
        raise TruncationError(f"Im Omega is not positive definite at order {n}")
    return omega


def symplectic_action(g: np.ndarray, omega: PeriodMatrix) -> PeriodMatrix:
    """gamma.Omega = (A Omega + B)(C Omega + D)^-1 for gamma in Sp(4,Z)."""
    g = np.asarray(g, dtype=complex)
    a, b = g[:2, :2], g[:2, 2:]
    c, d = g[2:, :2], g[2:, 2:]
    om = omega.as_array()
    denom = c @ om + d
    if abs(np.linalg.det(denom)) < 1e-300:
        raise ActionSingularError("C*Omega + D is singular")
    try:
        inv = np.linalg.inv(denom)
    except np.linalg.LinAlgError:
        raise ActionSingularError("C*Omega + D is singular") from None
    return PeriodMatrix.from_array((a @ om + b) @ inv)
