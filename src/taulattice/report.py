"""Uniform pass/fail record for every verification routine."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one differential or algebraic identity.

    residual_abs is the max absolute residual over whatever set of sites,
    times, or sample points the check covered; residual_rel divides by the
    natural scale of the identity's terms (1 when no scale applies).  A
    tolerance that is a bool, or not finite and positive, raises ValueError
    before any conversion.
    """

    identity: str
    residual_abs: float
    residual_rel: float
    tolerance: float
    passed: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_tolerance(self.tolerance)

    @classmethod
    def from_residual(cls, identity: str, residual: float, tolerance: float,
                      scale: float = 1.0, *,
                      meta: dict | None = None) -> "IdentityReport":
        """Build a report; the tolerance applies to residual_rel, the
        residual over `scale` (1 by default, which checks residual_abs)."""
        _check_tolerance(tolerance)   # float(True) would read 1.0
        residual = float(abs(residual))
        scale = max(float(abs(scale)), 1e-300)
        rel = residual / scale
        return cls(identity, residual, rel, float(tolerance),
                   bool(rel <= tolerance), dict(meta or {}))

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "residual_abs": self.residual_abs,
            "residual_rel": self.residual_rel,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _check_tolerance(tolerance) -> None:
    if isinstance(tolerance, (bool, np.bool_)) or not 0.0 < tolerance < math.inf:   # NaN fails too
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
