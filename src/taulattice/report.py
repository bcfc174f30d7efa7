"""Uniform pass/fail record for every verification routine.

Its one argument check, of the tolerance, is `couplings._checked_real`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .couplings import _checked_real


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one differential or algebraic identity.

    residual_abs is the max absolute residual over whatever set of sites,
    times, or sample points the check covered; residual_rel divides by the
    natural scale of the identity's terms (1 when no scale applies).  A
    tolerance that is not finite and positive raises ValueError.
    """

    identity: str
    residual_abs: float
    residual_rel: float
    tolerance: float
    passed: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _checked_real("tolerance", self.tolerance, positive=True)

    @classmethod
    def from_residual(cls, identity: str, residual: float, tolerance: float,
                      scale: float = 1.0, *,
                      meta: dict | None = None) -> "IdentityReport":
        """Build a report; the tolerance applies to residual_rel, the
        residual over `scale` (1 by default, which checks residual_abs)."""
        tolerance = _checked_real("tolerance", tolerance, positive=True)
        residual = float(abs(residual))
        scale = max(float(abs(scale)), 1e-300)
        rel = residual / scale
        return cls(identity, residual, rel, tolerance,
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
