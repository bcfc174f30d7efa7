"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else surfaces as a plain ValueError from the offending
layer.
"""


class TauLatticeError(Exception):
    """Base class for all package-specific failures."""


class NonIntegrableWeight(TauLatticeError):
    """The coupling vector gives a weight with a non-suppressible tail."""


class ToleranceUnreachable(TauLatticeError):
    """Panel refinement stalled before reaching the requested tolerance."""


class IllConditioned(TauLatticeError):
    """A recurrence or skew elimination broke down, or tau has no double value."""


class SingularMinor(TauLatticeError):
    """A leading Pfaffian minor vanished during skew-orthogonalization."""


class StructureViolation(TauLatticeError):
    """A commutator produced nonzero entries at positions pinned to 0 or 1."""


class UnsupportedKind(TauLatticeError):
    """No closed-form reference trajectory exists for the requested kind."""


class PreBreakingViolated(TauLatticeError):
    """The characteristic map is non-monotone: past the gradient catastrophe."""


class DivergedField(TauLatticeError):
    """An integrated field became non-finite, or exceeded a magnitude bound."""


class IndexOutOfWindow(TauLatticeError, IndexError):
    """An entry was requested outside its window: a PfaffLax band or site, a
    site past a trajectory's window, or a tensor component past the
    truncation-safe range."""
