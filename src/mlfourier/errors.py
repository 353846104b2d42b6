"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: validation failures (DomainError and
its subclass PoleError) -> 2, numerical failures (ConvergenceError,
AccuracyError) -> 3, law and fit mismatches (LawMismatchError, FitError,
DegenerateFitError) -> 4.
"""

from __future__ import annotations


class MLFourierError(Exception):
    """Base class for all library errors."""


class DomainError(MLFourierError):
    """An argument lies outside the operation's validity region."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class ConvergenceError(MLFourierError):
    """A quadrature or acceleration loop exhausted its budget."""


class AccuracyError(MLFourierError):
    """The requested accuracy cannot be delivered for this input."""


class FitError(MLFourierError):
    """A least-squares fit is ill-posed or drowned in rounding noise."""


class DegenerateFitError(FitError):
    """Too few points, or values unusable for a log-log fit."""


class LawMismatchError(MLFourierError):
    """A fitted asymptotic law deviates from the expected one."""
