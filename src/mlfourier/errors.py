"""Exception hierarchy shared by all modules.

Each class carries the exit code the CLI returns for it, and subclasses
inherit it: validation failures (DomainError and its subclass PoleError)
-> 2, law and fit mismatches (LawMismatchError, FitError,
DegenerateFitError) -> 4, every other library error (ConvergenceError,
AccuracyError) -> 3.
"""

from __future__ import annotations


class MLFourierError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class DomainError(MLFourierError):
    """An argument lies outside the operation's validity region."""

    exit_code = 2


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class ConvergenceError(MLFourierError):
    """A quadrature or acceleration loop exhausted its budget."""


class AccuracyError(MLFourierError):
    """The requested accuracy cannot be delivered for this input."""


class FitError(MLFourierError):
    """A least-squares fit is ill-posed or drowned in rounding noise."""

    exit_code = 4


class DegenerateFitError(FitError):
    """Too few points, or values unusable for a log-log fit."""


class LawMismatchError(MLFourierError):
    """A fitted asymptotic law deviates from the expected one."""

    exit_code = 4
