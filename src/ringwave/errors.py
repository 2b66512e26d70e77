"""Exception types shared across the package."""

from __future__ import annotations


class RingwaveError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RingwaveError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(RingwaveError, ArithmeticError):
    """A field or integrand evaluation produced a non-finite value."""
