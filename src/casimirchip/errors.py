"""Exception types shared across the library, and the positivity checks
that raise the commonest of them.

The CLI maps these onto exit codes: domain problems exit 1, configuration
and usage problems exit 2.
"""

from __future__ import annotations

import math
import numbers

from .records import fields


class CasimirChipError(Exception):
    """Base class for all library errors."""


class DomainError(CasimirChipError, ValueError):
    """An argument is outside the physical/mathematical domain of an operation."""


class TransitionNotFoundError(CasimirChipError, ValueError):
    """A resistance curve contains no detectable superconducting transition."""


class ConfigError(CasimirChipError, ValueError):
    """A config file is malformed.  Collects every problem, not just the first."""

    def __init__(self, problems):
        problems = list(problems)
        super().__init__("; ".join(problems))
        self.problems = problems


# The wording of the two rules; every message that states one reads it here.
POSITIVE = "must be finite and > 0"
NONNEGATIVE = "must be finite and >= 0"


def require_positive(name, value):
    """Raise DomainError unless ``value`` is a finite real number > 0."""
    # float first: the ABC check alone costs ~8x as much, and answers the same
    if not (isinstance(value, (float, numbers.Real)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} {POSITIVE}, got {value!r}")


def require_nonnegative(name, value):
    """Raise DomainError unless ``value`` is a finite real number >= 0."""
    if not (isinstance(value, (float, numbers.Real)) and math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} {NONNEGATIVE}, got {value!r}")


def require_positive_fields(record):
    """require_positive for every field of the record ``record``, in field order."""
    for name in fields(record):
        require_positive(name, getattr(record, name))
