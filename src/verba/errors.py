"""Exception hierarchy shared by all verba modules.

Every error raised on purpose by this package derives from VerbaError, so
callers (and the CLI) can distinguish "the input was bad" from "a budget was
exceeded" from "the math came out contradictory".
"""
from __future__ import annotations


class VerbaError(Exception):
    """Base class for all errors raised deliberately by verba."""


class ParseError(VerbaError):
    """Malformed word expression, facts line, table file, or certificate text."""


class UnknownNameError(VerbaError):
    """A name (group spec, quantity, rewrite rule, experiment) is not registered."""


class CertificateError(VerbaError):
    """A rewrite certificate failed verification or is structurally invalid."""


class InconsistencyError(VerbaError):
    """Interval propagation produced an empty interval (lower bound > upper bound)."""

    def __init__(self, message: str, trace: str = "") -> None:
        super().__init__(message)
        self.trace = trace


class ResourceBudgetError(VerbaError):
    """An enumeration or expansion would exceed its configured budget."""
