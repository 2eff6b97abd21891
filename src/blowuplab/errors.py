"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the admissible domain of an operation."""


class NumericsError(RuntimeError):
    """A numerical procedure produced non-finite values or failed to converge."""


class SolverError(RuntimeError):
    """A nonlinear solve or approximation ladder failed.

    Carries a ``diagnostics`` dict with whatever the failing routine knew
    (iteration counts, residual history, ladder state).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(ValueError):
    """Invalid problem or experiment configuration.

    ``violations`` lists every detected problem, not just the first.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or [message]


class QuadratureWarning(UserWarning):
    """Adaptive quadrature stopped short of its tolerance; the value returned
    is QUADPACK's best estimate (where scipy's ``quad`` warns with
    ``IntegrationWarning``)."""
