"""Exception hierarchy shared by all filpiv modules.

Numeric failures (poles, non-convergence, step underflow) are separated from
configuration errors so the CLI can map them to distinct exit codes.
"""

from __future__ import annotations


class FilpivError(Exception):
    """Base class for all filpiv errors."""


class ConfigError(FilpivError):
    """Invalid run configuration or inconsistent input data."""


class NumericError(FilpivError):
    """A numeric procedure failed (pole hit, divergence, underflow)."""


class InvariantViolation(FilpivError):
    """A monitored invariant drifted beyond its threshold."""


class DomainError(NumericError):
    """Argument outside the admissible mathematical domain of a formula."""


# --- special functions -----------------------------------------------------

class GammaPoleError(NumericError):
    """Gamma evaluated at a non-positive integer."""


class NonConvergenceError(NumericError):
    """No evaluation regime reached the requested tolerance."""


# --- integration -----------------------------------------------------------

class StepUnderflowError(NumericError):
    """Step size collapsed; the solution likely has a nearby pole."""

    def __init__(self, msg, s=None):
        super().__init__(msg)
        self.s = s


class MaxStepsExceededError(NumericError):
    """Step budget exhausted before reaching the end of the span."""


# --- flow ------------------------------------------------------------------

class InconsistentCauchyDataError(ConfigError):
    """Initial data violate the conserved-quantity relation."""


class ZeroAxisError(ConfigError):
    """Operation requires a > 0."""


class IntegrandPoleError(NumericError):
    """Quadrature integrand has a pole inside the interval."""


class RangeError(ConfigError, ValueError):
    """A point lies outside the trajectory span or the span to integrate."""


class VanishingCurvatureError(NumericError):
    """Torsion undefined where the curvature scaling vanishes."""


# --- painleve --------------------------------------------------------------

class InconsistentJetError(ConfigError):
    """Sigma jet does not satisfy the quadratic ODE for the given parameters."""


# --- asympt ----------------------------------------------------------------

class WindowTooShortError(ConfigError):
    """Fit window spans fewer oscillation periods than required."""


class OmegaOutOfBoundsError(NumericError):
    """Fitted omega violates its closed bounds."""


class NonRealMonodromyError(NumericError):
    """Connection output inconsistent with real-solution constraints."""


# --- symmetric -------------------------------------------------------------

class BranchInfeasibleError(ConfigError):
    """Symmetric branch inequalities fail for these parameters."""
