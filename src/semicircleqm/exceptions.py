"""Exception types shared across the package, and one guard per kind of argument.

Every public function checks its t, x, theta, tol, omega, orders and
levels with these guards.  Every comparison is written so that NaN fails it.
"""

import numpy as np


class DomainError(ValueError):
    """Argument outside the supported domain of an operation."""


class DimensionError(ValueError):
    """Operator or vector dimensions are invalid or incompatible."""


class TruncationError(ValueError):
    """Requested quantity is corrupted by the finite truncation dimension."""


class EnumerationLimitError(ValueError):
    """Exhaustive enumeration refused: the search space is too large."""


class ConvergenceError(RuntimeError):
    """A series or iteration failed to reach the requested tolerance."""


class PoleError(ValueError):
    """Evaluation requested at a pole of the function."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to meet the requested tolerance."""


class SingularNodeError(ValueError):
    """Evaluation point collides with a quadrature node of a singular rule."""


class CrossCheckError(ArithmeticError):
    """Two independent evaluation paths of the same quantity disagree."""


def check_finite(name: str, value, cap: float = np.inf) -> None:
    """Refuse a value that is not finite or has |value| > cap: t, the Bessel and 1F1 arguments, omega."""
    size = abs(value)
    if not (size < np.inf and size <= cap):
        rule = f"{name} must be finite" if cap == np.inf else f"|{name}| <= {cap:g} required"
        raise DomainError(f"{rule}, got {value}")


def check_positive(name: str, value: float) -> None:
    """Refuse a value outside (0, inf): the guard of every tol."""
    if not 0.0 < value < np.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


def check_index(name: str, *values, least: int = 0) -> None:
    """Refuse orders, levels, degrees or node counts that are not integers >= least."""
    for n in values:
        if not (n >= least and n % 1 == 0):
            raise DomainError(f"{name}: an integer >= {least} required, got {n}")


def check_theta(theta: float) -> None:
    """Refuse an angle outside the open interval (0, pi)."""
    if not 0.0 < theta < np.pi:
        raise DomainError(f"theta must lie in (0, pi), got {theta}")


def check_support(x, margin: float = 0.0) -> np.ndarray:
    """x, a scalar or an array, as floats; refused unless every |x| <= 2 - margin (0: the support [-2, 2])."""
    arr = np.asarray(x, dtype=float)
    inside = np.abs(arr) <= 2.0 - margin
    if not inside.all():
        rule = "x must lie in [-2, 2]" if margin == 0.0 else f"|x| <= 2 - {margin:g} required"
        raise DomainError(f"{rule}, got {arr.flat[np.argmin(inside)]}")
    return arr
