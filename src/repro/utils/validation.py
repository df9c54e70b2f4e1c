"""Argument validation helpers shared across the package."""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigurationError, ShapeError


def check_square(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as an ndarray, raising :class:`ShapeError` if not square."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square 2-D, got shape {a.shape}")
    return a


def check_finite(a, name: str = "array") -> np.ndarray:
    """Raise :class:`ShapeError` if ``a`` contains NaN or Inf."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} contains non-finite entries")
    return a


def check_positive(value, name: str = "value"):
    """Raise :class:`ConfigurationError` unless ``value`` > 0."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def check_power_of_two(n: int, name: str = "value") -> int:
    """Raise unless ``n`` is a positive power of two (SplitSolve partitions)."""
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"{name} must be a power of two, got {n}")
    return n


def check_positive_int(value, name: str) -> int:
    """Return ``value`` as an int >= 1; reject bools and fractions.

    ``int()`` alone would silently run ``2.5`` as 2 and ``True`` as 1.
    """
    try:
        integral = not isinstance(value, bool) \
            and float(value).is_integer()
    except (TypeError, ValueError):
        integral = False
    if not integral or int(value) < 1:
        raise ConfigurationError(
            f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def as_complex_array(a) -> np.ndarray:
    """Return a C-contiguous complex128 copy-or-view of ``a``."""
    return np.ascontiguousarray(a, dtype=np.complex128)
