"""Monic Chebyshev polynomials on [-2, 2], their Gauss rule, and Gauss-Legendre rules.

Phi_n denotes the monic second-kind polynomial (orthonormal for the
semicircle weight sqrt(4-x^2)/(2 pi)), T_n the monic first-kind one.
With x = 2 cos(theta):

    Phi_n(x) = sin((n+1) theta) / sin(theta),     T_n(x) = 2 cos(n theta)

The three-term recurrence x Phi_n = Phi_{n+1} + Phi_{n-1} (with
Phi_{-1} = 0) is the primary evaluator; the trigonometric closed form
degrades near the endpoints (sin(theta) -> 0) and serves only as an
interior test oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exceptions import DomainError
from .report import CheckReport

_INTERIOR_MARGIN = 1e-6


def _check_support(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 2.0):
        raise DomainError(f"{name} must lie in [-2, 2]")
    return arr


def phi(n: int, x):
    """Monic second-kind polynomial Phi_n(x) by forward recurrence.

    Accepts a scalar or array x in [-2, 2]; returns the same shape.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    arr = _check_support(x)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    for _ in range(n):
        prev, cur = cur, arr * cur - prev
    return cur if cur.shape else float(cur)


def phi_all(n_max: int, x) -> np.ndarray:
    """Values Phi_0(x), ..., Phi_{n_max}(x) stacked along the first axis."""
    if n_max < 0:
        raise DomainError(f"degree must be >= 0, got {n_max}")
    arr = _check_support(x)
    out = np.empty((n_max + 1,) + arr.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = arr
        for k in range(2, n_max + 1):
            out[k] = arr * out[k - 1] - out[k - 2]
    return out


def phi_closed_form(n: int, x) -> float:
    """Interior trigonometric closed form sin((n+1) theta)/sin(theta).

    Valid only away from the endpoints (|x| <= 2 - 1e-6); used as a test
    oracle for the recurrence.
    """
    arr = _check_support(x)
    if np.any(np.abs(arr) > 2.0 - _INTERIOR_MARGIN):
        raise DomainError("closed form restricted to the interior |x| <= 2 - 1e-6")
    theta = np.arccos(arr / 2.0)
    val = np.sin((n + 1) * theta) / np.sin(theta)
    return val if val.shape else float(val)


def t_cheb(n: int, x):
    """Monic first-kind polynomial T_n(x) = 2 cos(n arccos(x/2)); T_0 = 2."""
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    arr = _check_support(x)
    val = 2.0 * np.cos(n * np.arccos(arr / 2.0))
    return val if val.shape else float(val)


@lru_cache(maxsize=16)
def quadrature_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the semicircle probability measure on [-2, 2].

    Nodes x_k = 2 cos(k pi / (m+1)) and weights
    w_k = 2 sin^2(k pi/(m+1)) / (m+1), k = 1..m; exact for polynomials
    of degree <= 2m - 1.  Computed once per m; the arrays are read-only
    because every caller shares them.
    """
    if m < 1:
        raise DomainError(f"node count must be >= 1, got {m}")
    k = np.arange(1, m + 1)
    angles = k * np.pi / (m + 1)
    nodes = 2.0 * np.cos(angles)
    weights = (2.0 / (m + 1)) * np.sin(angles) ** 2
    return _read_only(nodes), _read_only(weights)


@lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return _read_only(nodes), _read_only(weights)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def connection_checks(n_max: int, x_grid) -> list[CheckReport]:
    """Verify the three first/second-kind connection identities on a grid.

        T_{n+1} = Phi_{n+1} - Phi_{n-1}
        2 T_{n+1} = x T_n - (4 - x^2) Phi_{n-1}
        T_{n+1} = 2 Phi_{n+1} - x Phi_n

    with the convention Phi_{-1} = 0.  Residuals are relative to
    max(1, |T_{n+1}|).  T_0 .. T_{n_max+1} are one array 2 cos(n theta),
    x = 2 cos(theta), entry for entry the values of `t_cheb`.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    xs = _check_support(np.asarray(x_grid, dtype=float))
    pv = phi_all(n_max + 1, xs)
    phim1 = np.vstack([np.zeros_like(xs)[None, :], pv[:-2]])  # Phi_{n-1}, row n
    t_all = 2.0 * np.cos(np.arange(n_max + 2)[:, None] * np.arccos(xs / 2.0))
    tn, tnext = t_all[:-1], t_all[1:]
    scale = np.maximum(1.0, np.abs(tnext))
    res1 = float(np.max(np.abs(tnext - (pv[1:] - phim1)) / scale))
    res2 = float(np.max(np.abs(2.0 * tnext - (xs * tn - (4.0 - xs**2) * phim1)) / scale))
    res3 = float(np.max(np.abs(tnext - (2.0 * pv[1:] - xs * pv[:-1])) / scale))
    tol = 1e-11
    return [
        CheckReport("T[n+1] = Phi[n+1] - Phi[n-1]", res1, tol),
        CheckReport("2 T[n+1] = x T[n] - (4-x^2) Phi[n-1]", res2, tol),
        CheckReport("T[n+1] = 2 Phi[n+1] - x Phi[n]", res3, tol),
    ]
