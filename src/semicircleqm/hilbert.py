"""Weighted finite-interval Hilbert transform on the semicircle space.

For the semicircle probability measure mu on [-2, 2] the transform

    (H f)(x) = 2 p.v. integral f(y) / (x - y) dmu(y)

maps the monic second-kind polynomial Phi_n to the monic first-kind
polynomial T_{n+1}; on coefficient series this is an exact relabeling
(the spectral path).  The quadrature path evaluates the principal value
directly by singularity subtraction, using the closed-form moment
p.v. integral dmu(y)/(x - y) = x/2 on the interior.  The momentum
operator of the semicircle space is i times this transform, which the
module exposes together with the kinetic (half-square) action, the
Schroedinger weight, Bessel trigonometric sums with their
principal-value integral forms, and pointwise closed forms for the
translation group on the two lowest levels.

The pointwise closed forms are the amplitude-series-verified versions:
assembling the Bessel trigonometric sums introduces a boundary term
-J_{k+1}(2t) Phi_1(x) that exactly cancels the low-order Bessel term a
naive rearrangement would keep; both forms here were validated to
machine precision against the matrix-exponential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, pi, sin

import numpy as np

from .exceptions import SingularNodeError, check_finite, check_support, check_theta
from .orthopoly import _INTERIOR_MARGIN, gauss_legendre, phi_all, quadrature_rule, t_cheb
from .specfun import _MAX_ABS_ARGUMENT, bessel_j, bessel_j_all, bessel_tail_index

_MAX_T_BESSEL = _MAX_ABS_ARGUMENT / 2  # the Bessel argument is 2t


@dataclass(frozen=True)
class ChebSeries:
    """Function on [-2, 2] as coefficients over the monic second-kind basis."""

    coeffs: np.ndarray

    @staticmethod
    def from_coeffs(coeffs) -> "ChebSeries":
        return ChebSeries(np.asarray(coeffs, dtype=complex))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def norm_sq(self) -> float:
        """Squared L2(mu) norm: the basis is orthonormal."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def evaluate(self, x):
        vals = phi_all(self.degree, x)
        return np.tensordot(self.coeffs, vals, axes=(0, 0))


@dataclass(frozen=True)
class TChebSeries:
    """Coefficients over the monic first-kind basis T_0, T_1, ..."""

    coeffs: np.ndarray


def hilbert_mu_spectral(f: ChebSeries) -> TChebSeries:
    """Spectral transform: sum c_n Phi_n maps to sum c_n T_{n+1} exactly."""
    out = np.zeros(f.coeffs.size + 1, dtype=complex)
    out[1:] = f.coeffs
    return TChebSeries(out)


def t_to_phi(series: TChebSeries) -> ChebSeries:
    """Re-expand a first-kind series over the second-kind basis.

    Uses T_0 = 2 Phi_0 and T_j = Phi_j - Phi_{j-2} (j >= 1, Phi_{-1} = 0).
    """
    d = series.coeffs
    out = np.zeros(d.size, dtype=complex)
    out[0] += 2.0 * d[0]
    out[1:] += d[1:]
    out[:-2] -= d[2:]
    return ChebSeries(out)


def hilbert_mu_pv(f, x, m: int = 2048):
    """Principal-value quadrature of the transform at interior points.

    Singularity subtraction: with the interior moment
    p.v. integral dmu(y)/(x - y) = x/2,

        (H f)(x) = 2 integral (f(y) - f(x))/(x - y) dmu(y) + f(x) x.

    x is a scalar (returns a float) or an array (returns an array of its
    shape); f is evaluated once on the nodes and once on all points, so
    it must be evaluable on arrays over [-2, 2].  The point-node kernel
    w(y) / (x - y) is formed once per call, and the sum is taken as
    2 sum (f(y) - f(x)) kernel + f(x) x, so the subtracted integrand
    stays bounded.  An f that returns k functions stacked on a new first
    axis (such as `phi_all(n, y)`) is transformed row by row against
    that one kernel, and the result has shape (k,) + shape(x); each row
    equals the call with that row's function alone, bit for bit.

    Raises:
        DomainError: if any point is not interior to [-2, 2].
        SingularNodeError: if any point collides with a quadrature node
            (perturb the evaluation point or change m).
    """
    xs = check_support(x, 2.0**-52).reshape(-1)  # 2 - 2^-52 is the largest double below 2
    nodes, weights = quadrature_rule(m)
    dist = xs[:, None] - nodes
    gap = np.min(np.abs(dist), axis=1)
    if np.min(gap) < 1e-12:
        raise SingularNodeError(f"x={xs[np.argmin(gap)]} coincides with a quadrature node for m={m}")
    kernel = weights / dist
    vals = np.asarray(f(nodes))
    stacked = vals.ndim > 1
    rows = len(vals) if stacked else 1
    fx = np.asarray(f(xs)).reshape(rows, -1)
    # one row at a time: a (rows, points, nodes) temporary would cost far more memory
    out = np.stack(
        [
            2.0 * np.sum((v - f_x[:, None]) * kernel, axis=1) + f_x * xs
            for v, f_x in zip(vals.reshape(rows, -1), fx)
        ]
    )
    if stacked:
        return out.reshape((rows,) + np.shape(x))
    return out[0].reshape(np.shape(x)) if np.ndim(x) else float(out[0, 0])


def momentum_apply(f: ChebSeries) -> ChebSeries:
    """Momentum action i (H f) re-expanded over the second-kind basis.

    On coefficients this is out_k = i (c_{k-1} - c_{k+1}), identical to
    the tridiagonal matrix i (raising - lowering).
    """
    return ChebSeries(1j * t_to_phi(hilbert_mu_spectral(f)).coeffs)


def kinetic_apply(f: ChebSeries) -> ChebSeries:
    """Half-square of the momentum: (1/2) P^2 f = -(1/2) H(H f)."""
    once = momentum_apply(f)
    twice = momentum_apply(once)
    return ChebSeries(0.5 * twice.coeffs)


def rho_weight(x):
    """Schroedinger weight (2 pi)^(-1/2) (4 - x^2)^(1/4), zero off [-2, 2].

    Its square is the semicircle probability density.
    """
    arr = np.asarray(x, dtype=float)
    check_finite("x", float(np.max(np.abs(arr), initial=0.0)))
    inside = np.abs(arr) <= 2.0
    vals = np.where(inside, (np.clip(4.0 - arr**2, 0.0, None)) ** 0.25 / np.sqrt(2.0 * np.pi), 0.0)
    return vals if vals.shape else float(vals)


# ---------------------------------------------------------------------------
# principal-value integrals over the angle variable

def pv_integral_angle(g, theta: float, panels: int = 24, order: int = 16) -> float:
    """p.v. integral of g(phi) / (cos(theta) - cos(phi)) over [0, pi].

    Subtracts g(theta) (the subtracted kernel integrates to zero in the
    principal-value sense) and integrates the now-removable integrand by
    composite Gauss-Legendre panels split at the singular angle.  All
    panels are evaluated as one (panels x order) array; their sums are
    added in panel order.
    """
    check_theta(theta)
    xg, wg = gauss_legendre(order)
    g_theta = g(np.array([theta]))[0]
    half = max(2, panels // 2)
    edges = np.concatenate([np.linspace(0.0, theta, half + 1)[:-1], np.linspace(theta, pi, half + 1)])
    a, b = edges[:-1, None], edges[1:, None]
    xs = 0.5 * (b - a) * xg + 0.5 * (a + b)
    ws = 0.5 * (b - a) * wg
    panel_sums = np.sum(ws * (g(xs) - g_theta) / (cos(theta) - np.cos(xs)), axis=1)
    total = 0.0
    for panel in panel_sums:
        total += float(panel)
    return total


def kapteyn_sum_sin(t: float, theta: float, tol: float = 1e-12) -> float:
    """Alternating Bessel sine sum  sum_{m>=1} (-1)^m J_m(2t) sin(m theta)."""
    return _kapteyn_series(t, theta, tol, np.sin)


def kapteyn_sum_cos(t: float, theta: float, tol: float = 1e-12) -> float:
    """Alternating Bessel cosine sum  sum_{m>=1} (-1)^m J_m(2t) cos(m theta)."""
    return _kapteyn_series(t, theta, tol, np.cos)


def _kapteyn_series(t: float, theta: float, tol: float, trig) -> float:
    check_theta(theta)
    check_finite("t", t, 8.0)
    n_max = bessel_tail_index(t, tol)  # at most 305 terms for |t| <= 8 and any tol > 0
    jv = bessel_j_all(n_max, 2.0 * t).values
    ms = np.arange(1, n_max + 1)
    return float(np.sum(((-1.0) ** ms) * jv[1:] * trig(ms * theta)))


def kapteyn_integral_sin(t: float, theta: float) -> float:
    """Principal-value integral form of the alternating Bessel sine sum.

        -sin(2t sin theta)/2
        - (sin theta / 2 pi) p.v. int_0^pi cos(2t sin phi)/(cos theta - cos phi) dphi
    """
    check_finite("t", t)
    integral = pv_integral_angle(lambda p: np.cos(2.0 * t * np.sin(p)), theta)
    return -sin(2.0 * t * sin(theta)) / 2.0 - sin(theta) / (2.0 * pi) * integral


def kapteyn_integral_cos(t: float, theta: float) -> float:
    """Principal-value integral form of the alternating Bessel cosine sum.

        (cos(2t sin theta) - J_0(2t))/2
        - (1/2 pi) p.v. int_0^pi sin(2t sin phi) sin(phi)/(cos theta - cos phi) dphi
    """
    check_finite("t", t, _MAX_T_BESSEL)
    integral = pv_integral_angle(lambda p: np.sin(2.0 * t * np.sin(p)) * np.sin(p), theta)
    return (cos(2.0 * t * sin(theta)) - bessel_j(0, 2.0 * t).value) / 2.0 - integral / (2.0 * pi)


def evolved_vacuum_closed_form(t: float, x: float) -> complex:
    """Translation group applied to the vacuum, evaluated pointwise.

    With theta = arccos(x/2):

        J_0(2t) - x sin(2t sin theta)/(2 sin theta)
                - (x/2 pi) p.v. int_0^pi cos(2t sin phi)/(cos theta - cos phi) dphi

    Equals the amplitude series sum_l (-1)^l (l+1) J_{l+1}(2t)/t Phi_l(x);
    the value is real for real t.
    """
    check_finite("t", t, _MAX_T_BESSEL)
    check_support(x, _INTERIOR_MARGIN)
    theta = acos(x / 2.0)
    if t == 0.0:
        return 1.0 + 0j
    integral = pv_integral_angle(lambda p: np.cos(2.0 * t * np.sin(p)), theta)
    val = (
        bessel_j(0, 2.0 * t).value
        - x * sin(2.0 * t * sin(theta)) / (2.0 * sin(theta))
        - x / (2.0 * pi) * integral
    )
    return complex(val)


def evolved_phi1_closed_form(t: float, x: float) -> complex:
    """Translation group applied to the first excited level, pointwise.

    With theta = arccos(x/2):

        2 J_1(2t) + x cos(2t sin theta)
                  - (x/pi) p.v. int_0^pi sin(2t sin phi) sin(phi)/(cos theta - cos phi) dphi
    """
    check_finite("t", t, _MAX_T_BESSEL)
    check_support(x, _INTERIOR_MARGIN)
    theta = acos(x / 2.0)
    if t == 0.0:
        return complex(x)
    integral = pv_integral_angle(lambda p: np.sin(2.0 * t * np.sin(p)) * np.sin(p), theta)
    val = 2.0 * bessel_j(1, 2.0 * t).value + x * cos(2.0 * t * sin(theta)) - x / pi * integral
    return complex(val)


def spectral_identity_table(n_max: int, x: float) -> list[tuple[int, float, float]]:
    """Rows (n, (H Phi_n)(x) by PV quadrature, T_{n+1}(x)) for display, from one stacked PV call."""
    pv = hilbert_mu_pv(lambda y: phi_all(n_max, y), x)
    return [(n, float(pv[n]), t_cheb(n + 1, x)) for n in range(n_max + 1)]
