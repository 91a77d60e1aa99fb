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
translation group on the two lowest levels, each one Bessel term or two
plus x times one of those integral forms.

The pointwise closed forms are the amplitude-series-verified versions:
assembling the Bessel trigonometric sums introduces a boundary term
-J_{k+1}(2t) Phi_1(x) that exactly cancels the low-order Bessel term a
naive rearrangement would keep; both forms here were validated to
machine precision against the matrix-exponential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .exceptions import SingularNodeError, check_finite, check_support, check_theta
from .orthopoly import _INTERIOR_MARGIN, gauss_legendre, phi_all, quadrature_rule, t_cheb
from .specfun import _MAX_ABS_ARGUMENT, _tail_index, bessel_j, bessel_j_all

_MAX_T_BESSEL = _MAX_ABS_ARGUMENT / 2  # the Bessel argument is 2t
_ANGLE_PANELS = 24  # Gauss-Legendre panels of `pv_integral_angle`, half on each side of theta
_ANGLE_ORDER = 16  # nodes per panel
_KAPTEYN_TOL = 1e-12  # truncation of the Kapteyn series
# least gap from a point to the nearest PV node: that node's terms f(y) w / gap and f(x) w / gap
# cancel only to their rounding, and with the 2048-node rule Phi_0..Phi_12 err by up to 7.0e-6
# at 1.01e-12
_SINGULAR_GAP = 1e-10


@dataclass(frozen=True)
class ChebSeries:
    """Function on [-2, 2] as coefficients over the monic second-kind basis.

    The coefficients run along the last axis; any leading axes are a
    batch of series, and every method and transform acts on each series
    of the batch as on that series alone.
    """

    coeffs: np.ndarray

    @staticmethod
    def from_coeffs(coeffs) -> "ChebSeries":
        return ChebSeries(np.asarray(coeffs, dtype=complex))

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    def norm_sq(self):
        """Squared L2(mu) norm: the basis is orthonormal.  A float, or an array of the batch shape."""
        sq = np.sum(np.abs(self.coeffs) ** 2, axis=-1)
        return sq if sq.ndim else float(sq)

    def evaluate(self, x):
        vals = phi_all(self.degree, x)
        return np.tensordot(self.coeffs, vals, axes=(-1, 0))


@dataclass(frozen=True)
class TChebSeries:
    """Coefficients over the monic first-kind basis T_0, T_1, ..., along the last axis as in `ChebSeries`."""

    coeffs: np.ndarray


def hilbert_mu_spectral(f: ChebSeries) -> TChebSeries:
    """Spectral transform: sum c_n Phi_n maps to sum c_n T_{n+1} exactly, for each series along the last axis."""
    c = f.coeffs
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), dtype=complex)
    out[..., 1:] = c
    return TChebSeries(out)


def t_to_phi(series: TChebSeries) -> ChebSeries:
    """Re-expand a first-kind series over the second-kind basis, for each series along the last axis.

    Uses T_0 = 2 Phi_0 and T_j = Phi_j - Phi_{j-2} (j >= 1, Phi_{-1} = 0).
    """
    d = series.coeffs
    out = np.zeros(d.shape, dtype=complex)
    out[..., 0] += 2.0 * d[..., 0]
    out[..., 1:] += d[..., 1:]
    out[..., :-2] -= d[..., 2:]
    return ChebSeries(out)


def hilbert_mu_pv(f, x, m: int = 2048):
    """Principal-value quadrature of the transform at interior points.

    Singularity subtraction: with the interior moment
    p.v. integral dmu(y)/(x - y) = x/2,

        (H f)(x) = 2 integral (f(y) - f(x))/(x - y) dmu(y) + f(x) x.

    x is a scalar (returns a float) or an array (returns an array of its
    shape); f is evaluated once on the nodes and once on all points, so
    it must be evaluable on arrays over [-2, 2].  With the point-node
    kernel w(y) / (x - y), the sum 2 sum (f(y) - f(x)) kernel + f(x) x
    is taken as one contraction of the node values with the kernel, less
    f(x) times the kernel's row sum, over every node.  An f that returns
    k functions stacked on a new first axis (such as `phi_all(n, y)`) is
    transformed in the same contraction, and the result has shape
    (k,) + shape(x); each row equals the call with that row's function
    alone, and each point the call at that point alone, bit for bit.

    A point closer than 1e-10 to a node is refused: there the node's two
    terms, f(y) kernel and f(x) kernel, grow like w / (x - y) and cancel
    only to their rounding.  With the default m = 2048, every point the
    guard accepts meets 1e-6 for Phi_0..Phi_12 against T_1..T_13: at
    1.0001e-10 on either side of every node the largest error is 8.6e-8,
    where at 1.01e-12 it would be 7.0e-6.  A coarser rule has larger
    weights and proportionally larger errors.

    Raises:
        DomainError: if any point is not interior to [-2, 2].
        SingularNodeError: if any point lies within 1e-10 of a quadrature
            node (perturb the evaluation point or change m).
    """
    xs = check_support(x, 2.0**-52).reshape(-1)  # 2 - 2^-52 is the largest double below 2
    nodes, weights = quadrature_rule(m)
    dist = xs[:, None] - nodes
    gap = np.min(np.abs(dist), axis=1)
    if np.min(gap) < _SINGULAR_GAP:
        raise SingularNodeError(f"x={xs[np.argmin(gap)]} coincides with a quadrature node for m={m}")
    kernel = weights / dist
    vals = np.asarray(f(nodes))
    stacked = vals.ndim > 1
    vals = vals.reshape(-1, m)
    fx = np.asarray(f(xs)).reshape(len(vals), -1)
    # einsum sums each entry over the nodes in one order, whatever the number of rows and points
    out = 2.0 * (np.einsum("rj,pj->rp", vals, kernel) - fx * np.sum(kernel, axis=1)) + fx * xs
    if stacked:
        return out.reshape((len(vals),) + np.shape(x))
    return out[0].reshape(np.shape(x)) if np.ndim(x) else float(out[0, 0])


def momentum_apply(f: ChebSeries) -> ChebSeries:
    """Momentum action i (H f) re-expanded over the second-kind basis.

    On coefficients this is out_k = i (c_{k-1} - c_{k+1}), identical to
    the tridiagonal matrix i (raising - lowering), for each series along
    the last axis.
    """
    return ChebSeries(1j * t_to_phi(hilbert_mu_spectral(f)).coeffs)


def kinetic_apply(f: ChebSeries) -> ChebSeries:
    """Half-square of the momentum: (1/2) P^2 f = -(1/2) H(H f), for each series along the last axis."""
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

def pv_integral_angle(g, theta):
    """p.v. integral of g(phi) / (cos(theta) - cos(phi)) over [0, pi], at one angle or an array of them.

    Subtracts g(theta) (the subtracted kernel integrates to zero in the
    principal-value sense) and integrates the now-removable integrand by
    composite Gauss-Legendre panels split at the singular angle.  The
    denominator is taken as 2 sin((phi + theta)/2) sin((phi - theta)/2),
    which does not cancel near the edges of (0, pi); a node that rounds
    onto theta there lies in a panel narrower than theta or pi - theta
    and is dropped.  All `_ANGLE_PANELS` panels of `_ANGLE_ORDER` nodes
    of every angle are evaluated as one array, so g must act elementwise
    on arrays of angles; each angle's panel sums are added in panel
    order.  theta is a scalar (returns a float) or an array (returns an
    array of its shape), and each angle's value equals its scalar call
    bit for bit.
    """
    thetas = check_theta(theta)
    flat = thetas.reshape(-1)
    xg, wg = gauss_legendre(_ANGLE_ORDER)
    half = _ANGLE_PANELS // 2
    edges = np.concatenate([_spaced(0.0, flat, half + 1)[:-1], _spaced(flat, pi, half + 1)])
    a, b = edges[:-1, :, None], edges[1:, :, None]  # panel, angle, node
    xs = 0.5 * (b - a) * xg + 0.5 * (a + b)
    ws = 0.5 * (b - a) * wg
    at = flat[:, None]
    gap = 2.0 * np.sin(0.5 * (xs + at)) * np.sin(0.5 * (xs - at))
    terms = np.divide(ws * (g(xs) - g(at)), gap, out=np.zeros(xs.shape), where=gap != 0.0)
    # a running sum over the panels adds them in panel order, as a loop would
    total = np.cumsum(np.sum(terms, axis=2), axis=0)[-1]
    return total.reshape(thetas.shape) if thetas.ndim else float(total[0])


def _spaced(start, stop, num: int) -> np.ndarray:
    """np.linspace(start, stop, num) for each angle on its own, stacked along a new first axis.

    A call of np.linspace on arrays takes its subnormal-step formula for
    every entry once any step is 0; here each entry takes the formula
    that its own call would.
    """
    delta = np.subtract(stop, start)
    step = delta / (num - 1)
    i = np.arange(num, dtype=float)[:, None]
    y = i * step
    zero = step == 0.0
    if zero.any():
        y[:, zero] = i / (num - 1) * delta[zero]
    y += start
    y[-1] = stop
    return y


def kapteyn_sum_sin(t: float, theta: float) -> float:
    """Alternating Bessel sine sum  sum_{m>=1} (-1)^m J_m(2t) sin(m theta)."""
    return _kapteyn_series(t, theta, np.sin)


def kapteyn_sum_cos(t: float, theta: float) -> float:
    """Alternating Bessel cosine sum  sum_{m>=1} (-1)^m J_m(2t) cos(m theta)."""
    return _kapteyn_series(t, theta, np.cos)


def _kapteyn_series(t: float, theta: float, trig) -> float:
    check_theta(theta)
    check_finite("t", t, _MAX_T_BESSEL)
    n_max = _tail_index(0.0, abs(t), _KAPTEYN_TOL)
    jv = bessel_j_all(n_max, 2.0 * t).values
    ms = np.arange(1, n_max + 1)
    return float(np.sum(((-1.0) ** ms) * jv[1:] * trig(ms * theta)))


def kapteyn_integral_sin(t: float, theta):
    """Principal-value integral form of the alternating Bessel sine sum, at one angle or an array of them.

        -sin(2t sin theta)/2
        - (sin theta / 2 pi) p.v. int_0^pi cos(2t sin phi)/(cos theta - cos phi) dphi

    theta is a scalar (returns a float) or an array (returns an array of
    its shape), read in one `pv_integral_angle` pass.
    """
    check_finite("t", t, _MAX_T_BESSEL)
    integral = pv_integral_angle(lambda p: np.cos(2.0 * t * np.sin(p)), theta)
    return _float_like(-np.sin(2.0 * t * np.sin(theta)) / 2.0 - np.sin(theta) / (2.0 * pi) * integral)


def kapteyn_integral_cos(t: float, theta):
    """Principal-value integral form of the alternating Bessel cosine sum, at one angle or an array of them.

        (cos(2t sin theta) - J_0(2t))/2
        - (1/2 pi) p.v. int_0^pi sin(2t sin phi) sin(phi)/(cos theta - cos phi) dphi

    theta is a scalar or an array, as for `kapteyn_integral_sin`.
    """
    check_finite("t", t, _MAX_T_BESSEL)
    integral = pv_integral_angle(lambda p: np.sin(2.0 * t * np.sin(p)) * np.sin(p), theta)
    return _float_like((np.cos(2.0 * t * np.sin(theta)) - bessel_j(0, 2.0 * t).value) / 2.0 - integral / (2.0 * pi))


def evolved_vacuum_closed_form(t: float, x):
    """Translation group applied to the vacuum, evaluated pointwise.

    With theta = arccos(x/2) and the Kapteyn sine integral:

        J_0(2t) + (x / sin theta) kapteyn_integral_sin(t, theta)

    Equals the amplitude series sum_l (-1)^l (l+1) J_{l+1}(2t)/t Phi_l(x);
    the value is real for real t.  x is a scalar (returns a complex) or
    an array (returns a complex array of its shape): the Bessel value is
    read once and one `pv_integral_angle` pass covers every angle.
    """
    check_finite("t", t, _MAX_T_BESSEL)
    xs = check_support(x, _INTERIOR_MARGIN)
    theta = np.arccos(xs / 2.0)
    return _complex_like(bessel_j(0, 2.0 * t).value + xs / np.sin(theta) * kapteyn_integral_sin(t, theta))


def evolved_phi1_closed_form(t: float, x):
    """Translation group applied to the first excited level, pointwise.

    With theta = arccos(x/2) and the Kapteyn cosine integral:

        2 J_1(2t) + x J_0(2t) + 2x kapteyn_integral_cos(t, theta)

    x is a scalar (returns a complex) or an array (returns a complex
    array of its shape): the Bessel values are read once and one
    `pv_integral_angle` pass covers every angle.
    """
    check_finite("t", t, _MAX_T_BESSEL)
    xs = check_support(x, _INTERIOR_MARGIN)
    j0, j1 = bessel_j(0, 2.0 * t).value, bessel_j(1, 2.0 * t).value
    return _complex_like(2.0 * j1 + xs * j0 + 2.0 * xs * kapteyn_integral_cos(t, np.arccos(xs / 2.0)))


def _float_like(val):
    """val itself, or a float for a 0-d val."""
    return val if np.ndim(val) else float(val)


def _complex_like(val: np.ndarray):
    """A complex array of val's shape, or a complex scalar for a 0-d val."""
    return val.astype(complex) if val.ndim else complex(val)


def spectral_identity_table(n_max: int, x: float) -> list[tuple[int, float, float]]:
    """Rows (n, (H Phi_n)(x) by PV quadrature, T_{n+1}(x)) for display, from one stacked PV call."""
    pv = hilbert_mu_pv(lambda y: phi_all(n_max, y), x)
    return [(n, float(pv[n]), t_cheb(n + 1, x)) for n in range(n_max + 1)]
