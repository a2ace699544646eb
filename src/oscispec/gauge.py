"""Multiplicative gauge transform built from the corrector.

Conjugating the oscillatory operator H = -d2/dx2 + V(x, x/eps) by the factor
q(x) = 1 + eps^2 v(x, x/eps) turns it into the free operator minus eps times a
first-order perturbation L with compactly supported coefficients:

    (1/q) H (q phi) = -phi'' - eps * L[phi],
    L[phi] = eps * (2/q) * (dv/dx along the diagonal) * phi' - (f/q) * phi,
    f(x)   = eps*V*v - eps*v_xx - 2*v_x_xi     (evaluated at (x, x/eps)).

The identity is exact, which this module exposes as a per-point residual
check; every coefficient comes from closed-form partials of the corrector,
so the residual measures floating-point noise only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .potentials import MIN_POINTS_PER_PERIOD, TwoScaleFunction, build_corrector

# Largest allowed eps^2 * sup|v|; beyond this the gauge factor is no longer
# safely invertible.
_GAUGE_MARGIN = 0.5


@dataclass(frozen=True)
class TestFunction:
    """Scalar probe with exact first and second derivatives."""

    label: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]


def gaussian_bump(center: float, width: float, amplitude: float = 1.0) -> TestFunction:
    c, s, A = float(center), float(width), float(amplitude)

    def f(x):
        return A * np.exp(-((x - c) ** 2) / (2 * s * s))

    def df(x):
        return -(x - c) / (s * s) * f(x)

    def d2f(x):
        return (((x - c) ** 2) / s**4 - 1.0 / (s * s)) * f(x)

    return TestFunction(f"gauss(c={c:g},s={s:g},A={A:g})", f, df, d2f)


def poly_times_gaussian(coeffs: Sequence[float], center: float, width: float) -> TestFunction:
    """p(x) * exp(-(x-c)^2 / (2 s^2)) with p given by ascending coefficients."""
    c, s = float(center), float(width)
    p = np.polynomial.Polynomial(list(coeffs))
    p1 = p.deriv()
    p2 = p1.deriv()

    def e(x):
        return np.exp(-((x - c) ** 2) / (2 * s * s))

    def f(x):
        return p(x) * e(x)

    def df(x):
        return (p1(x) - p(x) * (x - c) / (s * s)) * e(x)

    def d2f(x):
        z = (x - c) / (s * s)
        return (p2(x) - 2.0 * p1(x) * z - p(x) / (s * s) + p(x) * z * (x - c) / (s * s)) * e(x)

    return TestFunction(f"polygauss(deg={p.degree()},c={c:g},s={s:g})", f, df, d2f)


def sinusoid(freq: float, phase: float = 0.0, amplitude: float = 1.0) -> TestFunction:
    w, ph, A = float(freq), float(phase), float(amplitude)

    def f(x):
        return A * np.sin(w * x + ph)

    def df(x):
        return A * w * np.cos(w * x + ph)

    def d2f(x):
        return -A * w * w * np.sin(w * x + ph)

    return TestFunction(f"sin(w={w:g},ph={ph:g},A={A:g})", f, df, d2f)


def default_catalog() -> tuple[TestFunction, ...]:
    """Ten probes mixing Gaussian bumps, polynomial-weighted Gaussians and sinusoids."""
    return (
        gaussian_bump(0.3, 0.4),
        gaussian_bump(0.7, 0.25),
        gaussian_bump(0.15, 0.5, amplitude=2.0),
        gaussian_bump(0.9, 0.6),
        poly_times_gaussian([0.0, 1.0], 0.5, 0.35),
        poly_times_gaussian([-0.3, 0.0, 1.0], 0.4, 0.5),
        poly_times_gaussian([1.0, 1.0, -0.5], 0.5, 0.8),
        poly_times_gaussian([0.0, 0.0, 1.0], 0.8, 0.3),
        sinusoid(2.2, 0.3),
        sinusoid(1.7, 1.2, amplitude=0.8),
    )


class GaugeCoefficients(NamedTuple):
    """The gauge quantities along the fast diagonal, sampled at one set of points."""

    q: np.ndarray  # 1 + eps^2 v
    dq: np.ndarray  # q'
    d2q: np.ndarray  # q''
    f: np.ndarray  # eps*V*v - eps*v_xx - 2*v_x_xi
    vprime: np.ndarray  # total derivative d/dx of v(x, x/eps): v_x + v_xi / eps
    V: np.ndarray


@dataclass(frozen=True)
class GaugeData:
    """The potential, its corrector v and eps: what the gauge quantities are sampled from.

    ``coefficients`` samples them all in one walk over the corrector's modes,
    exact along the fast diagonal: q' and q'' expand the total derivative
    d/dx of v(x, x/eps) through the corrector's closed-form partials, and q''
    reuses d2v/dxi2 = V.
    """

    eps: float
    potential: TwoScaleFunction
    v: TwoScaleFunction

    def coefficients(self, x) -> GaugeCoefficients:
        """q, q', q'', f, v' and V at the points x, from one walk over the corrector's modes."""
        x = np.asarray(x, dtype=float)
        eps = self.eps
        # (dx, dxi) partials of the corrector v, with V = d2v/dxi2
        partials = ((0, 2), (0, 0), (1, 0), (2, 0), (0, 1), (1, 1))
        V, v, v_x, v_xx, v_xi, v_x_xi = self.v._mode_sums(x, x / eps, partials)
        return GaugeCoefficients(
            q=1.0 + eps**2 * v,
            dq=eps**2 * v_x + eps * v_xi,
            d2q=eps**2 * v_xx + 2.0 * eps * v_x_xi + V,
            f=eps * V * v - eps * v_xx - 2.0 * v_x_xi,
            vprime=v_x + v_xi / eps,
            V=V,
        )


def build_gauge(V: TwoScaleFunction, eps: float) -> GaugeData:
    """Build the gauge data, rejecting eps too large for invertibility."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = build_corrector(V)
    if eps**2 * v.sup_abs() >= _GAUGE_MARGIN:
        raise ValueError(
            "epsilon too large: eps^2 * sup|v| reaches "
            f"{eps ** 2 * v.sup_abs():.3g}, gauge factor not safely invertible"
        )
    return GaugeData(eps=float(eps), potential=V, v=v)


def _check_grid(g: GaugeData, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array with at least two points")
    step = float(np.max(np.diff(grid)))
    floor = g.eps / MIN_POINTS_PER_PERIOD
    if step > floor * (1.0 + 1e-12):
        raise ValueError(
            f"grid under-resolves the fast scale: step {step:.3g} exceeds eps/{MIN_POINTS_PER_PERIOD} = {floor:.3g}"
        )
    return grid


def _apply_L(g: GaugeData, c: GaugeCoefficients, phi: TestFunction, grid: np.ndarray) -> np.ndarray:
    """L[phi] on the grid, from the gauge coefficients c sampled there."""
    return g.eps * (2.0 / c.q) * c.vprime * phi.df(grid) - c.f / c.q * phi.f(grid)


def _identity_residuals(g: GaugeData, catalog: Sequence[TestFunction], grid) -> list[float]:
    """``identity_residual`` of every probe, with the gauge sampled on the grid once."""
    grid = _check_grid(g, grid)
    c = g.coefficients(grid)
    out = []
    for phi in catalog:
        fv, dfv, d2fv = phi.f(grid), phi.df(grid), phi.d2f(grid)
        lhs = -(c.d2q * fv + 2.0 * c.dq * dfv + c.q * d2fv) + c.V * c.q * fv
        rhs = c.q * (-d2fv - g.eps * _apply_L(g, c, phi, grid))
        out.append(float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(fv) + np.abs(d2fv)))))
    return out


def identity_residual(g: GaugeData, phi: TestFunction, grid) -> float:
    """Max pointwise defect of H(q*phi) = q*(-phi'' - eps*L[phi]).

    The relative scaling 1 + |phi| + |phi''| makes the number comparable
    across probes.  The identity is algebraically exact, so anything beyond
    accumulated round-off indicates an implementation fault.
    """
    return _identity_residuals(g, (phi,), grid)[0]
