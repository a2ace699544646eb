"""Quadrature of fast-oscillating integrands and averaging-decay diagnostics.

Every integral here runs on one layout, ``_panel_rule``: Gauss-Legendre on
equal panels that tile each interval between consecutive breakpoints, so a
kink at a breakpoint sits on a panel edge and never costs a panel its order.

The fast-period rule takes every mode's support endpoints as breakpoints and
panels of 6 nodes, no wider than eps/8 by default.  It resolves the oscillatory
integral of u far below double round-off, so the difference between it and
the integral of the fast mean is the genuine averaging remainder, not a
quadrature artifact.  The gauge-coefficient integrands of
``asymptotics.compute_k_eps`` carry higher harmonics than u and take eps/16.

Envelope integrals (smooth ``profile_integral``, ``profile_product_integral``
outside its Beta closed forms, the hull route of ``asymptotics.compute_k2``)
lay a fixed count of panels on every interval, without the eps lock, so the
C^inf bump converges spectrally.  32 panels x 16 nodes (48 x 12 on the k2 hull
route, so the two k2 routes share no nodes) match 40-digit references to
2e-15 relative on smooth x smooth and poly x smooth products; 16 x 16 and
24 x 12 reached only 1.1e-13 and 6.5e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .potentials import POLY, SlowProfile, TwoScaleFunction, check_grid_size

# fast-period panel rule (see the module docstring)
_PANELS_PER_PERIOD, _NODES_PER_PANEL = 8, 6

# envelope-integral rule per breakpoint interval (see the module docstring)
_PANELS, _NODES = 32, 16


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=4)
def _integration_matrix(n: int) -> np.ndarray:
    """S[i, j] = int_{-1}^{x_i} l_j for the n Gauss-Legendre nodes x_i and their Lagrange basis l_j.

    S @ f integrates f's interpolant from -1 to every node; the Gauss rule is
    exact on l_j P_k, so l_j = w_j sum_k (k + 1/2) P_k(x_j) P_k.
    """
    x, w = _gauss_legendre(n)
    leg = np.polynomial.legendre
    coef = (leg.legvander(x, n - 1) * (np.arange(n) + 0.5)).T * w  # column j: l_j's Legendre coefficients
    return leg.legvander(x, n) @ leg.legint(coef, lbnd=-1)


def _panel_rule(breaks, n_panels, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n_nodes-point Gauss-Legendre on equal panels of each interval between increasing breakpoints.

    ``n_panels`` is one count for every interval or one count per interval.
    Returns the nodes, the weights and each node's panel left edge, panel by
    panel in increasing x.  An interval's edges are ``np.linspace``'s and
    all its panels take its first panel's half-width, bit for bit.
    """
    pts = np.asarray(breaks, dtype=float)
    lo, hi = pts[:-1], pts[1:]
    counts = np.full(hi.shape, n_panels, dtype=int)
    first = np.cumsum(counts) - counts  # each interval's first panel
    start, step = np.repeat(lo, counts), np.repeat((hi - lo) / counts, counts)
    k = np.arange(start.size) - np.repeat(first, counts)  # each panel's place in its interval
    left = k * step + start
    right = (k + 1) * step + start
    right[first + counts - 1] = hi  # as np.linspace, each interval ends on its breakpoint
    half = np.repeat(0.5 * (right - left)[first], counts)[:, None]
    gx, gw = _gauss_legendre(n_nodes)
    nodes = (0.5 * (left + right))[:, None] + half * gx
    return nodes.ravel(), (half * gw).ravel(), np.repeat(left, n_nodes)


def _fast_rule(breaks: Sequence[float], eps: float, per_period: int = _PANELS_PER_PERIOD) -> tuple[np.ndarray, ...]:
    """``_panel_rule`` between the breakpoints, in any order, on panels no wider than eps/per_period."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive")
    pts = sorted(set(breaks))
    counts = [max(1, math.ceil((hi - lo) / (eps / per_period))) for lo, hi in zip(pts, pts[1:])]
    check_grid_size(sum(counts), "panels", eps, (pts[0], pts[-1]) if pts else (0.0, 0.0))
    return _panel_rule(pts, counts, _NODES_PER_PANEL)


def fast_panel_grid(support: tuple[float, float], eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the fast-period rule on [a, b] = ``support``, a single breakpoint interval."""
    return _fast_rule(support, eps)[:2]


def oscillatory_integral(u: TwoScaleFunction, eps: float) -> complex:
    """Integral of the fast trace x -> u(x, x/eps) over the support hull, on the fast-period rule."""
    nodes, weights, _ = _fast_rule(u.breakpoints, eps)
    return complex(np.sum(weights * u.eval_fast(nodes, eps)))


def _abs_kernel(nodes: np.ndarray, weights: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.generic]:
    """(G, G', int f) at the nodes of a ``_fast_rule``, for G(x) = int |x-t| f(t) dt over its hull.

    G and G'(x) = int sgn(x-t) f(t) dt are assembled from prefix integrals
    C0(x) = int_{x0}^{x} f and C1(x) = int_{x0}^{x} t f(t) dt:

        G(x)  = 2x C0(x) - 2 C1(x) + S1 - x S0,
        G'(x) = 2 C0(x) - S0,

    with S0, S1 the full-interval values.  Splitting at x this way keeps the
    kernel kink out of every quadrature panel, so the rule retains its full
    order.  Inside a panel, C0 and C1 integrate the interpolant of f's node
    samples (``_integration_matrix``), so f is sampled once.
    """
    # rows C0, C1: the sum over earlier panels plus the node's own partial panel,
    # half * S @ f = (S / gw) @ (w f) since a node weight is half * gw
    contrib = np.stack([weights * f, weights * nodes * f]).reshape(2, -1, _NODES_PER_PANEL)
    panel_sums = contrib.sum(axis=2)
    s0, s1 = panel_sums.sum(axis=1)
    partial = (_integration_matrix(_NODES_PER_PANEL) / _gauss_legendre(_NODES_PER_PANEL)[1]).T
    c0, c1 = ((np.cumsum(panel_sums, axis=1) - panel_sums)[..., None] + contrib @ partial).reshape(2, -1)
    return 2.0 * nodes * c0 - 2.0 * c1 + s1 - nodes * s0, 2.0 * c0 - s0, s0


def _breakpoint_integral(
    f: Callable[[np.ndarray], np.ndarray], breaks: Sequence[float], n_panels: int, n_nodes: int
) -> complex:
    """Integral of a vectorized f over the breakpoint hull, n_panels x n_nodes per breakpoint interval."""
    nodes, weights, _ = _panel_rule(sorted(set(breaks)), n_panels, n_nodes)
    return complex(np.sum(weights * f(nodes)))


def _poly_beta(amplitude: complex, p: int, span: float) -> complex:
    """amplitude * int_a^b (x-a)^p (b-x)^p dx = amplitude * (b-a)^(2p+1) * B(p+1, p+1)."""
    return amplitude * span ** (2 * p + 1) * (math.factorial(p) ** 2 / math.factorial(2 * p + 1))


def profile_integral(profile: SlowProfile) -> complex:
    """Integral of an envelope over the line.

    Poly bumps use the Beta closed form, with B expressed through exact
    integer factorials; smooth bumps use the breakpoint panel rule.
    """
    a, b = profile.support
    if profile.kind == POLY:
        return _poly_beta(profile.amplitude, int(profile.power), b - a)
    return _breakpoint_integral(profile.evaluate, (a, b), _PANELS, _NODES)


def profile_product_integral(p1: SlowProfile, p2: SlowProfile) -> complex:
    """Integral of the pointwise product of two envelopes.

    Poly pairs on a shared support combine into a single Beta integral with
    power p1+p2; anything else uses the breakpoint panel rule (32 panels x
    16 Gauss-Legendre nodes) on the support intersection.
    """
    lo = max(p1.support[0], p2.support[0])
    hi = min(p1.support[1], p2.support[1])
    if lo >= hi:
        return 0j
    if p1.kind == POLY and p2.kind == POLY and p1.support == p2.support:
        span = p1.support[1] - p1.support[0]
        return _poly_beta(p1.amplitude * p2.amplitude, int(p1.power) + int(p2.power), span)
    return _breakpoint_integral(lambda x: p1.evaluate(x) * p2.evaluate(x), (lo, hi), _PANELS, _NODES)


def averaged_integral(u: TwoScaleFunction) -> complex:
    """Integral of the fast mean of u over its support."""
    return profile_integral(u.modes[0]) if 0 in u.modes else 0j


@dataclass(frozen=True)
class DecayFit:
    """Log-log fit of the averaging remainder against eps.

    ``errors[i]`` is |oscillatory_integral(u, epsilons[i]) - averaged_integral(u)|.
    The fitted order uses only points above the round-off floor; ``floor_flag``
    records whether any point was dropped.
    """

    epsilons: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    floor_flag: bool
    floor: float
    used: tuple[bool, ...]


def decay_order_fit(u: TwoScaleFunction, epsilons: Sequence[float]) -> DecayFit:
    """Measure how fast the oscillatory integral approaches the averaged one.

    Works for any u: the averaged part is subtracted, which reduces the
    general case to the zero-mean one.  Requires at least three epsilons,
    strictly decreasing, and at least three remainders above the floor.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) < 3:
        raise ValueError("need at least three epsilons for a decay fit")
    if any(not 0 < e < math.inf for e in eps_list) or any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be positive and strictly decreasing")

    # The largest eps is sampled once, for its remainder and for the round-off floor
    # estimate: accumulated rounding of its quadrature, scaled by the L1 size of u.
    nodes, weights, _ = _fast_rule(u.breakpoints, eps_list[0])
    samples = u.eval_fast(nodes, eps_list[0])
    floor = 1e-13 * (1.0 + float(np.sum(weights * np.abs(samples))))
    integrals = [complex(np.sum(weights * samples))] + [oscillatory_integral(u, e) for e in eps_list[1:]]
    limit = averaged_integral(u)
    errors = [abs(v - limit) for v in integrals]

    used = tuple(err > floor for err in errors)
    if sum(used) < 3:
        raise ValueError("insufficient dynamic range: fewer than three remainders above the floor")
    log_eps = np.log([e for e, keep in zip(eps_list, used) if keep])
    log_err = np.log([err for err, keep in zip(errors, used) if keep])
    slope = float(np.polyfit(log_eps, log_err, 1)[0])
    return DecayFit(
        epsilons=tuple(eps_list),
        errors=tuple(errors),
        fitted_order=slope,
        floor_flag=not all(used),
        floor=floor,
        used=used,
    )
