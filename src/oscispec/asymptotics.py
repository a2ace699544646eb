"""Asymptotics of the eigenvalue emerging from the edge of the continuous spectrum.

For a zero-mean fast-oscillating potential the operator -d2/dx2 + V(x, x/eps)
develops (or fails to develop) a single small eigenvalue as eps -> 0.  The
sign of the constant

    k2 = 1/2 * integral over x of the fast mean of (P[V](x, .))^2

decides between the two cases, and when the eigenvalue exists its leading
behavior is lambda = -eps^4 * k2^2.  Note the square, not the squared
modulus: complex potentials produce complex k2, and only the real part
carries the existence information.

The k_eps chain is the finite-eps counterpart: two moments of the gauge
perturbation L whose combination k_eps = (eps/2)*m1 + (eps^2/2)*m2 expands as
eps*c1 + eps^2*c2 with c1 = 0 and c2 = k2.  Computing the chain exercises the
corrector, the gauge algebra and the oscillation-resolving quadrature at
once, which is why it is kept as an independent diagnostic rather than a
shortcut to k2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .averaging import _abs_kernel, _breakpoint_integral, _fast_rule, profile_product_integral
from .potentials import TwoScaleFunction

_TINY = 1e-300
# Hull-route panel rule, on purpose a different node set from the pair route's.
_HULL_PANELS, _HULL_NODES = 48, 12
# fast-period panels of the k_eps chain: its gauge-coefficient integrands need twice the shared eps/8
_KEPS_PANELS_PER_PERIOD = 16
# largest relative disagreement of the two k2 routes before the report is flagged
_K2_AGREEMENT_TOL = 1e-10


class Existence(enum.Enum):
    EXISTS = "Exists"
    ABSENT = "Absent"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


def classify_existence(k2: complex, degeneracy_tol: float) -> Existence:
    """Map Re k2 to the spectral verdict.

    Strictly positive real part (beyond the tolerance) means a unique simple
    small eigenvalue exists; strictly negative means no eigenvalue approaches
    the spectral edge.  |Re k2| at or below the tolerance is deliberately
    inconclusive: the borderline case carries no theorem either way.
    """
    re = complex(k2).real
    if re > degeneracy_tol:
        return Existence.EXISTS
    if re < -degeneracy_tol:
        return Existence.ABSENT
    return Existence.INCONCLUSIVE


@dataclass(frozen=True)
class K2Report:
    value: complex
    by_quadrature: complex
    by_closed_form: complex
    agreement: float
    classification: Existence
    flagged: bool


def _mode_pairs(V: TwoScaleFunction) -> list:
    """(n, c_n, c_{-n}) for each n >= 1 whose partner -n is present, n increasing."""
    return [(n, V.modes[n], V.modes[-n]) for n in sorted(V.modes) if n >= 1 and -n in V.modes]


def _pair_mean(V: TwoScaleFunction, x: np.ndarray) -> np.ndarray:
    """Fast mean of (P[V])^2 at slow positions x, evaluated in mode space.

    The square folds mode pairs (n, -n) onto the mean:
    sum over n >= 1 of c_n(x) * c_{-n}(x) / (2 pi^2 n^2).
    An unpaired mode contributes nothing.
    """
    out = np.zeros(np.shape(x), dtype=complex)
    for n, mode, partner in _mode_pairs(V):
        out = out + mode.evaluate(x) * partner.evaluate(x) / (2.0 * math.pi**2 * n * n)
    return out


def compute_k2(V: TwoScaleFunction) -> K2Report:
    """Evaluate k2 along two independent routes and cross-check them.

    Route one integrates the mode-space fast mean of (P[V])^2 over the support
    hull with the breakpoint panel rule, 48 panels x 12 Gauss-Legendre nodes
    between consecutive envelope endpoints.  Route two assembles the same
    integral from per-pair envelope products: Beta closed form whenever a pair
    shares a poly shape, otherwise the 32 x 16 rule, so no node is shared with
    route one.  Disagreement beyond ``_K2_AGREEMENT_TOL`` flags the report but
    still returns it.
    """
    if not V.has_zero_mean:
        raise ValueError("k2 is defined for zero-mean potentials only")

    # closed-form route
    closed = 0j
    for n, mode, partner in _mode_pairs(V):
        closed += profile_product_integral(mode, partner) / (2.0 * math.pi**2 * n * n)
    closed *= 0.5

    # quadrature route
    quad_val = 0.5 * _breakpoint_integral(lambda x: _pair_mean(V, x), V.breakpoints, _HULL_PANELS, _HULL_NODES)

    value = closed
    agreement = abs(quad_val - closed) / (abs(value) + _TINY)
    degeneracy_tol = 1e-12 * abs(value)
    return K2Report(
        value=value,
        by_quadrature=quad_val,
        by_closed_form=closed,
        agreement=agreement,
        classification=classify_existence(value, degeneracy_tol),
        flagged=agreement > _K2_AGREEMENT_TOL,
    )


def predict_lambda(k2: complex, eps: float) -> complex:
    """Leading-order emerging eigenvalue -eps^4 * k2^2 (square, not modulus)."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive")
    k2 = complex(k2)
    return -(eps**4) * k2 * k2


@dataclass(frozen=True)
class KEpsReport:
    """Moments of the gauge perturbation at one eps."""

    eps: float
    m1: complex
    m2: complex
    k_eps: complex


def compute_k_eps(V: TwoScaleFunction, eps: float) -> KEpsReport:
    """Two moments of L: m1 = int L[1], m2 = int L[G] with the |x-t| kernel.

    L[1] reduces to -f/q, and G(x) = int |x-t| L[1](t) dt and its derivative
    come from ``averaging._abs_kernel``.  All quadratures ride the fast-period
    rule, eps/16 panels that tile every interval between support endpoints, so
    no envelope kink sits inside a panel, and the gauge is sampled once.
    """
    from .gauge import build_gauge  # only this chain uses the gauge

    nodes, weights, _ = _fast_rule(V.breakpoints, eps, _KEPS_PANELS_PER_PERIOD)
    coef = build_gauge(V, eps).coefficients(nodes)
    l1 = -coef.f / coef.q
    G, Gp, s0 = _abs_kernel(nodes, weights, l1)
    m1, m2 = complex(s0), complex(np.sum(weights * (2.0 * eps * coef.vprime / coef.q * Gp + l1 * G)))
    k_eps = 0.5 * eps * m1 + 0.5 * eps**2 * m2
    return KEpsReport(eps=float(eps), m1=m1, m2=m2, k_eps=k_eps)


def fit_k_eps_coefficients(reports: Sequence[KEpsReport]) -> tuple[complex, complex]:
    """Least-squares fit k_eps ~ eps*c1 + eps^2*c2 over at least three reports."""
    if len(reports) < 3:
        raise ValueError("need at least three eps values to fit c1 and c2")
    eps = np.array([r.eps for r in reports], dtype=float)
    y = np.array([r.k_eps for r in reports], dtype=complex)
    design = np.stack([eps, eps**2], axis=1).astype(complex)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return complex(coef[0]), complex(coef[1])
