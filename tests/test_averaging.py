import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oscispec.averaging import (
    _PANELS_PER_PERIOD,
    _abs_kernel,
    _fast_rule,
    _gauss_legendre,
    _integration_matrix,
    _panel_rule,
    averaged_integral,
    decay_order_fit,
    fast_panel_grid,
    oscillatory_integral,
    profile_integral,
    profile_product_integral,
)
from oscispec.potentials import TwoScaleFunction, combine, poly_bump, smooth_bump


def scipy_reference_integral(u, eps, points=None):
    x0, x1 = u.support_hull
    kw = dict(limit=4000, epsabs=1e-13, points=points)
    re = integrate.quad(lambda x: u.eval_fast(x, eps).real, x0, x1, **kw)[0]
    im = integrate.quad(lambda x: u.eval_fast(x, eps).imag, x0, x1, **kw)[0]
    return re + 1j * im


# two harmonics on different supports: the interior endpoints 0.33 and 0.71 are envelope kinks
_TWO_SUPPORTS = combine(
    TwoScaleFunction.from_cosine(1, poly_bump(100.0, 2, (0.0, 1.0))),
    TwoScaleFunction.from_cosine(2, poly_bump(30.0, 2, (0.33, 0.71))),
)


def test_panel_grid_weights_sum_to_length():
    nodes, weights = fast_panel_grid((0.0, 1.0), 0.05)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert nodes.min() > 0.0 and nodes.max() < 1.0
    # panels lock to the fast period: at least panels_per_period per period
    assert len(nodes) >= _PANELS_PER_PERIOD / 0.05 * 0.999


def test_panel_grid_budget_guard():
    with pytest.raises(ValueError, match="resolution budget exceeded"):
        fast_panel_grid((0.0, 1.0), 1e-6)


@pytest.mark.parametrize("eps", [0.1, 0.037])
def test_oscillatory_integral_matches_adaptive_reference(eps):
    one_support = TwoScaleFunction.from_cosine(1, poly_bump(100.0, 2, (0.0, 1.0)))
    for u, points in [(one_support, None), (_TWO_SUPPORTS, [0.33, 0.71])]:
        mine = oscillatory_integral(u, eps)
        ref = scipy_reference_integral(u, eps, points)
        assert mine == pytest.approx(ref, abs=5e-11)


def test_oscillatory_integral_matches_the_canonical_closed_form():
    # int_0^1 100 x^2 (1-x)^2 cos(w x) dx in closed form, w = 2 pi / eps; the envelope integrates to 10/3
    u = TwoScaleFunction.from_cosine(1, poly_bump(100.0, 2, (0.0, 1.0)))
    for eps in np.logspace(math.log10(0.003), -1, 25):
        w = 2 * math.pi / eps
        exact = -200 * math.sin(w) / w**3 - 1200 * (1 + math.cos(w)) / w**4 + 2400 * math.sin(w) / w**5
        assert abs(oscillatory_integral(u, eps) - exact) <= 1e-13 * 10 / 3


_ENDPOINT = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 3))


@settings(max_examples=60, deadline=None)
@given(
    supports=st.lists(st.tuples(_ENDPOINT, _ENDPOINT).filter(lambda s: s[0] < s[1]), min_size=1, max_size=4),
    eps=st.sampled_from([0.1, 0.037, 0.01]),
)
def test_every_support_endpoint_is_a_fast_panel_edge(supports, eps):
    nodes, weights, lefts = _fast_rule([x for s in supports for x in s], eps)
    edges = set(lefts.tolist()) | {max(b for _, b in supports)}
    assert {x for s in supports for x in s} <= edges
    # panels stay no wider than eps / 8, and the weights add up to the hull length
    assert np.all(np.diff(np.unique(lefts)) <= eps / _PANELS_PER_PERIOD * (1 + 1e-12))
    hull = max(b for _, b in supports) - min(a for a, _ in supports)
    assert weights.sum() == pytest.approx(hull, rel=1e-13)
    assert nodes.min() > min(a for a, _ in supports) and nodes.max() < max(b for _, b in supports)


@pytest.mark.parametrize("eps", [0.1, 0.037])
def test_abs_kernel_is_exact_on_polynomials(eps):
    # an interior breakpoint at 0.3; G(x) = int_0^1 |x-t| f(t) dt, G' and int f in closed form
    x, weights, _ = _fast_rule([0.0, 0.3, 1.0], eps)
    cases = [
        (np.ones_like(x), x**2 / 2 + (1 - x) ** 2 / 2, 2 * x - 1, 1.0),
        (x, x**3 / 3 - x / 2 + 1 / 3, x**2 - 0.5, 0.5),
    ]
    for f, g, gp, total in cases:
        G, Gp, s0 = _abs_kernel(x, weights, f)
        assert np.max(np.abs(G - g)) <= 1e-13
        assert np.max(np.abs(Gp - gp)) <= 1e-13
        assert abs(s0 - total) <= 1e-13


@pytest.mark.parametrize("k", range(6))
def test_integration_matrix_integrates_monomials_to_every_node(k):
    x, _ = _gauss_legendre(6)
    exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
    assert np.max(np.abs(_integration_matrix(6) @ x**k - exact)) <= 1e-14


def test_profile_integral_beta_values():
    # unit-amplitude squared-parabola bumps integrate to Beta-function values
    assert profile_integral(poly_bump(1.0, 2, (0.0, 1.0))) == pytest.approx(1.0 / 30.0, rel=1e-14)
    assert profile_integral(poly_bump(1.0, 4, (0.0, 1.0))) == pytest.approx(1.0 / 630.0, rel=1e-14)
    # support scaling picks up (b-a)^(2p+1)
    assert profile_integral(poly_bump(1.0, 2, (0.0, 2.0))) == pytest.approx(2.0**5 / 30.0, rel=1e-13)


_POLY = poly_bump(2.0, 2, (0.0, 1.0))
_SMOOTH = smooth_bump(1.5, (0.2, 0.9))


@pytest.mark.parametrize(
    "profiles",
    [
        pytest.param((_POLY, _SMOOTH), id="poly-x-smooth"),
        pytest.param((_SMOOTH, smooth_bump(-0.7, (0.2, 0.9))), id="smooth-x-smooth-same-support"),
        pytest.param((smooth_bump(1.5, (0.0, 0.8)), smooth_bump(2.0, (0.3, 1.1))), id="smooth-x-smooth-offset"),
        pytest.param((_SMOOTH,), id="smooth-profile-integral"),
    ],
)
def test_profile_product_integral_agrees_with_quadrature(profiles):
    lo = max(p.support[0] for p in profiles)
    hi = min(p.support[1] for p in profiles)
    if len(profiles) == 1:
        got = profile_integral(profiles[0])
    else:
        got = profile_product_integral(*profiles)
    ref = integrate.quad(
        lambda x: math.prod(p.evaluate(x) for p in profiles).real, lo, hi, epsabs=0, epsrel=2e-14, limit=500
    )[0]
    assert abs(got.imag) == 0.0
    assert abs(got.real - ref) <= 1e-13 * abs(ref)


def test_profile_product_integral_disjoint_supports():
    p1 = poly_bump(2.0, 2, (0.0, 1.0))
    p2 = poly_bump(3.0, 2, (2.0, 3.0))
    assert profile_product_integral(p1, p2) == 0.0


def test_averaged_integral_keeps_only_the_mean_mode():
    u = combine(
        TwoScaleFunction.single_mode(0, poly_bump(2.0, 2, (0.0, 1.0))),
        TwoScaleFunction.from_cosine(1, poly_bump(50.0, 2, (0.0, 1.0))),
        1.0,
        1.0,
    )
    assert averaged_integral(u) == pytest.approx(2.0 / 30.0, rel=1e-13)


def test_decay_fit_requires_three_decreasing_epsilons():
    u = TwoScaleFunction.from_cosine(1, smooth_bump(1.0, (0.0, 1.0)))
    with pytest.raises(ValueError):
        decay_order_fit(u, [0.1, 0.05])
    with pytest.raises(ValueError):
        decay_order_fit(u, [0.05, 0.1, 0.2])


def test_decay_fit_refuses_remainders_at_the_floor():
    # a smooth envelope's remainder decays past all orders: below eps 0.0125 it sits at the floor
    u = TwoScaleFunction.from_cosine(1, smooth_bump(1.0, (0.0, 1.0)))
    with pytest.raises(ValueError, match="insufficient dynamic range"):
        decay_order_fit(u, [0.0125, 0.00625, 0.003125])


def test_decay_order_smooth_envelope_superpolynomial():
    u = TwoScaleFunction.from_cosine(1, smooth_bump(1.0, (0.0, 1.0)))
    fit = decay_order_fit(u, [0.1, 0.05, 0.025, 0.0125])
    assert fit.fitted_order > 5.0
    assert not fit.floor_flag
    assert np.all(np.diff(fit.errors) < 0)


def test_decay_order_polynomial_envelope_is_boundary_limited():
    # squared-parabola amplitude has a jump in its second derivative at the
    # support edges, which caps the remainder decay near order three
    u = TwoScaleFunction.from_cosine(1, poly_bump(1.0, 2, (0.0, 1.0)))
    fit = decay_order_fit(u, [0.09, 0.063, 0.0441, 0.03087, 0.021609])
    assert 2.3 < fit.fitted_order < 3.5


def test_decay_fit_flags_the_double_precision_floor():
    u = TwoScaleFunction.from_cosine(1, smooth_bump(1.0, (0.0, 1.0)))
    fit = decay_order_fit(u, [0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125])
    assert fit.floor_flag
    assert fit.used[-1] is np.False_ or fit.used[-1] is False
    assert fit.fitted_order > 5.0


def test_decay_fit_subtracts_the_averaged_limit():
    # a potential with a mean component decays to its averaged integral, not zero
    u = combine(
        TwoScaleFunction.single_mode(0, poly_bump(1.0, 2, (0.0, 1.0))),
        TwoScaleFunction.from_cosine(1, smooth_bump(1.0, (0.0, 1.0))),
        1.0,
        1.0,
    )
    fit = decay_order_fit(u, [0.1, 0.05, 0.025])
    assert fit.fitted_order > 4.0


def test_quadrature_panel_doubling_is_converged():
    u = TwoScaleFunction.from_cosine(1, poly_bump(100.0, 2, (0.0, 1.0)))
    coarse = oscillatory_integral(u, 0.01)
    nodes, weights, _ = _panel_rule([0.0, 1.0], 1600, 6)  # 16 panels per period at eps = 0.01
    fine = complex(np.sum(weights * u.eval_fast(nodes, 0.01)))
    scale = abs(fine) + 1.0
    assert abs(coarse - fine) / scale < 1e-11

