import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscispec.potentials import (
    SlowProfile,
    TwoScaleFunction,
    build_corrector,
    canonical_potential,
    combine,
    p_transform,
    poly_bump,
    smooth_bump,
)

XS = np.linspace(-0.2, 1.2, 57)


def trapezoid_period_mean(u, x, n_xi=4096):
    """Independent oracle for the fast-period mean: brute-force trapezoid in xi."""
    xi = np.linspace(0.0, 1.0, n_xi + 1)
    vals = u.eval(np.full_like(xi, x), xi)
    return np.trapezoid(vals, xi)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


# ---------------------------------------------------------------- profiles


def test_poly_profile_values():
    p = poly_bump(100.0, 2, (0.0, 1.0))
    x = np.array([-0.5, 0.0, 0.25, 0.5, 1.0, 1.7])
    expect = 100.0 * x**2 * (1 - x) ** 2 * ((x >= 0) & (x <= 1))
    assert p.evaluate(x) == pytest.approx(expect)
    assert p.sup_abs() == pytest.approx(100.0 / 16.0)


@pytest.mark.parametrize("order", [1, 2])
def test_poly_profile_derivatives_match_central_differences(order):
    p = poly_bump(3.0 - 1.0j, 3, (0.1, 0.9))
    h = 1e-5
    xs = np.linspace(0.15, 0.85, 11)
    if order == 1:
        fd = central_diff(lambda t: p.evaluate(t, 0), xs, h)
    else:
        fd = central_diff(lambda t: p.evaluate(t, 1), xs, h)
    assert p.evaluate(xs, order) == pytest.approx(fd, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("order", [1, 2])
def test_smooth_profile_derivatives_match_central_differences(order):
    p = smooth_bump(2.0, (-0.3, 0.7))
    h = 1e-5
    xs = np.linspace(-0.2, 0.6, 13)
    if order == 1:
        fd = central_diff(lambda t: p.evaluate(t, 0), xs, h)
    else:
        fd = central_diff(lambda t: p.evaluate(t, 1), xs, h)
    assert p.evaluate(xs, order) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_profiles_vanish_identically_outside_support():
    for p in [poly_bump(5.0, 2, (0.0, 1.0)), smooth_bump(5.0, (0.0, 1.0))]:
        out = np.array([-3.0, -1e-9, 1.0 + 1e-9, 10.0])
        for order in (0, 1, 2):
            assert np.all(p.evaluate(out, order) == 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        SlowProfile(kind="poly", amplitude=1.0, support=(1.0, 0.0), power=2)
    with pytest.raises(ValueError):
        poly_bump(1.0, 0, (0.0, 1.0))
    with pytest.raises(ValueError, match="unknown profile kind 'gauss'"):
        SlowProfile(kind="gauss", amplitude=1.0, support=(0.0, 1.0))
    with pytest.raises(ValueError, match="profile derivatives are tracked up to order 2 only"):
        poly_bump(1.0, 2, (0.0, 1.0)).evaluate(0.5, order=3)


@pytest.mark.parametrize("kind", ["poly", "smooth"])
@pytest.mark.parametrize("field", ["amplitude", "left", "right"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_input(kind, field, bad):
    fields = {"amplitude": 100.0, "left": 0.0, "right": 1.0} | {field: bad}
    with pytest.raises(ValueError, match="finite"):
        SlowProfile(
            kind=kind,
            amplitude=complex(fields["amplitude"]),
            support=(fields["left"], fields["right"]),
            power=2 if kind == "poly" else None,
        )


@pytest.mark.parametrize("profile", [poly_bump(1.5, p, (-0.3, 0.8)) for p in (1, 2, 3, 4)] + [smooth_bump(1.5, (-0.3, 0.8))])
def test_all_orders_at_once_equal_single_orders_bit_for_bit(profile):
    x = np.linspace(-0.5, 1.0, 3001)
    together = profile._shapes(x, (0, 1, 2))
    for order in (0, 1, 2):
        assert np.array_equal(together[order], profile._shapes(x, (order,))[order])


# ---------------------------------------------------------------- two-scale


def test_canonical_potential_is_cosine_mode(canonical):
    x = 0.37
    xi = np.linspace(0, 1, 9)
    vals = canonical.eval(x, xi)
    expect = 100 * x**2 * (1 - x) ** 2 * np.cos(2 * np.pi * xi)
    assert vals == pytest.approx(expect)
    assert canonical.is_real
    assert canonical.has_zero_mean
    assert canonical.support_hull == (0.0, 1.0)


def test_eval_fast_agrees_with_eval(canonical):
    eps = 0.07
    assert canonical.eval_fast(XS, eps) == pytest.approx(canonical.eval(XS, XS / eps))


def test_mean_over_period_matches_trapezoid_oracle():
    u = combine(
        TwoScaleFunction.single_mode(0, poly_bump(2.0, 2, (0.0, 1.0))),
        TwoScaleFunction.from_cosine(3, poly_bump(1.5, 2, (0.0, 1.0))),
        1.0,
        1.0,
    )
    m = u.modes[0]
    for x in [0.1, 0.5, 0.83]:
        assert m.evaluate(x) == pytest.approx(trapezoid_period_mean(u, x), abs=1e-8)
    assert not u.has_zero_mean


def test_zero_amplitude_modes_are_dropped():
    u = TwoScaleFunction(modes={1: poly_bump(0.0, 2, (0, 1)), 2: poly_bump(1.0, 2, (0, 1))})
    assert set(u.modes) == {2}


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_combine_is_pointwise_linear(a, b):
    u = TwoScaleFunction.from_cosine(1, poly_bump(2.0, 2, (0.0, 1.0)))
    w = TwoScaleFunction.from_sine(2, poly_bump(1.0 + 1.0j, 3, (0.2, 0.8)))
    both = combine(u, w, a, b)
    xi = 0.29
    got = both.eval(XS, xi)
    expect = a * u.eval(XS, xi) + b * w.eval(XS, xi)
    assert got == pytest.approx(expect, abs=1e-12)


def test_combine_rejects_incompatible_envelopes_on_shared_mode():
    u = TwoScaleFunction.single_mode(1, poly_bump(1.0, 2, (0.0, 1.0)))
    w = TwoScaleFunction.single_mode(1, smooth_bump(1.0, (0.0, 1.0)))
    with pytest.raises(ValueError, match="incompatible"):
        combine(u, w, 1.0, 1.0)


@pytest.mark.parametrize("n", [0, -1])
def test_cosine_and_sine_shorthands_refuse_n_below_one(n):
    with pytest.raises(ValueError, match="cosine shorthand needs n >= 1"):
        TwoScaleFunction.from_cosine(n, poly_bump(1.0, 2, (0, 1)))
    with pytest.raises(ValueError, match="sine shorthand needs n >= 1"):
        TwoScaleFunction.from_sine(n, poly_bump(1.0, 2, (0, 1)))


def test_realness_detection():
    assert TwoScaleFunction.from_cosine(2, poly_bump(4.0, 2, (0, 1))).is_real
    assert TwoScaleFunction.from_sine(1, smooth_bump(-2.5, (0, 1))).is_real
    assert not TwoScaleFunction.single_mode(1, poly_bump(1.0, 2, (0, 1))).is_real
    assert not canonical_potential().scaled(1j).is_real


def test_support_hull_is_union_of_mode_supports():
    u = combine(
        TwoScaleFunction.single_mode(1, poly_bump(1.0, 2, (-1.0, 0.2))),
        TwoScaleFunction.single_mode(-2, poly_bump(1.0, 2, (0.5, 2.0))),
        1.0,
        1.0,
    )
    assert u.support_hull == (-1.0, 2.0)
    # outside the hull the trace is exactly zero, not merely small
    assert np.all(u.eval_fast(np.array([-1.5, 2.5]), 0.1) == 0.0)


def test_xi_derivative_factors():
    u = TwoScaleFunction.single_mode(2, poly_bump(1.0, 2, (0, 1)))
    x, xi = 0.4, 0.13
    base = u.eval(x, xi)
    assert u.eval(x, xi, dxi=1) == pytest.approx(4j * np.pi * base)
    assert u.eval(x, xi, dxi=2) == pytest.approx(-16 * np.pi**2 * base)


# ---------------------------------------------------------------- P and v


def test_p_transform_rejects_mean_component():
    u = TwoScaleFunction.single_mode(0, poly_bump(1.0, 2, (0, 1)))
    with pytest.raises(ValueError, match="zero-mean"):
        p_transform(u)


def test_corrector_rejects_mean_component(canonical):
    u = combine(canonical, TwoScaleFunction.single_mode(0, poly_bump(1.0, 2, (0, 1))))
    with pytest.raises(ValueError, match="corrector requires a zero-mean potential"):
        build_corrector(u)


def test_p_transform_is_the_zero_mean_antiderivative(canonical):
    pv = p_transform(canonical)
    # d/dxi P[u] = u, by finite differences in xi
    x = 0.31
    h = 1e-6
    for xi in [0.0, 0.21, 0.77]:
        fd = (pv.eval(x, xi + h) - pv.eval(x, xi - h)) / (2 * h)
        assert fd == pytest.approx(canonical.eval(x, xi), rel=1e-8)
    # and the result has zero mean itself
    assert pv.has_zero_mean
    assert abs(trapezoid_period_mean(pv, x)) < 1e-10


def test_corrector_second_xi_derivative_recovers_potential(canonical):
    v = build_corrector(canonical)
    assert isinstance(v, TwoScaleFunction)
    xi = np.linspace(0, 1, 7)
    got = v.eval(XS[:, None], xi[None, :], dxi=2)
    assert got == pytest.approx(canonical.eval(XS[:, None], xi[None, :]), abs=1e-12)


def test_corrector_xi_slope_equals_p_transform(canonical):
    v = build_corrector(canonical)
    pv = p_transform(canonical)
    xi = 0.4
    assert v.eval(XS, xi, dxi=1) == pytest.approx(pv.eval(XS, xi), abs=1e-12)


def test_corrector_mean_vanishes_at_random_points(canonical):
    v = build_corrector(canonical)
    rng = np.random.default_rng(7)
    for x in rng.uniform(-0.5, 1.5, size=20):
        assert abs(trapezoid_period_mean(v, x)) < 1e-12


def test_corrector_mixed_derivative_means_vanish(canonical):
    # period means of v_xx and of v_x,xi are zero because differentiation in x
    # cannot create a zero mode
    v = build_corrector(canonical)
    for x in [0.2, 0.6]:
        xi = np.linspace(0.0, 1.0, 2049)
        vxx = v.eval(np.full_like(xi, x), xi, dx=2)
        vxxi = v.eval(np.full_like(xi, x), xi, dx=1, dxi=1)
        assert abs(np.trapezoid(vxx, xi)) < 1e-10
        assert abs(np.trapezoid(vxxi, xi)) < 1e-10


def test_scaled_multiplies_every_mode(canonical):
    doubled = canonical.scaled(2.0)
    assert doubled.eval_fast(XS, 0.1) == pytest.approx(2.0 * canonical.eval_fast(XS, 0.1))


# ---------------------------------------------------------------- mode walk


@st.composite
def mode_sets(draw):
    """1-3 harmonics in 1..5 drawn as in acceptance criterion 6, optionally
    with a real or complex mean mode.  A harmonic is a cosine, a sine, a pair
    of independent complex amplitudes, such a pair whose two envelopes differ
    in kind or support, or a single unpaired mode."""
    total = None
    for n in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)):
        a = draw(st.floats(-1.0, 1.0))
        b = a + draw(st.floats(0.3, 1.5))
        if draw(st.booleans()):
            power = draw(st.integers(2, 4))

            def envelope(amp, power=power, a=a, b=b):
                return poly_bump(amp, power, (a, b))
        else:

            def envelope(amp, a=a, b=b):
                return smooth_bump(amp, (a, b))

        amp = draw(st.floats(-50.0, 50.0).filter(lambda v: abs(v) > 1e-3))
        form = draw(st.sampled_from(["cos", "sin", "pair", "mismatched", "single"]))
        if form in ("pair", "mismatched"):
            other = complex(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
            partner = envelope(other) if form == "pair" else smooth_bump(other, (a - 0.2, b))
            piece = TwoScaleFunction(modes={n: envelope(complex(amp, amp / 3)), -n: partner})
        elif form == "single":
            piece = TwoScaleFunction.single_mode(draw(st.sampled_from([n, -n])), envelope(complex(amp, amp / 3)))
        elif form == "cos":
            piece = TwoScaleFunction.from_cosine(n, envelope(amp))
        else:
            piece = TwoScaleFunction.from_sine(n, envelope(amp))
        total = piece if total is None else combine(total, piece, 1.0, 1.0)
    mean = draw(st.sampled_from(["none", "real", "complex"]))
    if mean != "none":
        amp = complex(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)) if mean == "complex" else 0.0)
        total = combine(total, TwoScaleFunction.single_mode(0, smooth_bump(amp, (-0.5, 0.8))))
    return total


GAUGE_PARTIALS = ((0, 2), (0, 0), (1, 0), (2, 0), (0, 1), (1, 1))


def folded_error_bound(scale, k):
    """Largest |folded - unfolded| that the roundings of both sums allow, for k modes.

    Both sides compute the phase 2 pi n xi, the envelope shapes and
    (2 pi i n)^dxi bit for bit alike, so only the products, the sums and the
    waves round differently.  With u = 2^-53 and scale = sum_n max|t_n|,
    t_n = (2 pi i n)^dxi c_n^(dx), in units of u * scale:

    * unfolded, each term t_n e^{i theta} carries 2 (the two products giving
      t_n), sqrt(2) (cos and sin of exp within 1 ulp each) and sqrt(5) (a
      complex product; Brent, Percival & Zimmermann, Math. Comp. 76, 2007),
      and each of the k - 1 additions sqrt(2);
    * folded, each mode enters a cos and a sin product, each carrying 5 (its
      weight, the fold of the pair, the shape product, the wave product and
      the wave within 1 ulp), and each of at most 2k - 1 additions, to partial
      sums of size up to sqrt(2) scale, carries 2.
    """
    unfolded = 2.0 + math.sqrt(2.0) + math.sqrt(5.0) + math.sqrt(2.0) * (k - 1)
    folded = 2.0 * 5.0 + 2.0 * (2 * k - 1)
    return (unfolded + folded) * 2.0**-53 * scale


@given(u=mode_sets(), eps=st.floats(1e-3, 0.1))
@settings(max_examples=60, deadline=None)
def test_folded_trace_matches_the_unfolded_mode_sum(u, eps):
    x0, x1 = u.support_hull
    x = np.linspace(x0 - 0.1, x1 + 0.1, 1999)
    xi = x / eps
    reference = sum(prof.evaluate(x) * np.exp(2j * np.pi * n * xi) for n, prof in u.modes.items())
    got = u.eval_fast(x, eps)
    assert got.dtype == (np.float64 if u.is_real else np.complex128)
    assert np.max(np.abs(got - reference)) <= folded_error_bound(u.sup_abs(), len(u.modes))


@given(u=mode_sets(), eps=st.floats(1e-3, 0.1))
@settings(max_examples=40, deadline=None)
def test_folded_partials_match_the_unfolded_mode_sum(u, eps):
    # every partial the gauge samples; the scale of mode n in partial (dx, dxi)
    # is the largest sample of |(2 pi n)^dxi c_n^(dx)|, which is sup_abs() for the trace
    x0, x1 = u.support_hull
    x = np.linspace(x0 - 0.1, x1 + 0.1, 1999)
    xi = x / eps
    for (dx, dxi), got in zip(GAUGE_PARTIALS, u._mode_sums(x, xi, GAUGE_PARTIALS)):
        terms = [(2j * np.pi * n) ** dxi * prof.evaluate(x, dx) for n, prof in u.modes.items()]
        reference = sum(t * np.exp(2j * np.pi * n * xi) for n, t in zip(u.modes, terms))
        scale = sum(np.max(np.abs(t)) for t in terms)
        assert got.dtype == (np.float64 if u.is_real else np.complex128)
        assert np.max(np.abs(got - reference)) <= folded_error_bound(scale, len(u.modes))


def test_mean_mode_counts_once():
    mean = smooth_bump(3.0, (0.0, 1.0))
    u = combine(TwoScaleFunction.single_mode(0, mean), TwoScaleFunction.from_cosine(2, poly_bump(5.0, 2, (0, 1))))
    x = np.linspace(0.0, 1.0, 101)
    assert u.is_real
    assert np.array_equal(TwoScaleFunction.single_mode(0, mean).eval_fast(x, 0.1), mean.evaluate(x).real)
    # the mode-2 pair averages out over whole periods of xi, the mean does not
    xi = np.linspace(0.0, 1.0, 64, endpoint=False)
    period_mean = u.eval(np.full_like(xi, 0.4), xi).mean()
    assert period_mean == pytest.approx(mean.evaluate(0.4).real, rel=1e-14)
