import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscispec.asymptotics import compute_k_eps
from oscispec.gauge import (
    GaugeData,
    _apply_L,
    _identity_residuals,
    build_gauge,
    default_catalog,
    gaussian_bump,
    identity_residual,
    sinusoid,
)
from oscispec.potentials import (
    TwoScaleFunction,
    build_corrector,
    canonical_potential,
    combine,
    poly_bump,
    smooth_bump,
)


@pytest.fixture
def gauge(canonical):
    return build_gauge(canonical, 0.1)


def dense_grid(V, eps, pad=0.0):
    x0, x1 = V.support_hull
    return np.arange(x0 - pad, x1 + pad + eps / 80.0, eps / 40.0)


def test_gauge_factor_is_a_small_perturbation_of_one(gauge):
    grid = dense_grid(gauge.potential, gauge.eps)
    q = gauge.coefficients(grid).q
    assert np.max(np.abs(q - 1.0)) < 0.5
    assert np.max(np.abs(q - 1.0)) > 0.0


def test_gauge_refuses_large_eps(canonical):
    # amplitude 1e4 pushes eps^2 * sup|v| past the invertibility margin
    big = canonical.scaled(100.0)
    with pytest.raises(ValueError, match="not safely invertible"):
        build_gauge(big, 0.5)


def test_first_derivative_matches_finite_differences(gauge):
    xs = np.linspace(0.11, 0.93, 17)
    h = 1e-6
    fd = (gauge.coefficients(xs + h).q - gauge.coefficients(xs - h).q) / (2 * h)
    assert gauge.coefficients(xs).dq == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_second_derivative_matches_finite_differences(gauge):
    xs = np.linspace(0.11, 0.93, 17)
    h = 1e-4
    c = gauge.coefficients
    fd = (c(xs + h).q - 2 * c(xs).q + c(xs - h).q) / h**2
    # the trace oscillates at the fast scale, so the difference quotient is
    # only good to a few digits; the point is catching wiring mistakes
    assert gauge.coefficients(xs).d2q == pytest.approx(fd, rel=2e-3, abs=1e-4)


def test_f_tilde_closes_the_second_order_identity(gauge):
    # eps * f = V q - q'' pointwise
    xs = np.linspace(0.0, 1.0, 811)
    eps = gauge.eps
    c = gauge.coefficients(xs)
    lhs = eps * c.f
    rhs = c.V * c.q - c.d2q
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_identity_residual_on_the_full_catalog(gauge):
    grid = dense_grid(gauge.potential, gauge.eps)
    for probe in default_catalog():
        assert identity_residual(gauge, probe, grid) < 1e-12


def test_identity_residual_under_resolved_grid_raises(gauge):
    coarse = np.linspace(0.0, 1.0, 30)
    with pytest.raises(ValueError, match="under-resolves"):
        identity_residual(gauge, default_catalog()[0], coarse)


@given(a=st.floats(-2, 2, allow_nan=False), b=st.floats(-2, 2, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_apply_L_is_linear(a, b):
    from oscispec.potentials import canonical_potential

    gauge = build_gauge(canonical_potential(), 0.1)
    grid = dense_grid(gauge.potential, gauge.eps)
    phi = gaussian_bump(0.4, 0.3, 1.0)
    psi = sinusoid(1.3, 0.2, 1.0)

    def blend_f(x):
        return a * phi.f(x) + b * psi.f(x)

    def blend_df(x):
        return a * phi.df(x) + b * psi.df(x)

    def blend_d2f(x):
        return a * phi.d2f(x) + b * psi.d2f(x)

    blended = type(phi)(label="blend", f=blend_f, df=blend_df, d2f=blend_d2f)
    c = gauge.coefficients(grid)
    got = _apply_L(gauge, c, blended, grid)
    expect = a * _apply_L(gauge, c, phi, grid) + b * _apply_L(gauge, c, psi, grid)
    assert got == pytest.approx(expect, abs=1e-10)


def test_gauge_data_carries_corrector(canonical):
    g = build_gauge(canonical, 0.08)
    assert isinstance(g, GaugeData)
    v = build_corrector(canonical)
    xs = np.array([0.2, 0.5, 0.9])
    assert g.potential is canonical
    assert g.v.eval_fast(xs, 0.08) == pytest.approx(v.eval_fast(xs, 0.08))
    assert g.coefficients(xs).q == pytest.approx(1.0 + 0.08**2 * v.eval_fast(xs, 0.08))


def test_identity_holds_for_complex_potentials():
    V = TwoScaleFunction.single_mode(1, poly_bump(20 + 5j, 2, (0.0, 1.0)))
    g = build_gauge(V, 0.05)
    grid = dense_grid(V, 0.05)
    for probe in default_catalog()[:4]:
        assert identity_residual(g, probe, grid) < 1e-12


def test_identity_holds_for_smooth_envelopes():
    V = TwoScaleFunction.from_sine(2, smooth_bump(8.0, (-0.5, 0.5)))
    g = build_gauge(V, 0.04)
    grid = dense_grid(V, 0.04)
    for probe in default_catalog()[:4]:
        assert identity_residual(g, probe, grid) < 1e-12


@pytest.mark.parametrize(
    "V",
    [
        canonical_potential(),
        combine(
            TwoScaleFunction.single_mode(1, poly_bump(30 + 10j, 3, (0.0, 1.5))),
            TwoScaleFunction.single_mode(-2, poly_bump(5 - 2j, 2, (0.25, 1.0))),
        ),
        TwoScaleFunction.from_sine(2, smooth_bump(8.0, (-0.5, 0.5))),
    ],
    ids=["canonical", "complex", "smooth"],
)
@pytest.mark.parametrize("eps", [0.1, 0.02])
def test_coefficients_match_the_per_quantity_formulas(V, eps):
    # the acceptance criterion 8 potentials; each quantity is assembled from
    # partials of v summed mode by mode, unfolded, in complex arithmetic
    g = build_gauge(V, eps)
    x = dense_grid(V, eps, pad=0.05)
    xi = x / eps

    def partial(u, dx, dxi):
        return sum(
            (2j * np.pi * n) ** dxi * prof.evaluate(x, dx) * np.exp(2j * np.pi * n * xi) for n, prof in u.modes.items()
        )

    v = g.v
    Vs = partial(V, 0, 0)
    v0, v_x, v_xx, v_xi, v_x_xi = (partial(v, dx, dxi) for dx, dxi in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)))
    expect = {
        "q": 1.0 + eps**2 * v0,
        "dq": eps**2 * v_x + eps * v_xi,
        "d2q": eps**2 * v_xx + 2.0 * eps * v_x_xi + Vs,
        "f": eps * Vs * v0 - eps * v_xx - 2.0 * v_x_xi,
        "vprime": v_x + v_xi / eps,
        "V": Vs,
    }
    got = g.coefficients(x)
    for name, ref in expect.items():
        assert np.max(np.abs(getattr(got, name) - ref)) <= 1e-14 * np.max(np.abs(ref)), name


def test_catalog_residuals_equal_the_per_probe_residuals(gauge):
    grid = dense_grid(gauge.potential, gauge.eps)
    catalog = default_catalog()
    assert _identity_residuals(gauge, catalog, grid) == [identity_residual(gauge, p, grid) for p in catalog]


def test_k_eps_of_a_real_potential_has_exactly_real_moments():
    V = combine(
        TwoScaleFunction.from_cosine(1, poly_bump(40.0, 2, (-0.5, 1.0))),
        TwoScaleFunction.from_sine(2, smooth_bump(15.0, (-0.5, 1.0))),
    )
    for eps in (0.1, 0.025):
        rep = compute_k_eps(V, eps)
        assert (rep.m1.imag, rep.m2.imag, rep.k_eps.imag) == (0.0, 0.0, 0.0)
