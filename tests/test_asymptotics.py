import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscispec import asymptotics, gauge
from oscispec.asymptotics import (
    Existence,
    classify_existence,
    compute_k2,
    compute_k_eps,
    fit_k_eps_coefficients,
    predict_lambda,
)
from oscispec.averaging import oscillatory_integral
from oscispec.config import load_config
from oscispec.potentials import (
    TwoScaleFunction,
    canonical_potential,
    combine,
    poly_bump,
    smooth_bump,
)

CANONICAL_K2 = 1e4 / (10080 * math.pi**2)


def test_canonical_k2_matches_beta_closed_form(canonical_k2):
    assert canonical_k2.value.real == pytest.approx(CANONICAL_K2, rel=1e-13)
    assert canonical_k2.value.imag == 0.0


def test_canonical_k2_route_agreement(canonical_k2):
    assert canonical_k2.agreement < 1e-10
    assert not canonical_k2.flagged
    assert canonical_k2.by_closed_form == pytest.approx(canonical_k2.by_quadrature, rel=1e-10)


def test_k2_requires_zero_mean():
    u = TwoScaleFunction.single_mode(0, poly_bump(1.0, 2, (0, 1)))
    with pytest.raises(ValueError, match="zero-mean"):
        compute_k2(u)


@given(c=st.floats(0.1, 5.0), phase=st.floats(0, 2 * math.pi))
@settings(max_examples=25, deadline=None)
def test_k2_scales_quadratically_in_the_amplitude(c, phase):
    z = c * complex(math.cos(phase), math.sin(phase))
    V = canonical_potential()
    scaled = compute_k2(V.scaled(z)).value
    base = compute_k2(V).value
    assert scaled == pytest.approx(z * z * base, rel=1e-12)


def test_imaginary_rotation_flips_the_sign(canonical, canonical_k2):
    rotated = compute_k2(canonical.scaled(1j))
    assert rotated.value == pytest.approx(-canonical_k2.value, rel=1e-13)
    assert rotated.classification is Existence.ABSENT


def test_k2_is_additive_over_distinct_harmonics():
    u1 = TwoScaleFunction.from_cosine(1, poly_bump(10.0, 2, (0.0, 1.0)))
    u2 = TwoScaleFunction.from_sine(2, smooth_bump(4.0, (0.2, 0.8)))
    both = combine(u1, u2, 1.0, 1.0)
    total = compute_k2(both).value
    assert total == pytest.approx(compute_k2(u1).value + compute_k2(u2).value, rel=1e-11)


def test_real_potential_gives_real_positive_k2():
    u = combine(
        TwoScaleFunction.from_cosine(2, poly_bump(-7.0, 3, (0.0, 0.5))),
        TwoScaleFunction.from_sine(5, smooth_bump(3.0, (-1.0, 0.3))),
        1.0,
        1.0,
    )
    rep = compute_k2(u)
    assert rep.value.imag == pytest.approx(0.0, abs=1e-12 * abs(rep.value))
    assert rep.value.real > 0
    assert rep.classification is Existence.EXISTS


def test_classification_branches():
    assert classify_existence(1e-3, 1e-12) is Existence.EXISTS
    assert classify_existence(-1e-3, 1e-12) is Existence.ABSENT
    assert classify_existence(1e-14 + 1e-14j, 1e-12) is Existence.INCONCLUSIVE
    assert str(Existence.EXISTS) == "Exists"
    assert str(Existence.ABSENT) == "Absent"


def test_empty_potential_is_inconclusive():
    rep = compute_k2(TwoScaleFunction(modes={}))
    assert rep.value == 0
    assert rep.classification is Existence.INCONCLUSIVE


@pytest.mark.parametrize("eps", [0.1, 0.03])
def test_lambda_prediction_formula(eps, canonical_k2):
    k2 = canonical_k2.value
    assert predict_lambda(k2, eps) == pytest.approx(-(eps**4) * k2**2, rel=1e-15)
    assert predict_lambda(k2, eps).real < 0


# ---------------------------------------------------------------- finite-eps chain


def test_k_eps_identity_and_leading_order(canonical, canonical_k2):
    eps = 0.05
    rep = compute_k_eps(canonical, eps)
    assert rep.k_eps == 0.5 * eps * rep.m1 + 0.5 * eps**2 * rep.m2
    # the m1 half carries the whole second-order constant
    assert 0.5 * eps * rep.m1 == pytest.approx(eps**2 * canonical_k2.value, rel=0.05)
    # the m2 half is two orders smaller
    assert abs(0.5 * eps**2 * rep.m2) < 0.2 * eps**4


def test_k_eps_vanishes_without_a_potential():
    rep = compute_k_eps(TwoScaleFunction(modes={}), 0.1)
    assert rep.m1 == 0 and rep.m2 == 0 and rep.k_eps == 0


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_k_eps_is_panel_converged_on_two_supports(eps, monkeypatch):
    # the second harmonic's support ends at 0.33 and 0.71, inside the hull: kinks the panels must not straddle
    V = combine(
        TwoScaleFunction.from_cosine(1, poly_bump(100.0, 2, (0.0, 1.0))),
        TwoScaleFunction.from_cosine(2, poly_bump(30.0, 2, (0.33, 0.71))),
    )
    coarse = compute_k_eps(V, eps).k_eps
    monkeypatch.setattr(asymptotics, "_KEPS_PANELS_PER_PERIOD", 64)
    fine = compute_k_eps(V, eps).k_eps
    assert abs(coarse - fine) <= 1e-10 * abs(fine)


def test_k_eps_resolves_a_fourth_harmonic(monkeypatch):
    # the gauge integrands of a cos 4 mode carry the fast period's harmonic 8 and beyond:
    # eps/8 panels gave each period of harmonic 8 a single panel and missed by 6e-7
    V = TwoScaleFunction.from_cosine(4, smooth_bump(40.0, (0.0, 1.0)))
    coarse = compute_k_eps(V, 0.1).k_eps
    monkeypatch.setattr(asymptotics, "_KEPS_PANELS_PER_PERIOD", 64)
    fine = compute_k_eps(V, 0.1).k_eps
    assert abs(coarse - fine) <= 1e-9 * abs(fine)


def test_k_eps_samples_the_gauge_once(canonical, monkeypatch):
    calls = []
    sample = gauge.GaugeData.coefficients

    def counted(self, x):
        calls.append(np.size(x))
        return sample(self, x)

    monkeypatch.setattr(gauge.GaugeData, "coefficients", counted)
    compute_k_eps(canonical, 0.05)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["canonical", "two_mode", "canonical_e0.8i"])
def test_k_eps_agrees_with_the_first_born_term_to_eps4(name):
    # kappa_B = eps^2 k2 - (1/2) int V(x, x/eps) dx works on the original operator, with no gauge;
    # measured |kappa_B - k_eps| / eps^4: 0.083-0.090, 0.139-0.265 and 0.089-0.093
    if name == "canonical_e0.8i":
        V = canonical_potential().scaled(cmath.exp(0.8j))
    else:
        V = load_config(str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")).build_potential()
    k2 = compute_k2(V).value
    for eps in (0.1, 0.07, 0.05, 0.035, 0.025, 0.01):
        kappa_b = eps**2 * k2 - 0.5 * oscillatory_integral(V, eps)
        assert abs(kappa_b - compute_k_eps(V, eps).k_eps) <= 0.5 * eps**4


def test_k_eps_fit_recovers_k2(canonical, canonical_k2):
    reports = [compute_k_eps(canonical, e) for e in (0.025, 0.0125, 0.00625)]
    c1, c2 = fit_k_eps_coefficients(reports)
    assert abs(c1) <= 1e-3 * abs(c2)
    assert c2 == pytest.approx(canonical_k2.value, rel=0.05)


def test_k_eps_fit_needs_three_points(canonical):
    reports = [compute_k_eps(canonical, e) for e in (0.1, 0.05)]
    with pytest.raises(ValueError):
        fit_k_eps_coefficients(reports)
