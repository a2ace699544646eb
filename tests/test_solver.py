import cmath
import gc
import itertools
import math
import resource
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oscispec import solver
from oscispec.asymptotics import Existence, compute_k2, compute_k_eps, predict_lambda
from oscispec.averaging import decay_order_fit, oscillatory_integral
from oscispec.config import load_config, parse_config
from oscispec.gauge import build_gauge
from oscispec.potentials import MAX_GRID_SIZE, TwoScaleFunction, canonical_potential, combine, poly_bump, smooth_bump
from oscispec.solver import (
    DEFAULT_SOLVER,
    SolverConfig,
    SquareWell,
    _brent,
    _CoefficientGrid,
    _quadratic_maps,
    _rk4_step,
    convergence_study,
    eigenfunction,
    find_bound_state,
    min_mismatch_on_disk,
    mismatch,
    scan_roots,
    transfer_matrix,
)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def well_even_state_equation(depth, width=1.0):
    """Closed-form oracle: even bound states of a constant well of given depth.

    Matching decaying tails to the interior cosine gives k tan(k w/2) = kappa
    with k^2 + kappa^2 = depth.  Returns the equation f(k) and a bracket
    (lo, hi) in k on which f changes sign at the ground state.
    """

    def f(k):
        kk = math.sqrt(depth - k * k) if k * k < depth else 0.0
        return k * math.tan(k * width / 2.0) - kk

    # the even ground state always sits below both k = pi/width and sqrt(depth)
    lo, hi = 1e-9, min(math.pi / width, math.sqrt(depth)) - 1e-12
    return f, lo, hi


def well_ground_state_kappa(depth, width=1.0):
    f, lo, hi = well_even_state_equation(depth, width)
    k = optimize.brentq(f, lo, hi, xtol=1e-15)
    return math.sqrt(depth - k * k)


# ---------------------------------------------------------------- oracles


def test_free_transfer_matrix_closed_form():
    free = SquareWell(depth=0.0, support=(0.0, 1.0))
    kappa = 0.7
    T = transfer_matrix(free, 0.1, -kappa**2, 0.1 / 40).matrix
    c, s = math.cosh(kappa), math.sinh(kappa)
    expect = np.array([[c, s / kappa], [kappa * s, c]])
    assert T == pytest.approx(expect, rel=1e-12)


def test_free_mismatch_closed_form():
    free = SquareWell(depth=0.0, support=(0.0, 1.0))
    for kappa in (0.13, 0.8):
        got = mismatch(free, 0.1, kappa)
        assert got == pytest.approx(2 * kappa * math.exp(kappa), rel=1e-12)


def test_wronskian_conservation_across_spectral_values(canonical):
    worst = 0.0
    for eps in (0.1, 0.05, 0.025):
        for lam in (-1e-6, -1e-2, -0.25, -1.0 + 0.3j):
            d = transfer_matrix(canonical, eps, lam, eps / 40).det()
            worst = max(worst, abs(d - 1))
    assert worst < 1e-10


def test_square_well_matches_transcendental_oracle():
    kap_exact = well_ground_state_kappa(2.0)
    res = find_bound_state(SquareWell(depth=2.0, support=(0.0, 1.0)), 0.1, bracket=(0.1, 1.2))
    assert res is not None and res.converged
    assert res.kappa.real == pytest.approx(kap_exact, rel=1e-10)
    assert abs(res.eigenvalue.real + kap_exact**2) / kap_exact**2 < 1e-8


def test_deep_well_oracle_too():
    # depth 30 holds two bound states; the bracket isolates the even one
    kap_exact = well_ground_state_kappa(30.0)
    res = find_bound_state(SquareWell(depth=30.0, support=(0.0, 1.0)), 0.1, bracket=(4.0, 5.4))
    assert res.kappa.real == pytest.approx(kap_exact, rel=1e-9)


def test_free_potential_has_no_bound_state():
    assert find_bound_state(TwoScaleFunction(modes={}), 0.1) is None


# ---------------------------------------------------------------- oscillatory


def test_canonical_bound_state_exists_and_matches_scan(canonical, canonical_k2):
    res = find_bound_state(canonical, 0.1, k2_hint=canonical_k2.value)
    assert res is not None and res.converged
    assert res.mismatch_residual <= DEFAULT_SOLVER.root_tol
    assert res.kappa.real > 0 and abs(res.kappa.imag) == 0.0

    scan = scan_roots(canonical, 0.1, window=(1e-6, 0.5), samples=1500)
    assert scan.count == 1
    assert scan.kappas[0] == pytest.approx(res.kappa.real, rel=1e-9)


def test_eigenvalue_tracks_the_fourth_power_prediction(canonical, canonical_k2):
    # resonant epsilons keep the envelope-edge pollution out of the comparison
    for eps in (0.1, 0.05):
        res = find_bound_state(canonical, eps, k2_hint=canonical_k2.value)
        pred = -(eps**4) * canonical_k2.value**2
        assert res.eigenvalue.real == pytest.approx(pred.real, rel=0.2)


def test_convergence_study_halves_the_configured_step(canonical, canonical_k2):
    eps = 0.1
    st = convergence_study(canonical, eps, k2_hint=canonical_k2.value)
    assert st.steps == (eps / 40, eps / 80, eps / 160)
    direct = [
        find_bound_state(canonical, eps, k2_hint=canonical_k2.value, cfg=SolverConfig(points_per_fast_period=p))
        for p in (40, 80, 160)
    ]
    assert st.eigenvalues == tuple(res.eigenvalue for res in direct)


def test_convergence_study_sees_fourth_order(canonical, canonical_k2):
    st = convergence_study(canonical, 0.1, k2_hint=canonical_k2.value)
    assert 3.7 < st.observed_order < 4.3
    assert st.error_estimate < 1e-7 * abs(st.extrapolated)
    # the extrapolated value is consistent with a much finer direct solve
    fine = find_bound_state(
        canonical, 0.1, k2_hint=canonical_k2.value, cfg=SolverConfig(points_per_fast_period=640)
    )
    assert st.extrapolated.real == pytest.approx(fine.eigenvalue.real, rel=1e-9)


def test_imaginary_potential_has_no_admissible_root(canonical, canonical_k2):
    iV = canonical.scaled(1j)
    assert find_bound_state(iV, 0.1, k2_hint=-canonical_k2.value) is None
    floor = min_mismatch_on_disk(iV, 0.1, k2_hint=-canonical_k2.value)
    assert floor > 10 * DEFAULT_SOLVER.root_tol


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", ["canonical_rotated", "canonical", "two_mode"])
def test_emerging_root_is_found_and_counted_in_the_disk(name, eps):
    # canonical * e^{0.3i}: k2 = 0.0830+0.0568i, so the secant has a complex root to find
    if name == "canonical_rotated":
        V = canonical_potential().scaled(cmath.exp(0.3j))
    else:
        V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    rep = compute_k2(V)
    assert rep.classification is Existence.EXISTS
    res = find_bound_state(V, eps, k2_hint=rep.value)
    assert res is not None and res.converged
    assert (res.kappa.imag == 0.0) if V.is_real else (res.kappa.imag > 0.0 and res.iterations <= 5)
    ratio = res.eigenvalue / predict_lambda(rep.value, eps)
    assert abs(ratio.real - 1.0) < 0.2 and abs(ratio.imag) < 0.05
    # the root lies in the disk around eps^2 k2: the boundary winds once around it
    assert min_mismatch_on_disk(V, eps, k2_hint=rep.value) == 0.0


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
@pytest.mark.parametrize("theta", [0.3, 0.8, 1.2, math.pi / 2])
def test_secant_verdict_agrees_with_the_disk_count(name, theta):
    # the secant reports a root exactly when the winding count finds one in the cut disk
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential().scaled(cmath.exp(1j * theta))
    k2 = compute_k2(V).value
    for eps in (0.1, 0.05, 0.025):
        res = find_bound_state(V, eps, k2_hint=k2)
        floor = min_mismatch_on_disk(V, eps, k2_hint=k2)
        assert (res is None) == (floor > 0.0), (eps, res, floor)
        if res is not None:
            assert res.converged and res.iterations <= 5


def test_disk_floor_samples_only_the_boundary_of_the_cut_disk(canonical, canonical_k2, monkeypatch):
    seen = []
    one_kappa = _CoefficientGrid.mismatch

    def record(grid, kappa):
        seen.append(kappa)
        return one_kappa(grid, kappa)

    monkeypatch.setattr(_CoefficientGrid, "mismatch", record)
    k2 = -canonical_k2.value  # the i-rotation's k2: the disk straddles the cut
    min_mismatch_on_disk(canonical.scaled(1j), 0.1, k2_hint=k2)
    z = np.array(seen, dtype=complex)
    center = 0.1**2 * k2
    on_circle = np.isclose(np.abs(z - center), 2.0 * abs(center), rtol=1e-12, atol=0.0)
    on_cut = z.real == solver._KAPPA_FLOOR
    assert on_circle.any() and on_cut.any() and np.all(on_circle | on_cut)


def recorded_mismatch(monkeypatch):
    """The kappas of every call to ``_CoefficientGrid.mismatch``, one entry per call."""
    seen = []
    one_call = _CoefficientGrid.mismatch
    monkeypatch.setattr(_CoefficientGrid, "mismatch", lambda grid, kappa: seen.append(kappa) or one_call(grid, kappa))
    return seen


def test_the_disk_passes_its_whole_contour_to_mismatch_at_once(canonical, canonical_k2, monkeypatch):
    seen = recorded_mismatch(monkeypatch)
    min_mismatch_on_disk(canonical.scaled(1j), 0.1, k2_hint=-canonical_k2.value)
    assert len(seen) == 1 and np.shape(seen[0]) == (solver._CONTOUR_POINTS,)


@pytest.mark.parametrize("rotation", [1.0, 1j], ids=["1", "i"])
def test_contour_refinement_samples_each_point_once(canonical, canonical_k2, rotation, monkeypatch):
    # the doubled contour's even points are the last contour's: each doubling samples only the new ones
    monkeypatch.setattr(solver, "_CONTOUR_POINTS", 4)
    seen = recorded_mismatch(monkeypatch)
    k2 = canonical_k2.value * rotation**2
    floor = min_mismatch_on_disk(canonical.scaled(rotation), 0.1, k2_hint=k2)
    sizes = [np.size(z) for z in seen]
    assert sizes == [4 * 2 ** max(0, j - 1) for j in range(len(sizes))]
    total = np.concatenate(seen)
    assert np.unique(total).size == total.size
    # the same verdict and floor as sampling each doubled contour whole
    calls = len(seen)
    monkeypatch.setattr(solver, "_CONTOUR_POINTS", sum(sizes))
    assert min_mismatch_on_disk(canonical.scaled(rotation), 0.1, k2_hint=k2) == floor
    assert len(seen) == calls + 1 and np.array_equal(np.sort_complex(seen[-1]), np.sort_complex(total))


def test_disk_count_refines_a_coarse_contour_up_to_its_cap(canonical, canonical_k2, monkeypatch):
    # a winding of 1 over 4 samples forces a phase step of at least pi/2: the count must refine
    monkeypatch.setattr(solver, "_CONTOUR_POINTS", 4)
    assert min_mismatch_on_disk(canonical, 0.1, k2_hint=canonical_k2.value) == 0.0
    iV = canonical.scaled(1j)
    assert min_mismatch_on_disk(iV, 0.1, k2_hint=-canonical_k2.value) > 10 * DEFAULT_SOLVER.root_tol
    monkeypatch.setattr(solver, "_CONTOUR_MAX_POINTS", 4)
    with pytest.raises(ValueError, match="cannot count"):
        min_mismatch_on_disk(canonical, 0.1, k2_hint=canonical_k2.value)


@pytest.mark.parametrize("name, batch", [("canonical", 8), ("two_mode", 6)])
def test_the_disk_contour_climbs_one_plan(name, batch, monkeypatch):
    # 16 points at most 10 (400 steps) or 6 (600 steps) at a time go as 8 + 8, or as three batches of 6, the
    # last one ending on the last point: one plan for the contour, whose 16 values are its own bit for bit
    plans = []

    class Counted(solver._Tree):
        def __init__(self, *args):
            plans.append(args[0])
            super().__init__(*args)

    iV = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential().scaled(1j)
    k2 = compute_k2(iV).value
    seen = recorded_mismatch(monkeypatch)
    monkeypatch.setattr(solver, "_Tree", Counted)
    floor = min_mismatch_on_disk(iV, 0.1, k2_hint=k2)
    assert plans == [(batch,)] and len(seen) == 1 and np.shape(seen[0]) == (16,)
    grid = _CoefficientGrid(iV, 0.1, 0.1 / 40)
    assert np.min(np.abs([grid.mismatch(z) for z in seen[0]])) == floor > 0.0


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
@pytest.mark.parametrize("rotation", [cmath.exp(0.3j), 1j], ids=["e^0.3i", "i"])
def test_disk_count_does_not_depend_on_the_starting_contour(name, rotation, monkeypatch):
    # 16 points are every fourth of 64, so a count that needs no refinement floors no lower
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential().scaled(rotation)
    k2 = compute_k2(V).value
    epsilons = (0.1, 0.05)
    floors = [min_mismatch_on_disk(V, eps, k2_hint=k2) for eps in epsilons]
    monkeypatch.setattr(solver, "_CONTOUR_POINTS", 64)
    for eps, floor in zip(epsilons, floors):
        fine = min_mismatch_on_disk(V, eps, k2_hint=k2)
        assert (floor == 0.0) == (fine == 0.0), (eps, floor, fine)
        assert floor >= fine * (1.0 - 1e-14)


def march(grid, u, w, lam):
    """RK4 across the grid from (u, w) at x0, one ``_rk4_step`` at a time: the step-by-step reference."""
    for h, a0, a1, a2 in zip(grid.steps.tolist(), *(x.tolist() for x in grid.a)):
        u, w = _rk4_step(h, u, w, (a0 - lam, a1 - lam, a2 - lam))
    return u, w


def shipped_grid(name, eps=0.1):
    cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
    V = cfg.build_potential()
    return V, cfg, _CoefficientGrid(V, eps, eps / cfg.points_per_period)


def long_double_maps(steps, a, lam):
    """Each step's map as one long-double ``_rk4_step`` from the basis vectors, one lane per step."""
    dtype = np.clongdouble if np.iscomplexobj(lam) or any(np.iscomplexobj(x) for x in a) else np.longdouble
    h, lam = np.asarray(steps).astype(np.longdouble), np.asarray(lam).astype(dtype)
    c = [np.asarray(x).astype(dtype) - lam for x in a]
    one, zero = np.ones_like(h, dtype=dtype), np.zeros_like(h, dtype=dtype)
    m00, m10 = _rk4_step(h, one, zero, c)
    m01, m11 = _rk4_step(h, zero, one, c)
    return m00, m01, m10, m11


def leaf_at(grid, lam):
    """A copy of the step maps at lam in the grid's plan's leaf: a (2, 2, *batch, n) stack [[m00, m01], [m10, m11]]."""
    return _CoefficientGrid._planned(grid, lam, lambda tree: tree.leaf.copy())


def worst_column_error(maps, reference, scale=1.0):
    """Largest entry error of the (2, 2, n) stack of step maps diag(1, scale) M diag(1, 1/scale),
    in ulp (2^-52) of the 1-norm of the reference map's column."""
    m00, m01, m10, m11 = (x.astype(r.dtype) for x, r in zip(np.reshape(maps, (4, -1)), reference))
    r00, r01, r10, r11 = reference
    col0, col1 = np.abs(r00) + scale * np.abs(r10), np.abs(r01) / scale + np.abs(r11)
    errors = (
        np.abs(m00 - r00) / col0,
        scale * np.abs(m10 - r10) / col0,
        np.abs(m01 - r01) / scale / col1,
        np.abs(m11 - r11) / col1,
    )
    return float(max(np.max(e) for e in errors) / np.longdouble(2.0**-52))


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
@pytest.mark.parametrize("lam", [-1e-3, -0.01 + 0.004j, -1.0, "-sup|V|"])
def test_step_map_columns_are_one_rk4_step_from_the_basis(name, lam):
    # the closed form reorders the RK4 arithmetic, so it is held to a long-double
    # run of the same body: every entry within 2 ulp of the 1-norm of its map column
    for eps in (0.1, 1e-3):
        V, _, grid = shipped_grid(name, eps)
        value = -V.sup_abs() if lam == "-sup|V|" else lam
        reference = long_double_maps(grid.steps, grid.a, value)
        assert worst_column_error(leaf_at(grid, value), reference) <= 2.0


def assert_views_of_one_array(stages):
    base = stages[0].base
    assert base is not None and all(stage.base is base and np.shares_memory(stage, base) for stage in stages)
    assert all(stage.strides == (2 * base.itemsize,) for stage in stages)


def long_double_trace(V, x, eps):
    """V(x, x/eps) in long double at long-double points x, every mode summed as written."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    xi = x / np.longdouble(eps)
    total = np.zeros(x.shape, np.clongdouble)
    for n, prof in V.modes.items():
        a, b = (np.longdouble(end) for end in prof.support)
        if prof.kind == "poly":
            envelope = np.where((x >= a) & (x <= b), ((x - a) * (b - x)) ** prof.power, 0)
        else:
            t = (x - (a + b) / 2) / ((b - a) / 2)
            s = 1 - t * t
            inside = s > 1.35e-3  # the double walk's cut, where the bump is below 1e-300
            envelope = np.where(inside, np.exp(1 - 1 / np.where(inside, s, 1)), 0)
        total += np.clongdouble(prof.amplitude) * envelope * np.exp(1j * two_pi * n * (xi - np.floor(xi)))
    return total


def stage_points(grid, eps, points):
    """(starts, middles, ends) of the grid's steps: in double as the grid lays them, and in long
    double on the exact lattice x0 + k eps / points, a partial step's two points as in double."""
    h, k = grid.h, np.arange(grid.n_full, dtype=float)
    starts = grid.x0 + h * np.arange(grid.steps.size, dtype=float)
    middles, ends = grid.x0 + h * (k + 0.5), grid.x0 + h * (k + 1.0)
    step, kl = np.longdouble(eps) / points, np.arange(grid.n_full + 1, dtype=np.longdouble)
    lattice = np.longdouble(grid.x0) + step * kl
    exact = [lattice[: grid.steps.size], np.longdouble(grid.x0) + step * (kl[:-1] + np.longdouble(0.5)), lattice[1:]]
    if grid.h_last > 0.0:
        middles = np.append(middles, grid.x0 + grid.n_full * h + 0.5 * grid.h_last)
        ends = np.append(ends, grid.x1)
        exact[1] = np.append(exact[1], np.longdouble(middles[-1]))
        exact[2] = np.append(exact[2], np.longdouble(grid.x1))
    return (starts, middles, ends), exact


# eps 0.07 leaves a partial step on both configs; 320 points per period at eps 1e-3 (a million
# long-double samples) would double the suite's time
STAGE_GRIDS = [(eps, points) for eps in (0.1, 0.07, 1e-3) for points in (20, 40, 320) if (eps, points) != (1e-3, 320)]


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
@pytest.mark.parametrize("rotation", [1.0, 1j], ids=["1", "i"])
@pytest.mark.parametrize("eps, points", STAGE_GRIDS)
def test_stage_samples_are_three_views_of_one_array_closer_to_the_trace_than_eval_fast(name, rotation, eps, points):
    # the phase table samples the lattice, so it is held to a long-double trace there: its largest
    # error over sup|V| is at most eval_fast's at the double stage points
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential().scaled(rotation)
    grid = _CoefficientGrid(V, eps, eps / points)
    assert (grid.h_last > 0.0) == (eps == 0.07)
    laid, exact = stage_points(grid, eps, points)
    table = fast = 0.0
    for stage, x, xl in zip(grid.a, laid, exact):
        reference = long_double_trace(V, xl, eps)
        table = max(table, float(np.max(np.abs(stage - reference))))
        fast = max(fast, float(np.max(np.abs(np.asarray(V.eval_fast(x, eps)) - reference))))
    assert table <= fast
    # the table's fast variable is rounded near 1, so its error does not grow with x / eps as eval_fast's does
    assert table <= 1e-14 * V.sup_abs()
    if grid.h_last > 0.0:
        # a partial step's end and midpoint lie off the lattice: eval_fast's samples bit for bit
        off = np.array([laid[2][-1], laid[1][-1]])
        assert np.array([grid.a[2][-1], grid.a[1][-1]]).tobytes() == np.asarray(V.eval_fast(off, eps)).tobytes()
    assert_views_of_one_array(grid.a)


@pytest.mark.parametrize("eps", [0.1, 0.07])
def test_stage_points_lie_in_increasing_x_with_the_step_ends_at_even_positions(canonical, eps):
    # the midpoints sit between the ends; a partial step's midpoint and x1 (the last of stage_points'
    # ends) close the array
    grid = _CoefficientGrid(canonical, eps, eps / 40)
    assert (grid.h_last > 0.0) == (eps == 0.07)
    (starts, middles, ends), _ = stage_points(grid, eps, 40)
    xs = grid.xs
    assert xs.size == 2 * grid.steps.size + 1 and np.all(np.diff(xs) > 0)
    assert xs[::2].tobytes() == np.append(starts[:1], ends).tobytes()
    assert xs[1::2].tobytes() == middles.tobytes()


def test_a_step_that_is_not_eps_over_an_integer_samples_as_eval_fast(canonical, monkeypatch):
    # transfer_matrix takes any h; off the phase table's lattice the samples are eval_fast's bit for bit
    grids = []

    class TrackedGrid(_CoefficientGrid):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(self)

    monkeypatch.setattr(solver, "_CoefficientGrid", TrackedGrid)
    for V in (canonical, canonical.scaled(1j)):
        transfer_matrix(V, 0.07, -0.01, 0.07 / 37.5)
        grid = grids[-1]
        assert grid.steps.size > 0 and 0.07 / round(0.07 / grid.h) != grid.h
        assert grid.a[0].base.tobytes() == np.asarray(V.eval_fast(grid.xs, 0.07)).tobytes()


# real and imaginary parts of a point in the unit disk
disk_coordinate = st.floats(-1.0, 1.0).map(lambda t: t / math.sqrt(2.0))


@given(
    h=st.floats(1e-6, 1.0),
    partial=st.floats(0.0, 1.0, exclude_max=True),
    a=st.lists(st.tuples(disk_coordinate, disk_coordinate), min_size=9, max_size=9),
    lam=st.tuples(disk_coordinate, disk_coordinate),
    complex_a=st.booleans(),
    complex_lam=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_step_maps_match_a_long_double_rk4_step(h, partial, a, lam, complex_a, complex_lam):
    # two full steps and a partial one, kept from 1e-12 h up as the stage grid keeps it;
    # h^2 |a_i| <= 1 and h^2 |lam| <= 1.  Each map is compared as diag(1, h_k) M diag(1, 1/h_k),
    # h_k its step, whose entries carry no units of length
    steps = np.array([h, h] + ([partial * h] if partial >= 1e-12 else []))
    a = np.array([complex(x, y if complex_a else 0.0) for x, y in a[: 3 * steps.size]]) / (h * h)
    if not complex_a:
        a = a.real
    lam = complex(lam[0], lam[1] if complex_lam else 0.0) / (h * h)
    lam = lam if complex_lam else lam.real
    stages = a.reshape(steps.size, 3).T
    coefficients = _quadratic_maps(h, float(steps[2:].sum()), *stages)
    maps = leaf_at(SimpleNamespace(steps=steps, a=stages, coefficients=coefficients, _tree=None), lam)
    assert worst_column_error(maps, long_double_maps(steps, stages, lam), scale=steps) <= 2.0


def per_step_quadratic_maps(h, a0, a1, a2):
    """``_quadratic_maps`` expanded over a per-step array h of step lengths, term by term: the
    reference for its bytes."""
    p0, p1 = np.empty((3, h.size), a1.dtype), np.empty((3, h.size), a1.dtype)
    p2 = np.empty((3, h.size))
    h2 = h * h
    h3_6, h4_24 = p2[0], p2[1]
    np.divide(h * h2, 6.0, out=h3_6)
    np.divide(h2 * h2, 24.0, out=h4_24)
    p2[2] = h4_24
    p0[0] = h / 6.0 * (a0 + 4.0 * a1 + a2) + 0.5 * h3_6 * a1 * (a0 + a2)
    p1[0] = -(h + 0.5 * h3_6 * (a0 + 2.0 * a1 + a2))
    p0[1] = h2 / 6.0 * (2.0 * a1 + a2) + h4_24 * a1 * a2
    p1[1] = -(0.5 * h2 + h4_24 * (a1 + a2))
    p0[2] = h2 / 6.0 * (a0 + 2.0 * a1) + h4_24 * a0 * a1
    p1[2] = -(0.5 * h2 + h4_24 * (a0 + a1))
    return p0, p1, p2


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
@pytest.mark.parametrize("rotation", [1.0, 1j], ids=["1", "i"])
@pytest.mark.parametrize("eps", [0.1, 0.07, 1e-3])
def test_coefficients_are_the_per_step_expansion_bit_for_bit(name, rotation, eps):
    # one float h for the full steps, the partial step (eps 0.07) on its own, every row written in place
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential().scaled(rotation)
    grid = _CoefficientGrid(V, eps, eps / 40)
    assert (grid.h_last > 0.0) == (eps == 0.07)
    reference = per_step_quadratic_maps(grid.steps, *grid.a)
    assert [(p.dtype, p.shape) for p in grid.coefficients] == [(p.dtype, p.shape) for p in reference]
    assert [p.tobytes() for p in grid.coefficients] == [p.tobytes() for p in reference]


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_a_grid_build_peaks_below_six_fifths_of_what_the_grid_keeps(name):
    # at eps 1e-3 (80k / 120k stage points) the build's temporaries beyond the grid's own arrays
    # are the stage points and two step-sized rows of the coefficient build
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    solver._SPARES.clear()  # a cold build: no spare to reuse
    tracemalloc.start()
    try:
        grid = _CoefficientGrid(V, 1e-3, 1e-3 / 40)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.steps.size >= 40000
    assert peak <= 1.2 * held


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_a_warm_grid_build_allocates_no_step_sized_array(name):
    # a grid built where the last one went away takes its spares: the build's traced peak stays below
    # one step-sized float array (its numpy views and the potential's block temporaries)
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    _CoefficientGrid(V, 1e-3, 1e-3 / 40)
    tracemalloc.start()
    try:
        grid = _CoefficientGrid(V, 1e-3, 1e-3 / 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.steps.size


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_composed_mismatch_matches_an_extended_precision_march(name):
    V, cfg, grid = shipped_grid(name)
    res = find_bound_state(V, 0.1, cfg=SolverConfig(points_per_fast_period=cfg.points_per_period))
    for kappa in (res.kappa.real, 0.5 * res.kappa.real, 2.0 * res.kappa.real):
        # the same RK4 scheme on the same samples, stepped one step at a time in long double
        k = np.array([kappa], dtype=np.longdouble)
        u, w = march(grid, np.ones(1, dtype=np.longdouble), k, -k * k)
        reference = (w + k * u)[0]
        assert abs(np.longdouble(grid.mismatch(kappa)) - reference) <= 2e-15


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_roots_agree_with_a_long_double_march_on_the_same_grid(name):
    # at every configured eps, the long-double mismatch changes sign within 2e-12 relative of the root
    V, cfg, _ = shipped_grid(name)
    for eps in cfg.epsilons:
        res = find_bound_state(V, eps, cfg=SolverConfig(points_per_fast_period=cfg.points_per_period))
        grid = _CoefficientGrid(V, eps, eps / cfg.points_per_period)
        k = np.longdouble(res.kappa.real) * (1 + np.array([-2e-12, 2e-12], dtype=np.longdouble))
        u, w = march(grid, np.ones(2, dtype=np.longdouble), k, -k * k)
        f = w + k * u
        assert f[0] * f[1] < 0, (eps, f)


def test_the_h_path_builds_its_maps_once_per_grid_and_never_runs_the_rk4_body(
    canonical, canonical_k2, monkeypatch
):
    rk4_calls, builds = [], []
    rk4_step, build = solver._rk4_step, solver._quadratic_maps
    monkeypatch.setattr(solver, "_rk4_step", lambda *args: rk4_calls.append(args) or rk4_step(*args))
    monkeypatch.setattr(solver, "_quadratic_maps", lambda *args: builds.append(args) or build(*args))
    # each call builds one grid and evaluates it at many kappas
    calls = [
        lambda: find_bound_state(canonical, 0.1, k2_hint=canonical_k2.value),
        lambda: scan_roots(canonical, 0.1),
        lambda: min_mismatch_on_disk(canonical.scaled(1j), 0.1, k2_hint=-canonical_k2.value),
    ]
    for n, call in enumerate(calls, start=1):
        call()
        assert len(builds) == n
    assert rk4_calls == []


def test_find_bound_state_frees_its_grid_without_the_cycle_collector(canonical, canonical_k2, monkeypatch):
    grids = []

    class TrackedGrid(_CoefficientGrid):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(weakref.ref(self))

    monkeypatch.setattr(solver, "_CoefficientGrid", TrackedGrid)
    enabled = gc.isenabled()
    gc.disable()
    try:
        res = find_bound_state(canonical, 0.1, k2_hint=canonical_k2.value)
        assert res is not None and res.converged
        assert len(grids) == 1 and grids[0]() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("depth, bracket", [(2.0, (0.1, 1.2)), (30.0, (4.0, 5.4))])
def test_brent_reproduces_scipy_brentq_on_the_square_well_oracle(depth, bracket):
    f, lo, hi = well_even_state_equation(depth)
    grid = _CoefficientGrid(SquareWell(depth=depth), 0.1, 0.1 / 40)
    # the transcendental oracle, then the solver's own mismatch of the same well
    for g, a, b in [(f, lo, hi), (grid.mismatch, *bracket)]:
        ref, info = optimize.brentq(g, a, b, xtol=1e-17, rtol=8.9e-16, maxiter=200, full_output=True)
        root, froot, its = _brent(g, a, b, g(a), g(b))
        assert root.hex() == ref.hex()
        assert its == info.iterations
        assert froot == g(root)


@pytest.mark.parametrize("lo, hi, flo, fhi", [(0.3, 1.0, 0.0, 0.7), (0.1, 0.3, -0.2, 0.0)], ids=["lower", "upper"])
def test_brent_returns_a_zero_end_as_scipy_brentq_does(lo, hi, flo, fhi):
    def f(x):
        return x - 0.3

    # scipy's root is the oracle; its iteration count at a zero end is not (uninitialized in
    # scipy 1.17.1: 0, 1 or garbage from call to call), so the count is _brent's own: one
    ref = optimize.brentq(f, lo, hi, xtol=1e-17, rtol=8.9e-16, maxiter=200)
    assert ref == 0.3
    assert _brent(f, lo, hi, flo, fhi) == (ref, 0.0, 1)


def roots_and_evaluations(call, exact):
    """The roots ``call`` returns and the mismatch evaluations it makes; ``exact`` runs Brent with ftol = 0."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        f = _CoefficientGrid.mismatch
        mp.setattr(_CoefficientGrid, "mismatch", lambda grid, k: calls.append(k) or f(grid, k))
        if exact:
            mp.setattr(solver, "_brent", lambda f, lo, hi, flo, fhi, ftol: _brent(f, lo, hi, flo, fhi))
        roots = call()
    return roots, len(calls)


WELL_BRACKETS = {"well 2.0": (2.0, (0.1, 1.2)), "well 30.0": (30.0, (4.0, 5.4))}


@pytest.mark.parametrize(
    "name, eps",
    [(name, eps) for name in ("canonical", "two_mode") for eps in (0.1, 0.01, 1e-3)]
    + [(name, 0.1) for name in WELL_BRACKETS],
)
@pytest.mark.parametrize("route", ["find", "scan"])
def test_brent_stops_at_a_root_within_the_relative_step_of_scipys_root(name, eps, route):
    # ftol = root_tol ends Brent at an iterate that is a root and whose next step is at most _ROOT_RTOL kappa
    if name in WELL_BRACKETS:
        depth, bracket = WELL_BRACKETS[name]
        V, cfg = SquareWell(depth=depth), DEFAULT_SOLVER
    else:
        V, shipped, _ = shipped_grid(name)
        cfg, bracket = SolverConfig(points_per_fast_period=shipped.points_per_period), None
    call = {
        "find": lambda: [find_bound_state(V, eps, cfg=cfg, bracket=bracket).kappa.real],
        "scan": lambda: list(scan_roots(V, eps, cfg=cfg).kappas),
    }[route]
    roots, evaluations = roots_and_evaluations(call, False)
    exact, exact_evaluations = roots_and_evaluations(call, True)
    grid = _CoefficientGrid(V, eps, eps / cfg.points_per_fast_period)
    assert len(roots) == len(exact) >= 1
    assert all(solver._is_root(grid.mismatch(kappa)) for kappa in roots)
    assert all(abs(kappa - ref) <= 2.0 * solver._ROOT_RTOL * ref for kappa, ref in zip(roots, exact))
    assert evaluations < exact_evaluations if eps == 1e-3 else evaluations <= exact_evaluations


@pytest.mark.parametrize("depth, states", [(2.0, 1), (30.0, 2), (100.0, 4), (400.0, 7)])
def test_sturm_count_matches_the_square_well_oracle(depth, states):
    # a well of depth D on (0, 1) holds ceil(sqrt(D) / pi) bound states, each with kappa < sqrt(D)
    assert states == math.ceil(math.sqrt(depth) / math.pi)
    well = SquareWell(depth=depth)
    grid = _CoefficientGrid(well, 0.1, 0.1 / 40)
    assert grid.count_below(solver._KAPPA_FLOOR)[0] == states
    scan = scan_roots(well, 0.1, window=(1e-9, math.sqrt(depth)))
    assert scan.count == states
    assert list(scan.kappas) == sorted(set(scan.kappas))
    for kappa in scan.kappas:
        assert abs(grid.mismatch(kappa)) <= 1e-12 * abs(grid.mismatch(1.01 * kappa))


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_scan_finds_the_one_root_at_eps_1e_3(name):
    # the root sits near 1e-7, far below the first sample interval's right end;
    # the default window starts at the kappa floor, below it
    V, cfg, _ = shipped_grid(name)
    scan = scan_roots(V, 1e-3)
    res = find_bound_state(V, 1e-3, cfg=SolverConfig(points_per_fast_period=cfg.points_per_period))
    assert scan.window == (solver._KAPPA_FLOOR, math.sqrt(V.sup_abs()))
    assert scan.count == 1
    assert scan.kappas[0] == pytest.approx(res.kappa.real, rel=1e-9)


def long_double_march(grid, kappa):
    """u at x0 and every step end, and w at x1, from (1, kappa) stepped through ``long_double_maps`` in long double."""
    maps = long_double_maps(grid.steps, grid.a, -kappa * kappa)
    u, w = maps[0].dtype.type(1), maps[0].dtype.type(kappa)
    us = [u]
    for m00, m01, m10, m11 in zip(*maps):
        u, w = m00 * u + m01 * w, m10 * u + m11 * w
        us.append(u)
    return np.array(us), w


@pytest.mark.parametrize("eps", [0.1, 1e-3])
@pytest.mark.parametrize("name, rotation", [("canonical", 1.0), ("two_mode", 1.0), ("canonical", cmath.exp(0.3j))])
def test_left_solution_marches_the_step_maps_from_the_left_tail(name, rotation, eps):
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential().scaled(rotation)
    grid = _CoefficientGrid(V, eps, eps / 40)
    for kappa in (0.05, 0.2 + 0.05j):
        k, u, w1 = grid.left_solution(kappa)
        reference, _ = long_double_march(grid, k)
        assert u[0] == 1 and len(u) == grid.steps.size + 1
        # a march's round-off, and the double maps' own: at most 2.1e-13 of max|u| seen (eps 1e-3, e^{0.3i})
        assert np.max(np.abs(u - reference)) <= 1e-12 * np.max(np.abs(reference))
        # the march's F against the tree's: at most 1.0e-12 of max(|w1|, |kappa u1|) seen (two_mode, eps 1e-3)
        assert abs(w1 + k * u[-1] - grid.mismatch(kappa)) <= 1e-11 * max(abs(w1), abs(k * u[-1]))


@pytest.mark.parametrize("width", [1, 16, 25])
@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_a_batched_mismatch_equals_one_kappa_at_a_time(name, eps, width):
    # 400 and 600 steps at eps 0.1 put 10 and 6 kappas in a batch, so 16 and 25 kappas span
    # several; at eps 0.01 a batch holds one kappa
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    grid = _CoefficientGrid(V, eps, eps / 40)
    ks = np.linspace(0.02, 0.9, width)
    zs = ks * cmath.exp(0.4j)
    cases = [
        (grid, ks),  # real kappas on a real grid: floats
        (grid, np.append(zs[1:], ks[:1])),  # complex kappas on a real grid, one of them real
        (_CoefficientGrid(V.scaled(cmath.exp(0.3j)), eps, eps / 40), zs),
    ]
    for g, kappas in cases:
        batch = g.mismatch(kappas)
        one = [g.mismatch(k) for k in kappas]
        assert batch.shape == (width,)
        assert batch.dtype == (float if all(type(f) is float for f in one) else complex)
        assert batch.tolist() == one


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_one_grid_reuses_and_rebuilds_its_plan_bit_for_bit(name):
    # at eps 0.1 a batch holds up to 10 kappas on canonical (400 steps) and 6 on two_mode (600):
    # each call equals the same call on a fresh grid, whether the grid's plan is reused or rebuilt
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    grid = _CoefficientGrid(V, 0.1, 0.1 / 40)
    zs = np.linspace(0.02, 0.9, 10) * cmath.exp(0.4j)
    sequence = [0.3, 0.3, 0.2 + 0.05j, zs[:1], zs.real, zs[:6], zs[4:], 0.3]
    rebuilt = [True, False, True, True, True, True, False, True]
    for kappa, new_plan in zip(sequence, rebuilt):
        plan = grid._tree
        f = grid.mismatch(kappa)
        fresh = _CoefficientGrid(V, 0.1, 0.1 / 40).mismatch(kappa)
        assert type(f) is type(fresh) and np.asarray(f).dtype == np.asarray(fresh).dtype
        assert np.asarray(f).tobytes() == np.asarray(fresh).tobytes()
        assert (grid._tree is not plan) == new_plan
    # a transfer matrix is the top of a fresh grid's plan: the reused grid's plan climbs to it bit for bit
    lam = -0.01 + 0.004j
    total = transfer_matrix(V, 0.1, lam, 0.1 / 40).matrix
    assert total.tobytes() == grid._planned(lam, solver._Tree.climb).tobytes()


@pytest.mark.parametrize("outside", [0.0, -0.1, -1e-3 + 0.2j, math.nan])
def test_a_batch_with_one_kappa_outside_the_half_plane_raises(canonical, outside):
    grid = _CoefficientGrid(canonical, 0.1, 0.1 / 40)
    with pytest.raises(ValueError, match="half-plane"):
        grid.mismatch(np.array([0.1, 0.2 + 0.1j, outside, 0.3]))
    with pytest.raises(ValueError, match="half-plane"):
        grid.mismatch(np.array([0.1, outside.real]))


def test_an_empty_kappa_array_gives_an_empty_array_and_a_2d_one_is_refused(canonical):
    # the empty array takes the dtype a batch of its grid's kappas would
    for V, dtype in ((canonical, float), (canonical.scaled(1j), complex)):
        f = mismatch(V, 0.1, np.array([]))
        assert f.shape == (0,) and f.dtype == dtype
    with pytest.raises(ValueError, match=r"not an array of shape \(2, 2\)"):
        mismatch(canonical, 0.1, np.full((2, 2), 0.3))


def climbed(maps):
    """M[n-1] ... M[0] of a (2, 2, *batch, n) stack of maps: a plan's leaf filled with them and climbed, as a copy."""
    tree = solver._Tree(maps.shape[2:-1], maps.dtype, maps.shape[-1])
    tree.leaf[...] = maps
    return tree.climb().copy()


def reference_product(left, right):
    """Entries of left @ right over 4-tuples (m00, m01, m10, m11) of entry arrays."""
    la, lb, lc, ld = left
    ea, eb, ec, ed = right
    return la * ea + lb * ec, la * eb + lb * ed, lc * ea + ld * ec, lc * eb + ld * ed


def reference_pair(m):
    """One level of the pairwise tree on entry arrays: map 2j+1 times map 2j, an odd last map carried."""
    size = m[0].size
    n = size - size % 2
    pairs = reference_product([x[1:n:2] for x in m], [x[0:n:2] for x in m])
    return pairs if n == size else tuple(np.concatenate((p, x[n:])) for p, x in zip(pairs, m))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [*range(10), 17, 4001, 20001])
def test_the_tree_multiplies_like_the_entrywise_pairwise_reference(n, dtype):
    # bit for bit, odd carries included: each level sums the same two products in the same order;
    # 20001 maps give levels wider than numpy's default ufunc buffer (8192 elements)
    rng = np.random.default_rng(n)
    maps = np.eye(2)[..., np.newaxis] + 0.1 * rng.standard_normal((2, 2, n))
    if dtype is complex:
        maps = maps + 0.1j * rng.standard_normal((2, 2, n))
    total = tuple(maps.reshape(4, n))
    while total[0].size > 1:
        total = reference_pair(total)
    total = np.reshape(total, 4) if n else [1.0, 0.0, 0.0, 1.0]
    assert np.ravel(climbed(maps)).tobytes() == np.array(total, dtype).tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 400])
def test_the_tree_composes_each_row_of_a_batch_as_alone(n, dtype):
    rng = np.random.default_rng(n)
    maps = np.eye(2)[..., np.newaxis, np.newaxis] + 0.1 * rng.standard_normal((2, 2, 5, n))
    if dtype is complex:
        maps = maps + 0.1j * rng.standard_normal((2, 2, 5, n))
    total = climbed(maps)
    assert total.shape == (2, 2, 5) and total.dtype == dtype
    for k in range(5):
        assert total[:, :, k].tobytes() == climbed(np.ascontiguousarray(maps[:, :, k])).tobytes()


def test_the_tree_puts_numpy_s_ufunc_buffer_size_back(canonical):
    # the tree runs with a small ufunc buffer; every numpy call after it must see the caller's size, on
    # every route through a grid's plan and past a raise
    grid, well = _CoefficientGrid(canonical, 0.1, 0.1 / 40), _CoefficientGrid(SquareWell((2.4 / 0.05) ** 2), 1.0, 0.05)
    old = np.setbufsize(4096)
    try:
        calls = (
            lambda: transfer_matrix(canonical, 0.1, -0.01 + 0.004j, 0.1 / 40),
            lambda: grid.mismatch(0.3),
            lambda: grid.mismatch(np.array([0.2, 0.3 + 0.1j])),
            lambda: grid.count_below(0.3),
            lambda: well.count_below(1e-3),
            lambda: grid.left_solution(0.3),
        )
        for call in calls:
            call()
            assert np.getbufsize() == 4096
        with pytest.raises(ZeroDivisionError):
            grid._planned(-0.09, lambda tree: 1 / 0)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_a_seed_below_the_kappa_floor_is_searched_from_the_floor(eps):
    # amplitude 0.03 puts eps^2 k2 at or below the floor, yet a bound state sits above it
    V = canonical_potential(amplitude=0.03)
    assert 0.0 < eps * eps * compute_k2(V).value.real <= solver._KAPPA_FLOOR
    res = find_bound_state(V, eps)
    scan = scan_roots(V, eps)
    assert res is not None and res.converged
    assert scan.count == 1
    # F keeps its sign across the seed bracket: the count isolates the root, as in the scan
    assert res.kappa.real == scan.kappas[0]


def test_bracket_reaches_past_kappa_one_on_a_deep_potential():
    # kappa^2 <= sup|V| = 625 caps the search here, not kappa = 1
    V = canonical_potential(amplitude=1e4)
    scan = scan_roots(V, 0.05, window=(0.2, 3.0))
    assert scan.count == 1 and scan.kappas[0] > 1.0
    res = find_bound_state(V, 0.05)
    assert res is not None and res.converged
    assert res.kappa.real == pytest.approx(scan.kappas[0], rel=1e-12)


def test_a_bracket_without_a_sign_change_falls_back_on_the_smallest_counted_root(monkeypatch):
    # two states, 3.2473 and 4.9792, lie above the bracket: F has the same sign at both ends
    well = SquareWell(depth=30.0)
    scan = scan_roots(well, 0.1)
    calls = []
    for name in ("count_below", "mismatch"):
        f = getattr(_CoefficientGrid, name)
        monkeypatch.setattr(_CoefficientGrid, name, lambda grid, k, f=f, name=name: calls.append(name) or f(grid, k))
    res = find_bound_state(well, 0.1, bracket=(0.01, 0.02))
    assert scan.count == 2
    assert res is not None and res.converged
    assert res.kappa.real == scan.kappas[0]
    # the work counts every Sturm count, and Brent's iterations are its evaluations plus the converging one
    assert "count_below" in calls
    assert res.iterations == len(calls) + 1


@pytest.mark.parametrize(
    "amplitude, rotation, mismatches, counts, iterations",
    [
        (100.0, 1.0, 5, 0, 6),  # Brent on the seed bracket
        (0.03, 1.0, 5, 2, 8),  # a seed below the floor: F keeps its sign across the bracket
        (3e4, 1.0, 13, 4, 18),  # a seed bracket reaching sqrt(sup|V|): no bracket, the window search alone
        (100.0, cmath.exp(0.3j), 5, 0, 4),  # a complex seed: the secant
    ],
    ids=["seed-bracket", "seed-below-floor", "seed-past-cap", "complex"],
)
def test_iterations_count_the_work_on_every_route(amplitude, rotation, mismatches, counts, iterations, monkeypatch):
    # real routes: every evaluation, plus Brent's converging iteration; the secant: its evaluations less one
    V = canonical_potential(amplitude=amplitude).scaled(rotation)
    calls = []
    for name in ("count_below", "mismatch"):
        f = getattr(_CoefficientGrid, name)
        monkeypatch.setattr(_CoefficientGrid, name, lambda grid, k, f=f, name=name: calls.append(name) or f(grid, k))
    res = find_bound_state(V, 0.1)
    assert res is not None
    assert (calls.count("mismatch"), calls.count("count_below")) == (mismatches, counts)
    assert res.iterations == iterations


def reference_counted_roots(grid, lo, hi, samples):
    """The roots of the real mismatch in (lo, hi], every bracket split by ``count_below``, each root by Brent."""
    ks = np.linspace(lo, hi, samples).tolist()
    stack = [(ks[0], ks[-1], grid.count_below(ks[0]), grid.count_below(ks[-1]), 0, samples - 1)]
    roots = []
    while stack:
        a, b, (na, fa), (nb, fb), i, j = stack.pop()
        if na <= nb:
            continue
        if na - nb == 1 and j - i <= 1:
            roots.append(_brent(grid.mismatch, a, b, fa, fb, SolverConfig.root_tol)[0])
            continue
        if j - i > 1:
            m = (i + j) // 2
            c, left, right = ks[m], (i, m), (m, j)
        else:
            c, left, right = 0.5 * (a + b), (i, j), (i, j)
        mid = grid.count_below(c)
        stack.append((c, b, mid, (nb, fb), *right))
        stack.append((a, c, (na, fa), mid, *left))
    return roots


SCANNED = {
    **{f"well {depth}": (lambda depth=depth: SquareWell(depth=depth), (0.1,)) for depth in (2.0, 30.0, 100.0, 400.0)},
    **{
        f"canonical@{amplitude}": (lambda amplitude=amplitude: canonical_potential(amplitude=amplitude), (0.1, 0.035))
        for amplitude in (0.03, 1e3, 1e4, 3e4)
    },
    **{name: (lambda name=name: shipped_grid(name)[0], (0.1, 0.01)) for name in ("canonical", "two_mode")},
}


def within_brent_tolerance(kappa, reference):
    """|kappa - reference| <= 2 (xtol + _ROOT_RTOL reference): two Brent runs that stop at the same root of F."""
    return abs(kappa - reference) <= 2.0 * (solver._BRENT_XTOL + solver._ROOT_RTOL * reference)


@pytest.mark.parametrize("name, eps", [(name, eps) for name, (_, epss) in SCANNED.items() for eps in epss])
def test_brent_on_a_one_root_bracket_finds_the_count_walk_roots_within_tolerance(name, eps, monkeypatch):
    # a bracket that holds one root goes to Brent as it stands: the same roots within Brent's
    # tolerance, from no more evaluations, and Sturm counts only where N decides
    V = SCANNED[name][0]()
    calls = []
    for method in ("count_below", "mismatch"):
        f = getattr(_CoefficientGrid, method)
        monkeypatch.setattr(_CoefficientGrid, method, lambda grid, k, f=f, m=method: calls.append(m) or f(grid, k))
    scan = scan_roots(V, eps)
    isolated, counts = len(calls), calls.count("count_below")
    calls.clear()
    grid = _CoefficientGrid(V, eps, eps / DEFAULT_SOLVER.points_per_fast_period)
    roots = reference_counted_roots(grid, *scan.window, scan.samples)
    assert scan.count == len(roots)
    assert all(map(within_brent_tolerance, scan.kappas, roots))
    assert isolated <= len(calls)
    if (name, eps) == ("canonical", 0.1):
        # the window's two ends: its one root goes to Brent on the whole window
        assert counts == 2


@pytest.mark.parametrize(
    "V, states",
    [(SquareWell(depth=400.0), 7), (canonical_potential(amplitude=3e4), 4)],
    ids=["well 400.0", "canonical@30000.0"],
)
def test_roots_sharing_one_sample_interval_are_split_at_midpoints(V, states):
    # with two samples the whole window is one sample interval: only the count's midpoint splits separate its roots
    scan, coarse = scan_roots(V, 0.1), scan_roots(V, 0.1, samples=2)
    assert scan.count == coarse.count == states
    assert all(map(within_brent_tolerance, coarse.kappas, scan.kappas))


def test_a_zero_of_f_at_a_bracket_end_is_a_root_only_at_the_upper_end():
    # a window (lo, hi] holds the roots above lo: F = 0 at hi goes to Brent as the root,
    # F = 0 at lo is split off by the count
    roots = (0.3, 0.6)

    def f(k):
        return (k - 0.3) * (k - 0.6)

    grid = SimpleNamespace(mismatch=f, count_below=lambda k: (sum(r > k for r in roots), f(k)))
    assert list(solver._counted_roots(grid, 0.1, 0.3, 5)) == [(0.3, 0.0, 3)]
    [hit] = solver._counted_roots(grid, 0.3, 0.9, 4)
    assert within_brent_tolerance(hit[0], 0.6)


@st.composite
def real_mode_sets(draw):
    """1-3 cosine or sine harmonics in 1..5 with poly or smooth envelopes, amplitudes in +-50, as in criterion 6."""
    total = None
    for n in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)):
        a = draw(st.floats(-1.0, 1.0))
        support = (a, a + draw(st.floats(0.3, 1.5)))
        amp = draw(st.floats(-50.0, 50.0).filter(lambda v: abs(v) > 1e-3))
        if draw(st.booleans()):
            envelope = poly_bump(amp, draw(st.integers(2, 4)), support)
        else:
            envelope = smooth_bump(amp, support)
        make = TwoScaleFunction.from_cosine if draw(st.booleans()) else TwoScaleFunction.from_sine
        piece = make(n, envelope)
        total = piece if total is None else combine(total, piece, 1.0, 1.0)
    return total


@given(V=real_mode_sets(), eps=st.sampled_from([0.1, 0.035]))
@settings(max_examples=60, deadline=None)
def test_brent_on_a_one_root_bracket_agrees_with_the_count_walk_on_random_potentials(V, eps):
    iterations = []

    def brent(*args):
        hit = _brent(*args)
        iterations.append(hit[2])
        return hit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_brent", brent)
        scan = scan_roots(V, eps)
    grid = _CoefficientGrid(V, eps, eps / DEFAULT_SOLVER.points_per_fast_period)
    roots = reference_counted_roots(grid, *scan.window, scan.samples)
    assert scan.count == len(roots) == len(iterations)
    assert all(map(within_brent_tolerance, scan.kappas, roots))
    assert max(iterations, default=0) < 20


def marched_counts(grid, kappas):
    """N at each kappa from (u, w) = (1, kappa) stepped through the grid's step maps one at a time, in step
    order: the sign changes of u over the step ends and then F, exact zeros skipped.  The sequential reference."""
    kappas = np.asarray(kappas, dtype=float)
    maps = np.moveaxis(leaf_at(grid, -kappas * kappas), -1, 0).tolist()  # per step, [[m00, m01], [m10, m11]] rows
    u, w = np.ones_like(kappas), kappas
    last, counts = np.ones_like(kappas), np.zeros(kappas.size, dtype=int)
    for (m00, m01), (m10, m11) in maps:
        u, w = np.multiply(m00, u) + np.multiply(m01, w), np.multiply(m10, u) + np.multiply(m11, w)
        counts += (u != 0) & (np.sign(u) != last)
        last = np.where(u == 0, last, np.sign(u))
    f = w + kappas * u
    return (counts + ((f != 0) & (np.sign(f) != last))).tolist()


@pytest.mark.parametrize("eps", [0.1, 1e-3])
@pytest.mark.parametrize("amplitude", [1e4, 3e4, 1e5])
def test_the_lifted_count_equals_the_marched_sign_changes_where_u_grows_by_1e10(amplitude, eps):
    # up to kappa = sqrt(sup|V|), u grows across the hull by about 1e10 (amplitude 1e4) to 1e34 (1e5); the
    # carries read only the factors' own m01 entries, so the count holds there
    V = canonical_potential(amplitude=amplitude)
    grid = _CoefficientGrid(V, eps, eps / 40)
    kappas = np.linspace(solver._KAPPA_FLOOR, math.sqrt(V.sup_abs()), 41 if eps == 0.1 else 11)
    counts = [grid.count_below(k)[0] for k in kappas.tolist()]
    assert counts == marched_counts(grid, kappas)
    assert counts[0] > 0


@pytest.mark.parametrize(
    "V", [SquareWell(depth=(0.9 * math.pi / 0.05) ** 2), canonical_potential(amplitude=5.2e4)], ids=["well", "canonical"]
)
def test_a_step_between_sqrt_6_and_pi_is_refused(V):
    # h = 0.05 (eps 1 at 20 points per period) puts h sqrt(sup|V|) at 0.9 pi or above, past sqrt 6: there a
    # step map at the deepest samples has m01 < 0, RK4 turns u backwards past a zero, and no count holds
    assert 0.9 * math.pi <= 0.05 * math.sqrt(V.sup_abs()) < math.pi
    with pytest.raises(ValueError, match=r"h sqrt\(sup\|V\|\) = 2\.[89]\d must stay below sqrt 6"):
        _CoefficientGrid(V, 1.0, 0.05)


@pytest.mark.parametrize("h", [0.05, 0.01, 0.00824, 0.002])
def test_the_deepest_well_a_grid_admits_has_m01_above_0_and_counts_as_the_march(h):
    # at kappa_floor a step map's m01 = h (1 - h^2 depth / 6) is the least the grid allows; with no margin
    # below sqrt 6, the deepest well admitted at h = 0.00824 rounded it to 0 and miscounted
    depth = (solver._STURM_STEP_PHASE / h) ** 2
    while not h * math.sqrt(depth) < solver._STURM_STEP_PHASE:
        depth = math.nextafter(depth, 0.0)
    while h * math.sqrt(math.nextafter(depth, math.inf)) < solver._STURM_STEP_PHASE:
        depth = math.nextafter(depth, math.inf)
    with pytest.raises(ValueError, match="must stay below sqrt 6"):
        _CoefficientGrid(SquareWell(math.nextafter(depth, math.inf)), 20 * h, h)
    grid = _CoefficientGrid(SquareWell(depth), 20 * h, h)
    kappas = np.linspace(solver._KAPPA_FLOOR, math.sqrt(depth), 201)
    assert leaf_at(grid, -kappas * kappas)[0, 1].min() > 0
    assert [grid.count_below(k)[0] for k in kappas.tolist()] == marched_counts(grid, kappas)


def grid_of_maps(maps):
    """A real grid whose step maps at kappa = 1 (lam = -1) are the given 2x2 maps: its lam terms are zero."""
    grid = object.__new__(_CoefficientGrid)
    (m00, m01), (m10, m11) = np.array(maps, dtype=float).reshape(-1, 2, 2).transpose(1, 2, 0)
    grid.steps, grid.real, grid._tree, grid.a = m01, True, None, (np.zeros(m01.size),) * 3
    grid.coefficients = np.array([m10, m11 - 1.0, m00 - 1.0]), np.zeros((3, m01.size)), np.zeros((3, m01.size))
    return grid


def product_m01s(maps):
    """Per level of the pairwise tree over integer maps (m00, m01, m10, m11), the m01 of each product it forms."""
    level = [np.reshape(m, (2, 2)) for m in maps]
    while len(level) > 1:
        pairs = [level[j + 1] @ level[j] for j in range(0, len(level) - 1, 2)]
        yield [int(p[0, 1]) for p in pairs]
        level = pairs + level[2 * len(pairs) :]


def test_exact_zeros_are_skipped_as_by_the_sign_walk():
    # every sequence of up to four integer maps of det 1 with entries in {-1, 0, 1} and m01 = 1, as every
    # step map has m01 > 0: products stay exact, so u = 0 at a step end, F = 0 and products with m01 = 0 occur
    unimodular = [m for m in itertools.product((-1, 0, 1), repeat=4) if m[0] * m[3] - m[1] * m[2] == 1 and m[1] == 1]
    seen = {"u = 0": 0, "F = 0": 0, "level 1 m01 = 0": 0, "level 2 m01 = 0": 0}
    sequences = list(itertools.chain.from_iterable(itertools.product(unimodular, repeat=n) for n in (1, 2, 3, 4)))
    for maps in sequences:
        u, w, us = 1, 1, [1]
        for m00, m01, m10, m11 in maps:
            u, w = m00 * u + m01 * w, m10 * u + m11 * w
            us.append(u)
        signs = [s for s in np.sign(us + [w + u]).tolist() if s]
        expected = sum(a != b for a, b in zip(signs, signs[1:])), float(w + u)
        assert grid_of_maps(maps).count_below(1.0) == expected, maps
        seen["u = 0"] += 0 in us
        seen["F = 0"] += w + u == 0
        for level, m01s in enumerate(product_m01s(maps), 1):
            seen[f"level {level} m01 = 0"] += 0 in m01s
    assert len(unimodular) == 7 and len(sequences) == 2800
    # 1383 with u = 0 at a step end, 310 with F = 0, and 1513 and 529 with a product's m01 = 0 on levels 1 and 2
    assert seen["u = 0"] >= 50 and seen["F = 0"] >= 10 and min(seen["level 1 m01 = 0"], seen["level 2 m01 = 0"]) >= 100


@st.composite
def square_wells(draw):
    """Square wells of depth 2 to 400 on a support of width 0.3 to 1.5."""
    a = draw(st.floats(-1.0, 1.0))
    return SquareWell(depth=draw(st.floats(2.0, 400.0)), support=(a, a + draw(st.floats(0.3, 1.5))))


@given(
    V=st.one_of(real_mode_sets(), square_wells()),
    eps=st.floats(0.01, 0.1),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_the_lifted_count_equals_the_marched_sign_changes_on_random_potentials(V, eps, fractions):
    # kappa in (kappa_floor, sqrt(sup|V|)], every real bound state's range
    grid = _CoefficientGrid(V, eps, eps / DEFAULT_SOLVER.points_per_fast_period)
    top = math.sqrt(grid.sup_abs)
    kappas = [solver._KAPPA_FLOOR + x * (top - solver._KAPPA_FLOOR) for x in fractions]
    assert [grid.count_below(k)[0] for k in kappas] == marched_counts(grid, kappas)


def test_a_real_potential_takes_brent_whatever_the_imaginary_part_of_the_hint(canonical, canonical_k2):
    # both hints seed the same bracket from their real part, so the roots agree bit for bit
    k2 = canonical_k2.value
    real = find_bound_state(canonical, 0.1, k2_hint=k2)
    complex_hint = find_bound_state(canonical, 0.1, k2_hint=k2 + 1e-3j)
    assert complex_hint.kappa == real.kappa
    assert complex_hint.kappa.imag == 0.0


def test_an_even_number_of_roots_above_the_floor_is_still_found():
    # N(kappa_floor) = 2 on this deep potential, so F at the floor and at sqrt(sup|V|) share a sign
    V = canonical_potential(amplitude=3e4)
    res = find_bound_state(V, 0.05)
    scan = scan_roots(V, 0.05)
    assert scan.count == 2
    assert res is not None and res.converged
    assert res.kappa.real == scan.kappas[0] == 3.800194023266643


@pytest.mark.parametrize("eps, kappa", [(0.1, 8.770717742363532), (0.035, 0.17582008854319817)])
def test_a_seed_bracket_reaching_sqrt_sup_v_takes_the_smallest_root(eps, kappa):
    # 10 eps^2 k2 >= sqrt(sup|V|) = 43.3: Brent on the bracket clipped there can return a larger root (18.7026, 5.49693)
    V = canonical_potential(amplitude=3e4)
    scan = scan_roots(V, eps)
    assert scan.count >= 2
    res = find_bound_state(V, eps)
    assert res is not None
    assert res.kappa.real == scan.kappas[0] == kappa


# ---------------------------------------------------------------- guards


def test_mismatch_rejects_wrong_half_plane(canonical):
    with pytest.raises(ValueError, match="half-plane"):
        mismatch(canonical, 0.1, -0.2)
    with pytest.raises(ValueError, match="half-plane"):
        mismatch(canonical, 0.1, 0.0 + 1.0j)


def test_step_guard(canonical):
    with pytest.raises(ValueError, match="step too large"):
        transfer_matrix(canonical, 0.1, -1e-4, h=0.1 / 10)


def test_grid_past_the_resolution_budget_is_refused(canonical):
    # eps = 1e-12 asks for 4e13 steps: refused before any array is allocated
    with pytest.raises(ValueError, match="resolution budget exceeded"):
        scan_roots(canonical, 1e-12)


def test_bracket_validation(canonical):
    with pytest.raises(ValueError, match="bracket"):
        find_bound_state(canonical, 0.1, bracket=(0.5, 0.1))
    # an infinite end is refused before Brent spends its 200 iterations on it
    with pytest.raises(ValueError, match="bracket must satisfy 0 < low < high < inf"):
        find_bound_state(canonical, 0.1, bracket=(1e-3, math.inf))


def test_mean_component_requires_explicit_bracket():
    u = TwoScaleFunction.single_mode(0, poly_bump(-2.0, 2, (0.0, 1.0)))
    with pytest.raises(ValueError, match="bracket"):
        find_bound_state(u, 0.1)


# every entry that takes eps, with the eps under test; transfer_matrix is called twice, the
# second time with the value as its step h
EPS_ENTRIES = {
    "find_bound_state": lambda V, eps: find_bound_state(V, eps),
    "scan_roots": lambda V, eps: scan_roots(V, eps),
    "min_mismatch_on_disk": lambda V, eps: min_mismatch_on_disk(V, eps, k2_hint=1.0),
    "mismatch": lambda V, eps: mismatch(V, eps, 0.01),
    "eigenfunction": lambda V, eps: eigenfunction(V, eps, 0.01),
    "transfer_matrix": lambda V, eps: transfer_matrix(V, eps, -0.01, 0.0025),
    "transfer_matrix h": lambda V, eps: transfer_matrix(V, 0.1, -0.01, eps),
    "build_gauge": lambda V, eps: build_gauge(V, eps),
    "eval_fast": lambda V, eps: V.eval_fast(np.linspace(0.0, 1.0, 5), eps),
    "oscillatory_integral": lambda V, eps: oscillatory_integral(V, eps),
    "compute_k_eps": lambda V, eps: compute_k_eps(V, eps),
    "predict_lambda": lambda V, eps: predict_lambda(1.0, eps),
    "decay_order_fit": lambda V, eps: decay_order_fit(V, [0.2, 0.1, eps]),
}


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", list(EPS_ENTRIES))
def test_an_eps_that_is_not_positive_is_refused(canonical, entry, eps):
    # a NaN fails every comparison, so each guard asks for 0 < eps < inf; find_bound_state asks
    # before the seed's early exit, which would otherwise report absence at eps 0
    with pytest.raises(ValueError, match="must be positive"):
        EPS_ENTRIES[entry](canonical, eps)


def test_early_exits_build_no_coefficient_grid(monkeypatch):
    # a refused bracket or a potential with a mean is reported without sampling a grid
    def refuse(*args, **kwargs):
        raise AssertionError("coefficient grid built before an early exit")

    monkeypatch.setattr(solver, "_CoefficientGrid", refuse)
    with pytest.raises(ValueError, match="bracket"):
        find_bound_state(canonical_potential(), 0.1, bracket=(0.5, 0.1))
    with pytest.raises(ValueError, match="bracket"):
        find_bound_state(TwoScaleFunction.single_mode(0, poly_bump(-2.0, 2, (0.0, 1.0))), 0.1)
    # the Sturm count behind a bracket's fallback holds for real potentials only
    with pytest.raises(ValueError, match="bracket needs a real potential"):
        find_bound_state(canonical_potential().scaled(1j), 0.1, bracket=(0.01, 0.5))


@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_a_real_seed_with_no_positive_part_leaves_the_search_to_the_count(name, eps):
    # such a seed places no bracket, so the solve takes the count's smallest root in scan_roots' window
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    k2 = compute_k2(V).value
    first = scan_roots(V, eps).kappas[0]
    for hint in (-k2, 0.0, 1j * k2):
        res = find_bound_state(V, eps, k2_hint=hint)
        assert res is not None and res.kappa == first, hint


def test_scan_refuses_more_samples_than_the_grid_budget_before_any_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coefficient grid built before the sample budget was checked")

    monkeypatch.setattr(solver, "_CoefficientGrid", refuse)
    with pytest.raises(ValueError, match="resolution budget exceeded: .* samples"):
        scan_roots(canonical_potential(), 0.1, samples=MAX_GRID_SIZE + 1)


def test_scan_rejects_complex_potentials(canonical):
    with pytest.raises(ValueError, match="real"):
        scan_roots(canonical.scaled(1j), 0.1)


def test_scan_refuses_fewer_than_two_samples_and_an_empty_window(canonical):
    with pytest.raises(ValueError, match="need at least two samples"):
        scan_roots(canonical, 0.1, samples=1)
    for window in ((0.0, 1.0), (0.5, 0.5), (1.0, 0.5), (1e-3, math.inf)):
        with pytest.raises(ValueError, match="scan window must satisfy 0 < low < high"):
            scan_roots(canonical, 0.1, window=window)


@pytest.mark.parametrize(
    "V",
    [
        TwoScaleFunction.from_cosine(1, poly_bump(0.0, 2)),
        parse_config("mode = cos 1 poly 100 2\nmode = cos 1 poly -100 2\n").build_potential(),
    ],
    ids=["zero envelope", "cancelling lines"],
)
def test_an_empty_support_hull_has_the_identity_transfer_matrix(V):
    # no steps: T = I, so F = 2 kappa exactly, and (kappa_floor, sqrt(sup|V|)] holds no root
    assert V.modes == {} and V.support_hull == (0.0, 0.0) and V.sup_abs() == 0.0
    assert transfer_matrix(V, 0.1, -0.01, 0.1 / 40).matrix.tolist() == [[1, 0], [0, 1]]
    assert mismatch(V, 0.1, 0.5) == 1.0
    assert mismatch(V, 0.1, 0.5 + 0.25j) == 1.0 + 0.5j
    assert mismatch(V, 0.1, np.array([0.5, 0.25, 0.125])).tolist() == [1.0, 0.5, 0.25]
    for k2 in (1e-6, 1.0, 1e3):
        assert find_bound_state(V, 0.1, k2_hint=k2) is None
    for bracket in ((0.1, 1.0), (1e-3, 2e-3)):
        assert find_bound_state(V, 0.1, bracket=bracket) is None
    # F's one root, kappa = 0, lies left of the cut: |F| is least where the cut meets the real axis
    assert min_mismatch_on_disk(V, 0.1, k2_hint=1.0) == pytest.approx(2.0 * solver._KAPPA_FLOOR)


def test_a_scan_over_an_empty_support_names_it():
    # the cancelling lines leave no mode: without a window there is no (kappa_floor, sqrt(sup|V|)] to scan
    V = parse_config("mode = cos 1 poly 100 2\nmode = cos 1 poly -100 2\n").build_potential()
    with pytest.raises(ValueError, match="the potential's support is empty"):
        scan_roots(V, 0.1)
    assert scan_roots(V, 0.1, window=(0.1, 1.0)).count == 0


def test_scan_refuses_a_step_that_may_hold_two_zeros():
    # sup|V| = 1e8 / 16 at h = 0.1 / 40: h sqrt(sup|V|) = 6.25, so a step may hold two zeros of u;
    # every call refuses it when its grid is built, before a step product can overflow
    V = canonical_potential(amplitude=1e8)
    calls = [
        lambda: scan_roots(V, 0.1),
        lambda: find_bound_state(V, 0.1),
        lambda: mismatch(V, 0.1, 0.5),
        lambda: transfer_matrix(V, 0.1, -0.25, 0.1 / 40),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"h sqrt\(sup\|V\|\) = 6.25 must stay below sqrt 6"):
            call()


def traced_grid_and_mismatch(V, eps):
    """(bytes a grid holds, traced peak of one complex mismatch on it, bytes of one step-sized complex array)."""
    tracemalloc.start()
    try:
        grid = _CoefficientGrid(V, eps, eps / 40)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grid.mismatch(1e-5 + 5e-6j)
        one = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return held, one, grid.steps.size * np.dtype(complex).itemsize


def test_one_complex_mismatch_peaks_at_seven_step_sized_arrays():
    # 4000 steps at eps 1e-3 on a real grid: the plan's leaf of step maps (4 step-sized complex
    # arrays), its buffer half that size (2) and its level-1 temporary of 512 pairs (0.51); the
    # Horner pass's casts through numpy's ufunc buffers and numpy's small objects bring it to
    # 6.97.  With numpy's default ufunc buffer inside the tree it reads 8.8.
    held, one, unit = traced_grid_and_mismatch(SquareWell(depth=30.0, support=(0.0, 0.1)), 1e-3)
    assert unit == 4000 * 16
    assert one <= 7.25 * unit


def test_a_warm_complex_mismatch_allocates_no_step_sized_array():
    # a 10k-step grid and complex mismatch where the last ones went away: the grid and its plan take the
    # spares, and what is left is the well's own samples and masks (1.4 step-sized complex arrays)
    V = SquareWell(depth=30.0, support=(0.0, 0.25))
    _CoefficientGrid(V, 1e-3, 1e-3 / 40).mismatch(1e-5 + 5e-6j)
    tracemalloc.start()
    try:
        grid = _CoefficientGrid(V, 1e-3, 1e-3 / 40)
        grid.mismatch(1e-5 + 5e-6j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.steps.size == 10000 >= solver._SPARE_STEPS and peak <= 1.5 * 10000 * 16


def test_the_disk_count_peaks_like_one_mismatch():
    # the boundary is sampled one kappa at a time, so the count's peak is its own grid, one
    # mismatch's peak and the contour's samples (at most 1024 complex numbers, 16 KB)
    V = SquareWell(depth=30.0, support=(0.0, 0.1))
    held, one, _ = traced_grid_and_mismatch(V, 1e-3)
    tracemalloc.start()
    try:
        min_mismatch_on_disk(V, 1e-3, k2_hint=10 + 5j)
        disk = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert disk <= held + one + 1024 * 16


@pytest.mark.parametrize("lam", [-0.01, -0.01 + 0.004j], ids=["real", "complex"])
@pytest.mark.parametrize("eps", [0.1, 1e-3])
@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_a_transfer_matrix_peaks_like_one_mismatch(name, eps, lam):
    # both build a grid and climb its one plan at lam's dtype, and neither allocates a stack of step
    # maps beside that plan's leaf
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    calls = (lambda: transfer_matrix(V, eps, lam, eps / 40), lambda: mismatch(V, eps, cmath.sqrt(-lam)))
    peaks = []
    for call in calls:
        call()  # whatever the first call caches is not counted
        solver._SPARES.clear()  # but the grid and its plan are built cold
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.02 * peaks[1]


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_a_warm_transfer_matrix_allocates_no_step_sized_array(name):
    # built where the last mismatch's grid went away (40k / 60k steps), a transfer matrix takes its
    # spares: its traced peak stays below one step-sized float array
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    mismatch(V, 1e-3, cmath.sqrt(0.01 - 0.004j))
    tracemalloc.start()
    try:
        transfer_matrix(V, 1e-3, -0.01 + 0.004j, 1e-3 / 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 40000


def test_a_new_plan_key_does_not_hold_two_plans():
    # a scalar complex mismatch, then a batch of one kappa on the same 4000-step grid: the grid
    # lets its first plan go before it builds the second, so the peak is that of one mismatch;
    # kept alongside the new one, the old plan read 13.5 step-sized arrays
    V = SquareWell(depth=30.0, support=(0.0, 0.1))
    tracemalloc.start()
    try:
        grid = _CoefficientGrid(V, 1e-3, 1e-3 / 40)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grid.mismatch(1e-5 + 5e-6j)
        grid.mismatch(np.array([2e-5 + 5e-6j]))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert grid.steps.size == 4000
    assert peak <= 7.25 * 4000 * 16


def test_a_plan_grows_only_on_its_first_count_and_then_by_less_than_one_int32_per_step():
    # 4000 steps: mismatches leave the plan its three arrays and its views (15.3 kB of them) and no count state;
    # the first count adds one bool per pair and views of the products' entries (9.4 kB), a later one nothing
    grid = _CoefficientGrid(SquareWell(depth=30.0, support=(0.0, 0.1)), 1e-3, 1e-3 / 40)
    calls, held = (grid.mismatch, grid.mismatch, grid.count_below, grid.count_below), []
    tracemalloc.start()
    try:
        for call in calls:
            call(0.5)
            held.append(tracemalloc.get_traced_memory()[0])
            if call == grid.mismatch:
                assert not hasattr(grid._tree, "signs")
    finally:
        tracemalloc.stop()
    plan, n = grid._tree, grid.steps.size
    arrays = sum(a.nbytes for a in (plan.maps, plan.levels[0][0][0][4].base, plan.levels[0][0][0][5].base))
    assert n == 4000 and arrays == 8 * (4 * n + 2 * n + 4 * 512)
    assert 0 <= held[0] - arrays <= 0.6 * 8 * n and abs(held[1] - held[0]) <= 256
    assert 0 < held[2] - held[1] <= 4 * n and abs(held[3] - held[2]) <= 256


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_a_warm_deep_solve_faults_fewer_than_fifty_pages_per_call(name):
    # at eps 1e-3 (40k / 60k steps) a solve's grid and plan take the last solve's spares; each fresh
    # array would fault in its pages again (about 1700 / 2600 per call without them)
    V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
    k2 = compute_k2(V).value
    find_bound_state(V, 1e-3, k2_hint=k2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        find_bound_state(V, 1e-3, k2_hint=k2)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5 < 50


def test_a_live_grid_and_a_view_of_a_dead_one_keep_their_bytes():
    # a view of a dropped grid's P1 holds the coefficients' spare and a live grid (20k steps) the samples',
    # while grids of fewer, as many and more steps are built and climbed, their plans on the plan's spare:
    # none shares memory with the two, and neither changes
    V = load_config(str(CONFIG_DIR / "canonical.cfg")).build_potential()
    solver._SPARES.clear()
    view = _CoefficientGrid(V.scaled(1j), 2e-3, 2e-3 / 40).coefficients[1][1, 5:]
    kept = _CoefficientGrid(V, 2e-3, 2e-3 / 40)
    f, n = kept.mismatch(0.3), kept.count_below(0.3)
    kept._tree = None  # its plan's spare goes to the grids below
    arrays = [kept.steps, *kept.a, *kept.coefficients, view]
    saved = [a.tobytes() for a in arrays]
    spare = {role: np.frombuffer(solver._SPARES[role].buffer, np.uint8) for role in ("samples", "coefficients")}
    assert np.shares_memory(kept.steps, spare["samples"]) and np.shares_memory(view, spare["coefficients"])
    assert not any(np.shares_memory(view, a) for a in arrays[:-1])
    del spare
    planned = []
    for eps in (0.1, 4e-3, 2e-3, 1e-3, 2e-3):
        grid = _CoefficientGrid(V, eps, eps / 40)
        grid.mismatch(np.array([0.2, 0.3]))
        grid.count_below(0.3)
        mine = [grid.steps, *grid.a, *grid.coefficients, grid._tree.maps]
        assert not any(np.shares_memory(a, b) for a in mine for b in arrays)
        planned.append(np.shares_memory(grid._tree.maps, np.frombuffer(solver._SPARES["plan"].buffer, np.uint8)))
        del grid, mine  # the next grid's plan takes the spare
    assert planned == [False, True, True, True, True]
    assert kept.steps.size == 20000 and [a.tobytes() for a in arrays] == saved
    assert kept.mismatch(0.3) == f and kept.count_below(0.3) == n


def test_threads_solving_at_once_give_the_sequential_results_bit_for_bit():
    # four threads (more than the cores) take the spares in turn, switching every 10 us; each solve
    # equals the same solve alone
    V = load_config(str(CONFIG_DIR / "canonical.cfg")).build_potential()
    k2 = compute_k2(V).value
    work = {0: [0.05, 1e-3, 0.02], 1: [2e-3, 0.1, 0.01], 2: [1e-3, 4e-3], 3: [3e-3, 0.1, 2e-3]}
    alone = {t: [repr(find_bound_state(V, eps, k2_hint=k2)) for eps in epsilons] for t, epsilons in work.items()}
    together = {t: [] for t in work}

    def solve(t):
        for _ in range(3):
            together[t].extend(repr(find_bound_state(V, eps, k2_hint=k2)) for eps in work[t])

    threads = [threading.Thread(target=solve, args=(t,)) for t in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(together[t] == 3 * alone[t] for t in work)


def test_a_role_keeps_one_spare_and_lets_a_small_one_go_first(monkeypatch):
    monkeypatch.setattr(solver, "_SPARES", {})
    n = solver._SPARE_STEPS
    assert solver._take("r", n - 1, [((n,), float)])[0].base is None and not solver._SPARES  # np.empty
    first = solver._take("r", n, [((n,), float), ((3, 7), complex)])
    spare = solver._SPARES["r"]

    def on_spare(a):
        return np.shares_memory(a, np.frombuffer(spare.buffer, np.uint8))

    assert first[1].shape == (3, 7) and first[1].base.nbytes == 16 * 21 and all(map(on_spare, first))
    view = first[1][1:]
    del first
    (second,) = solver._take("r", n, [((n,), float)])  # a view of the spare's last arrays lives: np.empty
    assert not on_spare(second) and len(solver._SPARES) == 1
    del view
    (again,) = solver._take("r", n, [((n,), float)])  # nothing laid over it lives: the spare again
    assert on_spare(again)
    del again
    small = len(spare.buffer)
    tracemalloc.start()
    try:
        (large,) = solver._take("r", n, [((4 * n,), float)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert on_spare(large) and len(spare.buffer) >= 32 * n and peak < small + len(spare.buffer)  # let go first


@pytest.mark.parametrize("kappa", [math.inf, complex(0.3, math.inf), complex(math.inf, 1.0)])
def test_an_infinite_kappa_is_refused(canonical, kappa):
    grid = _CoefficientGrid(canonical, 0.1, 0.1 / 40)
    calls = [
        lambda: mismatch(canonical, 0.1, kappa),
        lambda: grid.mismatch(np.array([0.1, kappa, 0.3])),
        lambda: grid.left_solution(kappa),
    ]
    if isinstance(kappa, float):
        calls.append(lambda: grid.count_below(kappa))
    for call in calls:
        with pytest.raises(ValueError, match="half-plane"):
            call()


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(-0.01, math.nan)])
def test_a_non_finite_lambda_is_refused(canonical, lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        transfer_matrix(canonical, 0.1, lam, 0.1 / 40)


def test_only_mismatch_takes_an_array_of_kappas(canonical):
    grid = _CoefficientGrid(canonical, 0.1, 0.1 / 40)
    for call in (grid.count_below, grid.left_solution):
        with pytest.raises(ValueError, match=r"kappa must be one value, not an array of shape \(2,\)"):
            call(np.array([0.1, 0.2]))
    assert grid.mismatch(np.array([0.1, 0.2])).shape == (2,)


def test_a_warm_plan_build_keeps_only_its_views():
    # a plan built where the last grid's plan went away takes its spare: the first mismatch leaves the plan's
    # numpy views (22 kB at 10k steps) and no array of its own
    V = SquareWell(depth=30.0, support=(0.0, 0.25))
    _CoefficientGrid(V, 1e-3, 1e-3 / 40).mismatch(0.5)
    grid = _CoefficientGrid(V, 1e-3, 1e-3 / 40)
    tracemalloc.start()
    try:
        grid.mismatch(0.5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grid.steps.size == 10000 and 0 < held <= 0.6 * 8 * 10000


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(points_per_fast_period=10)


# ---------------------------------------------------------------- eigenfunction


def test_eigenfunction_is_normalized_with_exact_tails(canonical):
    # a real root from Brent, and a complex one from the secant
    for rotation in (1.0, cmath.exp(0.3j)):
        V = canonical.scaled(rotation)
        res = find_bound_state(V, 0.1, k2_hint=compute_k2(V).value)
        assert res.converged and (res.kappa.imag != 0) == (rotation != 1.0)
        ef = eigenfunction(V, 0.1, res.kappa)
        assert ef.match_defect < 1e-10

        # interior trapezoid plus closed-form tail mass reproduces unit norm
        x0, x1 = V.support_hull
        inside = (ef.x >= x0) & (ef.x <= x1)
        interior = np.trapezoid(np.abs(ef.values[inside]) ** 2, ef.x[inside])
        kappa = res.kappa.real
        left_edge = np.abs(ef.values[inside][0]) ** 2
        right_edge = np.abs(ef.values[inside][-1]) ** 2
        tails = (left_edge + right_edge) / (2 * kappa)
        assert interior + tails == pytest.approx(1.0, rel=1e-6)


def test_eigenfunction_samples_the_interior_at_the_step_ends(canonical, canonical_k2):
    # eps 0.07 leaves a partial last step: x1 is a step end, not x0 plus a multiple of h
    grid = _CoefficientGrid(canonical, 0.07, 0.07 / 40)
    assert grid.steps[-1] < grid.h
    res = find_bound_state(canonical, 0.07, k2_hint=canonical_k2.value)
    ef = eigenfunction(canonical, 0.07, res.kappa)
    x0, x1 = canonical.support_hull
    interior = ef.x[(ef.x >= x0) & (ef.x <= x1)]
    assert interior.tobytes() == grid.xs[::2].tobytes()
    assert interior[-1] == x1


def test_eigenfunction_rejects_non_roots(canonical, canonical_k2):
    res = find_bound_state(canonical, 0.1, k2_hint=canonical_k2.value)
    with pytest.raises(ValueError, match="not a root"):
        eigenfunction(canonical, 0.1, res.kappa * 1.5)

