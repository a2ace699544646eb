import cmath
import gc
import math
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from oscispec import solver
from oscispec.asymptotics import Existence, compute_k2, predict_lambda
from oscispec.config import load_config
from oscispec.gauge import build_gauge
from oscispec.potentials import TwoScaleFunction, canonical_potential, poly_bump
from oscispec.solver import (
    DEFAULT_SOLVER,
    SolverConfig,
    SquareWell,
    _brent,
    _CoefficientGrid,
    _compose,
    _prefixes,
    _rk4_step,
    _step_maps,
    convergence_study,
    eigenfunction,
    find_bound_state,
    gauged_mismatch,
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
    lanes = _CoefficientGrid.mismatch

    def record(grid, kappa):
        seen.append(np.asarray(kappa))
        return lanes(grid, kappa)

    monkeypatch.setattr(_CoefficientGrid, "mismatch", record)
    k2 = -canonical_k2.value  # the i-rotation's k2: the disk straddles the cut
    min_mismatch_on_disk(canonical.scaled(1j), 0.1, k2_hint=k2)
    z = np.concatenate(seen)
    center = 0.1**2 * k2
    on_circle = np.isclose(np.abs(z - center), 2.0 * abs(center), rtol=1e-12, atol=0.0)
    on_cut = z.real == solver._KAPPA_FLOOR
    assert on_circle.any() and on_cut.any() and np.all(on_circle | on_cut)


def test_disk_count_refines_a_coarse_contour_up_to_its_cap(canonical, canonical_k2, monkeypatch):
    # a winding of 1 over 4 samples forces a phase step of at least pi/2: the count must refine
    monkeypatch.setattr(solver, "_CONTOUR_POINTS", 4)
    assert min_mismatch_on_disk(canonical, 0.1, k2_hint=canonical_k2.value) == 0.0
    iV = canonical.scaled(1j)
    assert min_mismatch_on_disk(iV, 0.1, k2_hint=-canonical_k2.value) > 10 * DEFAULT_SOLVER.root_tol
    monkeypatch.setattr(solver, "_CONTOUR_MAX_POINTS", 4)
    with pytest.raises(ValueError, match="cannot count"):
        min_mismatch_on_disk(canonical, 0.1, k2_hint=canonical_k2.value)


def test_gauged_formulation_finds_the_same_root(canonical, canonical_k2):
    cfg = SolverConfig(points_per_fast_period=80)
    res = find_bound_state(canonical, 0.1, k2_hint=canonical_k2.value, cfg=cfg)
    g = build_gauge(canonical, 0.1)

    def f(k):
        return float(np.real(gauged_mismatch(g, k, cfg=cfg)))

    kap = res.kappa.real
    root = optimize.brentq(f, 0.5 * kap, 1.5 * kap, xtol=1e-17)
    assert root == pytest.approx(kap, rel=1e-5)


def march(grid, u, w, lam):
    """RK4 across the grid from (u, w) at x0, one ``_rk4_step`` at a time: the step-by-step reference."""
    for h, a0, a1, a2 in zip(grid.steps.tolist(), *(x.tolist() for x in grid.a)):
        u, w = _rk4_step(h, u, w, (a0 - lam, a1 - lam, a2 - lam), None)
    return u, w


def shipped_grid(name, eps=0.1):
    cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
    V = cfg.build_potential()
    return V, cfg, _CoefficientGrid(V, eps, eps / cfg.points_per_period)


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_mismatch_lanes_match_one_kappa_at_a_time(name):
    _, _, grid = shipped_grid(name)
    ks = np.linspace(1e-6, 0.5, 41)
    # an array of kappas is composed on (kappa, step) arrays: real kappas give one kappa's
    # bits, complex products may round differently, so compare those norm-wise
    # (values near a zero of F lose relative digits to cancellation)
    assert grid.mismatch(ks).tobytes() == np.array([grid.mismatch(k) for k in ks.tolist()]).tobytes()
    for kappas in (ks, ks * np.exp(0.6j)):
        scalar = np.array([grid.mismatch(k) for k in kappas.tolist()])
        assert np.max(np.abs(grid.mismatch(kappas) - scalar)) <= 1e-14 * np.max(np.abs(scalar))


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
@pytest.mark.parametrize("lam", [-1e-3, -0.01 + 0.004j])
def test_step_map_columns_are_one_rk4_step_from_the_basis(name, lam):
    _, _, grid = shipped_grid(name)
    m00, m01, m10, m11 = _step_maps(grid, lam)
    dtype = m00.dtype
    for k in range(grid.steps.size):
        one_step = SimpleNamespace(steps=grid.steps[k : k + 1], a=[x[k : k + 1] for x in grid.a], b=None)
        # two lanes: the basis columns (1, 0) and (0, 1)
        u, w = march(one_step, np.array([1.0, 0.0], dtype=dtype), np.array([0.0, 1.0], dtype=dtype), lam)
        assert u.tobytes() == np.array([m00[k], m01[k]]).tobytes()
        assert w.tobytes() == np.array([m10[k], m11[k]]).tobytes()


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


@pytest.mark.parametrize("name", ["canonical", "two_mode"])
def test_prefixes_end_in_the_composed_transfer_matrix(name):
    _, _, grid = shipped_grid(name)
    for lam in (-1e-3, -0.01 + 0.004j):
        maps = _step_maps(grid, lam)
        prefixes = _prefixes(maps)
        assert prefixes[0].size == grid.steps.size + 1
        assert [p[0] for p in prefixes] == [1.0, 0.0, 0.0, 1.0]
        assert [p[-1].tobytes() for p in prefixes] == [t.tobytes() for t in _compose(maps)]


def test_bracket_reaches_past_kappa_one_on_a_deep_potential():
    # kappa^2 <= sup|V| = 625 caps the search here, not kappa = 1
    V = canonical_potential(amplitude=1e4)
    scan = scan_roots(V, 0.05, window=(0.2, 3.0))
    assert scan.count == 1 and scan.kappas[0] > 1.0
    res = find_bound_state(V, 0.05)
    assert res is not None and res.converged
    assert res.kappa.real == pytest.approx(scan.kappas[0], rel=1e-12)


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


def test_mean_component_requires_explicit_bracket():
    u = TwoScaleFunction.single_mode(0, poly_bump(-2.0, 2, (0.0, 1.0)))
    with pytest.raises(ValueError, match="bracket"):
        find_bound_state(u, 0.1)


def test_early_exits_build_no_coefficient_grid(monkeypatch):
    # a negative k2 seed lies below kappa_floor: absence is reported without sampling a grid
    def refuse(*args, **kwargs):
        raise AssertionError("coefficient grid built before an early exit")

    monkeypatch.setattr(solver, "_CoefficientGrid", refuse)
    assert find_bound_state(canonical_potential(), 1e-3, k2_hint=-1.0) is None
    with pytest.raises(ValueError, match="bracket"):
        find_bound_state(canonical_potential(), 0.1, bracket=(0.5, 0.1))
    with pytest.raises(ValueError, match="bracket"):
        find_bound_state(TwoScaleFunction.single_mode(0, poly_bump(-2.0, 2, (0.0, 1.0))), 0.1)


def test_scan_rejects_complex_potentials(canonical):
    with pytest.raises(ValueError, match="real"):
        scan_roots(canonical.scaled(1j), 0.1)


def test_scan_refuses_a_step_that_may_hold_two_zeros():
    # sup|V| = 1e8 / 16 at h = 0.1 / 40: h sqrt(sup|V|) = 6.25, so a step may hold two zeros of u
    with pytest.raises(ValueError, match=r"h sqrt\(sup\|V\|\) = 6.25 must stay below pi"):
        scan_roots(canonical_potential(amplitude=1e8), 0.1)


def test_a_batch_of_kappas_peaks_like_one_kappa():
    # 4000 steps at eps 1e-3: the batch is composed a kappa at a time, so its peak memory is one kappa's
    grid = _CoefficientGrid(SquareWell(depth=30.0, support=(0.0, 0.1)), 1e-3, 1e-3 / 40)
    kappas = 0.01 + 0.005 * np.exp(2j * np.pi * (np.arange(1024) + 0.5) / 1024)
    tracemalloc.start()
    try:
        grid.mismatch(complex(kappas[0]))
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        grid.mismatch(kappas)
        batch = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch <= 2 * one


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(points_per_fast_period=10)


# ---------------------------------------------------------------- eigenfunction


def test_eigenfunction_is_normalized_with_exact_tails(canonical, canonical_k2):
    res = find_bound_state(canonical, 0.1, k2_hint=canonical_k2.value)
    ef = eigenfunction(canonical, 0.1, res.kappa)
    assert ef.match_defect < 1e-10

    # interior trapezoid plus closed-form tail mass reproduces unit norm
    x0, x1 = canonical.support_hull
    inside = (ef.x >= x0) & (ef.x <= x1)
    interior = np.trapezoid(np.abs(ef.values[inside]) ** 2, ef.x[inside])
    kappa = res.kappa.real
    left_edge = np.abs(ef.values[inside][0]) ** 2
    right_edge = np.abs(ef.values[inside][-1]) ** 2
    tails = (left_edge + right_edge) / (2 * kappa)
    assert interior + tails == pytest.approx(1.0, rel=1e-6)


def test_eigenfunction_rejects_non_roots(canonical, canonical_k2):
    res = find_bound_state(canonical, 0.1, k2_hint=canonical_k2.value)
    with pytest.raises(ValueError, match="not a root"):
        eigenfunction(canonical, 0.1, res.kappa * 1.5)

