"""Acceptance gate: thirteen numbered criteria (1-13), one test and one verdict line each.

Every test prints `criterion NN: PASS/FAIL - detail` directly to the
terminal (bypassing capture), then asserts.  Criteria are evaluated at
their stated tolerances against frozen oracles; nothing here is tuned to
the implementation under test.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from oscispec import solver
from oscispec.asymptotics import Existence, compute_k2, compute_k_eps, fit_k_eps_coefficients
from oscispec.averaging import decay_order_fit, oscillatory_integral
from oscispec.cli import main, run_sweep
from oscispec.config import load_config, parse_config
from oscispec.gauge import build_gauge, default_catalog, identity_residual
from oscispec.potentials import (
    TwoScaleFunction,
    canonical_potential,
    combine,
    poly_bump,
    smooth_bump,
)
from oscispec.solver import (
    DEFAULT_SOLVER,
    SolverConfig,
    SquareWell,
    find_bound_state,
    min_mismatch_on_disk,
    scan_roots,
    transfer_matrix,
)

SWEEP_TEXT = """\
mode = cos 1 poly 100 2
support = 0 1
eps = 0.1 0.07 0.05 0.035 0.025
points_per_period = 40
"""

CANONICAL_K2 = 1e4 / (10080 * math.pi**2)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _announce


@pytest.fixture(scope="module")
def sweep():
    cfg = parse_config(SWEEP_TEXT)
    t0 = time.perf_counter()
    records, summary = run_sweep(cfg, cfg.build_potential())
    elapsed = time.perf_counter() - t0
    return records, summary, elapsed


def test_criterion_01_k2_dual_route_agreement(announce):
    t0 = time.perf_counter()
    rep = compute_k2(canonical_potential())
    elapsed = time.perf_counter() - t0
    value_err = abs(rep.value - CANONICAL_K2) / CANONICAL_K2
    ok = rep.agreement <= 1e-10 and value_err <= 1e-10 and elapsed < 1.0
    announce(
        1,
        ok,
        f"route agreement {rep.agreement:.2e} (<=1e-10), "
        f"closed-form deviation {value_err:.2e}, runtime {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_leading_order_scaling(announce, sweep):
    records, summary, elapsed = sweep
    slope_ok = summary.slope is not None and abs(summary.slope - 4.0) <= 0.15
    ratio_notes = []
    ratios_ok = True
    for r in records:
        ratio = abs(r.lambda_num / r.lambda_pred)
        good = abs(ratio - 1.0) <= 5.0 * r.eps
        ratios_ok = ratios_ok and good
        ratio_notes.append(f"eps={r.eps:g}:{ratio:.3f}{'' if good else '!'}")
    ok = slope_ok and ratios_ok and elapsed < 120.0
    announce(
        2,
        ok,
        f"slope {summary.slope:.3f} (4.0+-0.15), ratios [{', '.join(ratio_notes)}] "
        f"(each 1+-5eps), runtime {elapsed:.1f}s (<120s)",
    )


def test_criterion_03_remainder_boundedness(announce, sweep):
    records, summary, _ = sweep
    spread = summary.ratio_spread
    ok = spread is not None and spread <= 5.0
    announce(3, ok, f"remainder_ratio spread {spread:.2f} (<=5)")


def test_criterion_04_uniqueness_of_the_small_root(announce):
    V = canonical_potential()
    base = scan_roots(V, 0.1, window=(1e-6, 0.5), samples=2000)
    doubled = scan_roots(V, 0.1, window=(1e-6, 0.5), samples=4000)
    ok = base.count == 1 and doubled.count == 1
    announce(
        4,
        ok,
        f"root count {base.count} at 2000 samples, {doubled.count} at 4000 (expected 1 and 1)",
    )


def test_criterion_05_absence_for_imaginary_rotation(announce):
    iV = canonical_potential().scaled(1j)
    rep = compute_k2(iV)
    absent = rep.classification is Existence.ABSENT
    details = [f"Re k2 {rep.value.real:.3f}"]
    newton_clean = True
    disk_clean = True
    for eps in (0.1, 0.05):
        found = find_bound_state(iV, eps, k2_hint=rep.value)
        floor = min_mismatch_on_disk(iV, eps, k2_hint=rep.value)
        newton_clean = newton_clean and found is None
        disk_clean = disk_clean and floor > 10 * DEFAULT_SOLVER.root_tol
        # a positive floor is a root count of 0 in the disk; a root inside gives 0.0
        count = "0 roots" if floor > 0 else "a root"
        root = "none" if found is None else "FOUND"
        details.append(f"eps={eps}: root={root} disk: {count} inside, |F|min={floor:.1e}")
    ok = absent and newton_clean and disk_clean
    announce(5, ok, "; ".join(details) + " (need Absent, no root, disk floor > 1e-12)")


def test_criterion_06_real_potentials_give_positive_k2(announce):
    rng = np.random.default_rng(20260821)
    worst_im = 0.0
    min_re = np.inf
    for _ in range(50):
        n_modes = int(rng.integers(1, 4))
        harmonics = rng.choice(np.arange(1, 6), size=n_modes, replace=False)
        total = None
        for n in harmonics:
            amp = float(rng.uniform(-50, 50)) or 1.0
            a = float(rng.uniform(-1, 1))
            b = a + float(rng.uniform(0.3, 1.5))
            if rng.random() < 0.5:
                prof = poly_bump(amp, int(rng.integers(2, 5)), (a, b))
            else:
                prof = smooth_bump(amp, (a, b))
            piece = (
                TwoScaleFunction.from_cosine(int(n), prof)
                if rng.random() < 0.5
                else TwoScaleFunction.from_sine(int(n), prof)
            )
            total = piece if total is None else combine(total, piece, 1.0, 1.0)
        value = compute_k2(total).value
        worst_im = max(worst_im, abs(value.imag) / abs(value))
        min_re = min(min_re, value.real)
    ok = worst_im <= 1e-12 and min_re > 0
    announce(
        6,
        ok,
        f"50 random real mode sets: worst |Im k2|/|k2| {worst_im:.1e} (<=1e-12), "
        f"min Re k2 {min_re:.2e} (>0)",
    )


def test_criterion_07_averaging_decay_order(announce):
    u = TwoScaleFunction.from_cosine(1, smooth_bump(1.0, (0.0, 1.0)))
    epsilons = [0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125]
    fit = decay_order_fit(u, epsilons)
    ok = fit.fitted_order >= 3.5
    announce(
        7,
        ok,
        f"fitted decay order {fit.fitted_order:.2f} (>=3.5), floor-limited={fit.floor_flag}",
    )


def test_criterion_08_gauge_identity_residual(announce):
    potentials = [
        canonical_potential(),
        combine(
            TwoScaleFunction.single_mode(1, poly_bump(30 + 10j, 3, (0.0, 1.5))),
            TwoScaleFunction.single_mode(-2, poly_bump(5 - 2j, 2, (0.25, 1.0))),
            1.0,
            1.0,
        ),
        TwoScaleFunction.from_sine(2, smooth_bump(8.0, (-0.5, 0.5))),
    ]
    catalog = default_catalog()
    worst = 0.0
    checks = 0
    for V in potentials:
        for eps in (0.1, 0.05, 0.02):
            g = build_gauge(V, eps)
            x0, x1 = V.support_hull
            grid = np.arange(x0, x1 + eps / 80.0, eps / 40.0)
            for probe in catalog:
                worst = max(worst, identity_residual(g, probe, grid))
                checks += 1
    ok = checks == 90 and worst <= 1e-9
    announce(8, ok, f"max residual {worst:.1e} over {checks} probe/eps/potential checks (<=1e-9)")


def test_criterion_09_finite_eps_chain(announce):
    V = canonical_potential()
    k2 = compute_k2(V).value

    r1s = []
    r2s = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        rep = compute_k_eps(V, eps)
        r1s.append(abs(0.5 * eps * rep.m1 - eps**2 * k2) / eps**3)
        r2s.append(abs(0.5 * eps**2 * rep.m2) / eps**4)
    def halving_bounded(rs):
        return all(max(a, b) / min(a, b) <= 3.0 for a, b in zip(rs, rs[1:]))

    chain_ok = halving_bounded(r1s) and halving_bounded(r2s)

    reports = [compute_k_eps(V, e) for e in (0.025, 0.0125, 0.00625)]
    c1, c2 = fit_k_eps_coefficients(reports)
    fit_ok = abs(c1) <= 1e-3 * abs(c2) and abs(c2 - k2) <= 0.05 * abs(k2)

    ok = chain_ok and fit_ok
    announce(
        9,
        ok,
        f"m1 defect/eps^3 {['%.3f' % r for r in r1s]}, m2 half/eps^4 {['%.3f' % r for r in r2s]} "
        f"(factor-3 bounded under halving); fit |c1|/|c2|={abs(c1) / abs(c2):.1e} (<=1e-3), "
        f"c2 off k2 by {abs(c2 - k2) / abs(k2) * 100:.2f}% (<=5%)",
    )


def test_criterion_10_solver_oracles(announce):
    depth = 2.0

    def even_state(k):
        return k * math.tan(k / 2.0) - math.sqrt(depth - k * k)

    k = optimize.brentq(even_state, 1e-9, min(math.pi, math.sqrt(depth)) - 1e-12, xtol=1e-15)
    lam_exact = -(depth - k * k)

    res = find_bound_state(SquareWell(depth=depth, support=(0.0, 1.0)), 0.1, bracket=(0.1, 1.2))
    well_err = abs(res.eigenvalue.real - lam_exact) / abs(lam_exact)
    free_absent = find_bound_state(TwoScaleFunction(modes={}), 0.1) is None
    ok = well_err <= 1e-8 and free_absent
    announce(
        10,
        ok,
        f"finite well eigenvalue off closed form by {well_err:.1e} (<=1e-8), "
        f"free potential absent={free_absent}",
    )


def test_criterion_11_numerical_hygiene(announce, tmp_path):
    V = canonical_potential()
    k2 = compute_k2(V).value

    worst_det = 0.0
    for eps in (0.1, 0.05, 0.025):
        for lam in (-1e-6, -1e-2, -0.25, -1.0 + 0.3j):
            worst_det = max(worst_det, abs(transfer_matrix(V, eps, lam, eps / 40).det() - 1))
    det_ok = worst_det <= 1e-10

    # doubling is checked in the grid-converged regime: a fourth-order step
    # at the 40-per-period default carries ~7e-6 of discretization, so the
    # 1e-8 invariance question is only meaningful once the base density has
    # pushed that error below the tolerance (320 per period does)
    base = find_bound_state(V, 0.1, k2_hint=k2, cfg=SolverConfig(points_per_fast_period=320))
    fine = find_bound_state(V, 0.1, k2_hint=k2, cfg=SolverConfig(points_per_fast_period=640))
    drift = abs(base.eigenvalue - fine.eigenvalue) / abs(fine.eigenvalue)
    drift_ok = drift <= 1e-8

    cfgp = tmp_path / "sweep.cfg"
    cfgp.write_text(SWEEP_TEXT)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfgp), "--out", str(out2)]) == 0
    csv_ok = out1.read_bytes() == out2.read_bytes()

    ok = det_ok and drift_ok and csv_ok
    announce(
        11,
        ok,
        f"max |det T - 1| {worst_det:.1e} (<=1e-10); lambda drift under doubling at 320/period "
        f"{drift:.1e} (<=1e-8); sweep CSV byte-identical={csv_ok}",
    )


# Criterion 12's bound on the relative error of the solver-side k2, fixed before the first run.
# At 80 points per period RK4's relative error in kappa is about 16 times below its 3.7e-6 / 2.1e-5
# at 40, and the three-term fit leaves its model's own residual, 1.6-3.8e-6 of k2 (oscillating
# higher terms): about 5e-6 together, and twice that as the bound.
K2_FIT_BOUND = 1e-5


def test_criterion_12_k2_recovered_from_the_solver_roots(announce):
    # y = (kappa + Re int V / 2) / eps^2 = k2 + k4 eps^2 + k6 eps^4 + ... uses the solver's roots and
    # V's own integral, nothing from the asymptotic side; the paper's k2 is its eps -> 0 limit
    epsilons = np.geomspace(0.004, 0.03, 9)
    cfg = SolverConfig(points_per_fast_period=80)
    details = []
    ok = True
    t0 = time.perf_counter()
    for name, k4_ladder in (("canonical", 0.0899), ("two_mode", 0.0696)):
        V = load_config(str(CONFIG_DIR / f"{name}.cfg")).build_potential()
        kappas = [find_bound_state(V, eps, cfg=cfg).kappa.real for eps in epsilons]
        ys = [(k + 0.5 * oscillatory_integral(V, eps).real) / eps**2 for k, eps in zip(kappas, epsilons)]
        _, k4, k2_fit = np.polyfit(epsilons**2, ys, 2)
        k2 = compute_k2(V).value.real
        err = abs(k2_fit - k2) / k2
        good = err <= K2_FIT_BOUND
        ok = ok and good
        details.append(f"{name} k2 off by {err:.2e}{'' if good else '!'}, k4 {k4:.4f} (ladder {k4_ladder})")
    elapsed = time.perf_counter() - t0
    announce(
        12,
        ok,
        f"fit of (kappa + Re int V / 2) / eps^2 over 9 eps in [0.004, 0.03] at 80/period: "
        f"{'; '.join(details)} (each <= {K2_FIT_BOUND:g}), runtime {elapsed:.2f}s",
    )


def test_criterion_13_exactly_one_bound_state(announce):
    # N(kappa) counts the eigenvalues below -kappa^2 (Sturm oscillation): one above the
    # kappa floor, and it is the one the solver found
    details = []
    ok = True
    for name in ("canonical", "two_mode"):
        cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
        V = cfg.build_potential()
        for eps in cfg.epsilons:
            res = find_bound_state(V, eps, cfg=SolverConfig(points_per_fast_period=cfg.points_per_period))
            grid = solver._CoefficientGrid(V, eps, eps / cfg.points_per_period)
            kappa = res.kappa.real
            probes = (solver._KAPPA_FLOOR, kappa * (1 - 1e-6), kappa * (1 + 1e-6))
            counts = [grid.count_below(k)[0] for k in probes]
            good = res.converged and counts == [1, 1, 0]
            ok = ok and good
            details.append(f"{name} eps={eps:g}:{''.join(map(str, counts))}{'' if good else '!'}")
    announce(
        13,
        ok,
        f"N(kappa_floor), N(kappa_num(1-1e-6)), N(kappa_num(1+1e-6)) [{', '.join(details)}] (each 110)",
    )
