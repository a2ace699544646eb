"""The library calls the benchmark harness (benchmarks/workloads.py) makes, in its argument shapes.

The harness's own tests (benchmarks/test_bench.py) check its bookkeeping and
checkers but run no workload, so an API trim that broke the harness would
otherwise pass.  One call per entry point, on the canonical potential at eps 0.1.
"""

from pathlib import Path

import numpy as np

import oscispec as osc
from oscispec import cli as osc_cli
from oscispec.averaging import decay_order_fit, fast_panel_grid, profile_product_integral
from oscispec.gauge import build_gauge, default_catalog, identity_residual

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "canonical.cfg")
EPS = 0.1


def test_benchmark_entry_points(tmp_path):
    cfg = osc.load_config(CONFIG)
    V = cfg.build_potential()
    built = osc.combine(
        osc.TwoScaleFunction.from_cosine(1, osc.poly_bump(100.0, 2, (0.0, 1.0))),
        osc.TwoScaleFunction.from_sine(2, osc.smooth_bump(5.0, (0.0, 1.0))),
        1.0,
        1.0,
    )
    bump = osc.poly_bump(1.0, 2, (0.0, 1.0))
    assert osc.TwoScaleFunction(modes={1: bump, -1: bump}).is_real
    assert built.is_real

    default = osc.SolverConfig()
    solver_cfg = osc.SolverConfig(points_per_fast_period=cfg.points_per_period)
    assert default.root_tol == solver_cfg.root_tol == 1e-13

    rep = osc.compute_k2(V)
    assert not rep.flagged and rep.agreement >= 0.0
    k2 = rep.value
    assert osc.predict_lambda(k2, EPS).real < 0.0
    res = osc.find_bound_state(V, EPS, k2_hint=k2, cfg=solver_cfg)
    assert res.converged and res.iterations > 0

    h = EPS / default.points_per_fast_period
    assert abs(osc.transfer_matrix(V, EPS, -res.kappa * res.kappa, h).det() - 1.0) < 1e-10
    assert abs(osc.mismatch(V, EPS, res.kappa.real, default)) <= default.root_tol

    scan = osc.scan_roots(V, EPS, samples=500, cfg=default)
    assert scan.count == 1
    iV = V.scaled(1j)
    hint = osc.compute_k2(iV).value
    assert osc.find_bound_state(iV, EPS, k2_hint=hint, cfg=default) is None
    assert osc.min_mismatch_on_disk(iV, EPS, k2_hint=hint, cfg=default) > 10 * default.root_tol

    nodes, weights = fast_panel_grid(V.support_hull, EPS)
    assert nodes.size == weights.size > 0
    assert osc.compute_k_eps(V, EPS).k_eps.real > 0.0
    assert abs(profile_product_integral(V.modes[1], V.modes[-1])) > 0.0
    g = build_gauge(V, EPS)
    x0, x1 = V.support_hull
    grid = np.arange(x0, x1 + EPS / 80.0, EPS / 40.0)
    assert all(identity_residual(g, phi, grid) < 1e-12 for phi in default_catalog())
    assert decay_order_fit(built, [0.1, 0.05, 0.025]).fitted_order > 0.0

    out = tmp_path / "k2.csv"
    assert osc_cli.main(["k2", "--config", CONFIG, "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"quantity,value\n")
