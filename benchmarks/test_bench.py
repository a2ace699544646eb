"""Tests of the benchmark harness itself.

Run from the repository root:  python -m pytest benchmarks -q
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_checks as checks  # noqa: E402
import bench_inputs as inputs  # noqa: E402
import run  # noqa: E402
from bench_speed import REFERENCE_S, HostSpeed  # noqa: E402
from bench_trace import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generator_is_reproducible_for_a_seed(workload):
    first = inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) == first
    assert inputs.digest(inputs.generate(workload, 7)) == inputs.digest(first)
    assert inputs.digest(inputs.generate(workload, 8)) != inputs.digest(first)


def test_sweep_draws_cover_the_range_at_a_fixed_count():
    items = inputs.sweep_items(3)
    assert len(items) == 2 * inputs.SWEEP_STRATA
    lo, hi = inputs.SWEEP_EPS_RANGE
    assert all(lo * 0.95 <= it["eps"] <= hi * 1.05 for it in items)
    integer = [abs(1 / it["eps"] - round(1 / it["eps"])) < 1e-9 for it in items]
    assert sum(integer) == len(items) // 2
    # any prefix of the pool spans both decades
    assert min(it["eps"] for it in items[:8]) < 2e-3 and max(it["eps"] for it in items[:8]) > 2e-2


def test_cli_pool_runs_every_command_once_half_on_each_config():
    items = inputs.cli_items(5)
    assert sorted(it["command"] for it in items) == sorted(inputs.COMMANDS)
    assert sum(it["config"] for it in items) == len(inputs.COMMANDS) // 2


def test_every_metric_name_is_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in SPEC["workloads"]} == set(inputs.GENERATORS)


def _loop(latencies):
    loop = run.Loop()
    loop.latencies = list(latencies)
    loop.cpu = list(latencies)
    loop.indices = list(range(len(latencies)))
    loop.starts = [100.0 + sum(latencies[:k]) for k in range(len(latencies))]
    return loop


def _speed(ends, durations):
    speed = HostSpeed(0.25)
    speed.ends, speed.durations = list(ends), list(durations)
    return speed


def test_host_speed_scale_uses_the_samples_around_an_interval():
    speed = _speed([1.0, 2.0, 3.0], [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S])
    assert speed.scale(1.5, 1.9) == pytest.approx(1 / 1.5)  # mean of the samples ending at 1.0 and 2.0
    assert speed.scale(2.0, 2.5) == pytest.approx(1 / 3.0)  # a sample ending at the start counts as before
    assert speed.scale(3.5, 4.0) == pytest.approx(1 / 4.0)  # nothing after: the last sample alone
    with pytest.raises(ValueError):
        _speed([], []).scale(0.0, 1.0)


def test_harness_emits_exactly_the_declared_metrics():
    class Fake:
        children = False
        items = [None] * 10

    report = {}
    loop = _loop([0.01 * k for k in range(1, 60)])
    speed = _speed([99.0, 200.0], [2 * REFERENCE_S, 2 * REFERENCE_S])  # a host at half the reference speed
    setup = [(0.5, 0.4, 0.5), (0.6, 0.4, 0.5), (0.7, 0.4, 0.5)]
    e2e = run.end_to_end("sweep_deep", Fake(), loop, speed, setup, report)
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert report["tail"]["beyond"] >= 1
    assert e2e["item_p50_ms"]["value"] == pytest.approx(report["raw"]["item_p50_ms"] / 2)
    assert e2e["items_per_s"]["value"] == pytest.approx(report["raw"]["items_per_s"] * 2)
    assert e2e["setup_s"]["value"] == pytest.approx(0.3)
    # 59 items of a 10-item pool: the metrics cover the first 5 rounds
    assert report["rounds"] == {"pool": 10, "whole": 5, "items_after": 9}
    assert report["raw"]["items_per_s"] == pytest.approx(50 / sum(0.01 * k for k in range(1, 51)))

    tr = Tracer()
    for name in (
        "config.load", "solver.find", "solver.scan", "solver.newton", "solver.disk",
        "asymptotics.k2_poly", "asymptotics.k2_smooth", "asymptotics.keps",
        "averaging.profile_product", "averaging.decay_fit", "gauge.build", "gauge.residual",
        "cli.main", "cli.process",
    ):
        with tr.span(name):
            pass
    for name in (
        "potentials.eval_fast_ns_per_point", "solver.mismatch_evals", "solver.rk4_steps",
        "solver.rk4_ns_per_step", "solver.grid_ms", "solver.converged", "solver.remainder_ratio",
        "asymptotics.k2_agreement", "averaging.panel_nodes",
    ):
        tr.count(name, 1.0)
    layer = run.per_layer(tr, [0.5], _loop([1.0]), _loop([1.1]), {})
    assert {k: v["unit"] for k, v in layer.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    with tr.span("bench.item"):
        with tr.span("solver.find"):
            pass
    layers = tr.self_times()
    outer = tr.durations("bench.item")[0]
    inner = tr.durations("solver.find")[0]
    assert layers["bench"]["self_s"] == pytest.approx(outer - inner)
    assert layers["solver"]["self_s"] == pytest.approx(inner)


@pytest.fixture(scope="module")
def two_mode_solve():
    import oscispec as osc

    V = osc.load_config(str(HERE.parent / inputs.CONFIGS[1])).build_potential()
    k2 = osc.compute_k2(V).value
    eps = 0.05
    return eps, osc.predict_lambda(k2, eps), osc.find_bound_state(V, eps, k2_hint=k2)


def test_a_perturbed_eigenvalue_is_counted_as_a_failure(two_mode_solve):
    eps, lam_pred, res = two_mode_solve
    assert checks.check_sweep("Exists", res, lam_pred, eps) == []
    wrong = dataclasses.replace(res, eigenvalue=2.0 * res.eigenvalue)
    assert checks.check_sweep("Exists", wrong, lam_pred, eps)

    class Sweep:
        name = "sweep_deep"
        children = False
        outputs = (res, wrong)

        def before(self, i, tr):
            pass

        def run(self, i, tr):
            if i == len(self.outputs):
                raise ValueError("solver raised")
            return self.outputs[i]

        def check(self, i, out):
            return checks.check_sweep("Exists", out, lam_pred, eps)

    loop = run.Loop()
    for i in range(3):
        run.run_item(Sweep(), i, run.NULL, loop)
    assert len(loop.indices) == 3
    assert [msg.split(":")[0] for msg in loop.failures] == ["sweep_deep item 1", "sweep_deep item 2"]


def test_other_checkers_reject_wrong_results():
    assert checks.check_scan(True, 2, [], None, 1.0, 1e-13)
    assert checks.check_scan(False, 1, [1e-9], None, 1.0, 1e-13)
    assert checks.check_scan(False, 0, [], None, 1e-13, 1e-13)
    assert checks.check_scan(False, 1, [1e-15], None, 1.0, 1e-13) == []

    report = type("Report", (), {"value": 0.5 + 0j, "agreement": 0.0, "flagged": False})()
    assert checks.check_asym(report, True, -0.5 + 0j) == []
    assert checks.check_asym(report, True, 0.5 + 0j)
    assert checks.check_asym(report, True, -0.5 + 1e-6j)

    assert checks.check_cli(0, b"a\n", b"a\n") == []
    assert checks.check_cli(3, b"a\n", b"a\n")
    assert checks.check_cli(0, b"a\n", b"b\n")
