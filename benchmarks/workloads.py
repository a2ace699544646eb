"""The four benchmark workloads, driven through oscispec's public API and CLI.

A workload builds its potentials from the generated inputs (set-up), computes
reference values it needs before timing (``prepare``, ``before``), runs one
item (``run``), checks an item's output (``check``) and, in the traced run
only, makes the extra calls that the per-layer metrics need (``probe``).
Spans are opened here, around each call into a layer; oscispec itself is not
instrumented.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oscispec as osc
from oscispec import cli as osc_cli
from oscispec.averaging import decay_order_fit, fast_panel_grid, profile_product_integral
from oscispec.gauge import build_gauge, default_catalog, identity_residual

import bench_checks as checks
import bench_inputs as inputs

OUT_DIR = Path(__file__).resolve().parent / ".out"


def build_modes(modes: list[dict]) -> osc.TwoScaleFunction:
    """Potential for a generated mode set (see bench_inputs.mode_set)."""
    total = None
    for m in modes:
        support = tuple(m["support"])

        def envelope(amplitude, m=m, support=support):
            if m["kind"] == "poly":
                return osc.poly_bump(amplitude, m["power"], support)
            return osc.smooth_bump(amplitude, support)

        amps = [complex(re, im) for re, im in m["amplitudes"]]
        if m["form"] == "cos":
            piece = osc.TwoScaleFunction.from_cosine(m["n"], envelope(amps[0]))
        elif m["form"] == "sin":
            piece = osc.TwoScaleFunction.from_sine(m["n"], envelope(amps[0]))
        else:
            piece = osc.TwoScaleFunction(modes={m["n"]: envelope(amps[0]), -m["n"]: envelope(amps[1])})
        total = piece if total is None else osc.combine(total, piece, 1.0, 1.0)
    return total


def has_smooth(V) -> bool:
    return any(p.kind == "smooth" for p in V.modes.values())


def k2_report(V, tr):
    """compute_k2 inside a span named by the quadrature path it takes."""
    with tr.span("asymptotics.k2_smooth" if has_smooth(V) else "asymptotics.k2_poly"):
        return osc.compute_k2(V)


def stage_points(V, eps: float, h: float) -> tuple[np.ndarray, int]:
    """The solver's RK4 stage grid over the support hull, and its step count."""
    x0, x1 = V.support_hull
    length = x1 - x0
    n_full = int(math.floor(length / h + 1e-9))
    xs = x0 + 0.5 * h * np.arange(2 * n_full + 1)
    h_last = length - n_full * h
    if h_last >= 1e-12 * max(1.0, length):
        return np.concatenate([xs, [x0 + n_full * h + 0.5 * h_last, x1]]), n_full + 1
    return xs, n_full


def probe_eval_fast(tr, V, eps: float, h: float) -> int:
    xs, steps = stage_points(V, eps, h)
    with tr.span("potentials.eval_fast") as rec:
        V.eval_fast(xs, eps)
    tr.count("potentials.eval_fast_ns_per_point", (rec[2] - rec[1]) / xs.size * 1e9)
    return steps


def probe_propagation(tr, V, eps: float, cfg, kappa: float) -> int:
    """Split solver time into grid build and steps: a transfer matrix is one
    grid plus two propagations, a mismatch one grid plus one propagation."""
    h = eps / cfg.points_per_fast_period
    steps = probe_eval_fast(tr, V, eps, h)
    with tr.span("solver.transfer_matrix") as tm:
        osc.transfer_matrix(V, eps, -kappa * kappa, h)
    with tr.span("solver.mismatch") as mm:
        osc.mismatch(V, eps, kappa, cfg)
    t_tm, t_mm = tm[2] - tm[1], mm[2] - mm[1]
    tr.count("solver.rk4_ns_per_step", (t_tm - t_mm) / steps * 1e9)
    tr.count("solver.grid_ms", (2.0 * t_mm - t_tm) * 1e3)
    return steps


class Workload:
    name = ""
    children = False  # True when the items run in child processes

    def __init__(self, root: Path, items: list[dict], tr):
        self.root = root
        self.items = items
        self.configs = []
        for rel in inputs.CONFIGS:
            with tr.span("config.load"):
                cfg = osc.load_config(str(root / rel))
                self.configs.append((cfg, cfg.build_potential()))
        self.potentials = [self.potential(item) for item in items]

    def potential(self, item: dict):
        return build_modes(item["modes"]) if "modes" in item else self.configs[item["config"]][1]

    def prepare(self, tr) -> None:
        """Reference values computed once, outside set-up and timing."""

    def before(self, i: int, tr) -> None:
        """Per-item reference values, computed outside the item's timing."""

    def run(self, i: int, tr):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def probe(self, i: int, out, tr) -> None:
        """Extra calls made only in the traced run."""


class SweepDeep(Workload):
    """One sweep record: predict_lambda and find_bound_state at one (potential, eps)."""

    name = "sweep_deep"

    def __init__(self, root, items, tr):
        super().__init__(root, items, tr)
        self.solver_cfgs = [osc.SolverConfig(points_per_fast_period=cfg.points_per_period) for cfg, _ in self.configs]

    def prepare(self, tr):
        self.k2 = [k2_report(V, tr) for _, V in self.configs]

    def run(self, i, tr):
        item = self.items[i]
        k = item["config"]
        k2 = self.k2[k].value
        with tr.span("asymptotics.predict"):
            lam_pred = osc.predict_lambda(k2, item["eps"])
        with tr.span("solver.find"):
            res = osc.find_bound_state(self.potentials[i], item["eps"], k2_hint=k2, cfg=self.solver_cfgs[k])
        return lam_pred, res

    def check(self, i, out):
        item = self.items[i]
        lam_pred, res = out
        return checks.check_sweep(str(self.k2[item["config"]].classification), res, lam_pred, item["eps"])

    def probe(self, i, out, tr):
        item = self.items[i]
        k, eps = item["config"], item["eps"]
        lam_pred, res = out
        kappa = res.kappa.real if res is not None else eps * eps * abs(self.k2[k].value)
        steps = probe_propagation(tr, self.potentials[i], eps, self.solver_cfgs[k], kappa)
        tr.count("solver.converged", bool(res is not None and res.converged))
        if res is not None:
            tr.count("solver.mismatch_evals", res.iterations)
            tr.count("solver.rk4_steps", res.iterations * steps)
            tr.count("solver.remainder_ratio", checks.remainder_ratio(res.eigenvalue, lam_pred, eps))


class ScanBatch(Workload):
    """One root scan at eps 0.1, then Newton and the disk floor on the i-rotation."""

    name = "scan_batch"

    def __init__(self, root, items, tr):
        super().__init__(root, items, tr)
        self.rotations = [V.scaled(1j) for V in self.potentials]
        self.cfg = osc.SolverConfig()
        self.hints: dict[int, complex] = {}

    def before(self, i, tr):
        if i not in self.hints:
            self.hints[i] = k2_report(self.rotations[i], tr).value

    def run(self, i, tr):
        eps, hint, iV = inputs.SCAN_EPS, self.hints[i], self.rotations[i]
        with tr.span("solver.scan"):
            scan = osc.scan_roots(self.potentials[i], eps, samples=inputs.SCAN_SAMPLES, cfg=self.cfg)
        with tr.span("solver.newton"):
            root = osc.find_bound_state(iV, eps, k2_hint=hint, cfg=self.cfg)
        with tr.span("solver.disk"):
            floor = osc.min_mismatch_on_disk(iV, eps, k2_hint=hint, cfg=self.cfg)
        return scan, root, floor

    def check(self, i, out):
        scan, root, floor = out
        residuals = [abs(osc.mismatch(self.potentials[i], inputs.SCAN_EPS, k, self.cfg)) for k in scan.kappas]
        canonical = self.items[i].get("config") == 0
        return checks.check_scan(canonical, scan.count, residuals, root, floor, self.cfg.root_tol)

    def probe(self, i, out, tr):
        scan = out[0]
        kappa = scan.kappas[0] if scan.kappas else 0.01
        probe_propagation(tr, self.potentials[i], inputs.SCAN_EPS, self.cfg, kappa)


class AsymBatch(Workload):
    """One mode set: compute_k2, predict_lambda over an eps list, compute_k_eps at three eps."""

    name = "asym_batch"

    def __init__(self, root, items, tr):
        super().__init__(root, items, tr)
        self.rotated: dict[int, complex] = {}

    def before(self, i, tr):
        if i not in self.rotated:  # the check's reference: k2 of the i-rotation
            self.rotated[i] = osc.compute_k2(self.potentials[i].scaled(1j)).value

    def run(self, i, tr):
        V = self.potentials[i]
        rep = k2_report(V, tr)
        with tr.span("asymptotics.predict"):
            lams = [osc.predict_lambda(rep.value, eps) for eps in inputs.ASYM_PREDICT_EPS]
        reports = []
        for eps in inputs.ASYM_KEPS_EPS:
            with tr.span("asymptotics.keps"):
                reports.append(osc.compute_k_eps(V, eps))
        return rep, lams, reports

    def check(self, i, out):
        item = self.items[i]
        is_real = "config" in item or all(m["form"] != "pair" for m in item["modes"])
        return checks.check_asym(out[0], is_real, self.rotated[i])

    def probe(self, i, out, tr):
        V = self.potentials[i]
        tr.count("asymptotics.k2_agreement", out[0].agreement)
        for n in sorted(V.modes):
            partner = V.modes.get(-n)
            if n >= 1 and partner is not None and "smooth" in (V.modes[n].kind, partner.kind):
                with tr.span("averaging.profile_product"):
                    profile_product_integral(V.modes[n], partner)
        for eps in inputs.ASYM_KEPS_EPS:
            with tr.span("averaging.panel_grid"):
                nodes, _ = fast_panel_grid(V.support_hull, eps)
            tr.count("averaging.panel_nodes", nodes.size)
            probe_eval_fast(tr, V, eps, eps / osc.SolverConfig().points_per_fast_period)
            with tr.span("gauge.build"):
                g = build_gauge(V, eps)
        # identity residuals at the smallest eps, on the gauge-check command's grid
        x0, x1 = V.support_hull
        grid = np.arange(x0, x1 + eps / 80.0, eps / 40.0)
        for phi in default_catalog():
            with tr.span("gauge.residual"):
                identity_residual(g, phi, grid)
        with tr.span("averaging.decay_fit"):
            try:
                decay_order_fit(V, inputs.ASYM_PREDICT_EPS)
            except ValueError:  # remainders under the round-off floor: a documented outcome
                tr.count("averaging.decay_fit_floor_limited", 1)


class CliCold(Workload):
    """One fresh-interpreter CLI call: python -m oscispec.cli <cmd> --config <cfg> --out <tmp>."""

    name = "cli_cold"
    children = True

    def __init__(self, root, items, tr):
        super().__init__(root, items, tr)
        self.tmp = OUT_DIR / "cli"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def prepare(self, tr):
        self.reference: dict[tuple[str, int], bytes] = {}
        for item in self.items:
            key = (item["command"], item["config"])
            if key in self.reference:
                continue
            out = self.tmp / f"ref-{item['command']}-{item['config']}.csv"
            config = str(self.root / inputs.CONFIGS[item["config"]])
            with tr.span("cli.main"):
                code = osc_cli.main([item["command"], "--config", config, "--out", str(out)])
            self.reference[key] = out.read_bytes() if code == 0 else b""

    def run(self, i, tr):
        item = self.items[i]
        out = self.tmp / f"item-{i}.csv"
        out.unlink(missing_ok=True)
        argv = [item["command"], "--config", inputs.CONFIGS[item["config"]], "--out", str(out)]
        with tr.span("cli.process"):
            proc = subprocess.run(
                [sys.executable, "-m", "oscispec.cli", *argv],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        return proc.returncode, out.read_bytes() if out.exists() else b"", proc.stderr

    def check(self, i, out):
        item = self.items[i]
        code, data, stderr = out
        problems = checks.check_cli(code, data, self.reference[(item["command"], item["config"])])
        if problems and stderr:
            problems.append("stderr: " + stderr.decode(errors="replace").strip()[-300:])
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepDeep, ScanBatch, AsymBatch, CliCold)}

# Traced runs end with one item of every workload on the shipped configs, so
# that every per-layer metric is measured whichever workload is traced.
CENSUS = (
    (SweepDeep, [{"config": 0, "eps": 0.1}, {"config": 1, "eps": 0.1}]),
    (ScanBatch, [{"config": 0}]),
    (AsymBatch, [{"config": 0}, {"config": 1}]),
    (CliCold, [{"command": "lemma", "config": 0}]),
)

