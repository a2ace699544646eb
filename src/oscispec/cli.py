"""Command-line harness: deterministic CSV experiments tying predictor to solver.

Commands: k2, predict, solve, sweep, scan, lemma, gauge-check, keps.
Every command is a pure function of its config file to output bytes:
fixed scientific formatting, LF endings, no wall-clock or locale input,
so repeated runs are byte-identical and diffable.

Exit codes: 0 success, 2 configuration problems, 3 numerical
non-convergence in the single-shot `solve` command.  Sweeps never abort on
a bad record; they flag it and keep going.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .potentials import TwoScaleFunction, check_grid_size

if TYPE_CHECKING:  # annotations only: each command imports the modules it runs, so a cold call loads no other
    from .asymptotics import K2Report
    from .solver import SolverConfig

CSV_HEADER = (
    "eps,k2_re,k2_im,lambda_pred_re,lambda_pred_im,"
    "lambda_num_re,lambda_num_im,rel_err,remainder_ratio,verdict,converged"
)


def _cell(value) -> str:
    """The one printing rule: None is empty, a bool 1 or 0, an int or a str as it is, any other number %.16e."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return "%.16e" % (float(value) + 0.0)  # the add folds negative zero into plain zero


@dataclass(frozen=True)
class SweepRecord:
    """What one solve measured; the prediction and the two comparisons are read off it."""

    eps: float
    k2: complex
    verdict: str
    lambda_num: Optional[complex] = None
    converged: Optional[bool] = None

    @property
    def lambda_pred(self) -> complex:
        from .asymptotics import predict_lambda

        return predict_lambda(self.k2, self.eps)

    @property
    def rel_err(self) -> Optional[float]:
        if self.lambda_num is None:
            return None
        return abs(self.lambda_num - self.lambda_pred) / abs(self.lambda_pred)

    @property
    def remainder_ratio(self) -> Optional[float]:
        if self.lambda_num is None:
            return None
        return abs(self.lambda_num - self.lambda_pred) / self.eps**5


@dataclass(frozen=True)
class SweepSummary:
    slope: Optional[float]
    mean_remainder_ratio: Optional[float]
    ratio_spread: Optional[float]


def _csv(header: str, rows, comments: Iterable[tuple[str, object]] = ()) -> bytes:
    """The one CSV format: a header, comma-joined rows and # name=value comments of `_cell`s, LF-terminated."""
    lines = [header, *(",".join(map(_cell, row)) for row in rows), *(f"# {k}={_cell(v)}" for k, v in comments)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _record_row(r: SweepRecord) -> list:
    lam = r.lambda_num
    return [
        r.eps,
        r.k2.real,
        r.k2.imag,
        r.lambda_pred.real,
        r.lambda_pred.imag,
        lam.real if lam is not None else None,
        lam.imag if lam is not None else None,
        r.rel_err,
        r.remainder_ratio,
        r.verdict,
        r.converged,
    ]


def emit_csv(records: Sequence[SweepRecord], summary: SweepSummary | None = None) -> bytes:
    """Render records (and an optional summary's fields, in order, as # comments) to CSV bytes."""
    comments = asdict(summary).items() if summary is not None else ()
    return _csv(CSV_HEADER, map(_record_row, records), comments)


def _solve_record(V, eps: float, rep: K2Report, solver_cfg: SolverConfig) -> SweepRecord:
    from .asymptotics import Existence
    from .solver import find_bound_state

    verdict = str(rep.classification)
    try:
        res = find_bound_state(V, eps, k2_hint=rep.value, cfg=solver_cfg)
    except (ValueError, RuntimeError) as exc:  # what find_bound_state raises; anything else is a bug
        print(f"eps={eps:g}: {exc}", file=sys.stderr)
        return SweepRecord(eps, rep.value, verdict, converged=False)
    if res is None:
        # no admissible root; for the Absent branch this is the expected
        # certification, for Exists it is a failed solve
        return SweepRecord(eps, rep.value, verdict, converged=rep.classification is not Existence.EXISTS)
    return SweepRecord(eps, rep.value, verdict, res.eigenvalue, res.converged)


def run_sweep(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[list[SweepRecord], SweepSummary]:
    """One record per configured eps on the config's potential V; k2 is computed once for the whole sweep."""
    from .asymptotics import compute_k2

    solver_cfg = _solver_config(cfg)
    rep = compute_k2(V)
    records = [_solve_record(V, eps, rep, solver_cfg) for eps in cfg.epsilons]

    fit_pts = [
        r for r in records if r.lambda_num is not None and r.converged and abs(r.lambda_num) > 0
    ]
    slope = None
    if len(fit_pts) >= 2:
        xs = np.log([r.eps for r in fit_pts])
        ys = np.log([abs(r.lambda_num) for r in fit_pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    ratios = [r.remainder_ratio for r in fit_pts]
    mean_ratio = float(np.mean(ratios)) if ratios else None
    spread = None
    if ratios and min(ratios) > 0:
        spread = max(ratios) / min(ratios)
    return records, SweepSummary(slope=slope, mean_remainder_ratio=mean_ratio, ratio_spread=spread)


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    from .solver import SolverConfig

    return SolverConfig(points_per_fast_period=cfg.points_per_period)


def _cmd_k2(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    from .asymptotics import compute_k2

    rep = compute_k2(V)
    rows = [
        ("k2_re", rep.value.real),
        ("k2_im", rep.value.imag),
        ("quadrature_re", rep.by_quadrature.real),
        ("quadrature_im", rep.by_quadrature.imag),
        ("closed_form_re", rep.by_closed_form.real),
        ("closed_form_im", rep.by_closed_form.imag),
        ("agreement", rep.agreement),
        ("classification", str(rep.classification)),
        ("flagged", rep.flagged),
    ]
    return _csv("quantity,value", rows), 0


def _cmd_predict(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    from .asymptotics import compute_k2

    rep = compute_k2(V)
    return emit_csv([SweepRecord(eps, rep.value, str(rep.classification)) for eps in cfg.epsilons]), 0


def _cmd_solve(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    from .asymptotics import Existence, compute_k2

    rep = compute_k2(V)
    record = _solve_record(V, cfg.epsilons[0], rep, _solver_config(cfg))
    # an Exists record without an eigenvalue is never converged
    failed = rep.classification is Existence.EXISTS and not record.converged
    return emit_csv([record]), (3 if failed else 0)


def _cmd_sweep(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    records, summary = run_sweep(cfg, V)
    return emit_csv(records, summary=summary), 0


def _cmd_scan(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    from .solver import scan_roots

    result = scan_roots(V, cfg.epsilons[0], cfg=_solver_config(cfg))
    comments = [
        ("count", result.count),
        ("window_low", result.window[0]),
        ("window_high", result.window[1]),
        ("samples", result.samples),
    ]
    return _csv("kappa,eigenvalue", zip(result.kappas, result.eigenvalues), comments), 0


def _cmd_lemma(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    from .averaging import decay_order_fit

    fit = decay_order_fit(V, list(cfg.epsilons))
    comments = [
        ("fitted_order", fit.fitted_order),
        ("floor", fit.floor),
        ("floor_limited", fit.floor_flag),
        ("points_used", sum(fit.used)),
    ]
    return _csv("eps,remainder", zip(fit.epsilons, fit.errors), comments), 0


def _cmd_gauge_check(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    from .gauge import _identity_residuals, build_gauge, default_catalog

    catalog = default_catalog()
    rows = []
    worst = 0.0
    for eps in cfg.epsilons:
        g = build_gauge(V, eps)
        x0, x1 = V.support_hull
        check_grid_size(int((x1 - x0) * 40.0 / eps) + 1, "points", eps, (x0, x1))
        grid = np.arange(x0, x1 + eps / 80.0, eps / 40.0)
        for probe, res in zip(catalog, _identity_residuals(g, catalog, grid)):
            worst = max(worst, res)
            rows.append((f"eps={eps:.6g}:{probe.label}", res))
    return _csv("probe,residual", rows, [("max_residual", worst)]), 0


def _cmd_keps(cfg: ExperimentConfig, V: TwoScaleFunction) -> tuple[bytes, int]:
    from .asymptotics import compute_k2, compute_k_eps, fit_k_eps_coefficients

    reports = [compute_k_eps(V, eps) for eps in cfg.epsilons]
    rows = [(r.eps, r.m1.real, r.m1.imag, r.m2.real, r.m2.imag, r.k_eps.real, r.k_eps.imag) for r in reports]
    comments = []
    if len(reports) >= 3:
        c1, c2 = fit_k_eps_coefficients(reports)
        rep2 = compute_k2(V)
        comments = [
            ("c1_re", c1.real),
            ("c1_im", c1.imag),
            ("c2_re", c2.real),
            ("c2_im", c2.imag),
            ("k2_re", rep2.value.real),
            ("k2_im", rep2.value.imag),
        ]
    return _csv("eps,m1_re,m1_im,m2_re,m2_im,keps_re,keps_im", rows, comments), 0


# name -> (help text, command); a command maps the config and its potential to (output bytes, exit code)
_COMMANDS = {
    "k2": ("compute the k2 constant by both routes and classify existence", _cmd_k2),
    "predict": ("tabulate the leading-order eigenvalue prediction per eps", _cmd_predict),
    "solve": ("locate the bound state at the first configured eps", _cmd_solve),
    "sweep": ("full eps sweep: prediction, solve, remainder diagnostics", _cmd_sweep),
    "scan": ("count mismatch roots in the kappa window at the first eps", _cmd_scan),
    "lemma": ("tabulate the oscillatory-average remainder decay in eps", _cmd_lemma),
    "gauge-check": ("residual of the gauge identity over the probe catalog", _cmd_gauge_check),
    "keps": ("tabulate the finite-eps coefficient chain and its eps-fit", _cmd_keps),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscispec",
        description="Emerging-eigenvalue experiments: asymptotic prediction vs direct solve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument("--out", default=None, help="output path (default: standard output)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, require_zero_mean=args.command != "lemma")
        V = cfg.build_potential()
        if V.support_hull[0] == V.support_hull[1]:  # mode lines that cancel leave nothing to report on
            raise ValueError("the potential's support is empty: it holds no bound state and no gauge")
        data, code = _COMMANDS[args.command][1](cfg, V)
        if args.out is None:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:
            with open(args.out, "wb") as fh:
                fh.write(data)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
