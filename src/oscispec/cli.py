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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import asymptotics as asym
from . import solver as slv
from .averaging import decay_order_fit
from .config import ConfigError, ExperimentConfig, load_config
from .gauge import _identity_residuals, build_gauge, default_catalog
from .potentials import MIN_POINTS_PER_PERIOD, check_grid_size

CSV_HEADER = (
    "eps,k2_re,k2_im,lambda_pred_re,lambda_pred_im,"
    "lambda_num_re,lambda_num_im,rel_err,remainder_ratio,verdict,converged"
)

_THEOREM_COMMANDS = frozenset({"k2", "predict", "solve", "sweep", "scan", "gauge-check", "keps"})


def _fmt(x: float) -> str:
    return "%.16e" % (float(x) + 0.0)  # the add folds negative zero into plain zero


@dataclass(frozen=True)
class SweepRecord:
    eps: float
    k2: complex
    lambda_pred: complex
    lambda_num: Optional[complex]
    rel_err: Optional[float]
    remainder_ratio: Optional[float]
    verdict: str
    converged: Optional[bool]

    def __post_init__(self) -> None:
        have_num = self.lambda_num is not None
        if (self.rel_err is not None) != have_num or (self.remainder_ratio is not None) != have_num:
            raise ValueError("rel_err and remainder_ratio must be present exactly when lambda_num is")


@dataclass(frozen=True)
class SweepSummary:
    slope: Optional[float]
    mean_remainder_ratio: Optional[float]
    ratio_spread: Optional[float]


def _opt(x: Optional[float]) -> str:
    return _fmt(x) if x is not None else ""


def _csv(header: str, rows, comments: Sequence[str] = ()) -> bytes:
    """The one CSV format: a header, comma-joined rows, # comments, LF endings and a trailing newline."""
    return ("\n".join([header, *(",".join(row) for row in rows), *comments]) + "\n").encode("utf-8")


def _record_row(r: SweepRecord) -> list[str]:
    lam = r.lambda_num
    return [
        _fmt(r.eps),
        _fmt(r.k2.real),
        _fmt(r.k2.imag),
        _fmt(r.lambda_pred.real),
        _fmt(r.lambda_pred.imag),
        _opt(lam.real if lam is not None else None),
        _opt(lam.imag if lam is not None else None),
        _opt(r.rel_err),
        _opt(r.remainder_ratio),
        r.verdict,
        ("1" if r.converged else "0") if r.converged is not None else "",
    ]


def emit_csv(records: Sequence[SweepRecord], summary: SweepSummary | None = None) -> bytes:
    """Render records (and an optional summary as # comments) to CSV bytes."""
    comments = []
    if summary is not None:
        comments = [
            "# slope=" + _opt(summary.slope),
            "# mean_remainder_ratio=" + _opt(summary.mean_remainder_ratio),
            "# ratio_spread=" + _opt(summary.ratio_spread),
        ]
    return _csv(CSV_HEADER, map(_record_row, records), comments)


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def _solve_record(
    V,
    eps: float,
    k2: complex,
    verdict: str,
    exists: bool,
    solver_cfg: slv.SolverConfig,
) -> SweepRecord:
    lam_pred = asym.predict_lambda(k2, eps)
    lam_num = None
    rel_err = None
    ratio = None
    converged: Optional[bool] = None
    try:
        res = slv.find_bound_state(V, eps, k2_hint=k2, cfg=solver_cfg)
    except (ValueError, RuntimeError):  # what find_bound_state raises; anything else is a bug
        res = None
        converged = False
    else:
        if res is not None:
            lam_num = res.eigenvalue
            rel_err = abs(lam_num - lam_pred) / abs(lam_pred)
            ratio = abs(lam_num - lam_pred) / eps**5
            converged = res.converged
        else:
            # no admissible root; for the Absent branch this is the expected
            # certification, for Exists it is a failed solve
            converged = not exists
    return SweepRecord(
        eps=eps,
        k2=k2,
        lambda_pred=lam_pred,
        lambda_num=lam_num,
        rel_err=rel_err,
        remainder_ratio=ratio,
        verdict=verdict,
        converged=converged,
    )


def run_sweep(cfg: ExperimentConfig) -> tuple[list[SweepRecord], SweepSummary]:
    """One record per configured eps; k2 is computed once for the whole sweep."""
    solver_cfg = _solver_config(cfg)
    V = cfg.build_potential()
    rep = asym.compute_k2(V)
    verdict = str(rep.classification)
    exists = rep.classification is asym.Existence.EXISTS
    records = [
        _solve_record(V, eps, rep.value, verdict, exists, solver_cfg) for eps in cfg.epsilons
    ]

    fit_pts = [
        r for r in records if r.lambda_num is not None and r.converged and abs(r.lambda_num) > 0
    ]
    slope = None
    if len(fit_pts) >= 2:
        xs = np.log([r.eps for r in fit_pts])
        ys = np.log([abs(r.lambda_num) for r in fit_pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    ratios = [r.remainder_ratio for r in fit_pts if r.remainder_ratio is not None]
    mean_ratio = float(np.mean(ratios)) if ratios else None
    spread = None
    if ratios and min(ratios) > 0:
        spread = max(ratios) / min(ratios)
    return records, SweepSummary(slope=slope, mean_remainder_ratio=mean_ratio, ratio_spread=spread)


def _solver_config(cfg: ExperimentConfig) -> slv.SolverConfig:
    return slv.SolverConfig(points_per_fast_period=cfg.points_per_period)


def _cmd_k2(cfg: ExperimentConfig) -> tuple[bytes, int]:
    rep = asym.compute_k2(cfg.build_potential())
    rows = [
        ("k2_re", _fmt(rep.value.real)),
        ("k2_im", _fmt(rep.value.imag)),
        ("quadrature_re", _fmt(rep.by_quadrature.real)),
        ("quadrature_im", _fmt(rep.by_quadrature.imag)),
        ("closed_form_re", _fmt(rep.by_closed_form.real)),
        ("closed_form_im", _fmt(rep.by_closed_form.imag)),
        ("agreement", _fmt(rep.agreement)),
        ("classification", str(rep.classification)),
        ("flagged", "1" if rep.flagged else "0"),
    ]
    return _csv("quantity,value", rows), 0


def _cmd_predict(cfg: ExperimentConfig) -> tuple[bytes, int]:
    rep = asym.compute_k2(cfg.build_potential())
    verdict = str(rep.classification)
    records = [
        SweepRecord(
            eps=eps,
            k2=rep.value,
            lambda_pred=asym.predict_lambda(rep.value, eps),
            lambda_num=None,
            rel_err=None,
            remainder_ratio=None,
            verdict=verdict,
            converged=None,
        )
        for eps in cfg.epsilons
    ]
    return emit_csv(records), 0


def _cmd_solve(cfg: ExperimentConfig) -> tuple[bytes, int]:
    V = cfg.build_potential()
    rep = asym.compute_k2(V)
    eps = cfg.epsilons[0]
    record = _solve_record(
        V, eps, rep.value, str(rep.classification), rep.classification is asym.Existence.EXISTS, _solver_config(cfg)
    )
    data = emit_csv([record])
    failed = rep.classification is asym.Existence.EXISTS and (
        record.lambda_num is None or not record.converged
    )
    return data, (3 if failed else 0)


def _cmd_sweep(cfg: ExperimentConfig) -> tuple[bytes, int]:
    records, summary = run_sweep(cfg)
    return emit_csv(records, summary=summary), 0


def _cmd_scan(cfg: ExperimentConfig) -> tuple[bytes, int]:
    V = cfg.build_potential()
    eps = cfg.epsilons[0]
    result = slv.scan_roots(V, eps, cfg=_solver_config(cfg))
    rows = [(_fmt(k), _fmt(lam)) for k, lam in zip(result.kappas, result.eigenvalues)]
    comments = [
        f"# count={result.count}",
        "# window_low=" + _fmt(result.window[0]),
        "# window_high=" + _fmt(result.window[1]),
        f"# samples={result.samples}",
    ]
    return _csv("kappa,eigenvalue", rows, comments), 0


def _cmd_lemma(cfg: ExperimentConfig) -> tuple[bytes, int]:
    u = cfg.build_potential()
    fit = decay_order_fit(u, list(cfg.epsilons))
    rows = [(_fmt(e), _fmt(err)) for e, err in zip(fit.epsilons, fit.errors)]
    comments = [
        "# fitted_order=" + _fmt(fit.fitted_order),
        "# floor=" + _fmt(fit.floor),
        f"# floor_limited={1 if fit.floor_flag else 0}",
        f"# points_used={fit.used}",
    ]
    return _csv("eps,remainder", rows, comments), 0


def _cmd_gauge_check(cfg: ExperimentConfig) -> tuple[bytes, int]:
    V = cfg.build_potential()
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
            rows.append((f"eps={eps:.6g}:{probe.label}", _fmt(res)))
    return _csv("probe,residual", rows, ["# max_residual=" + _fmt(worst)]), 0


def _cmd_keps(cfg: ExperimentConfig) -> tuple[bytes, int]:
    V = cfg.build_potential()
    reports = [asym.compute_k_eps(V, eps) for eps in cfg.epsilons]
    rows = [
        [_fmt(v) for v in (r.eps, r.m1.real, r.m1.imag, r.m2.real, r.m2.imag, r.k_eps.real, r.k_eps.imag)]
        for r in reports
    ]
    comments = []
    if len(reports) >= 3:
        c1, c2 = asym.fit_k_eps_coefficients(reports)
        rep2 = asym.compute_k2(V)
        comments = [
            "# c1_re=" + _fmt(c1.real),
            "# c1_im=" + _fmt(c1.imag),
            "# c2_re=" + _fmt(c2.real),
            "# c2_im=" + _fmt(c2.imag),
            "# k2_re=" + _fmt(rep2.value.real),
            "# k2_im=" + _fmt(rep2.value.imag),
        ]
    return _csv("eps,m1_re,m1_im,m2_re,m2_im,keps_re,keps_im", rows, comments), 0


# name -> (help text, command); a command maps the config to (output bytes, exit code)
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
        p.add_argument(
            "--points-per-period",
            type=int,
            default=None,
            help="override the solver sampling density per fast period",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, require_zero_mean=args.command in _THEOREM_COMMANDS)
        if args.points_per_period is not None:
            if args.points_per_period < MIN_POINTS_PER_PERIOD:
                raise ConfigError([f"--points-per-period must be at least {MIN_POINTS_PER_PERIOD}"])
            cfg = replace(cfg, points_per_period=args.points_per_period)
        data, code = _COMMANDS[args.command][1](cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            _write_bytes(args.out, data)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
