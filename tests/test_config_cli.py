import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscispec
from oscispec import solver
from oscispec.asymptotics import compute_k2, predict_lambda
from oscispec.cli import (
    CSV_HEADER,
    SweepRecord,
    _solve_record,
    emit_csv,
    main,
    run_sweep,
)
from oscispec.config import ConfigError, parse_config
from oscispec.potentials import canonical_potential

CANONICAL_TEXT = """\
# canonical single-mode experiment
mode = cos 1 poly 100 2
support = 0 1
eps = 0.1 0.05 0.025
points_per_period = 40
"""


# ---------------------------------------------------------------- parsing


def test_minimal_config_parses_and_infers_realness():
    cfg = parse_config("mode = cos 1 poly 100 2\n")
    V = cfg.build_potential()
    assert V.is_real
    assert set(V.modes) == {1, -1}
    assert cfg.epsilons == (0.1,)


def test_config_potential_matches_library_canonical():
    cfg = parse_config(CANONICAL_TEXT)
    V = cfg.build_potential()
    ref = canonical_potential()
    xs = np.linspace(-0.1, 1.1, 41)
    assert V.eval_fast(xs, 0.07) == pytest.approx(ref.eval_fast(xs, 0.07))


def test_zero_mode_rejected_when_zero_mean_required():
    with pytest.raises(ConfigError, match="zero mean"):
        parse_config("mode = cos 0 poly 1 2\nmode = cos 1 poly 1 2\n")
    # the averaging table has no such restriction
    cfg = parse_config("mode = cos 0 poly 1 2\n", require_zero_mean=False)
    assert not cfg.build_potential().has_zero_mean


def test_eps_ordering_is_enforced():
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config("mode = cos 1 poly 1 2\neps = 0.05 0.1\n")


def test_all_problems_reported_at_once():
    text = "mode = cos 1 bogus 1 2\neps = 0.5 0.9\nunknown_thing = 3\nmode = tan 1 poly 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    problems = err.value.problems
    assert len(problems) >= 4
    assert any("bogus" in p for p in problems)
    assert any("strictly decreasing" in p for p in problems)
    assert any("unknown key" in p for p in problems)
    assert any("tan" in p for p in problems)


def test_amplitude_accepts_complex_literals():
    cfg = parse_config("mode = cos 1 poly 100j 2\n")
    V = cfg.build_potential()
    assert not V.is_real
    k2 = compute_k2(V).value
    assert k2.real < 0


def test_duplicate_scalar_keys_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("mode = cos 1 poly 1 2\neps = 0.1\neps = 0.05\n")


def test_smooth_mode_takes_no_power():
    with pytest.raises(ConfigError, match="no power"):
        parse_config("mode = cos 1 smooth 1 3\n")
    cfg = parse_config("mode = sin 2 smooth 1.5\n")
    assert cfg.modes[0].power is None


# ---------------------------------------------------------------- records and csv


def make_record(with_num=True):
    lam_num = complex(-9.9e-7) if with_num else None
    return SweepRecord(
        eps=0.1,
        k2=complex(0.1),
        lambda_pred=complex(-1e-6),
        lambda_num=lam_num,
        rel_err=0.01 if with_num else None,
        remainder_ratio=0.5 if with_num else None,
        verdict="Exists" if with_num else "Absent",
        converged=True if with_num else None,
    )


def test_empty_record_list_gives_header_only():
    data = emit_csv([])
    assert data == (CSV_HEADER + "\n").encode()


def test_absent_record_has_empty_numeric_fields():
    data = emit_csv([make_record(with_num=False)]).decode()
    row = data.splitlines()[1]
    cells = row.split(",")
    assert cells[5] == "" and cells[6] == "" and cells[7] == "" and cells[8] == ""
    assert cells[9] == "Absent"


def test_csv_uses_lf_and_trailing_newline():
    data = emit_csv([make_record()])
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 2


def test_record_invariant_on_partial_fields():
    with pytest.raises(ValueError, match="exactly when"):
        SweepRecord(
            eps=0.1,
            k2=0.1 + 0j,
            lambda_pred=-1e-6 + 0j,
            lambda_num=None,
            rel_err=0.5,
            remainder_ratio=None,
            verdict="Exists",
            converged=True,
        )


# ---------------------------------------------------------------- sweeps


def test_run_sweep_canonical_records():
    cfg = parse_config(CANONICAL_TEXT)
    records, summary = run_sweep(cfg)
    assert len(records) == 3
    k2 = compute_k2(cfg.build_potential()).value
    for r in records:
        assert r.k2 == k2
        assert r.verdict == "Exists"
        assert r.converged
        assert r.lambda_num is not None
        assert r.lambda_pred == pytest.approx(predict_lambda(k2, r.eps), rel=1e-15)
    assert 3.8 < summary.slope < 4.3
    assert summary.ratio_spread >= 1.0


def test_run_sweep_absent_branch():
    cfg = parse_config("mode = cos 1 poly 100j 2\neps = 0.1 0.05\n")
    records, summary = run_sweep(cfg)
    for r in records:
        assert r.verdict == "Absent"
        assert r.lambda_num is None
        assert r.converged  # absence confirmed is a successful outcome
    assert summary.slope is None


def test_solve_record_reports_solver_errors_and_lets_bugs_through(monkeypatch):
    V = canonical_potential()
    k2 = compute_k2(V).value

    def raising(exc):
        def find_bound_state(*args, **kwargs):
            raise exc

        return find_bound_state

    monkeypatch.setattr(solver, "find_bound_state", raising(ValueError("no admissible root")))
    record = _solve_record(V, 0.1, k2, "Exists", True, solver.DEFAULT_SOLVER)
    assert record.converged is False and record.lambda_num is None
    monkeypatch.setattr(solver, "find_bound_state", raising(TypeError("a programming error")))
    with pytest.raises(TypeError, match="programming error"):
        _solve_record(V, 0.1, k2, "Exists", True, solver.DEFAULT_SOLVER)


# ---------------------------------------------------------------- CLI


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_sweep_is_byte_deterministic(tmp_path):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    code1, out1 = run_cli(tmp_path, "sweep", "--config", cfgp)
    code2, out2 = run_cli(tmp_path, "sweep", "--config", cfgp)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith(CSV_HEADER.encode())
    assert b"# slope=" in out1


def test_cli_k2_table(tmp_path):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    code, out = run_cli(tmp_path, "k2", "--config", cfgp)
    assert code == 0
    text = out.decode()
    assert text.startswith("quantity,value\n")
    assert "classification,Exists" in text
    assert "flagged,0" in text


def test_cli_solve_exit_codes(tmp_path):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    code, out = run_cli(tmp_path, "solve", "--config", cfgp)
    assert code == 0
    assert b"Exists,1" in out


def test_cli_config_error_exits_two(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, "mode = cos 0 poly 1 2\neps = 0.1\n")
    code = main(["sweep", "--config", cfgp])
    assert code == 2
    assert "zero mean" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("line", ["mode = cos 1 poly {} 2", "support = 0 {}"], ids=["amplitude", "support"])
def test_cli_non_finite_number_exits_two(tmp_path, capsys, line, value):
    text = "mode = cos 1 poly 100 2\n" if line.startswith("support") else ""
    cfgp = write_cfg(tmp_path, text + line.format(value) + "\neps = 0.1\n")
    code = main(["sweep", "--config", cfgp])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_cli_missing_config_exits_two(tmp_path, capsys):
    code = main(["k2", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_cli_points_per_period_override_changes_the_solve(tmp_path):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    _, coarse = run_cli(tmp_path, "solve", "--config", cfgp)
    _, fine = run_cli(tmp_path, "solve", "--config", cfgp, "--points-per-period", "80")
    assert coarse != fine  # discretization moved the numeric eigenvalue
    # but the predicted columns are identical
    assert coarse.split(b",")[:5] == fine.split(b",")[:5]


def test_cli_points_per_period_below_the_floor_exits_two(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    code, out = run_cli(tmp_path, "k2", "--config", cfgp, "--points-per-period", "19")
    assert (code, out) == (2, b"")
    assert "--points-per-period must be at least 20" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "gauge-check", "keps"])
def test_cli_grid_past_the_resolution_budget_exits_two(tmp_path, capsys, command):
    # eps = 1e-12 asks for about 4e13 steps or points: refused before anything is allocated
    cfgp = write_cfg(tmp_path, "mode = cos 1 poly 100 2\nsupport = 0 1\neps = 1e-12\n")
    code, out = run_cli(tmp_path, command, "--config", cfgp)
    assert (code, out) == (2, b"")
    assert "resolution budget exceeded" in capsys.readouterr().err


def test_cli_scan_counts_one_root(tmp_path):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    code, out = run_cli(tmp_path, "scan", "--config", cfgp)
    assert code == 0
    assert b"# count=1" in out


def test_cli_lemma_table(tmp_path):
    cfgp = write_cfg(tmp_path, "mode = cos 1 smooth 1\neps = 0.1 0.05 0.025 0.0125\n")
    code, out = run_cli(tmp_path, "lemma", "--config", cfgp)
    assert code == 0
    text = out.decode()
    assert text.startswith("eps,remainder\n")
    assert "# fitted_order=" in text


def test_cli_gauge_check_table(tmp_path):
    cfgp = write_cfg(tmp_path, "mode = cos 1 poly 100 2\neps = 0.1\n")
    code, out = run_cli(tmp_path, "gauge-check", "--config", cfgp)
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "probe,residual"
    assert len(lines) == 12  # 10 probes + header + max comment
    assert lines[-1].startswith("# max_residual=")


def test_cli_keps_chain(tmp_path):
    cfgp = write_cfg(tmp_path, "mode = cos 1 poly 100 2\neps = 0.025 0.0125 0.00625\n")
    code, out = run_cli(tmp_path, "keps", "--config", cfgp)
    assert code == 0
    text = out.decode()
    assert text.startswith("eps,m1_re,m1_im,m2_re,m2_im,keps_re,keps_im\n")
    assert "# c2_re=" in text and "# k2_re=" in text


def test_cli_k2_runs_without_importing_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh interpreter running k2 never loads scipy
    src = Path(oscispec.__file__).resolve().parents[1]
    cfgp = Path(__file__).resolve().parents[1] / "configs" / "two_mode.cfg"
    script = (
        "import sys, oscispec, oscispec.cli\n"
        f"code = oscispec.cli.main(['k2', '--config', {str(cfgp)!r}, '--out', {str(tmp_path / 'k2.csv')!r}])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "False"]
    assert (tmp_path / "k2.csv").read_text().startswith("quantity,value\n")
