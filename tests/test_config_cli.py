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
    _COMMANDS,
    _cell,
    _csv,
    _solve_record,
    emit_csv,
    main,
    run_sweep,
)
from oscispec.config import ConfigError, parse_config
from oscispec.potentials import canonical_potential

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

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


def test_two_equal_shape_lines_at_one_frequency_sum_their_envelopes():
    # combine merges the two cos 1 lines into one envelope of twice the amplitude
    two = parse_config("mode = cos 1 poly 100 2\nmode = cos 1 poly 100 2\n").build_potential()
    one = parse_config("mode = cos 1 poly 200 2\n").build_potential()
    assert two.modes == one.modes and set(two.modes) == {1, -1}


def test_exp_modes_at_plus_and_minus_n_build_the_cosine():
    # exp 1 and exp -1 at 100 are the pair +-1 that cos 1 at 200 enters, so the potential is real
    pair = parse_config("mode = exp 1 poly 100 2\nmode = exp -1 poly 100 2\n").build_potential()
    cosine = parse_config("mode = cos 1 poly 200 2\n").build_potential()
    assert pair.is_real and pair.modes == cosine.modes
    assert compute_k2(pair).value == compute_k2(cosine).value


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


def test_points_per_period_below_the_floor_rejected():
    # the config key is the one route to the solver's step
    with pytest.raises(ConfigError, match="points_per_period must be at least 20, got 19"):
        parse_config("mode = cos 1 poly 1 2\npoints_per_period = 19\n")
    assert parse_config("mode = cos 1 poly 1 2\npoints_per_period = 20\n").points_per_period == 20


REJECTED_LINES = [
    ("mode = cos 1 poly", True, "mode needs 'form n kind amplitude [power]', got 3 fields"),
    ("mode = cos one poly 1 2", True, "mode number 'one' is not an integer"),
    ("mode = sin 0 poly 1 2", False, "a sin mode with n = 0 vanishes identically"),
    ("mode = cos 1 poly big 2", True, "amplitude 'big' is not a number"),
    ("mode = cos 1 poly 1 2.5", True, "power '2.5' is not an integer"),
    ("mode = cos 1 poly 1 0", True, "power must be at least 1, got 0"),
    ("support 0 1", True, "expected 'key = value', got 'support 0 1'"),
    ("support = 0 1 2", True, "support needs two endpoints"),
    ("support = 0 one", True, "support endpoints must be numbers"),
    ("support = 1 1", True, "support must satisfy left < right"),
    ("eps = 0.1 small", True, "eps value 'small' is not a number"),
    ("eps = 1.5", True, "eps must lie in (0, 1), got 1.5"),
    ("eps =", True, "eps needs at least one value"),
    ("points_per_period = 40.5", True, "points_per_period must be an integer"),
]


@pytest.mark.parametrize("line, require_zero_mean, message", REJECTED_LINES, ids=[line for line, _, _ in REJECTED_LINES])
def test_each_rejected_line_names_its_own_problem(line, require_zero_mean, message):
    # after one valid mode line, the bad line is line 2 and the only problem
    with pytest.raises(ConfigError) as err:
        parse_config(f"mode = cos 1 poly 1 2\n{line}\n", require_zero_mean=require_zero_mean)
    assert err.value.problems == [f"line 2: {message}"]


# ---------------------------------------------------------------- records and csv


def make_record(with_num=True):
    if with_num:
        return SweepRecord(eps=0.1, k2=complex(0.1), verdict="Exists", lambda_num=complex(-9.9e-7), converged=True)
    return SweepRecord(eps=0.1, k2=complex(0.1), verdict="Absent")


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


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        (True, "1"),
        (False, "0"),
        (3, "3"),
        ("Exists", "Exists"),
        (-0.0, "0.0000000000000000e+00"),
        (0.1, "1.0000000000000001e-01"),
        (np.float64(2.5), "2.5000000000000000e+00"),
    ],
)
def test_every_printed_value_goes_through_one_rule(value, text):
    assert _cell(value) == text


def test_csv_writes_one_comment_line_per_pair_in_order():
    data = _csv("a,b", [(1, None), (0.5, False)], [("count", 2), ("floor", -0.0), ("note", "x")])
    assert data == (
        b"a,b\n1,\n5.0000000000000000e-01,0\n"
        b"# count=2\n# floor=0.0000000000000000e+00\n# note=x\n"
    )


def test_comparison_columns_exist_exactly_when_lambda_num_does():
    eps, k2 = 0.07, 0.31 - 0.02j
    lam_pred = predict_lambda(k2, eps)
    for lambda_num in (None, 0j, complex(-9.9e-7), -1.2e-6 + 3e-8j):
        record = SweepRecord(eps=eps, k2=k2, verdict="Exists", lambda_num=lambda_num, converged=False)
        assert record.lambda_pred == lam_pred
        if lambda_num is None:
            assert record.rel_err is None and record.remainder_ratio is None
        else:
            assert record.rel_err == abs(lambda_num - lam_pred) / abs(lam_pred)
            assert record.remainder_ratio == abs(lambda_num - lam_pred) / eps**5


# ---------------------------------------------------------------- sweeps


def test_run_sweep_canonical_records():
    cfg = parse_config(CANONICAL_TEXT)
    records, summary = run_sweep(cfg, cfg.build_potential())
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
    records, summary = run_sweep(cfg, cfg.build_potential())
    for r in records:
        assert r.verdict == "Absent"
        assert r.lambda_num is None
        assert r.converged  # absence confirmed is a successful outcome
    assert summary.slope is None


def test_solve_record_reports_solver_errors_and_lets_bugs_through(monkeypatch, capsys):
    V = canonical_potential()
    rep = compute_k2(V)

    def raising(exc):
        def find_bound_state(*args, **kwargs):
            raise exc

        return find_bound_state

    monkeypatch.setattr(solver, "find_bound_state", raising(ValueError("no admissible root")))
    record = _solve_record(V, 0.1, rep, solver.DEFAULT_SOLVER)
    assert record.converged is False and record.lambda_num is None
    assert capsys.readouterr().err == "eps=0.1: no admissible root\n"
    monkeypatch.setattr(solver, "find_bound_state", raising(TypeError("a programming error")))
    with pytest.raises(TypeError, match="programming error"):
        _solve_record(V, 0.1, rep, solver.DEFAULT_SOLVER)


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


@pytest.mark.parametrize("command", ["scan", "gauge-check", "keps"])
def test_cli_grid_past_the_resolution_budget_exits_two(tmp_path, capsys, command):
    # eps = 1e-12 asks for about 4e13 steps or points: refused before anything is allocated
    cfgp = write_cfg(tmp_path, "mode = cos 1 poly 100 2\nsupport = 0 1\neps = 1e-12\n")
    code, out = run_cli(tmp_path, command, "--config", cfgp)
    assert (code, out) == (2, b"")
    assert "resolution budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [("sweep", 0), ("solve", 3)])
def test_cli_solve_past_the_resolution_budget_says_why_on_stderr(tmp_path, capsys, command, code):
    # the seed eps^2 k2 lies below the kappa floor, so the search samples a grid, which is refused
    cfgp = write_cfg(tmp_path, "mode = cos 1 poly 100 2\nsupport = 0 1\neps = 1e-12\n")
    got, out = run_cli(tmp_path, command, "--config", cfgp)
    assert got == code
    assert b"Exists," in out
    assert capsys.readouterr().err.startswith("eps=1e-12: resolution budget exceeded: 40000000000000 steps")


@pytest.mark.parametrize("command", ["k2", "predict", "solve", "sweep", "scan", "lemma", "gauge-check", "keps"])
def test_cli_on_an_empty_support_names_it_and_exits_two(tmp_path, capsys, command):
    # two lines that cancel leave no mode, so no support: every command refuses before it runs
    cfgp = write_cfg(tmp_path, "mode = cos 1 poly 100 2\nmode = cos 1 poly -100 2\neps = 0.1\n")
    code, out = run_cli(tmp_path, command, "--config", cfgp)
    assert (code, out) == (2, b"")
    assert "the potential's support is empty" in capsys.readouterr().err


def test_cli_out_under_a_missing_directory_exits_two(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    target = tmp_path / "missing" / "out.csv"
    code = main(["k2", "--config", cfgp, "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert str(target) in captured.err
    assert captured.out == ""
    assert not target.exists()


def test_cli_scan_counts_one_root(tmp_path):
    cfgp = write_cfg(tmp_path, CANONICAL_TEXT)
    code, out = run_cli(tmp_path, "scan", "--config", cfgp)
    assert code == 0
    assert b"# count=1" in out


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_exits_with_a_documented_code_and_one_number_per_comment_row(tmp_path, command, config):
    # exit codes 0, 2 and 3 are the documented ones; a `# key=value` row holds one float, or nothing
    code, out = run_cli(tmp_path, command, "--config", str(CONFIG_DIR / config))
    assert code in (0, 2, 3)
    for line in out.decode().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            assert key and (value == "" or parses_as_float(value)), line


def parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


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


# what a fresh interpreter runs (an import, or a CLI command) -> the oscispec modules it loads
COLD_MODULES = {
    "import oscispec": "",
    # the solver takes nothing from the asymptotics beyond its seed, computed only when not given
    "import oscispec.solver": "potentials solver",
    "k2": "cli config potentials averaging asymptotics",
    "predict": "cli config potentials averaging asymptotics",
    "solve": "cli config potentials averaging asymptotics solver",
    "sweep": "cli config potentials averaging asymptotics solver",
    "scan": "cli config potentials solver",
    "lemma": "cli config potentials averaging",
    "gauge-check": "cli config potentials gauge",
    "keps": "cli config potentials averaging asymptotics gauge",
}


@pytest.mark.parametrize("run, modules", COLD_MODULES.items(), ids=list(COLD_MODULES))
def test_a_fresh_interpreter_loads_only_the_modules_it_runs_and_never_scipy(tmp_path, run, modules):
    # numpy is the only runtime dependency, and a cold call pays the import of no module it does not run
    src = Path(oscispec.__file__).resolve().parents[1]
    cfgp = Path(__file__).resolve().parents[1] / "configs" / "two_mode.cfg"
    out = None
    if run.startswith("import "):
        script = run
    else:
        out = tmp_path / "out.csv"
        argv = [run, "--config", str(cfgp), "--out", str(out)]
        script = f"import oscispec.cli\nassert oscispec.cli.main({argv!r}) == 0"
    script += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('oscispec.')), 'scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    *loaded, scipy_loaded = proc.stdout.split()
    assert loaded == sorted("oscispec." + m for m in modules.split())
    assert scipy_loaded == "False"
    assert out is None or out.stat().st_size > 0
