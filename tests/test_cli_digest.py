import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_whose_cli_crashes_fails_the_digest(tmp_path, capsys):
    # 16 runs of a package without numpy whose CLI raises: every line still prints, then exit 1
    package = tmp_path / "src" / "oscispec"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("raise RuntimeError('broken checkout')\n")
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "x.cfg").write_text("mode = cos 1 poly 100 2\neps = 0.1\n")
    cli_digest = load_script()
    assert cli_digest.main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert [line.split("  ")[1] for line in captured.out.splitlines()] == [
        f"{command} x.cfg" for command in cli_digest.COMMANDS
    ]
    assert captured.err.splitlines() == [
        f"undocumented exit code: {command} x.cfg{extra}: exit 1"
        for command in cli_digest.COMMANDS
        for extra in ("", " --out")
    ]
