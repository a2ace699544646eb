import importlib.util
import re
import sys
from pathlib import Path

from oscispec import solver

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "solver_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("solver_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_call_that_raises_fails_the_digest(monkeypatch, capsys):
    # every solver call raises: the line still prints, each failed call is named, then exit 1
    def refuse(*args):
        raise RuntimeError("broken solver")

    monkeypatch.setattr(solver, "_CoefficientGrid", refuse)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert load_script().main([str(ROOT)]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    raised = captured.err.splitlines()
    assert "raised: find canonical*1 0.1" in raised and "raised: well find 30.0 (0.01, 0.02)" in raised
    assert not any(line.startswith(("raised: k2 ", "raised: keps ")) for line in raised)


def test_every_hashed_call_runs_through(monkeypatch, capsys):
    # on the library as it stands no call raises: one digest line, nothing on stderr, exit 0
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert load_script().main([str(ROOT)]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"[0-9a-f]{64}\n", captured.out)
    assert captured.err == ""
