import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "root_drift.py"


def load_script():
    spec = importlib.util.spec_from_file_location("root_drift", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_against_itself_shows_no_drift(capsys):
    # both runs solve the same set on the same src: no flip, no move, the same work, exit 0
    assert load_script().main([str(ROOT)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:5] == ["family", "solves", "flips", "converged", "raised"]
    assert [row.split()[0] for row in rows] == ["sweep_deep", "rotations", "amplitudes", "near-axis"]
    assert [int(row.split()[1]) for row in rows] == [128, 70, 15, 3]
    for row in rows:
        _, _, flips, converged, raised, real, complex_rel, before, _, after = row.split()
        assert (flips, converged, raised, float(real), float(complex_rel)) == ("0", "0", "0", 0.0, 0.0)
        assert before == after


def test_a_flip_or_a_raise_fails_the_comparison():
    # an outcome flip, a converged flip and a solve that raised each make the comparison fail
    compare = load_script().compare
    solves = [{"family": "f"}]
    root = [0.1, 0.0, 1e-15, True, 3, True]
    assert compare(solves, [root], [root])[1] is False
    for ours in (None, [*root[:3], False, *root[4:]], "ValueError: refused"):
        assert compare(solves, [root], [ours])[1] is True
