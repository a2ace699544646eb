"""How far ``find_bound_state``'s roots move between two checkouts, and whether any outcome flips.

    python3 scripts/root_drift.py OTHER

generates one fixed set of solves and runs it twice, each time in a fresh
interpreter: once on OTHER's ``src`` and once on the ``src`` of the checkout
holding this script.  The set, by family:

* ``sweep_deep``: the benchmark's sweep_deep pool of seed 1, 128 records on
  the two shipped configs at eps 1e-3 to 0.1, each solved at its config's
  points per period with k2 as the hint;
* ``rotations``: both shipped configs times 1, e^{0.3i}, e^{0.8i}, e^{1.2i}
  and i, at eps 0.1, 0.07, 0.05, 0.035, 0.025, 0.01 and 1e-3;
* ``amplitudes``: the canonical potential at amplitudes 0.03, 1e3, 1e4, 3e4
  and 1e5, at eps 0.1, 0.05 and 0.035;
* ``near-axis``: three complex roots just right of Re kappa = 0, item 30
  of the benchmark's asym_batch pool of seed 2 at eps 0.1, and item 59 of
  the seed-3 pool times i at eps 0.1 and 0.05.

Per family it prints the number of solves, the outcome flips (a root on one
side and none on the other), the ``converged`` flips, the largest real
|d kappa| / (1e-17 + 1e-12 kappa), in which two solves that stop within
Brent's relative step of one root stay below 2, the largest complex
|d kappa| / |kappa|, and the work (``iterations``) summed on each side,
OTHER first.  It exits 1 on any flip, or when a solve raises on either side.
"""

from __future__ import annotations

import cmath
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROTATIONS = (1.0, cmath.exp(0.3j), cmath.exp(0.8j), cmath.exp(1.2j), 1j)
EPSILONS = (0.1, 0.07, 0.05, 0.035, 0.025, 0.01, 1e-3)


def fixed_set() -> list[dict]:
    """Every solve as plain data: family, potential, eps and the points per period (None: the default)."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_inputs

    configs = [str(ROOT / rel) for rel in bench_inputs.CONFIGS]
    solves = [
        {"family": "sweep_deep", "potential": {"config": configs[item["config"]]}, "eps": item["eps"], "points": True}
        for item in bench_inputs.sweep_items(1)
    ]
    solves += [
        {"family": "rotations", "potential": {"config": config, "rotation": [r.real, r.imag]}, "eps": eps}
        for config in configs
        for r in map(complex, ROTATIONS)
        for eps in EPSILONS
    ]
    solves += [
        {"family": "amplitudes", "potential": {"amplitude": amplitude}, "eps": eps}
        for amplitude in (0.03, 1e3, 1e4, 3e4, 1e5)
        for eps in (0.1, 0.05, 0.035)
    ]
    for seed, item, rotation, eps in ((2, 30, 1.0, 0.1), (3, 59, 1j, 0.1), (3, 59, 1j, 0.05)):
        modes = bench_inputs.asym_items(seed)[item]["modes"]
        rotation = [complex(rotation).real, complex(rotation).imag]
        solves.append({"family": "near-axis", "potential": {"modes": modes, "rotation": rotation}, "eps": eps})
    return solves


def build(spec: dict):
    """A potential spec's potential, through the public API of the checkout on sys.path."""
    import oscispec as osc

    if "config" in spec:
        V = osc.load_config(spec["config"]).build_potential()
    elif "amplitude" in spec:
        V = osc.canonical_potential(amplitude=spec["amplitude"])
    else:
        V = None
        for m in spec["modes"]:
            support, amps = tuple(m["support"]), [complex(re, im) for re, im in m["amplitudes"]]

            def bump(amplitude, m=m, support=support):
                if m["kind"] == "poly":
                    return osc.poly_bump(amplitude, m["power"], support)
                return osc.smooth_bump(amplitude, support)

            if m["form"] == "cos":
                piece = osc.TwoScaleFunction.from_cosine(m["n"], bump(amps[0]))
            elif m["form"] == "sin":
                piece = osc.TwoScaleFunction.from_sine(m["n"], bump(amps[0]))
            else:
                piece = osc.TwoScaleFunction(modes={m["n"]: bump(amps[0]), -m["n"]: bump(amps[1])})
            V = piece if V is None else osc.combine(V, piece, 1.0, 1.0)
    return V.scaled(complex(*spec["rotation"])) if "rotation" in spec else V


def solve_all(solves: list[dict]) -> list:
    """Per solve [Re kappa, Im kappa, |F|, converged, iterations, real potential], None for no root, or the error."""
    import oscispec as osc

    potentials, out = {}, []
    for solve in solves:
        key = json.dumps([solve["potential"], solve.get("points")], sort_keys=True)
        if key not in potentials:
            V = build(solve["potential"])
            points = osc.load_config(solve["potential"]["config"]).points_per_period if solve.get("points") else None
            potentials[key] = V, osc.compute_k2(V).value, osc.SolverConfig(points) if points else osc.SolverConfig()
        V, k2, cfg = potentials[key]
        try:
            res = osc.find_bound_state(V, solve["eps"], k2_hint=k2, cfg=cfg)
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        out.append(None if res is None else [
            res.kappa.real, res.kappa.imag, res.mismatch_residual, res.converged, res.iterations, V.is_real
        ])
    return out


def run(checkout: Path, solves: list[dict]) -> list:
    """``solve_all`` on checkout's ``src`` in a fresh interpreter."""
    argv = [sys.executable, __file__, "--solve", str(checkout / "src")]
    done = subprocess.run(argv, input=json.dumps(solves), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare(solves: list[dict], theirs: list, ours: list) -> tuple[list[str], bool]:
    """The report's lines, and whether any outcome or ``converged`` flag flipped or any solve raised."""
    families: dict[str, dict] = {}
    for solve, a, b in zip(solves, theirs, ours):
        row = families.setdefault(solve["family"], dict(solves=0, flips=0, converged=0, real=0.0, complex=0.0,
                                                       raised=0, work=[0, 0]))
        row["solves"] += 1
        if isinstance(a, str) or isinstance(b, str):
            row["raised"] += 1
            continue
        if (a is None) != (b is None):
            row["flips"] += 1
            continue
        if a is None:
            continue
        row["converged"] += a[3] != b[3]
        row["work"][0] += a[4]
        row["work"][1] += b[4]
        ka, kb = complex(a[0], a[1]), complex(b[0], b[1])
        if a[5]:
            row["real"] = max(row["real"], abs(kb.real - ka.real) / (1e-17 + 1e-12 * abs(ka.real)))
        else:
            row["complex"] = max(row["complex"], abs(kb - ka) / abs(ka))
    lines = [f"{'family':<12}{'solves':>7}{'flips':>7}{'converged':>10}{'raised':>7}"
             f"{'real units':>12}{'complex rel':>13}{'work':>14}"]
    for name, r in families.items():
        lines.append(f"{name:<12}{r['solves']:>7}{r['flips']:>7}{r['converged']:>10}{r['raised']:>7}"
                     f"{r['real']:>12.3g}{r['complex']:>13.3g}{'%d -> %d' % tuple(r['work']):>14}")
    bad = any(r["flips"] or r["converged"] or r["raised"] for r in families.values())
    return lines, bad


def main(argv: list[str]) -> int:
    if argv[:1] == ["--solve"]:
        sys.path.insert(0, argv[1])
        json.dump(solve_all(json.load(sys.stdin)), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    solves = fixed_set()
    lines, bad = compare(solves, run(Path(argv[0]).resolve(), solves), run(ROOT, solves))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
