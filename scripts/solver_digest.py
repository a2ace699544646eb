"""One SHA-256 line over the library's numeric outputs, for comparing two checkouts.

    python3 scripts/solver_digest.py [CHECKOUT]

imports ``oscispec`` from CHECKOUT's ``src`` (default: the checkout holding
this script) and feeds every output below, bit for bit, into one digest:

* ``compute_k2`` of each potential;
* ``find_bound_state``, ``min_mismatch_on_disk`` (eps >= 0.01, and 1e-3
  times i, where a batch of the contour holds one kappa) and
  ``transfer_matrix`` at a real and a complex lambda, on the canonical and
  two-mode configs times 1, i, e^{0.3i} and e^{0.8i}, at eps 0.1, 0.07, 0.01
  and 1e-3;
* ``min_mismatch_on_disk`` from a 4-point contour, which it must refine, on
  the canonical config times 1 and i at eps 0.1;
* the arrays ``mismatch`` returns on the disk's contour, on the canonical
  and two-mode configs times i at eps 0.1 and 1e-3, so that a last-bit move
  in a contour sample shows even where the disk's floor does not move;
* a ``_CoefficientGrid``'s stage samples and step-map coefficients, on the
  canonical and two-mode configs times 1 and i at eps 0.1, 0.07 (a partial
  last step) and 1e-3, so that a sampling change shows even where no root
  moves;
* the mismatches of one grid per real config at eps 0.1, taken in turn at a
  real kappa, a complex one, batches of 1, 10 (real) and 6 kappas and the
  real kappa again, so that each call's result shows whatever the grid's
  earlier calls left behind;
* ``scan_roots``, ``count_below``, ``eigenfunction`` and ``compute_k_eps`` on
  the two real configs, and ``convergence_study``;
* ``find_bound_state`` and ``scan_roots`` on the canonical potential at
  amplitudes 0.03, 1e4, 3e4 and 1e5;
* ``scan_roots`` and ``find_bound_state`` at eps 0.1 and 0.035 on three
  real multi-harmonic potentials built here: two poly envelopes on offset
  supports, two smooth envelopes on disjoint supports, and three harmonics
  mixing both kinds;
* ``count_below`` and ``scan_roots`` on square wells of depth 2, 30, 100 and
  400, and ``find_bound_state`` on a bracket across which the mismatch
  changes sign and on one across which it does not;
* ``transfer_matrix`` at both lambdas with a step off the phase table's
  lattice (h = 0.07 / 37.5) on the canonical config times 1 and i, and on
  an empty support hull (two cancelling mode lines);
* ``count_below`` at five kappas on a well of depth (2.4 / 0.05)^2 at
  h = 0.05, where h sqrt(sup|V|) = 2.4 lies just inside the step bound
  sqrt 6;
* back-to-back solves in one process on grids of 60k, 400, 40k and 60k
  steps (two-mode and canonical at eps 1e-3 and 0.1), each grid kept alive
  while the next is built and solved, and every kept grid's mismatch, count
  and arrays taken again at the end, so that whatever one grid's arrays
  leave in memory that a later grid reuses shows in the digest.

Two checkouts compute the same outputs exactly when

    python3 scripts/solver_digest.py OTHER
    python3 scripts/solver_digest.py

print the same line.  A call that raises is named on stderr and the script
then exits 1, so two checkouts that crash alike never compare equal.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import sys
import traceback
from pathlib import Path

import numpy as np

ROTATIONS = {"1": 1.0, "i": 1j, "e^0.3i": cmath.exp(0.3j), "e^0.8i": cmath.exp(0.8j)}
EPSILONS = (0.1, 0.07, 0.01, 1e-3)
LAMBDAS = (-0.01, -0.01 + 0.004j)


def feed(h, value) -> None:
    """Hash a value exactly: arrays by dtype, shape and bytes, dataclasses field by field, scalars by repr."""
    if dataclasses.is_dataclass(value):
        value = (type(value).__name__, *((f.name, getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode() + value.tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            feed(h, item)
        h.update(b")")
    else:
        h.update(repr(value).encode() + b";")


def calls(root: Path):
    """(label, thunk) for every output, in a fixed order."""
    from oscispec import asymptotics as asym
    from oscispec import config, potentials, solver

    def at_root(V, eps):
        return solver.eigenfunction(V, eps, solver.find_bound_state(V, eps).kappa)

    def refined_disk(U, eps):
        points = solver._CONTOUR_POINTS
        solver._CONTOUR_POINTS = 4
        try:
            return solver.min_mismatch_on_disk(U, eps)
        finally:
            solver._CONTOUR_POINTS = points

    def disk_samples(U, eps):
        """The floor, then every array ``_CoefficientGrid.mismatch`` returns during the disk call."""
        one_call, samples = solver._CoefficientGrid.mismatch, []

        def recorded(grid, kappa):
            f = one_call(grid, kappa)
            samples.append(f)
            return f

        solver._CoefficientGrid.mismatch = recorded
        try:
            return solver.min_mismatch_on_disk(U, eps), samples
        finally:
            solver._CoefficientGrid.mismatch = one_call

    def grid_arrays(U, eps):
        """The stage samples (start, middle, end) and the step-map coefficients of a solve's grid."""
        grid = solver._CoefficientGrid(U, eps, eps / solver.DEFAULT_SOLVER.points_per_fast_period)
        return grid.a, grid.coefficients

    def one_grid(V):
        """One grid's mismatches at eps 0.1 in turn, batches of every size and dtype interleaved with single kappas."""
        grid = solver._CoefficientGrid(V, 0.1, 0.1 / solver.DEFAULT_SOLVER.points_per_fast_period)
        zs = np.linspace(0.02, 0.9, 10) * cmath.exp(0.4j)
        return [grid.mismatch(kappa) for kappa in (0.3, 0.2 + 0.05j, zs[:1], zs.real, zs[:6], 0.3)]

    def harmonics(*parts):
        """The real potential summing ``make(n, profile)``, a cosine or sine harmonic, over (make, n, profile)."""
        return potentials.TwoScaleFunction(
            modes={k: c for make, n, profile in parts for k, c in make(n, profile).modes.items()}
        )

    real = {
        name: config.load_config(str(root / "configs" / f"{name}.cfg")).build_potential()
        for name in ("canonical", "two_mode")
    }

    for name, V in real.items():
        for rot_name, rot in ROTATIONS.items():
            U = V.scaled(rot)
            label = f"{name}*{rot_name}"
            yield f"k2 {label}", lambda U=U: asym.compute_k2(U)
            for eps in EPSILONS:
                yield f"find {label} {eps}", lambda U=U, eps=eps: solver.find_bound_state(U, eps)
                if eps >= 0.01 or rot_name == "i":
                    yield f"disk {label} {eps}", lambda U=U, eps=eps: solver.min_mismatch_on_disk(U, eps)
                for lam in LAMBDAS:
                    h = eps / solver.DEFAULT_SOLVER.points_per_fast_period
                    yield f"tm {label} {eps} {lam}", lambda U=U, eps=eps, lam=lam, h=h: solver.transfer_matrix(
                        U, eps, lam, h
                    )

    for rot_name in ("1", "i"):
        U = real["canonical"].scaled(ROTATIONS[rot_name])
        yield f"refined disk canonical*{rot_name}", lambda U=U: refined_disk(U, 0.1)
    for name, V in real.items():
        for eps in (0.1, 1e-3):
            U = V.scaled(ROTATIONS["i"])
            yield f"disk samples {name}*i {eps}", lambda U=U, eps=eps: disk_samples(U, eps)
    for name, V in real.items():
        for rot_name in ("1", "i"):
            U = V.scaled(ROTATIONS[rot_name])
            for eps in (0.1, 0.07, 1e-3):
                yield f"grid {name}*{rot_name} {eps}", lambda U=U, eps=eps: grid_arrays(U, eps)
        yield f"one grid {name}", lambda V=V: one_grid(V)

    for name, V in real.items():
        for eps in EPSILONS:
            yield f"scan {name} {eps}", lambda V=V, eps=eps: solver.scan_roots(V, eps)
            h = eps / solver.DEFAULT_SOLVER.points_per_fast_period
            yield f"count {name} {eps}", lambda V=V, eps=eps, h=h: solver._CoefficientGrid(V, eps, h).count_below(0.05)
            yield f"eigenfunction {name} {eps}", lambda V=V, eps=eps: at_root(V, eps)
            yield f"keps {name} {eps}", lambda V=V, eps=eps: asym.compute_k_eps(V, eps)
        yield f"convergence {name}", lambda V=V: solver.convergence_study(V, 0.1)

    for amplitude in (0.03, 1e4, 3e4, 1e5):
        V = potentials.canonical_potential(amplitude=amplitude)
        for eps in (0.1, 0.05, 0.035):
            yield f"find canonical@{amplitude} {eps}", lambda V=V, eps=eps: solver.find_bound_state(V, eps)
            yield f"scan canonical@{amplitude} {eps}", lambda V=V, eps=eps: solver.scan_roots(V, eps)

    cos, sin = potentials.TwoScaleFunction.from_cosine, potentials.TwoScaleFunction.from_sine
    poly, smooth = potentials.poly_bump, potentials.smooth_bump
    mixed = {
        "offset poly": harmonics((cos, 1, poly(120.0, 2, (0.0, 1.0))), (sin, 2, poly(80.0, 3, (0.3, 1.4)))),
        "disjoint smooth": harmonics((cos, 1, smooth(30.0, (0.0, 0.6))), (sin, 3, smooth(20.0, (0.9, 1.5)))),
        "three harmonics": harmonics(
            (cos, 1, poly(150.0, 2, (0.0, 1.0))), (sin, 2, smooth(40.0, (0.2, 0.9))), (cos, 3, poly(30.0, 1, (0.5, 1.2)))
        ),
    }
    for name, V in mixed.items():
        for eps in (0.1, 0.035):
            yield f"scan {name} {eps}", lambda V=V, eps=eps: solver.scan_roots(V, eps)
            yield f"find {name} {eps}", lambda V=V, eps=eps: solver.find_bound_state(V, eps)

    for depth in (2.0, 30.0, 100.0, 400.0):
        well = solver.SquareWell(depth=depth)
        yield f"well count {depth}", lambda w=well: solver._CoefficientGrid(w, 0.1, 0.1 / 40).count_below(1e-9)
        yield f"well scan {depth}", lambda w=well: solver.scan_roots(w, 0.1)
    for depth, bracket in ((2.0, (0.1, 1.2)), (30.0, (4.0, 5.4)), (30.0, (0.01, 0.02))):
        well = solver.SquareWell(depth=depth)
        yield f"well find {depth} {bracket}", lambda w=well, b=bracket: solver.find_bound_state(w, 0.1, bracket=b)

    for rot_name in ("1", "i"):
        U = real["canonical"].scaled(ROTATIONS[rot_name])
        yield f"tm off lattice canonical*{rot_name}", lambda U=U: [
            solver.transfer_matrix(U, 0.07, lam, 0.07 / 37.5) for lam in LAMBDAS
        ]
    empty = config.parse_config("mode = cos 1 poly 100 2\nmode = cos 1 poly -100 2\n").build_potential()
    yield "tm empty hull", lambda: [solver.transfer_matrix(empty, 0.1, lam, 0.1 / 40) for lam in LAMBDAS]
    deep = solver.SquareWell(depth=(2.4 / 0.05) ** 2)
    yield "count deep well", lambda: [
        solver._CoefficientGrid(deep, 1.0, 0.05).count_below(k) for k in (1e-3, 10.0, 20.0, 40.0, 47.0)
    ]
    yield "back to back", lambda: back_to_back(real)


def back_to_back(real):
    """Solves on grids of 60k, 400, 40k and 60k steps in turn, each grid kept while the next is built,
    then every grid's mismatch, count and arrays again."""
    from oscispec import asymptotics as asym
    from oscispec import solver

    out, kept = [], []
    for name, eps in (("two_mode", 1e-3), ("canonical", 0.1), ("canonical", 1e-3), ("two_mode", 1e-3)):
        V = real[name]
        grid = solver._CoefficientGrid(V, eps, eps / solver.DEFAULT_SOLVER.points_per_fast_period)
        kappa = solver.find_bound_state(V, eps, k2_hint=asym.compute_k2(V).value).kappa.real
        out.append((grid.mismatch(kappa), grid.count_below(kappa), grid.mismatch(np.array([kappa, 2 * kappa]))))
        kept.append((grid, kappa))
    for grid, kappa in kept:
        out.append((grid.mismatch(kappa), grid.count_below(kappa), grid.a, grid.coefficients, grid.steps))
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    h = hashlib.sha256()
    failed = []
    for label, thunk in calls(root):
        h.update(label.encode() + b"=")
        try:
            feed(h, thunk())
        except Exception:
            failed.append(label)
            h.update(traceback.format_exc().encode())
    print(h.hexdigest())
    for label in failed:
        print(f"raised: {label}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
