"""Correctness checks applied to every benchmark item.

Each check returns a list of failure messages; an empty list means the item
is correct.  The tolerances come from documented properties (the acceptance
criteria in tests/test_acceptance.py and the solver's own root tolerance)
and are fixed here, not tuned to measured results.
"""

from __future__ import annotations

# |lam_num - lam_pred| / eps^5 is documented between 0.002 and 0.097 for the
# canonical potential; the bound sits two orders of magnitude above, so it
# catches an eigenvalue that misses the eps^4 law, not the eps^5 remainder.
REMAINDER_RATIO_MAX = 10.0
# criterion 6: real potentials give real k2 up to round-off
IM_REL_MAX = 1e-12
# k2 is a sum of products of two envelopes, so rotating V by i negates it
ROTATION_REL_TOL = 1e-12
# criterion 5: the disk floor must sit an order above the root tolerance
DISK_FLOOR_FACTOR = 10.0


def remainder_ratio(lam_num: complex, lam_pred: complex, eps: float) -> float:
    return abs(lam_num - lam_pred) / eps**5


def check_sweep(verdict: str, result, lam_pred: complex, eps: float) -> list[str]:
    """One sweep record: verdict Exists, a converged root, a bounded remainder."""
    failures = []
    if verdict != "Exists":
        failures.append(f"verdict {verdict}, expected Exists")
    if result is None:
        return failures + ["no bound state found"]
    if not result.converged:
        failures.append(f"not converged (|F| = {result.mismatch_residual:.3e})")
    ratio = remainder_ratio(result.eigenvalue, lam_pred, eps)
    if not ratio <= REMAINDER_RATIO_MAX:
        failures.append(f"remainder ratio {ratio:.3e} exceeds {REMAINDER_RATIO_MAX}")
    return failures


def check_scan(
    canonical: bool,
    count: int,
    root_residuals: list[float],
    rotation_root,
    disk_floor: float,
    root_tol: float,
) -> list[str]:
    """One scan: canonical count 1, roots re-verified, rotation root-free."""
    failures = []
    if canonical and count != 1:
        failures.append(f"canonical root count {count}, expected 1")
    for residual in root_residuals:
        if not residual <= root_tol:
            failures.append(f"scan root has |F| = {residual:.3e} > {root_tol:.1e}")
    if rotation_root is not None:
        failures.append(f"imaginary rotation has a root at kappa = {rotation_root.kappa}")
    if not disk_floor > DISK_FLOOR_FACTOR * root_tol:
        failures.append(f"rotation disk floor {disk_floor:.3e} <= {DISK_FLOOR_FACTOR:g} * root_tol")
    return failures


def check_asym(report, is_real: bool, rotated_k2: complex) -> list[str]:
    """One mode set: routes agree, real sets give real positive k2, k2(iV) = -k2(V)."""
    failures = []
    k2 = complex(report.value)
    if report.flagged:
        failures.append(f"k2 routes disagree: agreement {report.agreement:.3e}")
    if is_real:
        if not k2.real > 0:
            failures.append(f"real set has Re k2 = {k2.real:.6e} <= 0")
        if not abs(k2.imag) <= IM_REL_MAX * abs(k2):
            failures.append(f"real set has |Im k2|/|k2| = {abs(k2.imag) / abs(k2):.3e}")
    if not abs(complex(rotated_k2) + k2) <= ROTATION_REL_TOL * abs(k2):
        failures.append(f"k2(iV) = {rotated_k2} is not -k2(V) = {-k2}")
    return failures


def check_cli(returncode: int, output: bytes, reference: bytes) -> list[str]:
    """One fresh CLI call: exit code 0 and the same bytes as in-process main()."""
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    if output != reference:
        failures.append(f"output differs from in-process main() ({len(output)} vs {len(reference)} bytes)")
    return failures
