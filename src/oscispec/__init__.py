"""Emerging spectral-edge eigenvalues of fast-oscillating Schrodinger potentials.

Two halves, deliberately independent: an asymptotic side that computes the
k2 constant and the eps^4 eigenvalue prediction from the two-scale data, and
a direct transfer-matrix solver that locates (or certifies the absence of)
the bound state without using the asymptotics.  The CLI ties them together
in deterministic CSV sweeps.

``import oscispec`` loads no submodule: each public name is imported from
its submodule the first time it is used (PEP 562).
"""

from importlib import import_module

# submodule -> the public names it defines
_SUBMODULES = {
    "asymptotics": (
        "Existence K2Report KEpsReport classify_existence compute_k2 compute_k_eps "
        "fit_k_eps_coefficients predict_lambda"
    ),
    "averaging": "DecayFit decay_order_fit oscillatory_integral",
    "config": "ConfigError ExperimentConfig ModeSpec load_config parse_config",
    "gauge": "GaugeData TestFunction build_gauge default_catalog identity_residual",
    "potentials": (
        "SlowProfile TwoScaleFunction build_corrector canonical_potential combine p_transform poly_bump smooth_bump"
    ),
    "solver": (
        "BoundStateResult ConvergenceStudy ScanResult SolverConfig SquareWell convergence_study eigenfunction "
        "find_bound_state min_mismatch_on_disk mismatch scan_roots transfer_matrix"
    ),
}
_ORIGIN = {name: module for module, names in _SUBMODULES.items() for name in names.split()}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
