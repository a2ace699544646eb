"""Emerging spectral-edge eigenvalues of fast-oscillating Schrodinger potentials.

Two halves, deliberately independent: an asymptotic side that computes the
k2 constant and the eps^4 eigenvalue prediction from the two-scale data, and
a direct transfer-matrix solver that locates (or certifies the absence of)
the bound state without using the asymptotics.  The CLI ties them together
in deterministic CSV sweeps.
"""

from .asymptotics import (
    Existence,
    K2Report,
    KEpsReport,
    classify_existence,
    compute_k2,
    compute_k_eps,
    fit_k_eps_coefficients,
    predict_lambda,
)
from .averaging import DecayFit, decay_order_fit, oscillatory_integral
from .config import ConfigError, ExperimentConfig, ModeSpec, load_config, parse_config
from .gauge import GaugeData, TestFunction, build_gauge, default_catalog, identity_residual
from .potentials import (
    SlowProfile,
    TwoScaleFunction,
    build_corrector,
    canonical_potential,
    combine,
    p_transform,
    poly_bump,
    smooth_bump,
)
from .solver import (
    BoundStateResult,
    ConvergenceStudy,
    ScanResult,
    SolverConfig,
    SquareWell,
    convergence_study,
    eigenfunction,
    find_bound_state,
    min_mismatch_on_disk,
    mismatch,
    scan_roots,
    transfer_matrix,
)

__all__ = [
    "BoundStateResult",
    "ConfigError",
    "ConvergenceStudy",
    "DecayFit",
    "Existence",
    "ExperimentConfig",
    "GaugeData",
    "K2Report",
    "KEpsReport",
    "ModeSpec",
    "ScanResult",
    "SlowProfile",
    "SolverConfig",
    "SquareWell",
    "TestFunction",
    "TwoScaleFunction",
    "build_corrector",
    "build_gauge",
    "canonical_potential",
    "classify_existence",
    "combine",
    "compute_k2",
    "compute_k_eps",
    "convergence_study",
    "decay_order_fit",
    "default_catalog",
    "eigenfunction",
    "find_bound_state",
    "fit_k_eps_coefficients",
    "identity_residual",
    "load_config",
    "min_mismatch_on_disk",
    "mismatch",
    "oscillatory_integral",
    "p_transform",
    "parse_config",
    "poly_bump",
    "predict_lambda",
    "scan_roots",
    "smooth_bump",
    "transfer_matrix",
]

__version__ = "0.1.0"
