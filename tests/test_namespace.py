"""The package namespace: every public name resolves lazily to the object its submodule defines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscispec

SRC = str(Path(oscispec.__file__).resolve().parents[1])

PUBLIC_NAMES = [
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


def test_all_keeps_the_public_names_in_their_order():
    assert oscispec.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_a_public_name_is_the_object_its_submodule_defines(name):
    obj = getattr(oscispec, name)
    assert obj.__module__.startswith("oscispec.")
    assert obj is getattr(sys.modules[obj.__module__], name)


def test_dir_lists_every_public_name_before_any_is_used():
    # in a fresh interpreter, where no name has been looked up and no submodule loaded yet
    script = "import sys, oscispec\nprint(*dir(oscispec))\nprint(*[m for m in sys.modules if 'oscispec.' in m])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    listed, loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")[:2]
    assert set(PUBLIC_NAMES) <= set(listed.split())
    assert loaded == ""


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from oscispec import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(oscispec, name) for name in PUBLIC_NAMES}


def test_an_unknown_attribute_raises_attribute_error_naming_module_and_attribute():
    with pytest.raises(AttributeError, match="module 'oscispec' has no attribute 'no_such_name'"):
        oscispec.no_such_name
    assert not hasattr(oscispec, "compute_k3")
