"""The public surface: the names ``mmdselect`` exports, the fields of its
configuration objects, and the options a ``Selector`` takes.  Adding or
removing one of them is a deliberate edit of this file."""

import dataclasses
import types

import pytest

import mmdselect
from mmdselect import ExperimentConfig, GaussConfig
from mmdselect.selectors import SOLVER_FAMILIES, Selector

PUBLIC_NAMES = [
    "ConcentrationInputs", "DataFormatError", "DegenerateBandwidthError", "ExperimentConfig",
    "GaussConfig", "KernelSpec", "LinearCoefficients", "PermutationReport", "QuadProblem",
    "QuadSolveReport", "RandomSource", "SelectionMetrics",
    "SelectionVector", "Selector", "SpectraPoint", "SynthSpec", "TrsSolution", "TwoSampleData",
    "assemble_quadratic", "ccp_select", "concentration_epsilon",
    "derive_stream", "exact_select_bnb", "extract_selection", "fdp_ndp",
    "greedy_select", "lambda_grid_select", "lambda_set", "linear_coefficients",
    "linear_select", "load_two_sample", "local_search", "median_heuristic",
    "mmd_sq", "permutation_test",
    "run_power_experiment", "run_recovery_experiment", "save_two_sample", "smd_run",
    "split_train_test", "synth_block_gaussian", "trs_max", "wishart_sample",
]


def test_package_exports_exactly_the_public_names():
    names = sorted(
        k for k, v in vars(mmdselect).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize(
    "config, fields",
    [
        (GaussConfig, ["gamma", "lam", "T_out", "T_in", "batch", "lambda_grid", "rng"]),
        (
            ExperimentConfig,
            ["spec", "selectors", "trials", "alpha", "n_permutations", "train_fraction",
             "rng", "workers", "corrected"],
        ),
    ],
    ids=["GaussConfig", "ExperimentConfig"],
)
def test_config_fields(config, fields):
    assert [f.name for f in dataclasses.fields(config)] == fields


@pytest.mark.parametrize("key", ["dim_cap", "relax_cfg", "grid_val_fraction", "step_scale", "lamda"])
def test_selector_rejects_unknown_options(key):
    # whatever the solver: a removed or misspelled option is never ignored
    for solver in SOLVER_FAMILIES:
        with pytest.raises(ValueError, match=f"unknown selector options \\['{key}'\\]"):
            Selector(solver, 3, {key: 5})


def test_selector_accepts_its_options_for_every_solver():
    # the CLI passes --lam whatever the solver; only gauss-ccp reads it
    options = {"lam": 0.01, "lambda_grid": [0.0, 0.1], "T_out": 1, "T_in": 2, "batch": 4}
    for solver in SOLVER_FAMILIES:
        assert Selector(solver, 3, options).options == options

