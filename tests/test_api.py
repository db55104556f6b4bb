"""The public surface: the names ``mmdselect`` exports, the fields of its
configuration objects, and the options a ``Selector`` takes.  Adding or
removing one of them is a deliberate edit of this file."""

import dataclasses
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import mmdselect
from mmdselect import ExperimentConfig, GaussConfig
from mmdselect.selectors import SOLVER_FAMILIES, Selector

PUBLIC_NAMES = [
    "DataFormatError", "DegenerateBandwidthError", "ExperimentConfig",
    "GaussConfig", "KernelSpec", "LinearCoefficients", "PermutationReport", "QuadProblem",
    "QuadSolveReport", "RandomSource", "SelectionMetrics",
    "SelectionVector", "Selector", "SpectraPoint", "SynthSpec", "TrsSolution", "TwoSampleData",
    "assemble_quadratic", "ccp_select",
    "derive_stream", "exact_select_bnb", "extract_selection", "fdp_ndp",
    "greedy_select", "lambda_grid_select", "lambda_set", "linear_coefficients",
    "linear_select", "load_two_sample", "local_search", "median_heuristic",
    "mmd_sq", "permutation_test",
    "run_power_experiment", "run_recovery_experiment", "smd_run",
    "split_train_test", "synth_block_gaussian", "wishart_sample",
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
        (GaussConfig, ["gamma", "lam", "T_out", "T_in", "batch", "rng"]),
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


def _span_targets(spans):
    """The functions ``perfbench/spans.py`` traces, as bound now."""
    found = []
    for mod_name, path, _, _ in spans.TARGETS:
        obj = importlib.import_module("mmdselect." + mod_name)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        found.append(obj)
    return found


def test_benchmark_tracer_finds_and_restores_every_span_target():
    # the benchmark's tracer wraps these names: renaming one breaks `--trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _span_targets(spans)
    with spans.Tracer().installed():
        inside = _span_targets(spans)
    after = _span_targets(spans)
    assert all(w is not f and w.__wrapped__ is f for w, f in zip(inside, before))
    assert all(a is f for a, f in zip(after, before))
