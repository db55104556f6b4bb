"""Sparse variable selection for kernel two-sample tests.

Selects the d most informative variables separating two sample groups by
maximizing a sparsity-constrained kernel MMD statistic (linear, quadratic, or
gaussian kernel), and calibrates the resulting test by permutation.
"""

from .core import (
    DataFormatError,
    RandomSource,
    SelectionVector,
    TwoSampleData,
    derive_stream,
    load_two_sample,
    split_train_test,
)
from .mmd import (
    DegenerateBandwidthError,
    KernelSpec,
    median_heuristic,
    mmd_sq,
)
from .linear import LinearCoefficients, linear_coefficients, linear_select
from .trs import TrsSolution, lambda_set
from .quad import (
    QuadProblem,
    QuadSolveReport,
    assemble_quadratic,
    exact_select_bnb,
    greedy_select,
    local_search,
)
from .spectrahedron import SpectraPoint, smd_run
from .gauss import (
    GaussConfig,
    ccp_select,
    extract_selection,
    lambda_grid_select,
)
from .permutation import PermutationReport, permutation_test
from .selectors import Selector
from .bench import (
    ExperimentConfig,
    SelectionMetrics,
    SynthSpec,
    fdp_ndp,
    run_power_experiment,
    run_recovery_experiment,
    synth_block_gaussian,
    wishart_sample,
)

__version__ = "0.1.0"
