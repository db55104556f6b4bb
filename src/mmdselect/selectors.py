"""Named selection strategies bridging kernels and solvers.

Each solver name implies a kernel family.  A ``Selector`` names a solver and
a budget, and its ``select(train, kernel, rng)`` checks that the kernel has
the solver's family; the permutation test and the experiment drivers call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import RandomSource, SelectionVector, TwoSampleData, derive_stream, split_train_test
from .gauss import GaussConfig, ccp_select, lambda_grid_select
from .linear import linear_coefficients, linear_select
from .mmd import GAUSSIAN, LINEAR, QUADRATIC, KernelSpec
from .quad import (
    _certified_upper_bound,
    _greedy_local,
    assemble_quadratic,
    exact_select_bnb,
    greedy_select,
)

SOLVER_FAMILIES = {
    "linear": LINEAR,
    "quad-greedy": QUADRATIC,
    "quad-local": QUADRATIC,
    "quad-exact": QUADRATIC,
    "quad-relax": QUADRATIC,
    "gauss-ccp": GAUSSIAN,
}

# the keys of ``Selector.options``; gauss-ccp reads them, the others ignore them
_OPTION_KEYS = frozenset({"lam", "lambda_grid", "T_out", "T_in", "batch"})


def kernel_for_solver(solver: str, bandwidth: float | None = None) -> KernelSpec:
    family = SOLVER_FAMILIES[solver]
    return KernelSpec(family, None if family == LINEAR else bandwidth)


@dataclass(frozen=True)
class Selector:
    """Budgeted selection strategy.  ``options`` tunes the gauss-ccp solver
    (``lam``, ``lambda_grid``, ``T_out``, ``T_in``, ``batch``); any other key
    raises ``ValueError``, whatever the solver."""

    name: str
    d: int
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in SOLVER_FAMILIES:
            raise ValueError(f"unknown solver {self.name!r}")
        if self.d < 1:
            raise ValueError("budget d must be >= 1")
        unknown = sorted(set(self.options) - _OPTION_KEYS)
        if unknown:
            raise ValueError(
                f"unknown selector options {unknown}; allowed: {sorted(_OPTION_KEYS)}"
            )

    def select(self, train: TwoSampleData, kernel: KernelSpec, rng: RandomSource) -> SelectionVector:
        selection, _ = self.select_with_diagnostics(train, kernel, rng)
        return selection

    def select_with_diagnostics(
        self, train: TwoSampleData, kernel: KernelSpec, rng: RandomSource
    ) -> tuple[SelectionVector, dict]:
        """Run the solver and also return reportable diagnostics (method,
        bounds, node counts, trajectory)."""
        if SOLVER_FAMILIES[self.name] != kernel.family:
            raise ValueError(
                f"solver {self.name!r} requires the {SOLVER_FAMILIES[self.name]} kernel, "
                f"got {kernel.family}"
            )
        d = self.d
        if self.name == "linear":
            selection, objective = linear_select(linear_coefficients(train), d)
            return selection, {"method": "linear", "objective": objective}
        if self.name == "gauss-ccp":
            opts = {k: v for k, v in self.options.items() if k != "lambda_grid"}
            cfg = GaussConfig(gamma=kernel.require_bandwidth(), rng=rng, **opts)
            grid = self.options.get("lambda_grid")
            if grid:
                tr, val = split_train_test(train, 0.5, derive_stream(rng, 77))
                cfg = replace(cfg, lam=lambda_grid_select(tr, val, cfg, d, grid))
            result = ccp_select(train, cfg, d)
            return result.selection, {
                "method": "gauss-ccp",
                "lam": cfg.lam,
                "trajectory": result.trajectory,
            }

        qp = assemble_quadratic(train, kernel.require_bandwidth())
        if self.name == "quad-greedy":
            report = greedy_select(qp, d)
        elif self.name == "quad-exact":
            report = exact_select_bnb(qp, d)
        else:
            report = _greedy_local(qp, d)
        if self.name == "quad-relax":
            # the approximation algorithm: value <= exact optimum <= upper_bound
            bound = qp.report_value(_certified_upper_bound(qp, d))
            report = replace(report, method="relax", upper_bound=bound)
        diag = {"method": report.method, "value": report.value}
        if report.upper_bound is not None:
            diag["upper_bound"] = report.upper_bound
        if report.node_count is not None:
            diag["node_count"] = report.node_count
        return report.z, diag
