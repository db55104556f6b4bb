"""Closed-form solver for the linear-kernel selection problem.

With a linear kernel the squared-MMD statistic reduces to ``a^T z`` where
``a[k]`` is the squared difference of the two groups' column means, so the
optimum keeps the d largest coefficients and weights them proportionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SelectionVector, TwoSampleData, _overflow_error
from .core import _freeze as _freeze_input


@dataclass(frozen=True)
class LinearCoefficients:
    a: np.ndarray

    def __post_init__(self):
        a = _freeze_input(self.a)
        if a.ndim != 1:
            raise ValueError("coefficient vector must be 1-D")
        if np.any(a < 0):
            raise ValueError("coefficients are squared mean gaps and cannot be negative")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)


def linear_coefficients(data: TwoSampleData) -> LinearCoefficients:
    """Per-variable squared gap between the group means."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = (data.X.mean(axis=0) - data.Y.mean(axis=0)) ** 2
    if not np.isfinite(a).all():
        raise _overflow_error("the linear kernel's squared mean gaps")
    return LinearCoefficients(a)


def linear_select(coeffs: LinearCoefficients, d: int) -> tuple[SelectionVector, float]:
    """Globally optimal d-sparse unit direction maximizing ``a^T z``.

    Keeps the d largest coefficients (ties broken toward the lowest index)
    with weights ``a[k] / ||a_S||_2``; the optimum value is ``||a_S||_2``.
    When every coefficient is zero any feasible direction is optimal: the
    first d coordinates get equal weight and the selection is flagged
    ``no_signal``.
    """
    a = coeffs.a
    D = a.shape[0]
    if not 1 <= d <= D:
        raise ValueError(f"budget d={d} outside [1, {D}]")
    order = np.argsort(-a, kind="stable")
    top = order[:d]
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a[top]))
    if not math.isfinite(norm):
        raise _overflow_error("the norm of the linear kernel's coefficients")
    z = np.zeros(D)
    if norm == 0.0:
        z[:d] = 1.0 / np.sqrt(d)
        return SelectionVector(z, d, no_signal=True), 0.0
    z[top] = a[top] / norm
    return SelectionVector(z, d), norm
