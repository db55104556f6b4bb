"""Projected kernels, the empirical squared-MMD statistic, bandwidth
heuristics, and the finite-sample concentration constant.

The three kernel families act on samples projected by a sparse unit vector
``z``:

* linear:      ``K_z(x, y) = sum_k z[k] x[k] y[k]``
* quadratic:   ``K_z(x, y) = (sum_k z[k] x[k] y[k] + c)^2``
* gaussian:    ``K_z(x, y) = exp(-(sum_k z[k](x[k]-y[k]))^2 / (2 gamma))``

The statistic is the plug-in V-estimate with weights 1/n^2, 1/m^2, -2/(mn)
over all within- and cross-group pairs (same-index terms included).  For the
linear and quadratic kernels it equals a weighted sum of squared gaps between
the group means of features on the support of ``z``, which is how it is
computed; the gaussian statistic sums Gram blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SelectionVector, TwoSampleData, _one_blas_thread, _overflow_error

LINEAR = "linear"
QUADRATIC = "quadratic"
GAUSSIAN = "gaussian"
_FAMILIES = (LINEAR, QUADRATIC, GAUSSIAN)


class DegenerateBandwidthError(ValueError):
    """All cross-group distances are identical; the median heuristic is undefined."""


@dataclass(frozen=True)
class KernelSpec:
    """Tagged kernel choice; ``bandwidth`` is ``c`` (quadratic) or ``gamma``
    (gaussian) and must be None for the linear family."""

    family: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == LINEAR:
            if self.bandwidth is not None:
                raise ValueError("linear kernel takes no bandwidth")
        elif self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(LINEAR)

    @classmethod
    def quadratic(cls, c: float) -> "KernelSpec":
        return cls(QUADRATIC, float(c))

    @classmethod
    def gaussian(cls, gamma: float) -> "KernelSpec":
        return cls(GAUSSIAN, float(gamma))

    @property
    def resolved(self) -> bool:
        return self.family == LINEAR or self.bandwidth is not None

    def require_bandwidth(self) -> float:
        if self.family != LINEAR and self.bandwidth is None:
            raise ValueError(f"{self.family} kernel bandwidth is unresolved")
        return self.bandwidth  # type: ignore[return-value]


def _as_vector(z) -> np.ndarray:
    if isinstance(z, SelectionVector):
        return z.z
    return np.asarray(z, dtype=np.float64)


def kernel_eval(spec: KernelSpec, z, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate K_z(x, y) for a single pair of sample vectors."""
    zv = _as_vector(z)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != zv.shape or y.shape != zv.shape:
        raise ValueError("dimension mismatch between z, x and y")
    if spec.family == LINEAR:
        return float(np.sum(zv * x * y))
    if spec.family == QUADRATIC:
        c = spec.require_bandwidth()
        return float((np.sum(zv * x * y) + c) ** 2)
    gamma = spec.require_bandwidth()
    s = float(np.sum(zv * (x - y)))
    return math.exp(-(s * s) / (2.0 * gamma))


def gram(spec: KernelSpec, z, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gaussian kernel matrix ``[K_z(u_i, v_j)]`` over two sample blocks.

    The linear and quadratic statistics never need one: they come from
    :func:`moment_features`.
    """
    if spec.family != GAUSSIAN:
        raise ValueError(f"the {spec.family} statistic is computed from moments, not a Gram matrix")
    zv = _as_vector(z)
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.shape[1] != zv.shape[0] or V.shape[1] != zv.shape[0]:
        raise ValueError("dimension mismatch between z and sample blocks")
    gamma = spec.require_bandwidth()
    u = U @ zv
    v = V @ zv
    return np.exp(-np.subtract.outer(u, v) ** 2 / (2.0 * gamma))


def moment_features(spec: KernelSpec, z, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support features ``F`` (one row per feature, one column per sample)
    and weights ``w`` of the linear and quadratic statistics.

    The squared MMD between sample columns ``I`` and ``J`` is
    ``sum_f w[f] (mean_I F[f] - mean_J F[f])^2``.  The features are ``x_k``
    for ``k`` in the support of ``z`` (weight ``z_k`` for the linear kernel,
    ``2 c z_k`` for the quadratic one) and, for the quadratic kernel, the
    products ``x_j x_k`` for ``j <= k`` in the support (weight ``z_j^2`` on
    the diagonal, ``2 z_j z_k`` off it): the algebra of
    ``quad.assemble_quadratic`` restricted to the support.
    """
    if spec.family == GAUSSIAN:
        raise ValueError("the gaussian statistic has no finite moment form")
    zv = _as_vector(z)
    U = np.asarray(U, dtype=np.float64)
    if U.shape[1] != zv.shape[0]:
        raise ValueError("dimension mismatch between z and sample block")
    S = np.flatnonzero(zv)
    zs = zv[S]
    XS = np.ascontiguousarray(U[:, S].T)
    if spec.family == LINEAR:
        return XS, zs
    c = spec.require_bandwidth()
    j, k = np.triu_indices(len(S))
    F = np.vstack([XS, XS[j] * XS[k]])
    w = np.concatenate([2.0 * c * zs, np.where(j == k, 1.0, 2.0) * zs[j] * zs[k]])
    return F, w


def moment_mmd_sq(F: np.ndarray, w: np.ndarray, IX: np.ndarray, IY: np.ndarray) -> np.ndarray:
    """Squared MMD between the sample columns ``IX[r]`` and ``IY[r]`` of the
    features from :func:`moment_features`, for each row ``r`` of the index
    arrays ``IX`` (P x n) and ``IY`` (P x m), from one gather per group.

    Sums are numpy (pairwise) reductions along a contiguous last axis, never
    a BLAS product, so a row's value does not depend on the BLAS thread count
    or on the other rows.  Pass sorted index rows: equal sets then sum in the
    same order and give bit-identical values, and swapping the sets negates
    the mean gap exactly.
    """
    gap = F.take(IX, axis=1).mean(axis=2) - F.take(IY, axis=1).mean(axis=2)
    return (w * np.ascontiguousarray(gap.T) ** 2).sum(axis=1)


def mmd_sq(spec: KernelSpec, z, data: TwoSampleData) -> float:
    """Empirical squared MMD of the two groups under the projected kernel.

    Exactly symmetric under swapping the groups.  The linear and quadratic
    statistics come from support moments (:func:`moment_mmd_sq`, with which
    ``permutation_test`` scores its relabelings).  The gaussian one sums Gram
    blocks, accumulating the cross sum in both storage orders and averaging,
    so (X, Y) and (Y, X) produce the same floating-point value.
    """
    n, m = data.n, data.m
    if spec.family != GAUSSIAN:
        F, w = moment_features(spec, z, np.vstack([data.X, data.Y]))
        base = np.arange(n + m)
        return float(moment_mmd_sq(F, w, base[None, :n], base[None, n:])[0])
    Gxx = gram(spec, z, data.X, data.X)
    Gyy = gram(spec, z, data.Y, data.Y)
    Gxy = gram(spec, z, data.X, data.Y)
    cross = 0.5 * (float(np.sum(Gxy)) + float(np.sum(np.ascontiguousarray(Gxy.T))))
    return float(np.sum(Gxx)) / (n * n) + float(np.sum(Gyy)) / (m * m) - 2.0 * cross / (n * m)


def median_heuristic(data: TwoSampleData) -> float:
    """Median of squared cross-group Euclidean distances (midpoint convention).

    Computed on full-dimensional points.  The gaussian default bandwidth is
    this value; the quadratic default is ``sqrt(median)/2``.

    The median is selected in place in the distance matrix, its own
    temporary, with one ``partition``; for an even count it is the mean of
    the two middle values, as ``np.median`` takes it, so the bits are
    ``np.median``'s.  The cross product runs at one OpenBLAS thread, so the
    bits do not depend on the caller's thread count either.  Raises
    ``ValueError`` when a distance or the median overflows float64 (data of
    scale ~1e154 and up) and ``DegenerateBandwidthError`` when the median is
    zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.add.outer(np.sum(data.X**2, axis=1), np.sum(data.Y**2, axis=1))
        with _one_blas_thread():
            d2 -= 2.0 * data.X @ data.Y.T
        np.maximum(d2, 0.0, out=d2)
        part = d2.ravel()
        k = part.size // 2
        part.partition(k)
        med = part[k]
        if part.size % 2 == 0:
            med = (part[:k].max() + med) / 2
        # partition sorts NaN last, so a NaN distance lies in part[k:]
        has_nan = np.isnan(part[k:].max())
    med = float(med)
    if has_nan or not math.isfinite(med):
        raise _overflow_error("the median heuristic's squared distances")
    if med <= 0.0:
        raise DegenerateBandwidthError(
            "median cross-group distance is zero; supply a bandwidth explicitly"
        )
    return med


def default_bandwidth(family: str, data: TwoSampleData, d: int | None = None) -> float | None:
    """Default bandwidth for a kernel family, from the median heuristic.

    For the gaussian family used in sparse selection the ambient median is
    rescaled by d/(2 dim): a unit-norm d-sparse projection shrinks squared
    distances by roughly d/dim, and the kernel carries its own factor 2.
    """
    if family == LINEAR:
        return None
    med = median_heuristic(data)
    if family == QUADRATIC:
        return math.sqrt(med) / 2.0
    if d is not None:
        return med * d / (2.0 * data.dim)
    return med


def resolve_kernel(spec: KernelSpec, data: TwoSampleData, d: int | None = None) -> KernelSpec:
    """Fill in a missing bandwidth from the training data."""
    if spec.resolved:
        return spec
    return KernelSpec(spec.family, default_bandwidth(spec.family, data, d))


@dataclass(frozen=True)
class ConcentrationInputs:
    """Sample sizes, kernel upper bound and error probability for the
    finite-sample deviation constant."""

    m: int
    n: int
    kbar: float
    eta: float

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("sample sizes must be positive")
        if not self.kbar > 0:
            raise ValueError("kernel upper bound must be positive")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")


def concentration_epsilon(inp: ConcentrationInputs) -> float:
    """Deviation radius eps(m, n, kbar, eta) of the empirical MMD.

    eps = 2 (sqrt(kbar/m) + sqrt(kbar/n))
          + sqrt( 2 kbar (m+n)/(m n) * log(2/eta) ).
    """
    m, n, kbar, eta = inp.m, inp.n, inp.kbar, inp.eta
    return 2.0 * (math.sqrt(kbar / m) + math.sqrt(kbar / n)) + math.sqrt(
        2.0 * kbar * (m + n) / (m * n) * math.log(2.0 / eta)
    )
