"""Projected kernels, the empirical squared-MMD statistic and bandwidth
heuristics.

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
    ``permutation_test`` scores its relabelings).  The gaussian one sums each
    Gram block as it is built, the cross block in both storage orders and
    averaged, so (X, Y) and (Y, X) produce the same floating-point value.
    """
    n, m = data.n, data.m
    if spec.family != GAUSSIAN:
        F, w = moment_features(spec, z, np.vstack([data.X, data.Y]))
        base = np.arange(n + m)
        return float(moment_mmd_sq(F, w, base[None, :n], base[None, n:])[0])
    sxx = float(np.sum(gram(spec, z, data.X, data.X)))
    syy = float(np.sum(gram(spec, z, data.Y, data.Y)))
    Gxy = gram(spec, z, data.X, data.Y)
    cross = 0.5 * (float(np.sum(Gxy)) + float(np.sum(np.ascontiguousarray(Gxy.T))))
    return sxx / (n * n) + syy / (m * m) - 2.0 * cross / (n * m)


# Entries of the squared-distance matrix that one block of the median
# heuristic holds, about 0.5 MiB of float64, so its memory stays bounded.
_MEDIAN_BLOCK = 1 << 16
# A block is a whole number of 24-row panels, at least two and more than 2400
# entries, and the last block takes the remainder.  OpenBLAS's Haswell dgemm
# hands its kernel the rows of ``X`` in panels of 24, three of its 8-wide
# unrolls, and sends products of at most 1200 entries to another kernel, so
# each row meets the same kernel as in the full product; a single row would go
# to gemv.  The blocks have the full product's bits under numpy's OpenBLAS
# with its SkylakeX, Haswell and Sandybridge kernels (``tests/test_mmd.py``
# compares them; the kernels forced with ``OPENBLAS_CORETYPE``).  Two panels
# keep the product fast.
_GEMM_PANEL = 24
_GEMM_SMALL = 2400
# (i, j) pairs drawn to bracket the median, gathered this many at a time, and
# the bracket's half-width in binomial standard deviations of a sample rank.
_BRACKET_PAIRS = 8192
_BRACKET_GATHER = 1024
_BRACKET_SD = 4.0


def _median_rows(n: int, m: int) -> int:
    """Rows per block of the n x m distance matrix; ``n`` for one block."""
    panels = max(2, _MEDIAN_BLOCK // (_GEMM_PANEL * m), _GEMM_SMALL // (_GEMM_PANEL * m) + 1)
    rows = _GEMM_PANEL * panels
    return rows if n >= 2 * rows else n


def _median_bracket(X2, Y, sx, sy, k: int) -> tuple[float, float]:
    """A range ``[lo, hi]`` that holds the squared distances of rank ``k - 1``
    and ``k`` with high probability, from the distances of
    ``_BRACKET_PAIRS`` (i, j) pairs drawn independently by a fixed-seed
    generator.  ``lo`` is ``-inf`` when the range reaches zero, where the
    clamp puts the negative distances."""
    n, m = len(X2), len(Y)
    gen = np.random.default_rng(0)
    I = gen.integers(0, n, _BRACKET_PAIRS)
    J = gen.integers(0, m, _BRACKET_PAIRS)
    vals = np.empty(_BRACKET_PAIRS)
    for s in range(0, _BRACKET_PAIRS, _BRACKET_GATHER):
        i, j = I[s : s + _BRACKET_GATHER], J[s : s + _BRACKET_GATHER]
        xy = np.einsum("ij,ij->i", X2.take(i, 0), Y.take(j, 0))
        vals[s : s + _BRACKET_GATHER] = sx[i] + sy[j] - xy
    np.maximum(vals, 0.0, out=vals)
    q = k / (n * m)
    mid, half = q * _BRACKET_PAIRS, _BRACKET_SD * math.sqrt(_BRACKET_PAIRS * q * (1.0 - q))
    a = min(max(math.floor(mid - half), 0), _BRACKET_PAIRS - 1)
    b = min(max(math.ceil(mid + half), 0), _BRACKET_PAIRS - 1)
    vals.partition([a, b])
    lo, hi = float(vals[a]), float(vals[b])
    return (lo if lo > 0.0 else -math.inf), hi


def _distance_blocks(X2, Y, sx, sy, rows: int, check_nan: bool, out=None):
    """The unclamped squared distances ``fl(sx_i + sy_j) - (2X)_i . y_j``,
    one block of whole rows at a time: each in one reused buffer, or in its
    rows of ``out``.  The sums come from the product of ``[sx 1]`` and
    ``[1 sy]``, whose two terms are exact, so it rounds once, as ``+`` does,
    and runs faster than a broadcast ``+``."""
    n, m = len(X2), len(Y)
    xs, ys = np.column_stack([sx, np.ones(n)]), np.column_stack([np.ones(m), sy])
    starts = range(0, n - rows + 1, rows)
    ends = [*starts[1:], n]
    xy = np.empty((rows + n % rows, m))  # the last block, the tallest
    buf = np.empty_like(xy) if out is None else out
    for i0, i1 in zip(starts, ends):
        block = buf[: i1 - i0] if out is None else out[i0:i1]
        np.matmul(X2[i0:i1], Y.T, out=xy[: i1 - i0])
        np.matmul(xs[i0:i1], ys.T, out=block)
        np.subtract(block, xy[: i1 - i0], out=block)
        if check_nan and np.isnan(block).any():
            raise _overflow_error("the median heuristic's squared distances")
        yield block


def _bracketed_candidates(X2, Y, sx, sy, k: int, even: bool, rows: int, check_nan: bool):
    """The distances inside a sampled bracket and the rank of the median
    among them, from one blocked pass; None for a matrix of one block and
    when the bracket misses rank ``k`` (or ``k - 1`` for an even count)."""
    if rows == len(X2):
        return None
    lo, hi = _median_bracket(X2, Y, sx, sy, k)
    below, kept = 0, []
    masks = np.empty((2, rows + len(X2) % rows, len(Y)), bool)
    for block in _distance_blocks(X2, Y, sx, sy, rows, check_nan):
        inside, under = masks[:, : len(block)]
        np.less_equal(block, hi, out=inside)
        if lo > -math.inf:
            below += int(np.count_nonzero(np.less(block, lo, out=under)))
            np.not_equal(inside, under, out=inside)
        kept.append(np.compress(inside.ravel(), block))
    cand = np.concatenate(kept)
    r = k - below
    return (cand, r) if even <= r < len(cand) else None


def median_heuristic(data: TwoSampleData) -> float:
    """Median of squared cross-group Euclidean distances (midpoint convention).

    Computed on full-dimensional points.  The gaussian default bandwidth is
    this value; the quadratic default is ``sqrt(median)/2``.

    The clamped squared distances ``max(fl(sx_i + sy_j) - (2X)_i . y_j, 0)``
    are computed in row blocks of about ``_MEDIAN_BLOCK`` entries, and the
    pass keeps only the count of distances below a bracket ``[lo, hi]`` and
    the distances inside it.  The bracket comes from a sample of pairs drawn
    over the whole matrix; when the counts show that it missed the middle
    ranks, the pass runs once more and keeps every distance.  A matrix of one
    block is kept whole.  The median is the candidate of rank ``size // 2``,
    and for an even count the mean of it and the one below, as ``np.median``
    takes them, so the bits are ``np.median``'s on the whole matrix.  Memory
    is two blocks plus the candidates, about 5% of the matrix.  The cross
    product runs at one OpenBLAS thread, so the bits do not depend on the
    caller's thread count either.  Raises ``ValueError`` when a distance or
    the median overflows float64 (data of scale ~1e154 and up) and
    ``DegenerateBandwidthError`` when the median is zero.
    """
    X, Y = data.X, data.Y
    n, m = len(X), len(Y)
    k = n * m // 2
    even = (n * m) % 2 == 0
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = np.sum(X**2, axis=1), np.sum(Y**2, axis=1)
        X2 = 2.0 * X
        # |2 x.y| <= sx + sy, so finite norms well inside float64 give finite distances
        check_nan = not float(sx.max()) + float(sy.max()) < 1e300
        rows = _median_rows(n, m)
        with _one_blas_thread():
            found = _bracketed_candidates(X2, Y, sx, sy, k, even, rows, check_nan)
            if found is None:
                d = np.empty((n, m))
                for _ in _distance_blocks(X2, Y, sx, sy, rows, check_nan, out=d):
                    pass
                found = d.ravel(), k
        cand, r = found
        np.maximum(cand, 0.0, out=cand)
        cand.partition(r)
        med = cand[r]
        if even:
            med = (cand[:r].max() + med) / 2
    med = float(med)
    if not math.isfinite(med):
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

