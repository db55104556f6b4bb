"""End-to-end two-sample test: train a selection on one split, calibrate the
projected-MMD statistic on the other by random relabeling.

The permutation p-value is ``#{T_t >= T} / N_p`` by default (granularity
exactly ``1/N_p``, zero attainable); the standard add-one correction
``(1 + #{T_t >= T}) / (1 + N_p)`` sits behind a flag.  Rejection is strict:
``p < alpha``.

Every statistic, observed or permuted, goes through one helper on sorted
index sets of the pooled test rows (N = n + m rows, support size k):

* linear and quadratic: sums of the support features of each group
  (``mmd.moment_features``: ``x_S``, plus ``x_j x_k`` for the quadratic
  kernel), O(N k) resp. O(N k^2) per relabeling and no N x N array;
  relabelings are drawn into bounded chunks, and a chunk is scored with one
  gather per group;
* gaussian: the pooled Gram matrix, built once, then one row gather per group
  and its column sums, O(N^2) per relabeling; a chunk of relabelings is
  scored with one row gather per group.

All sums are numpy reductions, not BLAS products, so the statistics are
bit-identical for any BLAS thread count.  A relabeling that reproduces the
observed partition, or its swap when n = m, gives exactly the observed
statistic, and such exact ties count as exceedances (``T_t >= T``).

The selectors of one power trial share the split and the training stream,
so the experiment driver tests them in one pass: one split, and each
relabeling drawn and sorted once and scored by every selector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import RandomSource, SelectionVector, TwoSampleData, derive_stream, split_train_test
from .core import _freeze as _freeze_input
from .mmd import GAUSSIAN, KernelSpec, gram, moment_features, moment_mmd_sq, resolve_kernel

_SPLIT_STREAM = 0
_TRAIN_STREAM = 1
_PERM_STREAM = 2


@dataclass(frozen=True)
class PermutationReport:
    statistic: float
    permuted: np.ndarray
    p_value: float
    alpha: float
    reject: bool
    selection: SelectionVector
    kernel: KernelSpec
    n_permutations: int
    corrected: bool
    train_sizes: tuple
    test_sizes: tuple
    seed: tuple
    # how the statistics were computed ("moments" or "gram") and the wall
    # time of each stage; diagnostics only, so kept out of to_dict()
    calibration: str
    stage_s: dict = field(compare=False)

    def __post_init__(self):
        p = _freeze_input(self.permuted)
        p.flags.writeable = False
        object.__setattr__(self, "permuted", p)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
            "n_permutations": self.n_permutations,
            "corrected": self.corrected,
            "train_sizes": list(self.train_sizes),
            "test_sizes": list(self.test_sizes),
            "seed": list(self.seed),
        }


# Entries one chunk of relabelings holds at most in its index array and in
# each moment-feature or Gram-row gather (2 MiB of float64), so memory stays
# bounded for any sample size and relabeling count; a chunk holds at least
# one relabeling.
_CHUNK_ENTRIES = 1 << 18


def _gram_stats(G: np.ndarray, IX: np.ndarray, IY: np.ndarray) -> np.ndarray:
    """Squared MMD of the sample groups ``IX[r]`` and ``IY[r]`` from the pooled
    Gram matrix, for each row ``r`` of the sorted index arrays, from one row
    gather per group: the column sums of each group's rows, then their sums
    over each group.  The cross sum is taken from both groups' rows and
    averaged, so swapping the groups gives the same value.  Every sum runs
    along its own axis, so a row's value does not depend on the other rows."""
    n, m = IX.shape[1], IY.shape[1]
    RX = G[IX].sum(axis=1)
    RY = G[IY].sum(axis=1)
    sxx = np.take_along_axis(RX, IX, 1).sum(axis=1)
    syy = np.take_along_axis(RY, IY, 1).sum(axis=1)
    sxy = np.take_along_axis(RX, IY, 1).sum(axis=1) + np.take_along_axis(RY, IX, 1).sum(axis=1)
    sxy *= 0.5
    return sxx / (n * n) + syy / (m * m) - 2.0 * sxy / (n * m)


def permutation_test(
    data: TwoSampleData,
    kernel: KernelSpec,
    selector,
    n_permutations: int,
    alpha: float,
    train_fraction: float = 0.5,
    rng: RandomSource | None = None,
    corrected: bool = False,
) -> PermutationReport:
    """Two-sample test with a trained sparse projection.

    ``selector`` must provide ``select(train, kernel, rng) -> SelectionVector``.
    An unresolved kernel bandwidth is filled from the training split only;
    permutations reshuffle pooled test rows into groups of the test-split
    sizes and never touch training rows.
    """
    (report,) = _shared_tests(
        data, ((kernel, selector),), n_permutations, alpha, train_fraction, rng, corrected
    )
    return report


def _shared_tests(
    data: TwoSampleData,
    pairs,
    n_permutations: int,
    alpha: float,
    train_fraction: float = 0.5,
    rng: RandomSource | None = None,
    corrected: bool = False,
) -> list:
    """``[permutation_test(data, kernel, selector, ...) for kernel, selector
    in pairs]``, with one split and one relabeling pass for all of them.

    The split and each selection draw from the same streams of ``rng`` as a
    lone test would, and relabeling ``t`` is drawn and sorted once, in a
    chunk of at most ``_CHUNK_ENTRIES`` index and gathered entries, and then
    scored by every pair, so each report is bit-identical to the lone call's.
    Each report's ``stage_s`` times the shared stages, all pairs included.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rng = rng or RandomSource(0)

    start = time.perf_counter()
    train, test = split_train_test(data, train_fraction, derive_stream(rng, _SPLIT_STREAM))
    selections = []
    for kernel, selector in pairs:
        kernel = resolve_kernel(kernel, train, getattr(selector, "d", None))
        selections.append(
            (kernel, selector.select(train, kernel, derive_stream(rng, _TRAIN_STREAM)))
        )
    selected = time.perf_counter()

    pooled = np.vstack([test.X, test.Y])
    n_te, m_te = test.n, test.m
    N = n_te + m_te
    # entries per relabeling and pooled row of the index array (1) and of
    # each gather: a moment gather's feature count, a Gram gather's group size
    calibrations, scores, features = [], [], [1]
    for kernel, selection in selections:
        if kernel.family == GAUSSIAN:
            calibrations.append("gram")
            scores.append(partial(_gram_stats, gram(kernel, selection, pooled, pooled)))
            features.append(max(n_te, m_te))
        else:
            F, w = moment_features(kernel, selection, pooled)
            calibrations.append("moments")
            scores.append(partial(moment_mmd_sq, F, w))
            features.append(F.shape[0])
    base = np.arange(N)
    stats = [float(score(base[None, :n_te], base[None, n_te:])[0]) for score in scores]

    # relabeling t is stream t of perm_root; a chunk of them is sorted and
    # scored at once
    perm_root = derive_stream(rng, _PERM_STREAM)
    permuted = np.empty((len(pairs), n_permutations))
    step = max(1, _CHUNK_ENTRIES // (N * max(features)))
    for s in range(0, n_permutations, step):
        P = np.array(
            [
                derive_stream(perm_root, t).generator().permutation(N)
                for t in range(s, min(s + step, n_permutations))
            ]
        )
        IX, IY = np.sort(P[:, :n_te], axis=1), np.sort(P[:, n_te:], axis=1)
        for row, score in zip(permuted, scores):
            row[s : s + len(P)] = score(IX, IY)
    done = time.perf_counter()

    reports = []
    for (kernel, selection), calibration, stat, row in zip(
        selections, calibrations, stats, permuted
    ):
        exceed = int(np.count_nonzero(row >= stat))
        if corrected:
            p_value = (1 + exceed) / (1 + n_permutations)
        else:
            p_value = exceed / n_permutations
        reports.append(
            PermutationReport(
                statistic=float(stat),
                permuted=row,
                p_value=float(p_value),
                alpha=float(alpha),
                reject=bool(p_value < alpha),
                selection=selection,
                kernel=kernel,
                n_permutations=n_permutations,
                corrected=corrected,
                train_sizes=(train.n, train.m),
                test_sizes=(n_te, m_te),
                seed=(rng.master_seed, rng.stream_id),
                calibration=calibration,
                stage_s={"split_select": selected - start, "calibration": done - selected},
            )
        )
    return reports
