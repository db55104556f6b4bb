"""Sparse inhomogeneous quadratic maximization over the unit sphere.

Assembles the quadratic-kernel selection problem ``max { z'Az + t'z :
||z||=1, ||z||_0 <= d }`` from data, then solves it with a ladder of methods:
greedy forward selection, swap-based local search, and an exact depth-first
branch-and-bound whose node bound is the sphere oracle on the union of forced
and candidate features.  A certified closed-form upper bound on the exact
optimum turns greedy + local search into an approximation algorithm: the
``quad-relax`` solver reports its solution under that bound.

A ``QuadProblem`` checks its ``(A, t)`` once, when it is built; every
solver scores its supports with ``trs``'s stacked oracle, unchecked.

The matrix is stored PSD-shifted (``A - lambda_min(A) I`` when needed) and all
reported objective values are translated back to the unshifted problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SelectionVector, TwoSampleData, make_selection
from .core import _one_blas_thread, _overflow_error
from .core import _freeze as _freeze_input
from .trs import _TOL, _check_finite, _oracle_input, _sphere_argmax, _sphere_stack

GREEDY = "greedy"
LOCAL = "local"
EXACT = "exact"

# Largest dimension the exact solver accepts: its node count, and so its
# time, can grow exponentially with the dimension.
_DIM_CAP = 30


@dataclass(frozen=True)
class QuadProblem:
    """Quadratic objective data, PSD-shifted.

    ``A`` is symmetric positive semidefinite; ``shift`` records the
    ``lambda_min`` that was subtracted from the raw matrix (0 when it was
    already PSD), so that an objective value ``v`` computed on the stored
    matrix reports as ``v + shift`` in the original problem.  Finite and
    exactly symmetric, ``(A, t)`` is the sphere oracle's checked input.
    """

    A: np.ndarray
    t: np.ndarray
    shift: float = 0.0

    def __post_init__(self):
        A, t = map(_freeze_input, _oracle_input(self.A, self.t))
        scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
        if float(np.linalg.eigvalsh(A)[0]) < -1e-8 * scale:
            raise ValueError("stored matrix must be PSD; use from_matrices to shift")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return self.t.shape[0]

    @classmethod
    def from_matrices(cls, A: np.ndarray, t: np.ndarray) -> "QuadProblem":
        """Record ``lambda_min`` and shift the matrix to PSD when needed.

        The symmetrized matrix minus its own ``lambda_min`` is symmetric and
        PSD by construction, so the result skips the constructor's checks
        but finiteness, and ``A`` is decomposed once."""
        A = np.asarray(A, dtype=np.float64)
        t = _freeze_input(t)
        if A.ndim != 2 or A.shape != (t.shape[0], t.shape[0]):
            raise ValueError("A and t dimensions disagree")
        _check_finite(A, t)
        A = 0.5 * (A + A.T)
        shift = min(float(np.linalg.eigvalsh(A)[0]), 0.0)
        if shift < 0.0:
            A = A - shift * np.eye(A.shape[0])
        A = np.ascontiguousarray(A)
        A.flags.writeable = False
        qp = object.__new__(cls)
        for name, value in (("A", A), ("t", t), ("shift", shift)):
            object.__setattr__(qp, name, value)
        return qp

    def report_value(self, stored_value: float) -> float:
        return stored_value + self.shift


def assemble_quadratic(data: TwoSampleData, c: float) -> QuadProblem:
    """Coefficients of the quadratic-kernel squared-MMD statistic.

    ``A[k,l]`` is the squared gap of second-moment matrices and ``t[k]`` is
    ``2c`` times the squared gap of means; the constant term cancels.
    """
    if not c > 0:
        raise ValueError("quadratic bandwidth c must be positive")
    # one thread: the products' summation order, hence their bits, would
    # otherwise follow the caller's thread count
    with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
        Gx = data.X.T @ data.X / data.n
        Gy = data.Y.T @ data.Y / data.m
        A = (Gx - Gy) ** 2
        t = 2.0 * c * (data.X.mean(axis=0) - data.Y.mean(axis=0)) ** 2
        # the sphere oracle's norms sum the squares of these entries, which
        # overflow for columns near 1e39 and up
        sizes = np.linalg.norm(A) + np.linalg.norm(t)
    if not np.isfinite(sizes):
        raise _overflow_error("the quadratic kernel's squared moment gaps")
    return QuadProblem.from_matrices(A, t)


@dataclass(frozen=True)
class QuadSolveReport:
    """Outcome of one solver run, in unshifted objective units."""

    support: tuple
    z: SelectionVector
    value: float
    method: str
    upper_bound: float | None = None
    node_count: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))


def _report(qp: QuadProblem, d: int, S, lane, method: str, **kw) -> QuadSolveReport:
    """The report of support ``S`` from its lane, embedded in ``qp.dim``."""
    z = np.zeros(qp.dim)
    z[list(S)] = lane[1]
    return QuadSolveReport(
        support=tuple(np.flatnonzero(z)),
        z=make_selection(z, d),
        value=qp.report_value(lane[0]),
        method=method,
        **kw,
    )


def greedy_select(qp: QuadProblem, d: int) -> QuadSolveReport:
    """Forward selection: d rounds of best single-feature augmentation.

    Each round keeps the first maximum in index order of the augmented
    supports' oracle values.  It decomposes them in bounded stacks
    (``trs._STACK_ENTRIES``) and solves only the supports whose bound
    ``lambda_max(A_S) + ||t_S||``, read from the stacked ``eigh``, can reach the best value so far
    (``trs._sphere_argmax``), so a round holds at most a few MiB of
    sub-matrices and their eigenvectors."""
    D = qp.dim
    if not 1 <= d <= D:
        raise ValueError(f"budget d={d} outside [1, {D}]")
    S: list[int] = []
    for _ in range(d):
        rows = [sorted(S + [j]) for j in range(D) if j not in S]
        best, lane = _sphere_argmax(qp.A, qp.t, rows)
        S = rows[best]
    return _report(qp, d, S, lane, GREEDY)


def local_search(qp: QuadProblem, d: int, init) -> QuadSolveReport:
    """Swap improvement: replace one selected feature while the oracle value
    strictly improves by more than ``trs._TOL``; first improving swap restarts
    the scan, for at most 100 sweeps."""
    D = qp.dim
    S = sorted(int(i) for i in init)
    if len(S) != min(d, D) or len(set(S)) != len(S):
        raise ValueError("init must be a duplicate-free support of size min(d, D)")
    best = _sphere_stack(qp.A, qp.t, [S])[0]
    for _ in range(100):
        improved = False
        for i in list(S):
            for j in range(D):
                if j in S:
                    continue
                cand = sorted([*(x for x in S if x != i), j])
                lane = _sphere_stack(qp.A, qp.t, [cand])[0]
                if lane[0] > best[0] + _TOL:
                    S, best = cand, lane
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return _report(qp, d, S, best, LOCAL)


def _greedy_local(qp: QuadProblem, d: int) -> QuadSolveReport:
    """Greedy selection, its support padded to size d, refined by local search."""
    g = greedy_select(qp, d)
    return local_search(qp, d, _pad_support(g.support, d, qp.dim))


def exact_select_bnb(qp: QuadProblem, d: int) -> QuadSolveReport:
    """Exact solver: depth-first branch and bound over feature decisions.

    A node fixes a forced set and a candidate set; its bound is the sphere
    oracle on ``forced | candidates`` (valid since feasible supports nest).
    The incumbent starts from greedy refined by local search.  Among optima
    whose values tie within 1e-9 the lexicographically smallest support found
    is kept, with its lane.  Dimensions above ``_DIM_CAP`` raise.
    """
    D = qp.dim
    if not 1 <= d <= D:
        raise ValueError(f"budget d={d} outside [1, {D}]")
    if D > _DIM_CAP:
        raise ValueError(f"dimension {D} exceeds the exact-solver cap {_DIM_CAP}")

    l = _greedy_local(qp, d)
    best_sup = tuple(_pad_support(l.support, d, D))
    best = _sphere_stack(qp.A, qp.t, [best_sup])[0]

    tie_tol = 1e-9
    node_count = 0
    stack: list[tuple[tuple, tuple]] = [((), tuple(range(D)))]
    while stack:
        forced, cand = stack.pop()
        node_count += 1
        union = sorted(set(forced) | set(cand))
        if len(forced) >= d or len(union) <= d:
            sup = sorted(forced) if len(forced) >= d else union
            if not sup:
                continue
            lane = _sphere_stack(qp.A, qp.t, [sup])[0]
            if lane[0] > best[0] + tie_tol or (
                abs(lane[0] - best[0]) <= tie_tol and tuple(sup) < best_sup
            ):
                best_sup, best = tuple(sup), lane
            continue
        node = _sphere_stack(qp.A, qp.t, [union])[0]
        if node[0] <= best[0] + tie_tol:
            continue
        # branch on the candidate carrying the most weight in the bound solution
        weights = dict(zip(union, np.abs(node[1]).tolist()))
        j = max(cand, key=lambda c: (weights[c], -c))
        rest = tuple(c for c in cand if c != j)
        stack.append((forced, rest))
        stack.append((forced + (j,), rest))

    return _report(qp, d, best_sup, best, EXACT, node_count=node_count)


def _pad_support(support, d: int, D: int) -> list[int]:
    # oracle maximizers may be strictly sparser than d; pad deterministically
    S = sorted(int(i) for i in support)
    for j in range(D):
        if len(S) >= min(d, D):
            break
        if j not in S:
            S.append(j)
    return sorted(S)


def _certified_upper_bound(qp: QuadProblem, d: int) -> float:
    """Upper bound on the exact optimum (stored-matrix units), the smaller of

    * the full-sphere value (support constraint dropped),
    * ``||t|| + d * max_k A_kk``   (entrywise bound through the row caps).

    Each dominates the exact optimum.  ``||t|| + lambda_max(A)`` is implied:
    a unit ``z`` has ``z'Az + t'z <= lambda_max(A) + ||t||``, so it could win
    over the full-sphere value only by rounding.
    """
    A, t = qp.A, qp.t
    b1 = _sphere_stack(A, t, [range(qp.dim)])[0][0]
    b2 = float(np.linalg.norm(t)) + d * float(np.max(np.diag(A)))
    return min(b1, b2)
