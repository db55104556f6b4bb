"""Sparse inhomogeneous quadratic maximization over the unit sphere.

Assembles the quadratic-kernel selection problem ``max { z'Az + t'z :
||z||=1, ||z||_0 <= d }`` from data, then solves it with a ladder of methods:
greedy forward selection, swap-based local search, an exact depth-first
branch-and-bound whose node bound is the sphere oracle on the union of forced
and candidate features, and a semidefinite-flavored relaxation solved by a
first-order scheme with certified upper bounds.

The matrix is stored PSD-shifted (``A - lambda_min(A) I`` when needed) and all
reported objective values are translated back to the unshifted problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SelectionVector, TwoSampleData, make_selection
from .core import _check_symmetric, _one_blas_thread, _overflow_error
from .core import _freeze as _freeze_input
from .spectrahedron import SpectraPoint, mirror_step, spectral_norm
from .trs import TrsSolution, _embedded, _sphere_argmax, lambda_set, trs_max

GREEDY = "greedy"
LOCAL = "local"
EXACT = "exact"
RELAX = "relax"


@dataclass(frozen=True)
class QuadProblem:
    """Quadratic objective data, PSD-shifted.

    ``A`` is symmetric positive semidefinite; ``shift`` records the
    ``lambda_min`` that was subtracted from the raw matrix (0 when it was
    already PSD), so that an objective value ``v`` computed on the stored
    matrix reports as ``v + shift`` in the original problem.
    """

    A: np.ndarray
    t: np.ndarray
    shift: float = 0.0

    def __post_init__(self):
        A = _freeze_input(_check_symmetric(self.A, "A", 1e-10))
        t = _freeze_input(self.t)
        scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
        if A.shape[0] != t.shape[0]:
            raise ValueError("A and t dimensions disagree")
        if float(np.linalg.eigvalsh(A)[0]) < -1e-8 * scale:
            raise ValueError("stored matrix must be PSD; use from_matrices to shift")
        A.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return self.t.shape[0]

    @classmethod
    def from_matrices(cls, A: np.ndarray, t: np.ndarray) -> "QuadProblem":
        """Record ``lambda_min`` and shift the matrix to PSD when needed."""
        A = 0.5 * (np.asarray(A, dtype=np.float64) + np.asarray(A, dtype=np.float64).T)
        lmin = float(np.linalg.eigvalsh(A)[0])
        shift = min(lmin, 0.0)
        if shift < 0.0:
            A = A - shift * np.eye(A.shape[0])
        return cls(A, np.asarray(t, dtype=np.float64), shift=shift)

    def report_value(self, stored_value: float) -> float:
        return stored_value + self.shift


def assemble_quadratic(data: TwoSampleData, c: float) -> QuadProblem:
    """Coefficients of the quadratic-kernel squared-MMD statistic.

    ``A[k,l]`` is the squared gap of second-moment matrices and ``t[k]`` is
    ``2c`` times the squared gap of means; the constant term cancels.
    """
    if not c > 0:
        raise ValueError("quadratic bandwidth c must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        Gx = data.X.T @ data.X / data.n
        Gy = data.Y.T @ data.Y / data.m
        A = (Gx - Gy) ** 2
        t = 2.0 * c * (data.X.mean(axis=0) - data.Y.mean(axis=0)) ** 2
    if not (np.isfinite(A).all() and np.isfinite(t).all()):
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
    bound_certified: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))


def _report(qp: QuadProblem, d: int, sol: TrsSolution, method: str, **kw) -> QuadSolveReport:
    support = tuple(int(i) for i in np.flatnonzero(sol.z))
    return QuadSolveReport(
        support=support,
        z=make_selection(sol.z, d),
        value=qp.report_value(sol.value),
        method=method,
        **kw,
    )


def greedy_select(qp: QuadProblem, d: int, tol: float = 1e-9) -> QuadSolveReport:
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
        best, lane = _sphere_argmax(qp.A, qp.t, rows, tol)
        S = rows[best]
    return _report(qp, d, _embedded(D, S, lane), GREEDY)


def local_search(qp: QuadProblem, d: int, init, tol: float = 1e-9) -> QuadSolveReport:
    """Swap improvement: replace one selected feature while the oracle value
    strictly improves by more than ``tol``; first improving swap restarts the
    scan, for at most 100 sweeps."""
    D = qp.dim
    S = sorted(int(i) for i in init)
    if len(S) != min(d, D) or len(set(S)) != len(S):
        raise ValueError("init must be a duplicate-free support of size min(d, D)")
    val = lambda_set(S, qp.A, qp.t, tol).value
    for _ in range(100):
        improved = False
        for i in list(S):
            for j in range(D):
                if j in S:
                    continue
                cand = sorted(x for x in S if x != i) + [j]
                cand.sort()
                v = lambda_set(cand, qp.A, qp.t, tol).value
                if v > val + tol:
                    S, val = cand, v
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    sol = lambda_set(S, qp.A, qp.t, tol)
    return _report(qp, d, sol, LOCAL)


def exact_select_bnb(
    qp: QuadProblem, d: int, tol: float = 1e-9, dim_cap: int = 30
) -> QuadSolveReport:
    """Exact solver: depth-first branch and bound over feature decisions.

    A node fixes a forced set and a candidate set; its bound is the sphere
    oracle on ``forced | candidates`` (valid since feasible supports nest).
    The incumbent starts from greedy refined by local search.  Among optima
    whose values tie within 1e-9 the lexicographically smallest support found
    is kept.
    """
    D = qp.dim
    if not 1 <= d <= D:
        raise ValueError(f"budget d={d} outside [1, {D}]")
    if D > dim_cap:
        raise ValueError(f"dimension {D} exceeds the exact-solver cap {dim_cap}")

    g = greedy_select(qp, d, tol)
    l = local_search(qp, d, _pad_support(g.support, d, D), tol=tol)
    init_sup = sorted(_pad_support(l.support, d, D))
    best_val = lambda_set(init_sup, qp.A, qp.t, tol).value
    best_sup = tuple(init_sup)

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
            v = lambda_set(sup, qp.A, qp.t, tol).value
            if v > best_val + tie_tol or (
                abs(v - best_val) <= tie_tol and tuple(sup) < best_sup
            ):
                best_val, best_sup = v, tuple(sup)
            continue
        node = lambda_set(union, qp.A, qp.t, tol)
        if node.value <= best_val + tie_tol:
            continue
        # branch on the candidate carrying the most weight in the bound solution
        weights = np.abs(node.z)
        j = max(cand, key=lambda c: (weights[c], -c))
        rest = tuple(c for c in cand if c != j)
        stack.append((forced, rest))
        stack.append((forced + (j,), rest))

    sol = lambda_set(best_sup, qp.A, qp.t, tol)
    return _report(qp, d, sol, EXACT, node_count=node_count)


def _pad_support(support, d: int, D: int) -> list[int]:
    # oracle maximizers may be strictly sparser than d; pad deterministically
    S = sorted(int(i) for i in support)
    for j in range(D):
        if len(S) >= min(d, D):
            break
        if j not in S:
            S.append(j)
    return sorted(S)


def project_capped_simplex(v: np.ndarray, d: float) -> np.ndarray:
    """Euclidean projection onto ``{q in [0,1]^D : sum q = d}`` by bisection
    on the shift in ``clip(v - tau, 0, 1)``."""
    v = np.asarray(v, dtype=np.float64)
    D = v.shape[0]
    if not 0 < d <= D:
        raise ValueError("need 0 < d <= D for a non-empty capped simplex")
    lo = float(np.min(v)) - 1.0
    hi = float(np.max(v))
    if np.clip(v - lo, 0.0, 1.0).sum() < d:
        lo = float(np.min(v)) - d - 1.0
    for _ in range(100):
        tau = 0.5 * (lo + hi)
        if np.clip(v - tau, 0.0, 1.0).sum() > d:
            lo = tau
        else:
            hi = tau
    q = np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)
    # exact mass repair of the residual bisection error
    gap = d - float(q.sum())
    if gap != 0.0:
        room = (q < 1.0) if gap > 0 else (q > 0.0)
        nr = int(np.count_nonzero(room))
        if nr:
            q[room] = np.clip(q[room] + gap / nr, 0.0, 1.0)
    return q


@dataclass(frozen=True)
class RelaxState:
    """Iterate of the relaxation: bordered PSD matrix, fractional selection
    weights, final penalty weight, and the gap between the certified bound
    and the primal objective."""

    Zbar: np.ndarray
    q: np.ndarray
    penalty_weight: float
    max_violation: float
    dual_gap_estimate: float

    def __post_init__(self):
        Z = _freeze_input(self.Zbar)
        q = _freeze_input(self.q)
        Z.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "Zbar", Z)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class RelaxConfig:
    """Iteration budget of ``relax_select``: penalty rounds, and mirror steps
    per round."""

    max_rounds: int = 40
    inner_steps: int = 120


def _certified_upper_bound(qp: QuadProblem, d: int) -> float:
    """Upper bound on the exact optimum (stored-matrix units), valid by weak
    duality for the relaxation with diagonal/row linking constraints:

    * the full-sphere value (support constraint dropped),
    * ``||t|| + d * max_k A_kk``   (entrywise bound through the row caps),
    * ``||t|| + lambda_max(A)``    (trace bound on the lower-right block).

    Each term dominates the relaxation optimum, hence the exact optimum; the
    last two also sit below the theoretical approximation-ratio envelope.
    """
    A, t = qp.A, qp.t
    b1 = trs_max(A, t).value
    tn = float(np.linalg.norm(t))
    b2 = tn + d * float(np.max(np.diag(A)))
    b3 = tn + float(np.linalg.eigvalsh(A)[-1])
    return min(b1, b2, b3)


@_one_blas_thread()
def relax_select(
    qp: QuadProblem, d: int, cfg: RelaxConfig | None = None
) -> tuple[RelaxState, QuadSolveReport]:
    """Approximation algorithm: solve the relaxation, round, re-optimize.

    The relaxation maximizes ``<A, W> + sqrt(t'Wt)`` over the trace-1 PSD
    block ``W`` (the corner row of the bordered matrix is eliminated in closed
    form as ``z = Wt / sqrt(t'Wt)``) subject to row linking constraints
    ``|W_ij| <= M_ij q_i`` and ``sum_j |W_ij| <= sqrt(d) q_i`` with fractional
    weights ``q`` on the capped simplex.  Linking constraints enter as hinge
    penalties whose weight starts at 1 and doubles after each round that ends
    with a violation of 1e-6 or more; ``W`` takes entropic mirror-ascent steps
    and ``q`` is re-projected exactly each round.

    The returned report carries a certified upper bound (independent of the
    first-order iterate, see ``_certified_upper_bound``); the rounded support
    is re-solved exactly by the sphere oracle.

    Runs at one OpenBLAS thread (``core._one_blas_thread``, a process-wide
    setting, restored on return), so its bits do not depend on the caller's
    thread count.
    """
    cfg = cfg or RelaxConfig()
    A, t = qp.A, qp.t
    D = qp.dim
    if not 1 <= d <= D:
        raise ValueError(f"budget d={d} outside [1, {D}]")

    M = np.full((D, D), 0.5)
    np.fill_diagonal(M, 1.0)
    sqd = float(np.sqrt(d))
    tnorm = float(np.linalg.norm(t))

    def violations(W, q):
        aW = np.abs(W)
        v_entry = np.maximum(aW - M * q[:, None], 0.0)
        v_row = np.maximum(aW.sum(axis=1) - sqd * q, 0.0)
        return v_entry, v_row

    def row_requirement(W):
        aW = np.abs(W)
        return np.maximum((aW / M).max(axis=1), aW.sum(axis=1) / sqd)

    point = SpectraPoint.identity(D)
    W = point.Z
    q = np.full(D, d / D)
    rho = 1.0
    max_viol = np.inf
    for _ in range(cfg.max_rounds):
        for it in range(cfg.inner_steps):
            tWt = float(t @ point.Z @ t)
            G = A.copy()
            if tnorm > 0:
                G += np.outer(t, t) / (2.0 * max(np.sqrt(max(tWt, 0.0)), 1e-12))
            v_entry, v_row = violations(point.Z, q)
            sub = np.sign(point.Z) * (v_entry > 0)
            sub += np.sign(point.Z) * (v_row > 0)[:, None]
            G -= rho * 0.5 * (sub + sub.T)
            opn = spectral_norm(G)
            step = np.sqrt(np.log(max(D, 2)) / cfg.inner_steps) / max(opn, 1e-12)
            point = mirror_step(point, -G, step)  # ascent
        W = point.Z
        q = project_capped_simplex(row_requirement(W), d)
        v_entry, v_row = violations(W, q)
        max_viol = max(
            float(v_entry.max()) if v_entry.size else 0.0,
            float(v_row.max()) if v_row.size else 0.0,
        )
        if max_viol < 1e-6:
            break
        rho *= 2.0

    # bordered matrix: best corner row for the current block, closed form
    tWt = float(t @ W @ t)
    if tnorm > 0 and tWt > 0:
        z_row = W @ t / np.sqrt(tWt)
    else:
        z_row = np.zeros(D)
    Zbar = np.zeros((D + 1, D + 1))
    Zbar[0, 0] = 1.0
    Zbar[0, 1:] = z_row
    Zbar[1:, 0] = z_row
    Zbar[1:, 1:] = W

    order = np.argsort(-q, kind="stable")
    support = sorted(int(i) for i in order[:d])
    sol = lambda_set(support, qp.A, qp.t)

    bound_stored = _certified_upper_bound(qp, d)
    primal_obj = float(np.sum(A * W)) + float(np.sqrt(max(tWt, 0.0)))
    state = RelaxState(
        Zbar=Zbar,
        q=q,
        penalty_weight=rho,
        max_violation=max_viol,
        dual_gap_estimate=bound_stored - primal_obj,
    )
    report = _report(
        qp,
        d,
        sol,
        RELAX,
        upper_bound=qp.report_value(bound_stored),
        bound_certified=True,
    )
    return state, report


@dataclass(frozen=True)
class GapCheck:
    passed: bool
    lower_ok: bool
    upper_ok: bool
    envelope: float
    slack: float


def approximation_gap(
    relax_value: float,
    exact_value: float,
    t: np.ndarray,
    D: int,
    d: int,
) -> GapCheck:
    """Check the approximation-ratio sandwich for a certified relaxation bound:

    ``exact <= relax <= ||t||_2 + min(D/d * exact, d * exact - min_k |t_k|)``

    within a relative slack of 1e-5.  Values must refer to the PSD-shifted
    problem.  Returns the measured slack (envelope minus bound).
    """
    t = np.asarray(t, dtype=np.float64)
    tol = 1e-5 * max(1.0, abs(exact_value))
    envelope = float(np.linalg.norm(t)) + min(
        D / d * exact_value, d * exact_value - float(np.min(np.abs(t)))
    )
    lower_ok = exact_value <= relax_value + tol
    upper_ok = relax_value <= envelope + tol
    return GapCheck(
        passed=bool(lower_ok and upper_ok),
        lower_ok=bool(lower_ok),
        upper_ok=bool(upper_ok),
        envelope=envelope,
        slack=float(envelope - relax_value),
    )
