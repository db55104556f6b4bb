"""Gaussian-kernel variable selection by a penalized convex-concave procedure.

The squared-MMD objective in the projector ``Z = z z'`` is, up to sign,

    F(Z) = 2/(nm) sum_ij e^{-<Z, M_xy>} - 1/n^2 sum_ij e^{-<Z, M_xx>}
                                        - 1/m^2 sum_ij e^{-<Z, M_yy>},

with ``M_uv = (u-v)(u-v)' / (2 gamma)``; minimizing F over the trace-1 PSD
cone with an l1 penalty relaxes the rank and sparsity constraints.  F is a
difference of convex functions: each outer iteration linearizes the concave
(within-group) part at the current point and the resulting convex surrogate is
driven down by stochastic mirror descent on the spectrahedron.  A sparse unit
direction is read off the final matrix's leading eigenvector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import RandomSource, SelectionVector, TwoSampleData, derive_stream, make_selection
from .core import _one_blas_thread
from .mmd import KernelSpec, mmd_sq
from .spectrahedron import SpectraPoint, entropy_radius, smd_run

DEFAULT_LAMBDA_GRID = (0.0, 0.01, 0.05, 0.1, 0.5)


@dataclass(frozen=True)
class GaussConfig:
    """Hyper-parameters of the procedure; ``rng`` seeds the gradient draws."""

    gamma: float
    lam: float = 0.001
    T_out: int = 6
    T_in: int = 150
    batch: int = 256
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    rng: RandomSource = field(default_factory=lambda: RandomSource(0))

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not all(0.0 <= lam < np.inf for lam in (self.lam, *self.lambda_grid)):
            raise ValueError("l1 weights (lam, lambda_grid) must be finite and nonnegative")
        if self.T_out < 1 or self.T_in < 0 or self.batch < 1:
            raise ValueError("iteration counts must be positive (T_in may be 0)")


class GaussianPairTerms:
    """Pairwise exponent machinery for one dataset and bandwidth.

    Pair matrices ``M_uv`` are rank-1 PSD and never materialized in bulk:
    exponent tables ``<Z, M_uv>`` come from Gram products and weighted sums of
    outer products are assembled blockwise.
    """

    def __init__(self, data: TwoSampleData, gamma: float):
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        self.X = data.X
        self.Y = data.Y
        self.n = data.n
        self.m = data.m
        self.gamma = float(gamma)

    def _exponents(self, U: np.ndarray, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
        ZU = U @ Z
        qu = np.einsum("ij,ij->i", ZU, U)
        qv = np.einsum("ij,ij->i", V @ Z, V)
        s = (qu[:, None] + qv[None, :] - 2.0 * ZU @ V.T) / (2.0 * self.gamma)
        return np.maximum(s, 0.0)  # quadratic form of PSD Z, clip roundoff

    def _within(self, U: np.ndarray, Z: np.ndarray, count: int) -> tuple[float, np.ndarray]:
        """Sum of one within-group table ``exp(-<Z, M_uu>)`` and its term
        ``1/count^2 sum_ij E_ij M_uu`` of the linearized gradient."""
        E = np.exp(-self._exponents(U, U, Z))
        r = E.sum(axis=1)
        # sum_ij E_ij (u_i - u_j)(u_i - u_j)' for symmetric E
        G = 2.0 * ((U.T * r) @ U - U.T @ E @ U) / (2.0 * self.gamma) / count**2
        return float(E.sum()), G

    def linearize(self, Z: np.ndarray) -> tuple[float, np.ndarray]:
        """``(F(Z), within_grad_at(Z))`` in one pass over the xx, yy and xy
        tables, each reduced to its sum (and gradient term) before the next
        is built."""
        sxx, Gx = self._within(self.X, Z, self.n)
        syy, Gy = self._within(self.Y, Z, self.m)
        sxy = float(np.exp(-self._exponents(self.X, self.Y, Z)).sum())
        n, m = self.n, self.m
        return 2.0 * sxy / (n * m) - sxx / (n * n) - syy / (m * m), Gx + Gy

    def within_grad_at(self, Z0: np.ndarray) -> np.ndarray:
        """Gradient of the (linearized) within-group part, constant in Z:
        ``1/n^2 sum e0_xx M_xx + 1/m^2 sum e0_yy M_yy`` evaluated at Z0."""
        return self.linearize(Z0)[1]

    def cross_grad_full(self, Z: np.ndarray) -> np.ndarray:
        """Exact gradient of the cross term ``2/(nm) sum e^{-<Z, M_xy>}``."""
        Exy = np.exp(-self._exponents(self.X, self.Y, Z))
        rx = Exy.sum(axis=1)
        ry = Exy.sum(axis=0)
        C = self.X.T @ Exy @ self.Y
        G = (self.X.T * rx) @ self.X + (self.Y.T * ry) @ self.Y - C - C.T
        return -2.0 * G / (2.0 * self.gamma) / (self.n * self.m)

    def cross_grad_batch(self, Z: np.ndarray, batch: int, gen: np.random.Generator) -> np.ndarray:
        """Unbiased minibatch estimate of the cross-term gradient (uniform
        pairs with replacement)."""
        ii = gen.integers(0, self.n, size=batch)
        jj = gen.integers(0, self.m, size=batch)
        Dv = self.X[ii] - self.Y[jj]
        expo = np.maximum(np.einsum("ij,ij->i", Dv @ Z, Dv), 0.0) / (2.0 * self.gamma)
        w = np.exp(-expo)
        return -2.0 * ((Dv.T * w) @ Dv) / (2.0 * self.gamma) / batch

    def surrogate_grad(
        self, Z: np.ndarray, gen: np.random.Generator, within: np.ndarray, lam: float, batch: int
    ) -> np.ndarray:
        """Symmetric estimate of the (sub)gradient of the surrogate plus
        ``lam ||Z||_1``: the cross term exact when ``batch >= n*m``, else a
        minibatch; ``within`` is the constant linearized within-group part.
        The l1 subgradient at zero entries is taken as zero."""
        if batch >= self.n * self.m:
            cross = self.cross_grad_full(Z)
        else:
            cross = self.cross_grad_batch(Z, batch, gen)
        G = cross + within + lam * np.sign(Z)
        return 0.5 * G + 0.5 * G.T


def _as_matrix(Z) -> np.ndarray:
    if isinstance(Z, SpectraPoint):
        return Z.Z
    return np.asarray(Z, dtype=np.float64)


def gauss_objective(Z, data: TwoSampleData, gamma: float) -> float:
    """F(Z): cross term positive, within-group terms negative.

    For a rank-1 projector ``Z = z z'`` this equals minus the empirical
    squared MMD of the gaussian kernel at the same bandwidth.
    """
    return GaussianPairTerms(data, gamma).linearize(_as_matrix(Z))[0]


def extract_selection(Z, d: int) -> SelectionVector:
    """Sparse unit direction from a PSD matrix: leading eigenvector, keep the
    d largest-magnitude coordinates (ties toward the lowest index), renormalize,
    first nonzero entry positive.

    A degenerate leading eigenspace is resolved deterministically by projecting
    the all-ones direction (then basis vectors) onto it; if the kept entries
    all vanish the fallback ranks coordinates by the diagonal of Z.
    """
    Zm = _as_matrix(Z)
    D = Zm.shape[0]
    if not 1 <= d <= D:
        raise ValueError(f"budget d={d} outside [1, {D}]")
    w, U = np.linalg.eigh(Zm)
    lead = w >= w[-1] - 1e-9 * max(1.0, abs(float(w[-1])))
    if int(np.count_nonzero(lead)) > 1:
        basis = U[:, lead]
        v = basis @ (basis.T @ np.ones(D))
        if np.linalg.norm(v) < 1e-12:
            for j in range(D):
                v = basis @ (basis.T @ np.eye(D)[j])
                if np.linalg.norm(v) >= 1e-12:
                    break
    else:
        v = U[:, -1]
    v = v / np.linalg.norm(v)
    keep = np.argsort(-np.abs(v), kind="stable")[:d]
    z = np.zeros(D)
    z[keep] = v[keep]
    if np.linalg.norm(z) < 1e-12:
        diag = np.maximum(np.diag(Zm), 0.0)
        keep = np.argsort(-diag, kind="stable")[:d]
        z = np.zeros(D)
        z[keep] = np.sqrt(diag[keep])
        if np.linalg.norm(z) == 0.0:
            z[keep] = 1.0
    z /= np.linalg.norm(z)
    nz = np.flatnonzero(z)
    if z[nz[0]] < 0:
        z = -z
    return make_selection(z, d)


@dataclass(frozen=True)
class CcpTracePoint:
    """Per-outer-iteration record of the penalized objective."""

    outer: int
    objective: float
    mmd_part: float
    penalty: float
    l1_norm: float
    lead_eigenvalue: float
    gap_estimate: float


@dataclass(frozen=True)
class CcpResult:
    selection: SelectionVector
    trajectory: tuple
    Z: SpectraPoint


def write_trajectory(path: str, trajectory) -> None:
    """Line-delimited JSON dump of a run trajectory."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in trajectory:
            fh.write(
                json.dumps(
                    {
                        "iteration": p.outer,
                        "objective": p.objective,
                        "mmd_part": p.mmd_part,
                        "penalty": p.penalty,
                        "l1_norm": p.l1_norm,
                        "lead_eigenvalue": p.lead_eigenvalue,
                        "gap_estimate": p.gap_estimate,
                    }
                )
                + "\n"
            )


def _trace_point(outer, Z, F, lam, gap) -> CcpTracePoint:
    l1 = float(np.abs(Z).sum())
    lead = float(np.linalg.eigvalsh(Z)[-1])
    return CcpTracePoint(outer, F + lam * l1, F, lam * l1, l1, lead, gap)


@_one_blas_thread()
def ccp_select(data: TwoSampleData, cfg: GaussConfig, d: int) -> CcpResult:
    """Penalized convex-concave procedure with stochastic mirror descent.

    Starts at the maximum-entropy point ``Z = I/D``; each of the ``T_out``
    outer iterations re-linearizes the within-group terms and runs ``T_in``
    averaged mirror-descent steps on the surrogate.  The recorded outer
    objective is non-increasing up to the inner optimization gap.  Returns the
    extracted selection, the trajectory, and the final matrix; the selection is
    flagged no-signal when |F| at the final point is below 1e-6.

    Runs at one OpenBLAS thread (``core._one_blas_thread``, a process-wide
    setting, restored on return), so its bits do not depend on the caller's
    thread count.
    """
    D = data.dim
    if not 1 <= d <= D:
        raise ValueError(f"budget d={d} outside [1, {D}]")
    terms = GaussianPairTerms(data, cfg.gamma)
    point = SpectraPoint.identity(D)
    radius = entropy_radius(D)
    F, within = terms.linearize(point.Z)  # a trace point and the next linearization
    traj = [_trace_point(0, point.Z, F, cfg.lam, 0.0)]
    for outer in range(1, cfg.T_out + 1):
        oracle = partial(terms.surrogate_grad, within=within, lam=cfg.lam, batch=cfg.batch)
        point, M = smd_run(oracle, point, cfg.T_in, derive_stream(cfg.rng, outer))
        # inner optimality gap estimate at kappa = 1/2: M sqrt(4 V / T)
        gap = 2.0 * max(M, 1e-12) * float(np.sqrt(radius / max(cfg.T_in, 1)))
        F, within = terms.linearize(point.Z)
        traj.append(_trace_point(outer, point.Z, F, cfg.lam, gap))
    selection = extract_selection(point, d)
    if abs(traj[-1].mmd_part) < 1e-6:
        selection = SelectionVector(selection.z, d, no_signal=True)
    return CcpResult(selection=selection, trajectory=tuple(traj), Z=point)


def lambda_grid_select(
    data_train: TwoSampleData, data_val: TwoSampleData, cfg: GaussConfig, d: int
) -> float:
    """Pick the l1 weight whose trained selection maximizes the validation
    squared MMD; ties resolve to the smaller weight."""
    if not cfg.lambda_grid:
        raise ValueError("lambda grid must be non-empty")
    kern = KernelSpec.gaussian(cfg.gamma)
    best_lam, best_score = None, -np.inf
    for i, lam in enumerate(sorted(cfg.lambda_grid)):
        run_cfg = replace(cfg, lam=float(lam), rng=derive_stream(cfg.rng, 1000 + i))
        result = ccp_select(data_train, run_cfg, d)
        score = mmd_sq(kern, result.selection, data_val)
        if score > best_score:
            best_score, best_lam = score, float(lam)
    return best_lam
