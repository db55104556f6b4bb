"""Independent reference computations used to validate the solvers.

Nothing here imports solver internals: the sphere maximum comes from the 1-D
convex dual evaluated in the eigenbasis, and the oracle's own arithmetic is
written out once more as a scalar, one-problem-at-a-time reference with
scipy's ``brentq``, with which greedy selection scores every augmented
support; subset selection comes from exhaustive enumeration,
low-dimensional maxima from refined grid search, and permutation statistics
from the three sub-blocks of the pooled Gram matrix and one relabeling at a
time.  The table
writer and the median heuristic are written out cell by cell and one
temporary per operation, the forms the library's versions must match bit for
bit.  The gaussian surrogate sums its pair terms one difference vector at a
time.  The single-pair kernel and the von Neumann divergence are the
textbook formulas, and the mirror step's exponential is taken in the
eigenbasis of its exponent.  The baseline selectors (a fixed support, a
random one) and the gradient wrapper are what the tests drive the library
with.  The approximation-ratio envelope is the sandwich a certified
relaxation bound must sit in.  ``trs_max`` is the library's sphere oracle
on the full support, and ``concentration_epsilon`` the paper's deviation
radius of the empirical MMD, which the acceptance criteria check as a
formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from mmdselect import mmd, spectrahedron
from mmdselect.core import _one_blas_thread, derive_stream, make_selection
from mmdselect.gauss import GaussianPairTerms
from mmdselect.trs import lambda_set


def trs_max(A: np.ndarray, t: np.ndarray):
    """``max { z'Az + t'z : ||z|| = 1 }``: ``lambda_set`` on the full support."""
    return lambda_set(range(np.size(t)), A, t)


def dual_trs_value(A: np.ndarray, t: np.ndarray) -> float:
    """max { z'Az + t'z : ||z|| = 1 } via min over mu >= lmax of
    mu + t'(mu I - A)^{-1} t / 4 (strong duality)."""
    A = np.asarray(A, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    lam, Q = np.linalg.eigh(A)
    lmax = float(lam[-1])
    tt = Q.T @ t
    tn = float(np.linalg.norm(t))
    if tn == 0.0:
        return lmax
    scale = max(1.0, abs(lmax), tn)
    eta_min = 1e-11 * scale

    def h(eta):
        mu = lmax + eta
        return mu + 0.25 * float(np.sum(tt * tt / (mu - lam)))

    res = minimize_scalar(
        h, bounds=(eta_min, 0.5 * tn + scale), method="bounded",
        options={"xatol": 1e-13, "maxiter": 500},
    )
    return float(min(res.fun, h(eta_min)))


def scalar_sphere_max(A: np.ndarray, t: np.ndarray):
    """The sphere oracle's answer for one symmetric problem, computed alone:
    its own ``eigh`` and ``Q.T @ t``, the secular branches with scipy's
    ``brentq`` for every size and every ``t``, and the KKT /
    ``mu >= lambda_max`` certificate relative to
    ``s = 1 + max(||t||, |lambda_min|, |lambda_max|)``.  Returns
    ``(value, z, mu, kkt_residual, hard_case)``; the stacked oracle must give
    each lane these bits."""
    A = np.asarray(A, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    k = A.shape[0]
    tnorm = float(np.linalg.norm(t))
    lam, Q = np.linalg.eigh(A)
    lmax = float(lam[-1])
    tt = Q.T @ t
    scale = max(1.0, abs(lmax), tnorm)
    lead = lam >= lmax - 1e-10 * scale
    t_lead = float(np.linalg.norm(tt[lead]))

    def norm2(mu):
        return float(np.sum((tt / (2.0 * (mu - lam))) ** 2))

    def root_in(lo, hi):
        while norm2(hi) > 1.0:
            hi = lmax + 2.0 * (hi - lmax)
        mu = brentq(lambda m: norm2(m) - 1.0, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        return mu, Q @ (tt / (2.0 * (mu - lam)))

    def root_from_floor(hi):
        lo = lmax + max(1e-300, 1e-15 * scale)
        if norm2(lo) >= 1.0:
            return root_in(lo, hi)
        zt = tt / (2.0 * (lo - lam))
        zt[-1] = 0.0
        zt[-1] = np.copysign(np.sqrt(1.0 - float(np.sum(zt**2))), tt[-1])
        return lo, Q @ zt

    hi = lmax + 0.5 * tnorm + 1e-300
    hard = False
    if t_lead > 1e-9 * max(tnorm, 1e-300):
        lo = lmax + 0.5 * t_lead * (1.0 - 1e-12)
        if lo > lmax and norm2(lo) >= 1.0:
            mu, z = root_in(lo, hi)
        else:
            mu, z = root_from_floor(hi)
    else:
        comp = ~lead
        zt = np.zeros(k)
        zt[comp] = tt[comp] / (2.0 * (lmax - lam[comp]))
        nrm2 = float(np.sum(zt**2))
        if nrm2 <= 1.0:
            hard = True
            mu = lmax
            q = Q[:, -1]
            q = -q if q[int(np.argmax(np.abs(q)))] < 0 else q
            z = Q @ zt + np.sqrt(max(0.0, 1.0 - nrm2)) * q
        else:
            mu, z = root_from_floor(hi)
    nz = float(np.linalg.norm(z))
    if nz > 0:
        z = z / nz
    mu = float(mu)
    res = float(np.linalg.norm(2.0 * (mu * z - A @ z) - t))
    s = 1.0 + max(tnorm, abs(float(lam[0])), abs(lmax))
    if not (res <= 1e-6 * s and mu >= lmax - 1e-7 * s):
        raise ArithmeticError(f"certificate failed (residual {res:.3e})")
    return float(z @ A @ z + t @ z), z, mu, res, hard


def greedy_reference(A: np.ndarray, t: np.ndarray, d: int):
    """Greedy forward selection written out plainly: each round scores every
    augmented support with ``scalar_sphere_max`` and keeps the first maximum
    in index order.  Returns the support, its value and its maximizer
    embedded in the ambient dimension."""
    A = np.asarray(A, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    S: list = []
    for _ in range(d):
        best = None
        for j in range(len(t)):
            if j in S:
                continue
            idx = sorted(S + [j])
            lane = scalar_sphere_max(A[np.ix_(idx, idx)], t[idx])
            if best is None or lane[0] > best[1][0]:
                best = (idx, lane)
        S = best[0]
    z = np.zeros(len(t))
    z[S] = best[1][1]
    return tuple(S), best[1][0], z


def brute_force_quad(A: np.ndarray, t: np.ndarray, d: int):
    """Exhaustive subset enumeration scored with the dual sphere oracle."""
    D = len(t)
    best, best_sup = -np.inf, None
    for S in itertools.combinations(range(D), min(d, D)):
        idx = list(S)
        v = dual_trs_value(A[np.ix_(idx, idx)], t[idx])
        if v > best + 1e-12:
            best, best_sup = v, S
    return best, best_sup


def brute_force_linear(a: np.ndarray, d: int):
    """Exhaustive max of ||a_S||_2 over supports of size <= d."""
    D = len(a)
    best, best_sup = -np.inf, None
    for size in range(1, min(d, D) + 1):
        for S in itertools.combinations(range(D), size):
            v = float(np.linalg.norm(a[list(S)]))
            if v > best + 1e-15:
                best, best_sup = v, S
    return best, best_sup


def grid_sphere_max(A: np.ndarray, t: np.ndarray, n_points: int = 10000, refine: int = 6) -> float:
    """Refined mesh search over the unit sphere; intended for k <= 3."""
    k = len(t)
    if k == 1:
        return float(max(A[0, 0] + t[0], A[0, 0] - t[0]))
    gen = np.random.default_rng(12345)
    Z = gen.standard_normal((n_points, k))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)

    def value(P):
        return np.einsum("ij,jk,ik->i", P, A, P) + P @ t

    vals = value(Z)
    center = Z[int(np.argmax(vals))]
    best = float(vals.max())
    radius = 0.5
    for _ in range(refine):
        P = center + radius * gen.standard_normal((2000, k))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        vals = value(P)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            center = P[j]
        radius *= 0.25
    return best


def central_difference_gradient(fn, Z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Symmetric-matrix central differences of a scalar function of Z."""
    D = Z.shape[0]
    G = np.zeros((D, D))
    for i in range(D):
        for j in range(i, D):
            E = np.zeros((D, D))
            E[i, j] = E[j, i] = 1.0
            G[i, j] = G[j, i] = (fn(Z + h * E) - fn(Z - h * E)) / (2 * h)
            if i != j:
                # off-diagonal perturbation moves two entries; gradient wrt one
                G[i, j] = G[j, i] = G[i, j] / 2.0
    return G


def gram_block_stat(G: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> float:
    """Squared MMD of the sample groups ``ix`` and ``iy`` from the xx, yy and
    xy sub-blocks of the pooled Gram matrix ``G``."""
    n, m = len(ix), len(iy)
    sxx = float(G[np.ix_(ix, ix)].sum())
    syy = float(G[np.ix_(iy, iy)].sum())
    sxy = float(G[np.ix_(ix, iy)].sum())
    return sxx / (n * n) + syy / (m * m) - 2.0 * sxy / (n * m)


def gram_permutation_stats(kernel, z, test, perm_root, n_permutations: int):
    """Observed and relabeled statistics of a held-out split from the pooled
    Gram matrix, relabeling ``t`` being the permutation drawn from stream
    ``t`` of ``perm_root``.  Also returns ``max |G|``, the scale of the
    rounding error of these sums."""
    pooled = np.vstack([test.X, test.Y])
    G = gram(kernel, z, pooled, pooled)
    n, N = test.n, len(pooled)
    base = np.arange(N)
    permuted = []
    for t in range(n_permutations):
        p = derive_stream(perm_root, t).generator().permutation(N)
        permuted.append(gram_block_stat(G, p[:n], p[n:]))
    return gram_block_stat(G, base[:n], base[n:]), np.array(permuted), float(np.abs(G).max())


def moment_stat(F: np.ndarray, w: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> float:
    """One relabeling's squared MMD between the sample columns ``ix`` and
    ``iy`` of the features from ``mmd.moment_features``: the one-row form
    that ``mmd.moment_mmd_sq`` must equal bit for bit on each row."""
    gap = F.take(ix, axis=1).mean(axis=1) - F.take(iy, axis=1).mean(axis=1)
    return float(np.sum(w * gap**2))


def gram_stat(G: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> float:
    """One relabeling's squared MMD of the sample groups ``ix`` and ``iy``
    from the pooled Gram matrix, via one row gather per group, the cross sum
    averaged over both groups' rows: the one-row form that
    ``permutation._gram_stats`` must equal bit for bit on each row."""
    n, m = len(ix), len(iy)
    rx = G[ix].sum(axis=0)
    ry = G[iy].sum(axis=0)
    sxy = 0.5 * (float(rx[iy].sum()) + float(ry[ix].sum()))
    return float(rx[ix].sum()) / (n * n) + float(ry[iy].sum()) / (m * m) - 2.0 * sxy / (n * m)


def looped_permutation_stats(kernel, z, test, perm_root, n_permutations: int):
    """Observed and relabeled statistics of a held-out split, one
    ``moment_stat`` (linear, quadratic) or ``gram_stat`` (gaussian) call per
    relabeling on its sorted halves, relabeling ``t`` being the permutation
    drawn from stream ``t`` of ``perm_root``."""
    pooled = np.vstack([test.X, test.Y])
    if kernel.family == mmd.GAUSSIAN:
        stat = partial(gram_stat, mmd.gram(kernel, z, pooled, pooled))
    else:
        stat = partial(moment_stat, *mmd.moment_features(kernel, z, pooled))
    n, N = test.n, len(pooled)
    base = np.arange(N)
    permuted = []
    for t in range(n_permutations):
        p = derive_stream(perm_root, t).generator().permutation(N)
        permuted.append(stat(np.sort(p[:n]), np.sort(p[n:])))
    return stat(base[:n], base[n:]), np.array(permuted)


def save_matrix_reference(path: str, M: np.ndarray, header: list[str] | None = None) -> None:
    """The table writer cell by cell: ``repr(float(v))`` of each numpy scalar."""
    M = np.asarray(M, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in M:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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


def median_heuristic_reference(X: np.ndarray, Y: np.ndarray) -> float:
    """Median of the clamped squared cross-group distances, one temporary per
    operation.  The cross product runs at one BLAS thread, as in
    ``mmd.median_heuristic``, whose bits do not depend on the thread count."""
    with _one_blas_thread():
        XY = 2.0 * X @ Y.T
    d2 = np.sum(X**2, axis=1)[:, None] + np.sum(Y**2, axis=1)[None, :] - XY
    return float(np.median(np.maximum(d2, 0.0)))


def gram(spec, z, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Kernel matrix ``[K_z(u_i, v_j)]`` of any family: the linear and
    quadratic ones from the projected inner products, the gaussian one from
    ``mmd.gram``."""
    if spec.family == mmd.GAUSSIAN:
        return mmd.gram(spec, z, U, V)
    zv = np.asarray(getattr(z, "z", z), dtype=np.float64)  # a SelectionVector or an array
    inner = (np.asarray(U, dtype=np.float64) * zv) @ np.asarray(V, dtype=np.float64).T
    if spec.family == mmd.LINEAR:
        return inner
    return (inner + spec.require_bandwidth()) ** 2


def kernel_eval(spec, z, x: np.ndarray, y: np.ndarray) -> float:
    """``K_z(x, y)`` for a single pair of sample vectors, from the formulas
    in ``mmd``'s docstring."""
    zv = np.asarray(getattr(z, "z", z), dtype=np.float64)  # a SelectionVector or an array
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != zv.shape or y.shape != zv.shape:
        raise ValueError("dimension mismatch between z, x and y")
    if spec.family == mmd.LINEAR:
        return float(np.sum(zv * x * y))
    if spec.family == mmd.QUADRATIC:
        return float((np.sum(zv * x * y) + spec.require_bandwidth()) ** 2)
    s = float(np.sum(zv * (x - y)))
    return math.exp(-(s * s) / (2.0 * spec.require_bandwidth()))


def bregman(p1, p2) -> float:
    """Von Neumann divergence ``tr(X log X - X log Y)`` of two
    ``SpectraPoint``s, with eigenvalues floored as the mirror step floors
    those of a point without a dual before taking logs."""
    if p1.dim != p2.dim:
        raise ValueError("dimension mismatch")
    w1f = np.maximum(np.linalg.eigvalsh(p1.Z), spectrahedron._LOG_FLOOR)
    term1 = float(np.sum(w1f * np.log(w1f)))
    w2, U2 = np.linalg.eigh(p2.Z)
    logY = (U2 * np.log(np.maximum(w2, spectrahedron._LOG_FLOOR))) @ U2.T
    return term1 - float(np.sum(p1.Z * logY))


def mirror_step_reference(L: np.ndarray, G: np.ndarray, step: float):
    """``(exp(H) / tr, H)`` for ``H = L - step G`` symmetrized, the
    exponential taken in the eigenbasis of ``H`` (``eigh``), shifted by its
    top eigenvalue."""
    H = np.asarray(L, dtype=np.float64) - step * np.asarray(G, dtype=np.float64)
    H = 0.5 * (H + H.T)
    w, U = np.linalg.eigh(H)
    Y = (U * np.exp(w - w[-1])) @ U.T
    Y = 0.5 * (Y + Y.T)
    return Y / np.trace(Y), H


def _pair_exponents(U: np.ndarray, V: np.ndarray, Z: np.ndarray, gamma: float) -> np.ndarray:
    """``[(u_i - v_j)' Z (u_i - v_j) / (2 gamma)]``, one difference at a time."""
    Z = np.asarray(Z, dtype=np.float64)
    return np.array([[(u - v) @ Z @ (u - v) / (2.0 * gamma) for v in V] for u in U])


def surrogate(Z, Z0, data, gamma: float) -> float:
    """Convex majorant of the gaussian objective F: cross term exact,
    within-group terms linearized at ``Z0``.  Anchored (equal to F at Z0) and
    never below F."""
    n, m = data.n, data.m
    cross = 2.0 * float(np.exp(-_pair_exponents(data.X, data.Y, Z, gamma)).sum()) / (n * m)

    def lin_within(U, count):
        s0 = _pair_exponents(U, U, Z0, gamma)
        s = _pair_exponents(U, U, Z, gamma)
        return float(np.sum(np.exp(-s0) * (1.0 - (s - s0)))) / (count * count)

    return cross - lin_within(data.X, n) - lin_within(data.Y, m)


def stochastic_gradient(Z, Z0, data, gamma: float, lam: float, batch: int, gen) -> np.ndarray:
    """The library's estimate of the (sub)gradient of ``surrogate(.; Z0) +
    lam ||.||_1``: ``GaussianPairTerms.surrogate_grad``, the oracle
    ``ccp_select`` runs, exact when ``batch >= n*m``."""
    terms = GaussianPairTerms(data, gamma)
    within = terms.within_grad_at(np.asarray(Z0, dtype=np.float64))
    return terms.surrogate_grad(np.asarray(Z, dtype=np.float64), gen, within, lam, batch)


@dataclass(frozen=True)
class OracleSelector:
    """Baseline that always returns a fixed support with equal weights."""

    support: tuple
    d: int
    name: str = "oracle"

    def select(self, train, kernel, rng):
        z = np.zeros(train.dim)
        z[list(self.support)] = 1.0
        return make_selection(z, self.d)


@dataclass(frozen=True)
class RandomSelector:
    """Baseline that picks a uniformly random size-d support."""

    d: int
    name: str = "random"

    def select(self, train, kernel, rng):
        g = rng.generator()
        idx = g.choice(train.dim, size=self.d, replace=False)
        z = np.zeros(train.dim)
        z[idx] = 1.0
        return make_selection(z, self.d)


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
