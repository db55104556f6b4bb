"""Sphere-constrained quadratic maximization oracle.

``lambda_set(S, A, t)`` computes ``max { z'Az + t'z : ||z||_2 = 1,
supp(z) in S }``, re-embeds the maximizer, and certifies it: a multiplier
``mu >= lambda_max(A_S)`` with ``||2(mu I - A_S) z - t_S||`` small.  The
full support ``range(D)`` gives the unconstrained sphere maximum.  The oracle
decomposes ``A_S = Q diag(lam) Q'`` once and solves the secular equation
``||z(mu)|| = 1`` with ``z(mu) = Q diag(1 / (2(mu - lam))) Q't`` for
``mu > lambda_max`` (More & Sorensen 1983) by Brent's method.  When the
linear term is (numerically) orthogonal to the leading eigenspace and
``mu = lambda_max`` leaves ``||z|| < 1`` (the hard case), a leading
eigenvector, its largest entry positive, restores unit norm; ``t = 0`` is
such a case.

``lambda_set`` checks its ``(A, t)`` and is the one-lane case of a stacked
oracle (``_sphere_stack``, ``_sphere_argmax``) that scores many supports of
one checked ``(A, t)`` with one stacked ``eigh``; ``quad``'s solvers call it
on a ``QuadProblem``, checked once when it was built.  Every lane, whatever
its size and even for ``t = 0``, takes the same path through the secular
branches and the certificate, so a support's answer is bit-identical whether
it is scored alone or in a stack.  The certificate's tolerances are relative
to the lane's scale ``1 + max(||t||, |lambda(A)|)``, so the magnitude of the
data does not decide whether a correct answer passes.  Greedy selection takes
each round's argmax from the stack, solving only the lanes whose bound
``lambda_max(A_S) + ||t_S||``, read from the stacked ``eigh``, can still
reach the best value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_symmetric
from .core import _freeze as _freeze_input

# Value resolution of the oracle's callers: local search takes a swap only
# when it raises the oracle value by more than this.
_TOL = 1e-9


@dataclass(frozen=True)
class TrsSolution:
    value: float
    z: np.ndarray
    mu: float
    kkt_residual: float
    hard_case: bool

    def __post_init__(self):
        z = _freeze_input(self.z)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)


def _canonical_sign(z: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(z)))
    return -z if z[j] < 0 else z


def _brentq(f, xa: float, xb: float, xtol=1e-15, rtol=8.9e-16, maxiter=200) -> float:
    """Root of ``f`` bracketed by ``[xa, xb]``, by Brent's method (Brent 1973,
    ch. 4): inverse quadratic or secant steps, bisection when they stall.

    This follows ``scipy.optimize.brentq`` step for step, so it returns the
    same root bit for bit.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("function value is NaN at a bracket end")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"function value is NaN at x={xcur!r}")
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} iterations")


def _secular(lam: np.ndarray, Q: np.ndarray, tt: np.ndarray, tnorm: float):
    """Solve ||z(mu)|| = 1 for mu >= lambda_max(A) given ``A = Q diag(lam) Q'``
    and ``tt = Q't``."""
    k = lam.shape[0]
    lmax = float(lam[-1])
    scale = max(1.0, abs(lmax), tnorm)
    lead = lam >= lmax - 1e-10 * scale
    t_lead = float(np.linalg.norm(tt[lead]))

    def norm2(mu):
        return float(np.sum((tt / (2.0 * (mu - lam))) ** 2))

    def root_in(lo, hi):
        while norm2(hi) > 1.0:
            hi = lmax + 2.0 * (hi - lmax)
        mu = _brentq(lambda m: norm2(m) - 1.0, lo, hi)
        return mu, Q @ (tt / (2.0 * (mu - lam)))

    def root_from_floor(hi):
        lo = lmax + max(1e-300, 1e-15 * scale)
        if norm2(lo) >= 1.0:
            return root_in(lo, hi)
        # Any root lies within lo - lmax of lmax, or there is none (norm2
        # stays below 1 as mu -> lmax+): lo stands for it, and the leading
        # eigenvector's coefficient, signed like t's, fills the norm.  This
        # also covers ||t|| below the resolution of lmax, where hi rounds to lmax.
        zt = tt / (2.0 * (lo - lam))
        zt[-1] = 0.0
        zt[-1] = np.copysign(np.sqrt(1.0 - float(np.sum(zt**2))), tt[-1])
        return lo, Q @ zt

    hi = lmax + 0.5 * tnorm + 1e-300
    hard = False
    if t_lead > 1e-9 * max(tnorm, 1e-300):
        # interior secular root exists: norm2 -> inf as mu -> lmax+
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
            # boundary multiplier (t = 0 included); pad with a leading
            # eigenvector, signed canonically, to reach the sphere
            hard = True
            mu = lmax
            z = Q @ zt + np.sqrt(max(0.0, 1.0 - nrm2)) * _canonical_sign(Q[:, -1])
        else:
            mu, z = root_from_floor(hi)
    nz = float(np.linalg.norm(z))
    if nz > 0:
        z = z / nz
    return z, float(mu), hard


def _check_finite(A, t) -> None:
    if not (np.isfinite(A).all() and np.isfinite(t).all()):
        raise ValueError("A and t must be finite")


def _oracle_input(A, t) -> tuple[np.ndarray, np.ndarray]:
    """``A`` and ``t`` as float64 after the checks the oracle's input passes:
    finite entries, symmetric ``A`` (its symmetric part is used) and matching
    dimensions.  An exactly symmetric float64 ``A`` comes back as it is."""
    A = np.asarray(A, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    _check_finite(A, t)
    A = _check_symmetric(A, "A", 1e-10)
    if t.shape[0] != A.shape[0]:
        raise ValueError("t must match the dimension of A")
    return A, t


def _certified(A, t, z, mu: float, lam, value: float, tnorm: float) -> float:
    """A lane's KKT residual, once the lane passes its certificate; otherwise
    ``ArithmeticError``.  With the lane's scale
    ``s = 1 + max(||t||, |lambda_min|, |lambda_max|)``, its KKT residual is at
    most ``1e-6 s``, ``mu >= lambda_max - 1e-7 s``, and the value, multiplier,
    residual and scale are finite (nothing overflowed float64)."""
    res = float(np.linalg.norm(2.0 * (mu * z - A @ z) - t))
    lmax = float(lam[-1])
    s = 1.0 + max(tnorm, abs(float(lam[0])), abs(lmax))
    # written so that a NaN fails, as does anything that overflowed
    if not (
        res <= 1e-6 * s
        and lmax - 1e-7 * s <= mu < math.inf
        and math.isfinite(value)
        and math.isfinite(s)
    ):
        raise ArithmeticError(
            f"sphere maximizer failed its optimality certificate (value {value!r}, "
            f"multiplier {mu!r}, residual {res!r}, scale {s!r})"
        )
    return res


def _solve_lane(a, tv, lam, Q, tt):
    """Sphere maximum of one lane ``(a, tv)`` of any size, from its slice of
    a stacked ``eigh`` (``lam``, ``Q``) and ``tt = Q'tv``, with its own
    certificate.  Returns ``(value, z, mu, kkt_residual, hard_case)``.
    Overflow stays silent: the certificate fails a lane that overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        tnorm = float(np.linalg.norm(tv))
        z, mu, hard = _secular(lam, Q, tt, tnorm)
        value = float(z @ a @ z + tv @ z)
        return value, z, mu, _certified(a, tv, z, mu, lam, value, tnorm), hard


def _eig_stack(As: np.ndarray, ts: np.ndarray):
    """``(lam, Q, Q't)`` of a stack of problems of one size k, from one
    stacked ``eigh`` and one stacked product; they equal the per-matrix ones
    bit for bit, so a lane's answer does not depend on the stack it sits in."""
    lam, Q = np.linalg.eigh(As)
    return lam, Q, (ts[:, None, :] @ Q)[:, 0, :]


# Sub-matrix entries one stacked call gathers at most (2 MiB of float64), so
# a round's peak memory stays bounded however many supports it scores.
_STACK_ENTRIES = 1 << 18


def _stacks(A, t, supports):
    """``(offset, As, ts)`` for consecutive stacks of ``supports``, sorted,
    duplicate-free index rows of one length k, of a checked ``(A, t)`` (see
    ``_oracle_input``); each stack gathers at most ``_STACK_ENTRIES``
    sub-matrix entries (or one support, if that is larger)."""
    rows = np.asarray(supports, dtype=np.intp)
    k = rows.shape[1]
    step = max(1, _STACK_ENTRIES // (k * k))
    for s in range(0, len(rows), step):
        r = rows[s : s + step]
        yield s, A[r[:, :, None], r[:, None, :]], t[r]


def _sphere_stack(A, t, supports) -> list:
    """One ``_solve_lane`` tuple per support of one checked ``(A, t)``, stack
    by stack (see ``_stacks``).  Lane ``i`` equals
    ``lambda_set(supports[i], A, t)`` before re-embedding."""
    lanes = []
    for _, As, ts in _stacks(A, t, supports):
        lam, Q, tts = _eig_stack(As, ts)
        lanes += [_solve_lane(As[i], ts[i], lam[i], Q[i], tts[i]) for i in range(len(ts))]
    return lanes


def _sphere_argmax(A, t, supports) -> tuple:
    """``(i, lane)``: the first maximum in index order of the lanes that
    ``_sphere_stack(A, t, supports)`` returns, solving only the lanes
    that can reach it.

    Lane ``S`` is at most ``lambda_max(A_S) + ||t_S||``, read from its
    stack's ``eigh``.  Each stack's lanes are solved in order of falling
    bound, until the next bound plus a margin for rounding in the eigenvalues
    and in a lane's value, ``1e-9 (1 + max |lambda(A_S)| + ||t_S||)``, falls
    below the best value so far, which carries from stack to stack.  A bound
    that overflows or is NaN counts as infinite, so its lane is solved first
    and its certificate is checked.  A solved lane is bit-identical to its
    ``_sphere_stack`` lane."""
    best, best_value, best_lane = -1, -math.inf, None
    for s, As, ts in _stacks(A, t, supports):
        lam, Q, tts = _eig_stack(As, ts)
        lo, hi = lam[:, 0], lam[:, -1]
        with np.errstate(over="ignore"):
            tn = np.sqrt(np.einsum("ij,ij->i", ts, ts))
            bound = hi + tn
            margin = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)) + tn)
        bound[np.isnan(bound)] = math.inf
        for i in np.argsort(-bound, kind="stable").tolist():
            if bound[i] + margin[i] < best_value:
                break
            lane = _solve_lane(As[i], ts[i], lam[i], Q[i], tts[i])
            if lane[0] > best_value or (lane[0] == best_value and s + i < best):
                best, best_value, best_lane = s + i, lane[0], lane
    return best, best_lane


def lambda_set(S, A: np.ndarray, t: np.ndarray) -> TrsSolution:
    """Oracle value of a support: ``max z'Az + t'z`` with ``supp(z)`` inside S.

    The maximizer is re-embedded into the ambient dimension.
    """
    A, t = _oracle_input(A, t)
    idx = sorted(int(i) for i in S)
    if not idx:
        raise ValueError("support must be non-empty")
    D = t.shape[0]
    if idx[0] < 0 or idx[-1] >= D:
        raise ValueError("support indices outside the variable range")
    if len(set(idx)) != len(idx):
        raise ValueError("support contains repeated indices")
    value, z_sub, mu, res, hard = _sphere_stack(A, t, [idx])[0]
    z = np.zeros(D)
    z[idx] = z_sub
    return TrsSolution(value, z, mu, res, hard)
