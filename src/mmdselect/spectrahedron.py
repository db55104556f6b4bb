"""First-order optimization over the set of PSD matrices with fixed trace.

The mirror map is the von Neumann entropy, so a step multiplies the iterate by
a matrix exponential in the eigenbasis and renormalizes the trace:

    Y = exp(log Z - step * G),   Z+ = tau * Y / tr(Y).

``smd_run`` iterates this update with stochastic gradient draws and returns
the uniform average of the iterates, the estimator the convergence rate is
stated for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RandomSource, _check_symmetric
from .core import _freeze as _freeze_input

# eigenvalues are floored at this fraction of the trace before taking logs
_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectraPoint:
    """Symmetric PSD matrix with fixed trace ``tau``.

    The constructor validates ``Z``.  Points built by ``mirror_step`` and
    ``smd_run`` are feasible by construction and skip that check; a mirror
    step's output also carries its eigenpairs, so the next step takes
    ``log Z`` without decomposing ``Z``.
    """

    Z: np.ndarray
    tau: float = 1.0
    _eig: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        Z = _freeze_input(_check_symmetric(self.Z, "Z", 1e-10))
        if not self.tau > 0:
            raise ValueError("trace target must be positive")
        w = np.linalg.eigvalsh(Z)
        if float(w[0]) < -1e-9 * max(1.0, self.tau):
            raise ValueError("Z must be positive semidefinite")
        if abs(float(np.trace(Z)) - self.tau) > 1e-9 * max(1.0, self.tau):
            raise ValueError("trace of Z must equal tau")
        object.__setattr__(self, "Z", Z)

    @classmethod
    def _built(cls, Z: np.ndarray, tau: float, eig=None) -> "SpectraPoint":
        """A point this module computed, taken without validation; ``eig`` is
        ``(w, U)`` with ``Z = U diag(w) U'`` up to rounding."""
        p = object.__new__(cls)
        for a in (Z,) if eig is None else (Z, *eig):
            a.flags.writeable = False
        for name, value in (("Z", Z), ("tau", tau), ("_eig", eig)):
            object.__setattr__(p, name, value)
        return p

    @property
    def dim(self) -> int:
        return self.Z.shape[0]

    def eigenpairs(self) -> tuple:
        """``(w, U)``, ascending: the carried pair, else ``eigh(Z)``."""
        return self._eig if self._eig is not None else np.linalg.eigh(self.Z)

    @classmethod
    def identity(cls, k: int, tau: float = 1.0) -> "SpectraPoint":
        p = cls(np.eye(k) * (tau / k), tau=tau)
        return cls._built(p.Z, p.tau, (np.full(k, tau / k), np.eye(k)))


def spectral_norm(G: np.ndarray) -> float:
    """Operator 2-norm of a symmetric matrix: its largest |eigenvalue|."""
    w = np.linalg.eigvalsh(G)
    return float(max(-w[0], w[-1]))


_U = 2.0**-53  # unit roundoff of float64
_TINY = float(np.finfo(np.float64).tiny)  # smallest normal float64, 2^-1022


def _norm_at_most(G: np.ndarray, r: float) -> bool:
    """True only when ``||G||_2 <= r`` is proved, for an exactly symmetric
    ``D x D`` matrix ``G``; False when it is not, when ``r`` is not a normal
    positive number below ``2^1022``, and whenever an entry of ``G`` is inf or
    NaN.

    With ``P = G/r`` and ``P`` symmetric, ``||P||_2^4 = ||P^4||_2 <=
    ||P^4||_F``, so ``||P^4||_F <= 1`` proves the claim.  The test is
    ``f + 16 (D+2) u t^2 <= 1`` in floating point, where ``A = fl(G * fl(1/r))``,
    ``Q = fl(A A)``, ``R = fl(Q Q)``, ``f = fl(||R||_F)`` summed row by row,
    ``t = fl(tr Q)`` and ``u = 2^-53``.  With ``F = ||A||_F`` and the bounds of
    Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1 (an inner
    product of length ``n`` in any order is within ``gamma_n |x|'|y|``,
    ``gamma_n = nu/(1-nu)``) and §3.5 (``|fl(AB) - AB| <= gamma_D |A||B|``),
    to first order in ``u``:

    * scaling: ``A = (1+d0)(P + P o E)`` with ``|d0|, |E_ij| <= u``, so
      ``||P||_2^4 <= ||A||_2^4 + 8u F^4``;
    * products: ``||A^4 - Q^2||_F <= 2 gamma_D F^4`` (from ``Q = A^2 + E2``,
      ``||E2||_F <= gamma_D F^2``) and ``||Q^2 - R||_F <= gamma_D F^4``, so
      ``||A^4||_F <= ||R||_F + 3Du F^4``;
    * the norm: row sums of ``D`` squares, then a sum of ``D`` rows and a
      square root, so ``||R||_F <= f + (2D+1)u F^4``;
    * the final addition to ``f`` rounds by at most ``u F^4``.

    That is ``5(D+2)u F^4`` in all.  ``A`` is exactly symmetric, so the
    diagonal of ``Q`` sums nonnegative terms and ``F^2 <= t (1 + gamma_2D)``;
    the terms of order ``(Du)^2`` (small for ``D <= 2^20``) fit in the spare
    ``11(D+2)u F^4``.  The spare also keeps a certified ``||G||_2`` at least
    ``~2.75(D+2)u r`` below ``r``: ``2.75(D+2)`` times LAPACK's approximate
    error bound ``u ||G||_2`` for the eigenvalues ``eigvalsh`` computes, so the
    computed ``spectral_norm(G)`` does not exceed ``r`` either.

    Underflow adds absolute errors of at most ``D 2^-1074`` to an entry.  They
    matter only when ``F <= 1/2``, and then ``||P||_2 <= ||P||_F < 1``
    directly.  Entries of ``P`` above 1 in magnitude disprove the claim
    (``||P||_2 >= max |P_ij|``), so they are rejected before the products,
    which then cannot overflow.
    """
    if not _TINY <= r < 2.0**1022:  # also NaN; 1/r stays normal
        return False
    s = 1.0 / r
    if not float(np.abs(G).max()) * s <= 1.0:  # also inf and NaN entries
        return False
    A = G * s
    Q = A @ A
    R = Q @ Q
    f = math.sqrt(float(np.einsum("ij,ij->i", R, R).sum()))
    t = float(np.trace(Q))
    return f + 16.0 * (G.shape[0] + 2) * _U * (t * t) <= 1.0


def mirror_step(p: SpectraPoint, G: np.ndarray, step: float) -> SpectraPoint:
    """One entropic step against gradient ``G`` (descent direction).

    ``Z+ = U2 diag(e) U2' * tau / tr`` with ``(e, U2)`` from ``eigh(H)``, so the
    step returns ``Z+`` with those eigenpairs and decomposes only ``H``.
    """
    G = _check_symmetric(G, "gradient", 1e-8)
    if G.shape[0] != p.dim:
        raise ValueError("gradient dimension mismatch")
    return _mirror_step(p, G, step)


def _mirror_step(p: SpectraPoint, G: np.ndarray, step: float) -> SpectraPoint:
    """``mirror_step`` for a gradient already checked: symmetric, of the
    point's dimension."""
    w, U = p.eigenpairs()
    logZ = (U * np.log(np.maximum(w, _LOG_FLOOR * p.tau))) @ U.T
    H = logZ - step * G
    H = 0.5 * (H + H.T)
    w2, U2 = np.linalg.eigh(H)
    e = np.exp(w2 - float(np.max(w2)))  # shift-invariant after trace renorm
    Y = (U2 * e) @ U2.T
    Y = 0.5 * (Y + Y.T)
    c = p.tau / float(np.trace(Y))
    return SpectraPoint._built(Y * c, p.tau, (e * c, U2))


def entropy_radius(k: int, tau: float = 1.0) -> float:
    """Upper bound on the divergence from the scaled identity to any feasible
    point; the usual start ``Z = tau I / k`` gives at most ``tau log k``."""
    return tau * float(np.log(max(k, 2)))


def prop1_step_rule(T: int, radius: float, m_star: float | None = None):
    """Constant step ``sqrt(2 kappa V / (T M^2))`` with ``kappa = 1/2``.

    When ``m_star`` is unknown it is replaced by twice the running maximum of
    observed gradient operator norms.
    """
    if T < 1:
        raise ValueError("T must be >= 1")

    def rule(t: int, running_max: float) -> float:
        m = m_star if m_star is not None else 2.0 * max(running_max, 1e-12)
        return float(np.sqrt(radius / T) / m)

    return rule


@dataclass
class SmdStats:
    """What ``smd_run`` saw: the largest gradient spectral norm, the ``M`` of
    the step rule and of the optimality-gap bound."""

    grad_norm_max: float = 0.0


def smd_run(
    grad_oracle,
    p0: SpectraPoint,
    T_in: int,
    step_rule=None,
    rng: RandomSource | None = None,
    stats: SmdStats | None = None,
) -> SpectraPoint:
    """Averaged stochastic mirror descent from ``p0``.

    ``grad_oracle(Z, gen)`` must return a symmetric matrix estimating a
    (sub)gradient at ``Z``; draws come from the generator spawned off ``rng``.
    Returns the uniform average of the ``T_in`` iterates, trace-renormalized.
    ``T_in = 0`` returns the start point unchanged.  A step checks the
    gradient once, decomposes it at most once and ``H`` once (``eigh``): the
    gradient's norm (``eigvalsh``) is computed only when ``_norm_at_most``
    cannot prove that it stays at or below the running maximum, which the
    step rule sees, so the maximum and every step are what they would be with
    the norm computed on every step.  ``stats``, when given, records the
    largest norm.
    """
    if T_in < 0:
        raise ValueError("T_in must be >= 0")
    if T_in == 0:
        return p0
    if step_rule is None:
        step_rule = prop1_step_rule(T_in, entropy_radius(p0.dim, p0.tau))
    gen = (rng or RandomSource(0)).generator()
    point = p0
    acc = np.zeros_like(p0.Z)
    running_max = 0.0
    for t in range(1, T_in + 1):
        G = _check_symmetric(grad_oracle(point.Z, gen), "gradient", 1e-8)
        if G.shape[0] != p0.dim:
            raise ValueError("gradient dimension mismatch")
        if not _norm_at_most(G, running_max):
            running_max = max(running_max, spectral_norm(G))
        point = _mirror_step(point, G, float(step_rule(t, running_max)))
        acc += point.Z
    if stats is not None:
        stats.grad_norm_max = max(stats.grad_norm_max, running_max)
    avg = acc / T_in  # iterates are exactly symmetric, so is their sum
    avg *= p0.tau / float(np.trace(avg))
    return SpectraPoint._built(avg, p0.tau)
