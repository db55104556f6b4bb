"""First-order optimization over the spectrahedron: the PSD matrices of
trace one.

The mirror map is the von Neumann entropy, so a step adds the gradient to the
iterate's dual, ``L = log Z``, and exponentiates:

    L+ = L - step * G,   Z+ = exp(L+) / tr(exp(L+)).

A point this module builds carries its dual, so a step never decomposes a
matrix: ``exp`` is a Taylor polynomial with scaling and squaring, numpy
matrix products only.  ``smd_run`` iterates this update with stochastic
gradient draws and returns the uniform average of the iterates, the estimator
the convergence rate is stated for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RandomSource, _check_symmetric
from .core import _freeze as _freeze_input

# eigenvalues are floored at this value before taking logs of a point that
# carries no dual
_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectraPoint:
    """Symmetric PSD matrix of trace one.

    The constructor validates ``Z``.  Points built by ``mirror_step`` and
    ``smd_run`` are feasible by construction and skip that check.  Such a
    point, except ``smd_run``'s average, also carries its dual ``L = log Z +
    c I`` for some ``c``, with no eigenvalue above 0 up to rounding: a mirror
    step's output carries ``log Z`` itself, ``identity(k)`` the zero matrix.
    A step starts from the carried dual and decomposes nothing; from a point
    without one it takes ``log Z`` from one ``eigh`` of ``Z``.
    """

    Z: np.ndarray
    _dual: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        Z = _freeze_input(_check_symmetric(self.Z, "Z", 1e-10))
        if float(np.linalg.eigvalsh(Z)[0]) < -1e-9:
            raise ValueError("Z must be positive semidefinite")
        if abs(float(np.trace(Z)) - 1.0) > 1e-9:
            raise ValueError("trace of Z must equal 1")
        object.__setattr__(self, "Z", Z)

    @classmethod
    def _built(cls, Z: np.ndarray, dual: np.ndarray | None = None) -> "SpectraPoint":
        """A point this module computed, taken without validation; ``dual``
        is exactly symmetric, ``log Z + c I`` up to rounding, with no
        eigenvalue above 0."""
        p = object.__new__(cls)
        for a in (Z,) if dual is None else (Z, dual):
            a.flags.writeable = False
        object.__setattr__(p, "Z", Z)
        object.__setattr__(p, "_dual", dual)
        return p

    @property
    def dim(self) -> int:
        return self.Z.shape[0]

    @classmethod
    def identity(cls, k: int) -> "SpectraPoint":
        """The maximum-entropy point ``I / k``, carrying the zero dual."""
        return cls._built(np.eye(k) * (1.0 / k), np.zeros((k, k)))


def _dual_of(p: SpectraPoint) -> np.ndarray:
    """The dual ``p`` carries, else ``log Z`` from ``eigh(Z)`` with the
    eigenvalues floored at ``_LOG_FLOOR`` and symmetrized.  Exactly symmetric
    either way, so that ``L - step G`` is too when ``G`` is."""
    if p._dual is not None:
        return p._dual
    w, U = np.linalg.eigh(p.Z)
    L = (U * np.log(np.maximum(w, _LOG_FLOOR))) @ U.T
    return 0.5 * (L + L.T)


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


# exp(A) by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4),
# 2005; Al-Mohy & Higham 2009): the Taylor polynomial T of degree m = 14 at
# X = A / 2^s, s >= 0 the least with ||A||_inf < 2^s theta, theta = 1/2,
# squared s times.  The shifted duals have eigenvalues in [-||A||, 0] (up to
# rounding), so X's lie in [-theta, 0], where |e^x - T(x)| / e^x <=
# theta^(m+1) / (m+1)! * e^theta = 3.8e-17 <= u = 2^-53; degree 13 would
# give 1.2e-15.
_EXP_THETA = 0.5
# T(X) = B0 + X^4 (B1 + X^4 (B2 + X^4 B3)) (Paterson & Stockmeyer 1973): row j
# holds the coefficients of I, X, X^2 and X^3 in B_j, 1/k! for k = 4j + i.
_EXP_BLOCKS = np.array(
    [[1.0 / math.factorial(4 * j + i) if 4 * j + i <= 14 else 0.0 for i in range(4)] for j in range(4)]
)


def _expm(A: np.ndarray) -> np.ndarray:
    """``exp(A)`` for a symmetric ``A`` with no eigenvalue above 0, up to
    rounding; six matrix products for the polynomial and one per squaring."""
    D = A.shape[0]
    # ||A||_inf / theta < 2^s; frexp neither raises nor loops on inf or NaN
    s = max(0, math.frexp(float(np.abs(A).sum(axis=1).max()) / _EXP_THETA)[1])
    X = A * 0.5**s
    P = np.empty((4, D, D))
    P[0] = np.eye(D)
    P[1] = X
    np.matmul(X, X, out=P[2])
    np.matmul(P[2], X, out=P[3])
    X4 = P[2] @ P[2]
    B = (_EXP_BLOCKS @ P.reshape(4, -1)).reshape(4, D, D)
    Y = B[3]
    for Bj in B[2::-1]:
        Y = X4 @ Y
        Y += Bj
    for _ in range(s):
        Y = Y @ Y
    return Y


def _exp_point(H: np.ndarray, b: float) -> SpectraPoint:
    """The point ``exp(H) / tr``, carrying ``H - log(tr) I``, for ``b`` at
    least ``lambda_max(H)`` and an exactly symmetric ``H``, which it takes
    over and shifts in place.

    The exponential is taken of ``H - b I``: its top eigenvalue lies in
    ``[lambda_max(H) - b, 0]``, so nothing overflows, and the trace does not
    underflow while ``b - lambda_max(H)`` stays far below 700.
    """
    diag = H.reshape(-1)[:: H.shape[0] + 1]
    diag -= b
    Y = _expm(H)
    tr = float(np.trace(Y))
    diag -= math.log(tr)
    return SpectraPoint._built((Y + Y.T) * (0.5 / tr), H)


def mirror_step(p: SpectraPoint, G: np.ndarray, step: float) -> SpectraPoint:
    """One entropic step against gradient ``G`` (descent direction).

    The exponent's shift is the top eigenvalue of ``L - step G`` from one
    ``eigvalsh``, so a step of any size stays in floating-point range.
    """
    G = _check_symmetric(G, "gradient", 1e-8)
    if G.shape[0] != p.dim:
        raise ValueError("gradient dimension mismatch")
    H = _dual_of(p) - step * G
    return _exp_point(H, float(np.linalg.eigvalsh(H)[-1]))


def _mirror_step(p: SpectraPoint, G: np.ndarray, step: float, b: float) -> SpectraPoint:
    """``mirror_step`` for a gradient already checked (exactly symmetric, as
    ``_check_symmetric`` returns it, and of the point's dimension) and ``b``
    at least ``lambda_max(L - step G)``."""
    return _exp_point(_dual_of(p) - step * G, b)


def entropy_radius(k: int) -> float:
    """``log max(k, 2)``, a bound on the divergence from ``I / k`` to any point."""
    return float(np.log(max(k, 2)))


def smd_run(
    grad_oracle, p0: SpectraPoint, T_in: int, rng: RandomSource
) -> tuple[SpectraPoint, float]:
    """Averaged stochastic mirror descent from ``p0``: the uniform average of
    the ``T_in`` iterates, trace-renormalized, and ``M``, the largest gradient
    norm seen; ``(p0, 0.0)`` when ``T_in = 0``.

    ``grad_oracle(Z, gen)`` returns a symmetric (sub)gradient estimate at
    ``Z``, drawing from ``rng``'s generator.  Step ``t`` is ``sqrt(V / T_in) /
    max(M_t, 1e-12)``, ``V = entropy_radius(D)``, ``M_t`` the running maximum.
    A step checks the gradient once and decomposes nothing: ``step * ||G||_2
    <= sqrt(V / T_in)``, and the carried dual has no eigenvalue above 0, so
    ``sqrt(V / T_in)`` bounds the exponent's top eigenvalue; only a ``p0``
    that carries no dual costs one ``eigh``.  The gradient's norm
    (``eigvalsh``) is computed only when ``_norm_at_most`` cannot prove it at
    or below ``M_{t-1}``, so every ``M_t`` and step are what computing it on
    every step would give.
    """
    if T_in < 0:
        raise ValueError("T_in must be >= 0")
    if T_in == 0:
        return p0, 0.0
    scale = math.sqrt(entropy_radius(p0.dim) / T_in)
    gen = rng.generator()
    point = p0
    acc = np.zeros_like(p0.Z)
    running_max = 0.0
    for _ in range(T_in):
        G = _check_symmetric(grad_oracle(point.Z, gen), "gradient", 1e-8)
        if G.shape[0] != p0.dim:
            raise ValueError("gradient dimension mismatch")
        if not _norm_at_most(G, running_max):
            running_max = max(running_max, spectral_norm(G))
        point = _mirror_step(point, G, scale / max(running_max, 1e-12), scale)
        acc += point.Z
    avg = acc / T_in  # iterates are exactly symmetric, so is their sum
    avg *= 1.0 / float(np.trace(avg))
    return SpectraPoint._built(avg), running_max
