import math
from functools import partial

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from mmdselect import spectrahedron
from mmdselect.core import RandomSource, TwoSampleData
from mmdselect.gauss import GaussianPairTerms
from mmdselect.spectrahedron import (
    SpectraPoint,
    _norm_at_most,
    entropy_radius,
    mirror_step,
    smd_run,
    spectral_norm,
)

from oracles import bregman


def random_density(gen, k):
    B = gen.standard_normal((k, k))
    Z = B @ B.T + 1e-6 * np.eye(k)
    return SpectraPoint(Z * (1.0 / np.trace(Z)))


def test_point_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SpectraPoint(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="semidefinite"):
        SpectraPoint(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="trace"):
        SpectraPoint(np.eye(2))


def test_mirror_step_zero_gradient_identity():
    gen = np.random.default_rng(0)
    p = random_density(gen, 4)
    q = mirror_step(p, np.zeros((4, 4)), 0.3)
    assert np.allclose(q.Z, p.Z, atol=1e-12)


def test_mirror_step_scalar_softmax():
    p = SpectraPoint(np.eye(2) / 2.0)
    step = 1.0
    g = np.log(3.0)
    q = mirror_step(p, np.diag([g, 0.0]), step)
    assert np.allclose(np.diag(q.Z), [0.25, 0.75], atol=1e-12)
    assert q.Z[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_mirror_step_rotation_equivariance():
    gen = np.random.default_rng(5)
    for _ in range(5):
        k = 4
        p = random_density(gen, k)
        G = gen.standard_normal((k, k))
        G = 0.5 * (G + G.T)
        Q, _ = np.linalg.qr(gen.standard_normal((k, k)))
        lhs = mirror_step(SpectraPoint(Q @ p.Z @ Q.T), Q @ G @ Q.T, 0.2).Z
        rhs = Q @ mirror_step(p, G, 0.2).Z @ Q.T
        assert np.allclose(lhs, rhs, atol=1e-8)


def test_mirror_step_rejects_asymmetric_gradient():
    p = SpectraPoint.identity(3)
    with pytest.raises(ValueError, match="symmetric"):
        mirror_step(p, np.triu(np.ones((3, 3))), 0.1)


def test_bregman_identity_zero():
    gen = np.random.default_rng(1)
    p = random_density(gen, 3)
    assert bregman(p, p) == pytest.approx(0.0, abs=1e-10)


def test_bregman_scalar_example():
    a = SpectraPoint(np.diag([0.5, 0.5]))
    b = SpectraPoint(np.diag([0.25, 0.75]))
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert bregman(a, b) == pytest.approx(expected, abs=1e-12)


def test_bregman_nonnegative_sweep():
    gen = np.random.default_rng(3)
    for _ in range(100):
        p = random_density(gen, 3)
        q = random_density(gen, 3)
        assert bregman(p, q) >= -1e-10


def test_entropy_radius_bound():
    gen = np.random.default_rng(9)
    k = 5
    start = SpectraPoint.identity(k)
    for _ in range(20):
        q = random_density(gen, k)
        assert bregman(q, start) <= entropy_radius(k) + 1e-9


def test_smd_linear_objective_converges():
    # minimize <diag(1, 0), Z>: optimum 0 at Z = diag(0, 1)
    C = np.diag([1.0, 0.0])
    out, M = smd_run(lambda Z, gen: C, SpectraPoint.identity(2), 2000, RandomSource(0))
    assert M == 1.0
    assert out.Z[0, 0] < 0.05
    assert np.trace(out.Z) == pytest.approx(1.0, abs=1e-9)


def test_smd_zero_oracle_returns_start():
    p = SpectraPoint.identity(3)
    out, M = smd_run(lambda Z, gen: np.zeros((3, 3)), p, 50, RandomSource(1))
    assert np.allclose(out.Z, p.Z, atol=1e-10)
    assert M == 0.0


def test_smd_t_in_zero_returns_start():
    p = SpectraPoint.identity(3)
    out, M = smd_run(lambda Z, gen: np.eye(3), p, 0, RandomSource(0))
    assert out is p and M == 0.0


def test_smd_doubling_budget_does_not_hurt():
    # noisy linear objective; median final gap over seeds must not grow with T
    C = np.diag([1.0, 0.0])

    def noisy(Z, gen):
        E = gen.standard_normal((2, 2)) * 0.3
        return C + 0.5 * (E + E.T)

    def gap(T, seed):
        out, _ = smd_run(noisy, SpectraPoint.identity(2), T, RandomSource(seed))
        return out.Z[0, 0]

    gaps_short = np.median([gap(250, s) for s in range(10)])
    gaps_long = np.median([gap(500, s) for s in range(10)])
    assert gaps_long <= gaps_short + 1e-3


def test_smd_iterates_feasible():
    gen = np.random.default_rng(12)
    seen = []

    def oracle(Z, g):
        seen.append(Z)
        B = gen.standard_normal((3, 3))
        return 0.5 * (B + B.T)

    smd_run(oracle, SpectraPoint.identity(3), 40, RandomSource(4))
    for Z in seen:
        w = np.linalg.eigvalsh(Z)
        assert w[0] >= -1e-9
        assert np.trace(Z) == pytest.approx(1.0, abs=1e-9)


def test_smd_rejects_asymmetric_oracle():
    with pytest.raises(ValueError, match="symmetric"):
        smd_run(lambda Z, g: np.triu(np.ones((2, 2))), SpectraPoint.identity(2), 3, RandomSource(0))


def test_objective_gap_decay_rate():
    # deterministic linear objective: empirical log-log slope of the gap vs T
    C = np.diag([1.0, 0.0])
    Ts = [100, 1000, 10000]
    gaps = []
    for T in Ts:
        out, _ = smd_run(lambda Z, g: C, SpectraPoint.identity(2), T, RandomSource(0))
        gaps.append(out.Z[0, 0])
    slope = np.polyfit(np.log(Ts), np.log(gaps), 1)[0]
    assert slope <= -0.4


def test_identity_carries_exact_eigenpairs():
    p = SpectraPoint.identity(4)
    w, U = p.eigenpairs()
    assert np.array_equal(p.Z, np.eye(4) / 4.0)
    assert np.array_equal(w, np.full(4, 0.25))
    assert np.array_equal(U, np.eye(4))


def well_conditioned_density(seed, k):
    B = np.random.default_rng(seed).standard_normal((k, k))
    Z = B @ B.T + 0.1 * k * np.eye(k)
    return SpectraPoint(Z * (1.0 / np.trace(Z)))


bounded = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 6),
    step=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_mirror_step_carried_eigenpairs_match_fresh_decomposition(k, step, seed, data):
    G1, G2 = (data.draw(hnp.arrays(np.float64, (k, k), elements=bounded)) for _ in range(2))
    G1, G2 = 0.5 * (G1 + G1.T), 0.5 * (G2 + G2.T)
    q1 = mirror_step(well_conditioned_density(seed, k), G1, step)
    carried = mirror_step(q1, G2, step)  # log Z from the eigenpairs q1 carries
    fresh = mirror_step(SpectraPoint(q1.Z), G2, step)  # from eigh(q1.Z)
    assert np.max(np.abs(carried.Z - fresh.Z)) <= 1e-10
    for q in (q1, carried):
        assert np.array_equal(q.Z, q.Z.T)
        assert float(np.linalg.eigvalsh(q.Z)[0]) >= -1e-12
        assert float(np.trace(q.Z)) == pytest.approx(1.0, rel=1e-12)
        w, U = q.eigenpairs()
        assert np.max(np.abs((U * w) @ U.T - q.Z)) <= 1e-12


def _count_decompositions(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    linalg_modules = [np.linalg, getattr(np.linalg, "_linalg", np.linalg)]  # norm(G, 2) calls svd inside
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in linalg_modules:
            monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("T_in", [1, 7])
def test_smd_step_decomposes_once(monkeypatch, T_in):
    # the gaussian CCP oracle, as ccp_select builds it, on a 12-variable problem
    gen = np.random.default_rng(71)
    data = TwoSampleData(gen.standard_normal((20, 12)) + 0.5, gen.standard_normal((20, 12)))
    terms = GaussianPairTerms(data, 3.0)
    start = SpectraPoint.identity(12)
    oracle = partial(terms.surrogate_grad, within=terms.within_grad_at(start.Z), lam=0.01, batch=16)
    certified = []

    def certificate(G, r, _original=spectrahedron._norm_at_most):
        certified.append(_original(G, r))
        return certified[-1]

    monkeypatch.setattr(spectrahedron, "_norm_at_most", certificate)
    counts = _count_decompositions(monkeypatch)
    smd_run(oracle, start, T_in, RandomSource(3))
    # step 1 has no running maximum to certify against; a later step takes
    # the gradient's norm only when the certificate fails
    assert len(certified) == T_in and not certified[0]
    assert counts == {"eigh": T_in, "eigvalsh": 1 + certified[1:].count(False), "svd": 0}


def test_smd_run_composes_mirror_steps_at_the_running_max():
    # the norms rise, stay below the maximum, and rise again
    gen = np.random.default_rng(31)
    grads = [np.diag([0.5, -2.0, 0.0]), np.eye(3)[[1, 0, 2]], np.diag([1.5, 0.0, 3.0])]
    for scale in (0.1, 4.0, 0.5):
        B = scale * gen.standard_normal((3, 3))
        grads.append(0.5 * B + 0.5 * B.T)
    seen = []

    def oracle(Z, g):
        seen.append(Z)
        return grads[len(seen) - 1]

    T = len(grads)
    out, M = smd_run(oracle, SpectraPoint.identity(3), T, RandomSource(0))
    point, acc, m = SpectraPoint.identity(3), np.zeros((3, 3)), 0.0
    for Z, G in zip(seen, grads):
        assert np.array_equal(Z, point.Z)
        m = max(m, spectral_norm(G))
        point = spectrahedron._mirror_step(point, G, math.sqrt(entropy_radius(3) / T) / m)
        acc += point.Z
    avg = acc / T
    avg *= 1.0 / float(np.trace(avg))
    assert np.array_equal(out.Z, avg)
    assert M == m == max(spectral_norm(G) for G in grads)


def _certificate_holds(G, r):
    """``_norm_at_most(G, r)``, checked against the norm ``eigvalsh`` gives."""
    ok = _norm_at_most(G, r)
    assert not ok or spectral_norm(G) <= r
    return ok


unit_entries = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    v=hnp.arrays(np.float64, st.integers(1, 64), elements=unit_entries),
    sign=st.sampled_from((-1.0, 1.0)),
    scale=st.sampled_from((1e-150, 1e-3, 1.0, 1e3, 1e150)),
    factor=st.sampled_from((1.0, 1.0, 0.5, 1.01, 2.0)),
    ulps=st.one_of(st.integers(-4, 4), st.integers(-256, 256), st.integers(-(2**40), 2**40)),
)
def test_norm_certificate_never_passes_a_norm_above_r(v, sign, scale, factor, ulps):
    # rank one: ||G||_2 = |scale| v'v and ||P^4||_F = ||P||_2^4, so the
    # certificate is at its tightest around r = ||G||_2
    G = (sign * scale) * np.outer(v, v)
    norm = spectral_norm(G)
    r = factor * norm + ulps * np.spacing(factor * norm)
    ok = _certificate_holds(G, r)
    if norm >= 1e-300 and factor > 1.0:
        assert ok
    if factor <= 1.0 and ulps < 0:
        assert not ok


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    ulps=st.integers(-(2**20), 2**20),
)
def test_norm_certificate_on_dense_symmetric_matrices(k, seed, ulps):
    B = np.random.default_rng(seed).standard_normal((k, k))
    G = 0.5 * B + 0.5 * B.T
    norm = spectral_norm(G)
    _certificate_holds(G, norm + ulps * np.spacing(norm))
    # ||P^4||_F <= sqrt(k) ||P||_2^4, so any r past k^(1/8) ||G||_2 certifies
    assert _certificate_holds(G, 1.0001 * k**0.125 * norm)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf, 2.0**1022, 2.0**-1023, 5e-324])
def test_norm_certificate_refuses_r_outside_the_normal_range(r):
    # a subnormal r is refused even for G = 0: 1/r could overflow
    assert not _norm_at_most(np.zeros((3, 3)), r)
    assert not _norm_at_most(np.diag([r / 4, 0.0, 0.0]), r)


@pytest.mark.parametrize("r", [2.0**-1022, 2.0**1021])
def test_norm_certificate_at_the_ends_of_the_normal_range(r):
    G = np.diag([r, -r / 2, 0.0])
    assert _certificate_holds(G / 4, r)
    assert not _certificate_holds(G * 2, r)
    assert not _certificate_holds(np.nextafter(G, np.inf), r)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("r", [1e-300, 1.0, 1e300])
def test_norm_certificate_refuses_non_finite_entries(bad, r):
    G = np.zeros((3, 3))
    G[1, 2] = G[2, 1] = bad
    assert not _norm_at_most(G, r)
    G[1, 2] = G[2, 1] = 0.0
    G[0, 0] = bad
    assert not _norm_at_most(G, r)
