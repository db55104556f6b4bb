import json
import tracemalloc

import numpy as np
import pytest

from mmdselect import gauss, spectrahedron
from mmdselect.bench import ExperimentConfig, SynthSpec, blas_threads, run_power_experiment
from mmdselect.core import (
    RandomSource,
    TwoSampleData,
    _openblas_thread_functions,
    derive_stream,
    make_selection,
)
from mmdselect.gauss import (
    GaussConfig,
    GaussianPairTerms,
    ccp_select,
    extract_selection,
    gauss_objective,
    lambda_grid_select,
    write_trajectory,
)
from mmdselect.mmd import KernelSpec, mmd_sq
from mmdselect.selectors import Selector

from oracles import central_difference_gradient, stochastic_gradient, surrogate


def rand_data(gen, n, m, D, shift=0.0):
    return TwoSampleData(gen.standard_normal((n, D)) + shift, gen.standard_normal((m, D)))


def rand_density(gen, D):
    B = gen.standard_normal((D, D))
    Z = B @ B.T + 1e-6 * np.eye(D)
    return Z / np.trace(Z)


def test_objective_zero_for_identical_groups():
    M = np.random.default_rng(0).standard_normal((5, 3))
    data = TwoSampleData(M, M.copy())
    Z = np.eye(3) / 3.0
    assert gauss_objective(Z, data, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_objective_single_pair_value():
    data = TwoSampleData(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
    val = gauss_objective(np.eye(2) / 2.0, data, 0.5)
    assert val == pytest.approx(2.0 * np.exp(-0.5) - 2.0, abs=1e-12)


def test_objective_range():
    gen = np.random.default_rng(2)
    for _ in range(10):
        data = rand_data(gen, 6, 5, 4)
        val = gauss_objective(rand_density(gen, 4), data, 1.3)
        assert -2.0 < val < 2.0


def test_rank_one_identity_with_statistic():
    gen = np.random.default_rng(7)
    for _ in range(20):
        data = rand_data(gen, 6, 4, 5, shift=0.3)
        z = gen.standard_normal(5)
        z /= np.linalg.norm(z)
        gamma = float(gen.random() + 0.5)
        F = gauss_objective(np.outer(z, z), data, gamma)
        S2 = mmd_sq(KernelSpec.gaussian(gamma), make_selection(z, 5), data)
        assert F == pytest.approx(-S2, abs=1e-10)


def test_surrogate_anchoring():
    gen = np.random.default_rng(11)
    data = rand_data(gen, 5, 6, 4)
    Z0 = rand_density(gen, 4)
    assert surrogate(Z0, Z0, data, 1.0) == pytest.approx(gauss_objective(Z0, data, 1.0), abs=1e-10)


def test_surrogate_majorizes():
    gen = np.random.default_rng(13)
    data = rand_data(gen, 5, 5, 5)
    for _ in range(100):
        Z = rand_density(gen, 5)
        Z0 = rand_density(gen, 5)
        assert surrogate(Z, Z0, data, 0.9) >= gauss_objective(Z, data, 0.9) - 1e-10


def test_surrogate_within_part_affine():
    # second difference along a line equals that of the cross term alone
    gen = np.random.default_rng(17)
    data = rand_data(gen, 4, 4, 3)
    Z0 = rand_density(gen, 3)
    A = rand_density(gen, 3)
    B = rand_density(gen, 3)

    def second_diff(fn):
        e = 0.25
        mid = 0.5 * (A + B)
        lo = mid + e * (A - B)
        hi = mid - e * (A - B)
        return fn(lo) + fn(hi) - 2.0 * fn(mid)

    terms = GaussianPairTerms(data, 1.1)

    def cross_only(Z):
        return 2.0 * float(np.exp(-terms._exponents(terms.X, terms.Y, Z)).sum()) / (
            terms.n * terms.m
        )

    d_sur = second_diff(lambda Z: surrogate(Z, Z0, data, 1.1))
    d_cross = second_diff(cross_only)
    assert d_sur == pytest.approx(d_cross, abs=1e-10)


def test_full_batch_gradient_exact():
    gen = np.random.default_rng(19)
    data = rand_data(gen, 4, 5, 3)
    Z = rand_density(gen, 3)
    Z0 = rand_density(gen, 3)
    g = derive_stream(RandomSource(0), 0).generator()
    G1 = stochastic_gradient(Z, Z0, data, 0.8, 0.01, batch=4 * 5, gen=g)
    G2 = stochastic_gradient(Z, Z0, data, 0.8, 0.01, batch=10**9, gen=g)
    assert np.allclose(G1, G2, atol=1e-12)


def test_minibatch_gradient_unbiased():
    gen = np.random.default_rng(23)
    data = rand_data(gen, 5, 5, 4)
    Z = rand_density(gen, 4)
    Z0 = rand_density(gen, 4)
    g = RandomSource(5).generator()
    exact = stochastic_gradient(Z, Z0, data, 1.0, 0.0, batch=25, gen=g)
    draws = np.zeros_like(exact)
    reps = 10000
    for _ in range(reps):
        draws += stochastic_gradient(Z, Z0, data, 1.0, 0.0, batch=4, gen=g)
    draws /= reps
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(draws - exact)) / scale < 3e-2


def test_gradient_symmetric():
    gen = np.random.default_rng(29)
    data = rand_data(gen, 4, 4, 3)
    G = stochastic_gradient(
        np.diag([0.5, 0.3, 0.2]), rand_density(gen, 3), data, 1.0, 0.0, 5, RandomSource(2).generator()
    )
    assert np.array_equal(G, G.T)


def test_gradient_matches_central_differences():
    gen = np.random.default_rng(31)
    data = rand_data(gen, 4, 4, 4)
    Z = rand_density(gen, 4)
    Z0 = rand_density(gen, 4)
    gamma, lam = 0.9, 0.0
    exact = stochastic_gradient(Z, Z0, data, gamma, lam, batch=16, gen=RandomSource(0).generator())
    approx = central_difference_gradient(lambda M: surrogate(M, Z0, data, gamma), Z)
    denom = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(exact - approx)) / denom < 1e-5


def test_extract_rank_one():
    z = np.array([0.0, 0.6, 0.0, -0.8])
    sel = extract_selection(np.outer(z, z), 2)
    assert sel.support == (1, 3)
    assert np.allclose(np.abs(sel.z), np.abs(z), atol=1e-10)
    assert sel.z[1] > 0  # sign convention: first nonzero positive


def test_extract_diagonal():
    sel = extract_selection(np.diag([0.7, 0.3]), 1)
    assert sel.support == (0,)
    assert np.allclose(sel.z, [1.0, 0.0])


def test_extract_tied_eigenvalues_deterministic():
    Z = 0.5 * np.outer([1, 0, 0], [1, 0, 0]) + 0.5 * np.outer([0, 1, 0], [0, 1, 0])
    a = extract_selection(Z, 1)
    b = extract_selection(Z, 1)
    assert a.support == b.support
    assert set(a.support) <= {0, 1}


def test_extract_identity_matrix_first_d():
    sel = extract_selection(np.eye(5) / 5.0, 3)
    assert set(sel.support) <= {0, 1, 2}


def test_ccp_null_data_flags_no_signal():
    gen = np.random.default_rng(37)
    M = gen.standard_normal((30, 6))
    data = TwoSampleData(M, M.copy())
    cfg = GaussConfig(gamma=2.0, lam=0.01, T_out=2, T_in=20, batch=32, rng=RandomSource(3))
    result = ccp_select(data, cfg, 2)
    assert result.selection.no_signal
    assert abs(result.trajectory[-1].mmd_part) < 1e-6


def test_ccp_degenerate_budget_returns_start_extraction():
    gen = np.random.default_rng(41)
    data = rand_data(gen, 8, 8, 5)
    cfg = GaussConfig(gamma=1.0, lam=0.0, T_out=1, T_in=0, batch=8, rng=RandomSource(0))
    result = ccp_select(data, cfg, 2)
    assert set(result.selection.support) <= {0, 1}
    assert np.allclose(result.Z.Z, np.eye(5) / 5.0, atol=1e-12)


def test_ccp_recovers_single_shifted_coordinate():
    hits = 0
    for s in range(10):
        gen = np.random.default_rng(100 + s)
        X = gen.standard_normal((150, 10))
        Y = gen.standard_normal((150, 10))
        X[:, 0] *= 2.5  # variance shift in the first coordinate only
        data = TwoSampleData(X, Y)
        cfg = GaussConfig(gamma=1.0, lam=0.001, T_out=4, T_in=80, batch=128, rng=RandomSource(s))
        result = ccp_select(data, cfg, 1)
        hits += result.selection.support == (0,)
    assert hits >= 8


def test_ccp_outer_objective_nonincreasing_within_slack():
    gen = np.random.default_rng(43)
    data = rand_data(gen, 60, 60, 8, shift=0.8)
    cfg = GaussConfig(gamma=2.0, lam=0.01, T_out=5, T_in=60, batch=64, rng=RandomSource(11))
    result = ccp_select(data, cfg, 3)
    objs = [p.objective for p in result.trajectory]
    slack = 10.0 * max(p.gap_estimate for p in result.trajectory)
    assert all(b <= a + slack for a, b in zip(objs, objs[1:]))


def test_ccp_deterministic():
    gen = np.random.default_rng(47)
    data = rand_data(gen, 20, 20, 5, shift=0.5)
    cfg = GaussConfig(gamma=1.0, lam=0.01, T_out=2, T_in=30, batch=16, rng=RandomSource(9))
    r1 = ccp_select(data, cfg, 2)
    r2 = ccp_select(data, cfg, 2)
    assert np.array_equal(r1.Z.Z, r2.Z.Z)
    assert r1.selection.support == r2.selection.support


@pytest.mark.parametrize("batch", [64, 300 * 300])
def test_ccp_holds_at_most_two_pair_tables(batch):
    # each n x m exponent table is reduced to its sums before the next one
    # is built; keeping all three alive peaked at about 7 tables
    gen = np.random.default_rng(59)
    data = rand_data(gen, 300, 300, 6, shift=0.3)
    cfg = GaussConfig(gamma=3.0, T_out=1, T_in=2, batch=batch, rng=RandomSource(0))
    tracemalloc.start()
    try:
        ccp_select(data, cfg, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 300 * 300 * 8


def test_lambda_grid_singleton():
    gen = np.random.default_rng(53)
    tr = rand_data(gen, 10, 10, 4)
    val = rand_data(gen, 10, 10, 4)
    cfg = GaussConfig(gamma=1.0, T_out=1, T_in=5, batch=8, rng=RandomSource(1))
    assert lambda_grid_select(tr, val, cfg, 2, (0.0,)) == 0.0


def test_lambda_grid_picks_strictly_better_weight(monkeypatch):
    # stub the inner optimizer so one specific weight yields a selection with
    # strictly higher validation statistic; that weight must be chosen
    import mmdselect.gauss as gauss_mod

    X = np.zeros((6, 2))
    Yv = np.zeros((6, 2))
    Yv[:, 0] = 2.0  # validation gap lives on coordinate 0
    tr = TwoSampleData(np.zeros((6, 2)), np.ones((6, 2)))
    val = TwoSampleData(X, Yv)

    def fake_ccp(data, cfg, d):
        support = (0,) if cfg.lam == 0.05 else (1,)
        z = np.zeros(2)
        z[support[0]] = 1.0
        sel = make_selection(z, d)
        return gauss_mod.CcpResult(selection=sel, trajectory=(), Z=None)

    monkeypatch.setattr(gauss_mod, "ccp_select", fake_ccp)
    cfg = GaussConfig(gamma=1.0, T_out=1, T_in=1, rng=RandomSource(0))
    assert gauss_mod.lambda_grid_select(tr, val, cfg, 1, (0.0, 0.05, 0.5)) == 0.05


def test_lambda_grid_picks_argmax_and_breaks_ties_low():
    gen = np.random.default_rng(59)
    M = gen.standard_normal((16, 4))
    null_tr = TwoSampleData(M, M.copy())
    null_val = TwoSampleData(M[:8], M[:8].copy())
    cfg = GaussConfig(gamma=1.0, T_out=1, T_in=0, batch=8, rng=RandomSource(2))
    # identical groups: every lambda scores 0 on validation; smallest wins
    assert lambda_grid_select(null_tr, null_val, cfg, 2, (0.5, 0.0, 0.1)) == 0.0


def test_lambda_grid_checks_every_weight_before_the_first_run(monkeypatch):
    import mmdselect.gauss as gauss_mod

    runs = []
    monkeypatch.setattr(gauss_mod, "ccp_select", lambda data, cfg, d: runs.append(cfg.lam))
    data = rand_data(np.random.default_rng(3), 6, 6, 3)
    cfg = GaussConfig(gamma=1.0, T_out=1, T_in=0)
    # the bad weight sorts after a good one, or has no order (nan)
    for grid in [(0.1, np.nan), (0.1, np.inf), (np.nan, 0.1)]:
        with pytest.raises(ValueError, match=r"l1 weights \(lam, lambda_grid\) must be finite"):
            gauss_mod.lambda_grid_select(data, data, cfg, 1, grid)
    with pytest.raises(ValueError, match="lambda grid must be non-empty"):
        gauss_mod.lambda_grid_select(data, data, cfg, 1, ())
    assert runs == []


def test_trajectory_dump_format(tmp_path):
    gen = np.random.default_rng(61)
    data = rand_data(gen, 10, 10, 3)
    cfg = GaussConfig(gamma=1.0, lam=0.05, T_out=2, T_in=10, batch=8, rng=RandomSource(0))
    result = ccp_select(data, cfg, 1)
    path = tmp_path / "traj.jsonl"
    write_trajectory(str(path), result.trajectory)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(result.trajectory)
    rec = json.loads(lines[1])
    assert {"iteration", "objective", "mmd_part", "penalty", "l1_norm", "lead_eigenvalue"} <= set(rec)


def test_null_sweep_ccp_takes_few_gradient_norms(monkeypatch):
    # null-sweep's gauss-ccp: D=60, 50+50 training rows, T_out=2, T_in=60,
    # batch=128.  The norm certificate spares eigvalsh on ~9 steps in 10.
    counts = {"steps": 0, "norms": 0}
    certificate, norm = spectrahedron._norm_at_most, spectrahedron.spectral_norm

    def counted_certificate(G, r):
        counts["steps"] += 1
        return certificate(G, r)

    def counted_norm(G):
        counts["norms"] += 1
        return norm(G)

    monkeypatch.setattr(spectrahedron, "_norm_at_most", counted_certificate)
    monkeypatch.setattr(spectrahedron, "spectral_norm", counted_norm)
    selector = Selector("gauss-ccp", 3, {"T_out": 2, "T_in": 60, "batch": 128})
    run_power_experiment(
        ExperimentConfig(
            spec=SynthSpec(blocks=20, n=100, m=100, mode="null"),
            selectors=(selector,),
            trials=8,
            n_permutations=10,
            rng=RandomSource(0),
        )
    )
    assert counts["steps"] == 8 * 2 * 60
    assert counts["norms"] <= 0.12 * counts["steps"]


@pytest.mark.skipif(blas_threads() is None, reason="numpy's OpenBLAS not found")
def test_ccp_runs_at_one_blas_thread_and_restores_the_callers_count(monkeypatch):
    get, put = _openblas_thread_functions()
    seen = []

    def failing_smd_run(*args, **kwargs):
        seen.append(get())
        raise RuntimeError("inner solver failed")

    monkeypatch.setattr(gauss, "smd_run", failing_smd_run)
    data = rand_data(np.random.default_rng(5), 10, 10, 3)
    before = get()
    put(2)  # a caller count the pin would visibly change
    try:
        with pytest.raises(RuntimeError, match="inner solver failed"):
            ccp_select(data, GaussConfig(gamma=1.0, T_out=1, T_in=2), 1)
        assert seen == [1]
        assert get() == 2
    finally:
        put(before)
