"""Acceptance gate: one test per headline criterion, each printing a
pass/fail line.  Tolerances are fixed here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full gate takes a few
minutes; the heavy statistical reproductions are criteria 1, 7 and 8.
"""

import math

import numpy as np
import pytest

from mmdselect.bench import (
    ExperimentConfig,
    SynthSpec,
    run_power_experiment,
    synth_block_gaussian,
)
from mmdselect.core import RandomSource, TwoSampleData, make_selection
from mmdselect.gauss import GaussConfig, ccp_select, gauss_objective
from mmdselect.linear import LinearCoefficients, linear_coefficients, linear_select
from mmdselect.mmd import KernelSpec, median_heuristic, mmd_sq
from mmdselect.quad import (
    QuadProblem,
    _certified_upper_bound,
    exact_select_bnb,
    greedy_select,
    local_search,
)
from mmdselect.selectors import Selector
from mmdselect.spectrahedron import (
    SpectraPoint,
    mirror_step,
    smd_run,
)

from oracles import (
    ConcentrationInputs,
    approximation_gap,
    bregman,
    brute_force_linear,
    brute_force_quad,
    central_difference_gradient,
    concentration_epsilon,
    grid_sphere_max,
    stochastic_gradient,
    surrogate,
    trs_max,
)


def report(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {description} {detail}".rstrip())
    assert ok, f"criterion {num}: {description} {detail}"


def psd_instance(gen, D):
    B = gen.standard_normal((D, D))
    A = 0.5 * (B + B.T)
    A -= min(float(np.linalg.eigvalsh(A)[0]), 0.0) * np.eye(D)
    return QuadProblem(A, gen.standard_normal(D))


def padded(support, d, D):
    S = sorted(int(i) for i in support)
    for j in range(D):
        if len(S) >= min(d, D):
            break
        if j not in S:
            S.append(j)
    return sorted(S)


def test_criterion_01_type_i_control():
    spec = SynthSpec(blocks=20, n=100, m=100, mode="null", seed=RandomSource(0))
    selectors = (
        Selector("linear", 3),
        Selector("quad-greedy", 3),
        Selector("gauss-ccp", 3, {"T_out": 2, "T_in": 60, "batch": 128}),
    )
    config = ExperimentConfig(
        spec=spec,
        selectors=selectors,
        trials=500,
        alpha=0.05,
        n_permutations=200,
        rng=RandomSource(20240115),
        workers=2,
    )
    summary = run_power_experiment(config)
    rates = {s.name: s.mean for s in summary.per_selector}
    ok = all(0.03 <= r <= 0.07 for r in rates.values())
    report(1, "type-I error within [0.03, 0.07] for all selectors", ok, f"rates={rates}")


def test_criterion_02_exactness_oracle():
    gen = np.random.default_rng(42)
    worst = 0.0
    chain_ok = True
    for _ in range(50):
        D = int(gen.integers(3, 13))
        d = int(gen.integers(1, min(4, D) + 1))
        qp = psd_instance(gen, D)
        e = exact_select_bnb(qp, d)
        ref, _ = brute_force_quad(qp.A, qp.t, d)
        worst = max(worst, abs(e.value - ref) / max(1.0, abs(ref)))
        g = greedy_select(qp, d)
        l = local_search(qp, d, padded(g.support, d, D))
        chain_ok &= g.value <= l.value + 1e-9 and l.value <= e.value + 1e-9
    ok = worst <= 1e-8 and chain_ok
    report(2, "exact solver matches enumeration; greedy <= local <= exact",
           ok, f"worst rel gap={worst:.2e}")


def test_criterion_03_trs_certificates():
    gen = np.random.default_rng(314)
    worst_res, worst_mu, worst_grid = 0.0, 0.0, 0.0
    for i in range(200):
        k = int(gen.integers(1, 11))
        B = gen.standard_normal((k, k))
        A = 0.5 * (B + B.T)
        style = i % 4
        if style == 0:
            t = np.zeros(k)
        elif style == 1:
            lam, Q = np.linalg.eigh(A)
            t = gen.standard_normal(k)
            t -= (t @ Q[:, -1]) * Q[:, -1]
        elif style == 2:
            A = np.diag(np.round(gen.standard_normal(k)))
            t = gen.standard_normal(k) * (gen.random(k) > 0.5)
        else:
            t = gen.standard_normal(k) * float(gen.choice([0.3, 3.0]))
        sol = trs_max(A, t)
        lmax = float(np.linalg.eigvalsh(A)[-1])
        worst_res = max(worst_res, sol.kkt_residual / (1.0 + np.linalg.norm(t)))
        worst_mu = max(worst_mu, lmax - sol.mu)
        if k <= 3:
            worst_grid = max(worst_grid, abs(sol.value - grid_sphere_max(A, t)))
    ok = worst_res <= 1e-6 and worst_mu <= 1e-7 and worst_grid <= 1e-4
    report(3, "sphere oracle certificates and grid agreement", ok,
           f"res={worst_res:.2e} mu-gap={worst_mu:.2e} grid={worst_grid:.2e}")


def test_criterion_04_relaxation_sandwich():
    gen = np.random.default_rng(2024)
    passed = 0
    total = 100
    for _ in range(total):
        D = int(gen.integers(3, 11))
        d = int(gen.integers(1, min(4, D) + 1))
        qp = psd_instance(gen, D)
        e = exact_select_bnb(qp, d)
        bound = qp.report_value(_certified_upper_bound(qp, d))
        passed += approximation_gap(bound, e.value, qp.t, D, d).passed
    ok = passed == total
    report(4, "certified relax bound inside the approximation-ratio envelope",
           ok, f"passed={passed}/{total}")


def test_criterion_05_linear_closed_form():
    gen = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        D = int(gen.integers(1, 13))
        d = int(gen.integers(1, D + 1))
        a = gen.random(D) ** 2 * gen.choice([0.0, 1.0, 5.0], size=D)
        sel, obj = linear_select(LinearCoefficients(a), d)
        ref, _ = brute_force_linear(a, d)
        formula = float(np.linalg.norm(np.sort(a)[::-1][:d]))
        worst = max(worst, abs(obj - max(ref, 0.0)), abs(obj - formula))
    ok = worst <= 1e-12
    report(5, "closed-form linear selection equals enumeration", ok, f"worst={worst:.2e}")


def test_criterion_06_gaussian_identities():
    gen = np.random.default_rng(6)
    worst_id = 0.0
    worst_major = 0.0
    worst_anchor = 0.0
    for _ in range(100):
        n, m = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        D = int(gen.integers(2, 6))
        data = TwoSampleData(gen.standard_normal((n, D)) + 0.3, gen.standard_normal((m, D)))
        gamma = float(gen.random() + 0.5)
        z = gen.standard_normal(D)
        z /= np.linalg.norm(z)
        F = gauss_objective(np.outer(z, z), data, gamma)
        S2 = mmd_sq(KernelSpec.gaussian(gamma), make_selection(z, D), data)
        worst_id = max(worst_id, abs(F + S2))
        B1 = gen.standard_normal((D, D))
        Z1 = B1 @ B1.T + 1e-6 * np.eye(D)
        Z1 /= np.trace(Z1)
        B2 = gen.standard_normal((D, D))
        Z2 = B2 @ B2.T + 1e-6 * np.eye(D)
        Z2 /= np.trace(Z2)
        worst_major = max(
            worst_major, gauss_objective(Z1, data, gamma) - surrogate(Z1, Z2, data, gamma)
        )
        worst_anchor = max(
            worst_anchor,
            abs(surrogate(Z2, Z2, data, gamma) - gauss_objective(Z2, data, gamma)),
        )
    # full-batch gradient vs central differences on 4x4 instances
    worst_grad = 0.0
    for _ in range(5):
        data = TwoSampleData(gen.standard_normal((4, 4)), gen.standard_normal((4, 4)))
        B = gen.standard_normal((4, 4))
        Z = B @ B.T + 1e-6 * np.eye(4)
        Z /= np.trace(Z)
        B = gen.standard_normal((4, 4))
        Z0 = B @ B.T + 1e-6 * np.eye(4)
        Z0 /= np.trace(Z0)
        exact = stochastic_gradient(Z, Z0, data, 1.0, 0.0, batch=16, gen=RandomSource(0).generator())
        approx = central_difference_gradient(lambda M: surrogate(M, Z0, data, 1.0), Z)
        worst_grad = max(
            worst_grad,
            float(np.max(np.abs(exact - approx))) / max(1.0, float(np.max(np.abs(exact)))),
        )
    ok = worst_id <= 1e-10 and worst_major <= 1e-10 and worst_anchor <= 1e-10 and worst_grad < 1e-5
    report(6, "gaussian objective identities, majorization, gradient check", ok,
           f"id={worst_id:.1e} major={worst_major:.1e} anchor={worst_anchor:.1e} grad={worst_grad:.1e}")


def test_criterion_07_ccp_monotone_and_recovery():
    recoveries = 0
    mono_ok = 0
    runs = 20
    for s in range(runs):
        spec = SynthSpec(blocks=10, n=500, m=500, mode="shift", seed=RandomSource(1000 + s))
        data, true_support = synth_block_gaussian(spec)
        med = median_heuristic(data)
        gamma = med * 3 / (2.0 * data.dim)  # sparsity-matched default at d=3
        cfg = GaussConfig(
            gamma=gamma, lam=0.001, T_out=10, T_in=250, batch=512, rng=RandomSource(33 + s)
        )
        result = ccp_select(data, cfg, 3)
        if set(true_support) <= set(result.selection.support):
            recoveries += 1
        if s < 10:
            objs = [p.objective for p in result.trajectory]
            slack = 10.0 * max(p.gap_estimate for p in result.trajectory)
            mono_ok += all(b <= a + slack for a, b in zip(objs, objs[1:]))
    ok = recoveries >= 0.8 * runs and mono_ok == 10
    report(7, "outer objective monotone within slack; NDP = 0 in >= 80% of runs",
           ok, f"recoveries={recoveries}/{runs} monotone={mono_ok}/10")


def test_criterion_08_power_ordering():
    spec = SynthSpec(blocks=4, n=100, m=100, mode="cov_shift", seed=RandomSource(0))
    config = ExperimentConfig(
        spec=spec,
        selectors=(Selector("linear", 3), Selector("quad-greedy", 3)),
        trials=200,
        alpha=0.05,
        n_permutations=200,
        rng=RandomSource(88),
        workers=2,
    )
    summary = run_power_experiment(config)
    rates = {s.name: s.mean for s in summary.per_selector}
    lin, quad = rates["linear"], rates["quad-greedy"]
    ok = (quad - lin >= 0.2) and (0.05 - 0.03 <= lin <= 0.05 + 0.07)
    report(8, "quadratic beats linear by >= 0.2 on covariance-only shifts",
           ok, f"linear={lin:.3f} quad={quad:.3f}")


def test_criterion_09_null_statistic_decay():
    medians = []
    for N in (50, 100, 200, 400):
        vals = []
        for t in range(50):
            gen = np.random.default_rng(9_000 + 17 * N + t)
            data = TwoSampleData(gen.standard_normal((N, 12)), gen.standard_normal((N, 12)))
            sel, obj = linear_select(linear_coefficients(data), 3)
            vals.append(mmd_sq(KernelSpec.linear(), sel, data))
        medians.append(float(np.median(vals)))
    ok = all(b < a for a, b in zip(medians, medians[1:]))
    report(9, "median trained statistic under the null decreases in N", ok,
           f"medians={['%.4f' % v for v in medians]}")


def test_criterion_10_concentration_constant():
    got = concentration_epsilon(ConcentrationInputs(100, 100, 1.0, 0.05))
    expected = 0.4 + math.sqrt(0.04 * math.log(40.0))  # = 0.7841291165279684
    point_ok = abs(got - expected) <= 1e-5
    grid = [50, 100, 200, 400]
    mono_m = all(
        concentration_epsilon(ConcentrationInputs(a, 100, 1.0, 0.05))
        > concentration_epsilon(ConcentrationInputs(b, 100, 1.0, 0.05))
        for a, b in zip(grid, grid[1:])
    )
    mono_n = all(
        concentration_epsilon(ConcentrationInputs(100, a, 1.0, 0.05))
        > concentration_epsilon(ConcentrationInputs(100, b, 1.0, 0.05))
        for a, b in zip(grid, grid[1:])
    )
    kgrid = [0.5, 1.0, 2.0, 4.0]
    mono_k = all(
        concentration_epsilon(ConcentrationInputs(100, 100, a, 0.05))
        < concentration_epsilon(ConcentrationInputs(100, 100, b, 0.05))
        for a, b in zip(kgrid, kgrid[1:])
    )
    egrid = [0.2, 0.1, 0.05, 0.025]  # decreasing eta = increasing 1/eta
    mono_e = all(
        concentration_epsilon(ConcentrationInputs(100, 100, 1.0, a))
        < concentration_epsilon(ConcentrationInputs(100, 100, 1.0, b))
        for a, b in zip(egrid, egrid[1:])
    )
    ok = point_ok and mono_m and mono_n and mono_k and mono_e
    report(10, "deviation constant: reference point and monotonicity", ok,
           f"eps={got:.7f} (formula value {expected:.7f})")


def test_criterion_11_spectrahedron_engine():
    # averaged mirror descent on a linear objective reaches the optimum face
    C = np.diag([1.0, 0.0])
    feasible = []

    def oracle(Z, gen):
        feasible.append(Z)
        return C

    out, _ = smd_run(oracle, SpectraPoint.identity(2), 2000, RandomSource(0))
    off_target = float(out.Z[0, 0])
    feas_ok = all(
        float(np.linalg.eigvalsh(Z)[0]) >= -1e-9 and abs(np.trace(Z) - 1.0) <= 1e-9
        for Z in feasible
    )
    step_point = mirror_step(SpectraPoint(np.eye(2) / 2.0), np.diag([np.log(3.0), 0.0]), 1.0)
    step_ok = np.allclose(np.diag(step_point.Z), [0.25, 0.75], atol=1e-12)
    breg = bregman(SpectraPoint(np.diag([0.5, 0.5])), SpectraPoint(np.diag([0.25, 0.75])))
    breg_ok = abs(breg - (0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0))) <= 1e-12
    ok = off_target < 0.05 and feas_ok and step_ok and breg_ok
    report(11, "mirror-descent engine: convergence, feasibility, unit examples",
           ok, f"off-target mass={off_target:.4f}")
