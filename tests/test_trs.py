import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import brentq

import mmdselect
from mmdselect import trs
from mmdselect.core import make_selection
from mmdselect.quad import QuadProblem, greedy_select
from mmdselect.trs import _brentq, _sphere_stack, lambda_set, trs_max

from oracles import dual_trs_value, greedy_reference, grid_sphere_max, scalar_sphere_max


def random_instance(gen, k, style):
    B = gen.standard_normal((k, k))
    A = 0.5 * (B + B.T)
    if style == 0:
        t = np.zeros(k)
    elif style == 1:
        lam, Q = np.linalg.eigh(A)
        t = gen.standard_normal(k)
        t -= (t @ Q[:, -1]) * Q[:, -1]  # hard case: orthogonal to leading eigvec
    elif style == 2:
        A = np.diag(np.round(gen.standard_normal(k)))  # repeated eigenvalues
        t = gen.standard_normal(k) * (gen.random(k) > 0.5)
    else:
        t = gen.standard_normal(k) * float(gen.choice([0.3, 3.0]))
    return A, t


def test_leading_eigenvector_case():
    sol = trs_max(np.diag([3.0, 1.0]), np.zeros(2))
    assert sol.value == pytest.approx(3.0, abs=1e-12)
    assert abs(sol.z[0]) == pytest.approx(1.0, abs=1e-9)
    assert sol.hard_case


def test_pure_linear_case():
    sol = trs_max(np.zeros((2, 2)), np.array([3.0, 4.0]))
    assert sol.value == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(sol.z, [0.6, 0.8], atol=1e-9)
    assert not sol.hard_case


def test_mixed_case_boundary_multiplier():
    # max 2 z1^2 + z2^2 + z2 on the circle: 2 - s^2 + s at s = 1/2
    sol = trs_max(np.diag([2.0, 1.0]), np.array([0.0, 1.0]))
    assert sol.value == pytest.approx(2.25, abs=1e-9)
    assert abs(sol.z[0]) == pytest.approx(np.sqrt(3) / 2, abs=1e-8)
    assert sol.z[1] == pytest.approx(0.5, abs=1e-8)
    assert sol.mu == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize(
    "lam, tt",
    [
        ([2.0, 1.0, 0.0], [-1e-30, 1e-30, 0.0]),  # lmax + ||t||/2 rounds to lmax
        ([2.0, 2.0, 0.0], [3e-17, -4e-17, 0.0]),  # and lambda_max is repeated
        ([1e-14, 0.0], [0.0, 1e-14]),  # the whole spectrum is one cluster
    ],
)
def test_secular_root_within_rounding_of_lambda_max(lam, tt):
    # the secular root, if any, lies within 1e-15 * scale of lambda_max, below
    # the lowest multiplier the root bracket admits
    gen = np.random.default_rng(len(lam))
    Q, _ = np.linalg.qr(gen.standard_normal((len(lam), len(lam))))
    A = (Q * np.asarray(lam)) @ Q.T
    A = 0.5 * (A + A.T)
    t = Q @ np.asarray(tt)
    sol = trs_max(A, t)
    z, mu = sol.z, sol.mu
    r = 2.0 * (mu * z - A @ z) - t
    # mu >= lambda_max makes z the maximizer for the linear term t + r, so
    # its value is within 2 ||r|| of the maximum; the dual reference is
    # coarser than that at these scales
    assert mu >= float(np.linalg.eigvalsh(A)[-1])
    assert np.linalg.norm(r) <= 1e-13
    assert abs(np.linalg.norm(z) - 1.0) <= 1e-15
    assert sol.value == pytest.approx(float(z @ A @ z + t @ z), abs=1e-15)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        trs_max(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))


def test_kkt_certificate_random():
    gen = np.random.default_rng(314)
    for i in range(120):
        k = int(gen.integers(1, 11))
        A, t = random_instance(gen, k, i % 4)
        sol = trs_max(A, t)
        lmax = float(np.linalg.eigvalsh(A)[-1])
        assert abs(np.linalg.norm(sol.z) - 1.0) <= 1e-9
        assert sol.kkt_residual <= 1e-6 * (1.0 + np.linalg.norm(t))
        assert sol.mu >= lmax - 1e-7
        assert sol.value == pytest.approx(float(sol.z @ A @ sol.z + t @ sol.z), abs=1e-9)


def test_grid_agreement_small_dims():
    gen = np.random.default_rng(2718)
    for i in range(40):
        k = int(gen.integers(1, 4))
        A, t = random_instance(gen, k, i % 4)
        sol = trs_max(A, t)
        ref = grid_sphere_max(A, t)
        assert sol.value >= ref - 1e-4
        assert sol.value <= ref + 1e-4 + 1e-6 * abs(ref) or sol.value >= ref


def test_dual_oracle_agreement():
    gen = np.random.default_rng(99)
    for i in range(60):
        k = int(gen.integers(1, 9))
        A, t = random_instance(gen, k, i % 4)
        sol = trs_max(A, t)
        assert sol.value == pytest.approx(dual_trs_value(A, t), rel=1e-8, abs=1e-8)


def test_negation_symmetry():
    gen = np.random.default_rng(55)
    for _ in range(20):
        k = int(gen.integers(2, 7))
        B = gen.standard_normal((k, k))
        A = 0.5 * (B + B.T)
        t = gen.standard_normal(k)
        a = trs_max(A, t)
        b = trs_max(A, -t)
        assert a.value == b.value
        assert np.allclose(a.z, -b.z, atol=1e-8)


def test_lambda_set_singleton():
    A = np.diag([5.0, 3.0, 1.0])
    t = np.array([0.0, -2.0, 0.0])
    sol = lambda_set([1], A, t)
    assert sol.value == pytest.approx(3.0 + 2.0, abs=1e-12)
    assert abs(sol.z[1]) == pytest.approx(1.0, abs=1e-12)
    assert sol.z[0] == 0.0 and sol.z[2] == 0.0


def test_lambda_set_full_and_partial():
    A = np.diag([5.0, 3.0, 1.0])
    t = np.array([0.0, 2.0, 0.0])
    assert lambda_set([0, 1, 2], A, t).value == pytest.approx(5.5, abs=1e-9)
    assert lambda_set([0, 2], A, t).value == pytest.approx(5.0, abs=1e-9)


def test_lambda_set_errors():
    A = np.eye(3)
    t = np.zeros(3)
    with pytest.raises(ValueError, match="non-empty"):
        lambda_set([], A, t)
    with pytest.raises(ValueError, match="range"):
        lambda_set([3], A, t)
    with pytest.raises(ValueError, match="repeated"):
        lambda_set([1, 1], A, t)


def test_lambda_set_monotone_and_singleton_bound():
    gen = np.random.default_rng(77)
    for _ in range(25):
        D = int(gen.integers(2, 8))
        B = gen.standard_normal((D, D))
        A = 0.5 * (B + B.T)
        t = gen.standard_normal(D)
        S = sorted(gen.choice(D, size=int(gen.integers(1, D)), replace=False).tolist())
        val = lambda_set(S, A, t).value
        assert val >= max(A[i, i] + abs(t[i]) for i in S) - 1e-9
        j = next(i for i in range(D) if i not in S)
        assert val <= lambda_set(sorted(S + [j]), A, t).value + 1e-9


def test_rejects_non_finite_input():
    with pytest.raises(ValueError, match="finite"):
        trs_max(np.eye(3), np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        trs_max(np.diag([1.0, np.inf, 0.0]), np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        lambda_set([0, 1], np.eye(3), np.array([np.nan, 1.0, 0.0]))


def test_overflowed_certificate_raises():
    # ||t|| overflows, so the residual and its bound are both inf; the true
    # maximum is about 2.73e300, and no answer may pass as certified
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="certificate"):
        trs_max(1e300 * np.eye(3), 1e300 * np.ones(3))


def test_k1_overflowed_value_raises():
    # a k = 1 lane goes through the same certificate: ||t|| overflows, and
    # the maximum 2e308 may not come back as value=inf
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="certificate"):
        trs_max(np.array([[1e308]]), np.array([1e308]))


@pytest.mark.parametrize(
    "A", [1e308 * np.ones((2, 2)), -1e308 * np.ones((2, 2))], ids=["value", "residual"]
)
def test_overflow_with_zero_linear_term_raises(A):
    # a t = 0 lane goes through the certificate too; eigh overflows to
    # +-inf, and no value, multiplier or residual may come back as inf; the
    # certificate is the lane's one report of it, with no RuntimeWarning and
    # no np.errstate needed around the call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArithmeticError, match="certificate"):
            trs_max(A, np.zeros(2))
        with pytest.raises(ArithmeticError, match="certificate"):
            lambda_set([1, 2], np.pad(A, 1), np.zeros(4))
    assert [str(w.message) for w in caught] == []


def test_k1_certificate_recorded():
    sol = trs_max(np.array([[2.0]]), np.array([-3.0]))
    assert (sol.value, sol.mu, sol.kkt_residual, sol.hard_case) == (5.0, 3.5, 0.0, False)
    assert sol.z.tolist() == [-1.0]


def _recording(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _secular_function(seed):
    gen = np.random.default_rng(seed)
    k = int(gen.integers(2, 9))
    lam = np.sort(gen.standard_normal(k) * float(gen.choice([0.1, 1.0, 10.0])))
    tt = gen.standard_normal(k)
    tt[-1] *= float(gen.choice([1.0, 1e-3, 1e-6]))  # steep near lambda_max
    lmax, tnorm = float(lam[-1]), float(np.linalg.norm(tt))

    def f(mu):
        return float(np.sum((tt / (2.0 * (mu - lam))) ** 2)) - 1.0

    return f, lmax + 1e-15 * max(1.0, abs(lmax), tnorm), lmax + 0.5 * tnorm


@pytest.mark.parametrize("seed", range(40))
def test_brent_port_matches_scipy_bit_for_bit(seed):
    f, lo, hi = _secular_function(seed)
    ours, our_calls = _recording(f)
    ref, ref_calls = _recording(f)
    root = _brentq(ours, lo, hi)
    want = brentq(ref, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    assert root == want
    assert our_calls == ref_calls  # the same steps, not only the same root


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (np.cos, 0.0, 3.0),
        (lambda x: np.expm1(x) - 1e-9, -1.0, 4.0),
        (lambda x: (x - 1.0) ** 5, 0.0, 3.5),
    ],
)
def test_brent_port_matches_scipy_on_generic_functions(f, lo, hi):
    ours, our_calls = _recording(f)
    ref, ref_calls = _recording(f)
    assert _brentq(ours, lo, hi) == brentq(ref, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    assert our_calls == ref_calls


def test_brent_port_errors():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(lambda x: (x - 1.0) ** 5, 0.0, 3.5, maxiter=3)
    with pytest.raises(RuntimeError):
        brentq(lambda x: (x - 1.0) ** 5, 0.0, 3.5, xtol=1e-15, rtol=8.9e-16, maxiter=3)
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0


eigenvalues = st.one_of(
    st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]),  # repeats make multiple leading eigenvalues
    st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False),
)
coefficients = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 6),
    hard=st.booleans(),
    basis_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_oracle_matches_dual_value(k, hard, basis_seed, data):
    lam = data.draw(hnp.arrays(np.float64, k, elements=eigenvalues))
    tt = data.draw(hnp.arrays(np.float64, k, elements=coefficients))
    if hard:
        tt[lam == lam.max()] = 0.0  # t orthogonal to the leading eigenspace
    Q, _ = np.linalg.qr(np.random.default_rng(basis_seed).standard_normal((k, k)))
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    t = Q @ tt
    sol = trs_max(A, t)
    assert abs(np.linalg.norm(sol.z) - 1.0) <= 1e-9
    assert sol.kkt_residual <= 1e-6 * (1.0 + np.linalg.norm(t))
    assert sol.mu >= float(np.linalg.eigvalsh(A)[-1]) - 1e-7
    assert sol.value == pytest.approx(float(sol.z @ A @ sol.z + t @ sol.z), abs=1e-9)
    assert sol.value == pytest.approx(dual_trs_value(A, t), rel=1e-8, abs=1e-8)


def _block(lam, tt, regime, basis_seed):
    """A k x k problem of the given regime, with spectrum ``lam``."""
    k = len(lam)
    if regime == "zero":
        tt = np.zeros(k)
    elif regime == "hard":
        tt = np.where(lam == lam.max(), 0.0, tt)  # orthogonal to the leading eigenspace
    elif regime == "floor":
        tt = tt * 1e-30  # the secular root is within rounding of lambda_max
    Q, _ = np.linalg.qr(np.random.default_rng(basis_seed).standard_normal((k, k)))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T), Q @ tt


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 5),
    regimes=st.lists(
        st.sampled_from(["interior", "hard", "floor", "zero"]), min_size=1, max_size=5
    ),
    mixed=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_oracle_matches_trs_max_bit_for_bit(k, regimes, mixed, seed, data):
    # a block-diagonal (A, t): each block's support is one lane of its
    # regime, and supports across blocks mix them
    D = k * len(regimes)
    A, t = np.zeros((D, D)), np.zeros(D)
    for b, regime in enumerate(regimes):
        lam = data.draw(hnp.arrays(np.float64, k, elements=eigenvalues))
        tt = data.draw(hnp.arrays(np.float64, k, elements=coefficients))
        sl = slice(b * k, (b + 1) * k)
        A[sl, sl], t[sl] = _block(lam, tt, regime, seed + b)
    gen = np.random.default_rng(seed)
    rows = [list(range(b * k, (b + 1) * k)) for b in range(len(regimes))]
    rows += [sorted(gen.choice(D, size=k, replace=False).tolist()) for _ in range(mixed)]
    lanes = _sphere_stack(A, t, rows)
    assert len(lanes) == len(rows)
    for idx, (value, z, mu, res, hard) in zip(rows, lanes):
        sub_A, sub_t = A[np.ix_(idx, idx)], t[idx]
        # the scalar reference pins the arithmetic; trs_max is the stack of one
        want = scalar_sphere_max(sub_A, sub_t)
        one = trs_max(sub_A, sub_t)
        assert (value, mu, res, hard) == (want[0], want[2], want[3], want[4])
        assert np.array_equal(z, want[1])
        assert (value, mu, res, hard) == (one.value, one.mu, one.kkt_residual, one.hard_case)
        assert np.array_equal(z, one.z)


def test_stack_cap_splits_calls_without_changing_lanes(monkeypatch):
    gen = np.random.default_rng(7)
    B = gen.standard_normal((12, 12))
    A, t = B @ B.T, gen.standard_normal(12)
    rows = [sorted(gen.choice(12, size=4, replace=False).tolist()) for _ in range(9)]
    whole = _sphere_stack(A, t, rows)
    qp = QuadProblem.from_matrices(A, t)
    greedy = greedy_select(qp, 4)
    calls = []
    eig = trs._eig_stack
    monkeypatch.setattr(trs, "_eig_stack", lambda As, ts: calls.append(len(ts)) or eig(As, ts))
    monkeypatch.setattr(trs, "_STACK_ENTRIES", 2 * 4 * 4)
    parts = _sphere_stack(A, t, rows)
    assert calls == [2, 2, 2, 2, 1]
    for a, b in zip(whole, parts):
        assert a[0] == b[0] and a[2:] == b[2:]
        assert np.array_equal(a[1], b[1])
    capped = greedy_select(qp, 4)
    assert (capped.support, capped.value) == (greedy.support, greedy.value)
    assert np.array_equal(capped.z.z, greedy.z.z)


def _assert_greedy_is_reference(qp, d):
    rep = greedy_select(qp, d)
    _, value, z = greedy_reference(qp.A, qp.t, d)
    assert rep.support == tuple(np.flatnonzero(z))
    assert rep.value == qp.report_value(value)
    assert np.array_equal(rep.z.z, make_selection(z, d).z)
    return rep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    D=st.integers(1, 7),
    psd=st.booleans(),
    integer=st.booleans(),  # integer entries make exact ties between lanes
    zero_t=st.sampled_from(["none", "some", "all"]),
    duplicate=st.booleans(),
    cap=st.sampled_from([None, 1, 6]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_greedy_equals_the_scalar_reference_bit_for_bit(
    D, psd, integer, zero_t, duplicate, cap, seed, data
):
    gen = np.random.default_rng(seed)
    B = gen.standard_normal((D, D)) * 2.0
    t = gen.standard_normal(D) * float(gen.choice([0.1, 1.0, 5.0]))
    if integer:
        B, t = np.round(B), np.round(t)
    A = B @ B.T if psd else B + B.T
    if zero_t == "all":
        t[:] = 0.0
    elif zero_t == "some":
        t[gen.random(D) < 0.5] = 0.0
    if duplicate and D >= 2:
        # a duplicated column: its lanes tie with the original's exactly
        i, j = gen.choice(D, size=2, replace=False)
        A[i, :] = A[j, :]
        A[:, i] = A[:, j]
        t[i] = t[j]
    qp = QuadProblem.from_matrices(A, t)
    d = data.draw(st.integers(1, D))
    with mock.patch.object(trs, "_STACK_ENTRIES", cap or trs._STACK_ENTRIES):
        _assert_greedy_is_reference(qp, d)


def test_greedy_solves_only_the_lanes_that_can_win(monkeypatch):
    # a planted rank-one block on features 5-7: a lane that leaves one of
    # them out has a bound below the best value
    gen = np.random.default_rng(3)
    D, d = 12, 3
    B = 0.1 * gen.standard_normal((D, D))
    u = np.zeros(D)
    u[5:8] = [1.6, 1.8, 2.0]
    A = B @ B.T + np.outer(u, u)
    t = 0.2 * np.abs(gen.standard_normal(D))
    qp = QuadProblem.from_matrices(A, t)
    offered = D + (D - 1) + (D - 2)
    solved = []
    solve = trs._solve_lane
    monkeypatch.setattr(trs, "_solve_lane", lambda *a: solved.append(len(a[1])) or solve(*a))
    rep = _assert_greedy_is_reference(qp, d)
    assert rep.support == (5, 6, 7)
    assert solved == [1, 2, 3]
    # stacks of one lane: each round's winner comes from a later stack than
    # the first, and only the best value carried from stack to stack prunes
    monkeypatch.setattr(trs, "_STACK_ENTRIES", 1)
    solved.clear()
    assert _assert_greedy_is_reference(qp, d).support == (5, 6, 7)
    assert len(solved) < offered


def test_stacked_oracle_certifies_every_lane():
    # the second lane's ||t|| overflows, so its certificate fails; a stack
    # fails as that lane alone does
    A = np.diag([1.0, 2.0, 1e300, 1e300])
    t = np.array([1.0, 1.0, 1e300, 1e300])
    for rows in ([[0], [2]], [[0, 1], [2, 3]]):
        _sphere_stack(A, t, rows[:1])
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="certificate"):
            _sphere_stack(A, t, rows)


def test_greedy_margin_keeps_lanes_that_round_above_their_bound():
    # round 2's lanes {0, 1} and {1, 2} share the bound 5 + ||(0.25, 0.3)||,
    # and both computed values round above it, the second's further: only
    # the rounding margin lets the second lane be solved after the first
    qp = QuadProblem(5.0 * np.eye(3), np.array([0.25, 0.3, 0.25]))
    assert _assert_greedy_is_reference(qp, 2).support == (1, 2)


def test_greedy_solves_a_lane_whose_bound_overflows():
    # t_a and t_j (features 0 and 3) are finite, but ||t_{a,j}|| overflows,
    # and so does the round-2 lane {a, j}'s bound; that lane is solved, and
    # fails its certificate, although lane {a, b} already beats lane {a, c}
    A = np.diag([1.2e153] * 4)
    A[0, 1] = A[1, 0] = 1e153
    A[0, 3] = A[3, 0] = 1e152
    t = np.array([1e154, 0.0, 0.0, 1e154])
    qp = QuadProblem(A, t)
    assert greedy_select(qp, 1).support == (0,)
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="certificate"):
        _sphere_stack(A, t, [[0, 1], [0, 2], [0, 3]])
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="certificate"):
        greedy_select(qp, 2)


def test_package_imports_no_scipy():
    src = str(Path(mmdselect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys, mmdselect, mmdselect.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert run.stdout.strip() == "[]"
