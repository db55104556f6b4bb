import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from mmdselect import quad, trs
from mmdselect.core import (
    RandomSource,
    TwoSampleData,
    derive_stream,
    make_selection,
    split_train_test,
)
from mmdselect.mmd import QUADRATIC, KernelSpec, mmd_sq, resolve_kernel
from mmdselect.quad import (
    QuadProblem,
    _certified_upper_bound,
    _greedy_local,
    assemble_quadratic,
    exact_select_bnb,
    greedy_select,
    local_search,
)
from mmdselect.selectors import Selector
from mmdselect.trs import lambda_set

from oracles import approximation_gap, brute_force_quad, trs_max


def psd_instance(gen, D):
    B = gen.standard_normal((D, D))
    A = 0.5 * (B + B.T)
    A -= min(float(np.linalg.eigvalsh(A)[0]), 0.0) * np.eye(D)
    t = gen.standard_normal(D)
    return QuadProblem(A, t)


def relax(qp, d):
    """What ``Selector("quad-relax")`` reports on ``qp``: greedy + local
    search's solution and the certified upper bound, in unshifted units."""
    return _greedy_local(qp, d), qp.report_value(_certified_upper_bound(qp, d))


def test_problem_rejects_asymmetric_or_non_square_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        QuadProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="square"):
        QuadProblem(np.ones((2, 3)), np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["A", "t"])
def test_problem_rejects_non_finite_entries(bad, where):
    # a built problem is the sphere oracle's checked input, so neither
    # constructor may hold a NaN or an infinity
    A, t = np.eye(3), np.ones(3)
    (A[1] if where == "A" else t)[1] = bad
    for build in (QuadProblem, QuadProblem.from_matrices):
        with pytest.raises(ValueError, match="finite"):
            build(A, t)


def test_solvers_take_the_problem_as_checked(monkeypatch):
    # the problem checked its (A, t) when it was built: no solver checks it
    # again, however many lanes it scores
    gen = np.random.default_rng(5)
    qp = psd_instance(gen, 7)
    data = TwoSampleData(gen.standard_normal((12, 7)) + 0.3, gen.standard_normal((10, 7)))
    calls = []
    check = trs._oracle_input

    def counted(A, t):
        calls.append(1)
        return check(A, t)

    for module in (trs, quad):
        monkeypatch.setattr(module, "_oracle_input", counted, raising=False)
    greedy_select(qp, 3)
    local_search(qp, 3, [0, 1, 2])
    exact_select_bnb(qp, 3)
    Selector("quad-relax", 3).select(data, KernelSpec.quadratic(1.0), RandomSource(0))
    assert calls == []
    # both patched bindings are live: the public oracle and the checked
    # constructor still check their input
    lambda_set([0], qp.A, qp.t)
    QuadProblem(qp.A, qp.t)
    assert calls == [1, 1]


DIAG = QuadProblem(np.diag([5.0, 3.0, 1.0]), np.array([0.0, 2.0, 0.0]))


def test_assemble_single_pair():
    data = TwoSampleData(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    qp = assemble_quadratic(data, 1.0)
    assert np.allclose(qp.A, np.eye(2), atol=1e-12)
    assert np.allclose(qp.t, [2.0, 2.0], atol=1e-12)
    assert qp.shift == 0.0


def test_assemble_identical_groups():
    M = np.random.default_rng(0).standard_normal((5, 3))
    qp = assemble_quadratic(TwoSampleData(M, M.copy()), 0.7)
    assert np.allclose(qp.A, 0.0, atol=1e-12)
    assert np.allclose(qp.t, 0.0, atol=1e-12)


def test_assemble_exact_optimum_single_pair():
    data = TwoSampleData(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    qp = assemble_quadratic(data, 1.0)
    rep = exact_select_bnb(qp, 2)
    assert rep.value == pytest.approx(1.0 + 2.0 * np.sqrt(2.0), abs=1e-9)
    assert np.allclose(np.abs(rep.z.z), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-8)


def test_statistic_matches_coefficients_up_to_constant():
    gen = np.random.default_rng(4)
    data = TwoSampleData(gen.standard_normal((6, 4)) + 0.5, gen.standard_normal((5, 4)))
    c = 0.9
    qp = assemble_quadratic(data, c)
    spec = KernelSpec.quadratic(c)

    def gap(zraw):
        z = make_selection(zraw, 4)
        alg = float(z.z @ qp.A @ z.z + qp.t @ z.z) + qp.shift
        return mmd_sq(spec, z, data) - alg

    g1 = gap(gen.standard_normal(4))
    g2 = gap(gen.standard_normal(4))
    assert g1 == pytest.approx(g2, abs=1e-9)  # constant offset independent of z
    assert g1 == pytest.approx(0.0, abs=1e-9)  # and it vanishes for this kernel


def test_greedy_diag_example():
    rep = greedy_select(DIAG, 2)
    assert rep.support == (0, 1)
    assert rep.value == pytest.approx(5.5, abs=1e-9)


def test_greedy_full_budget_equals_sphere_max():
    gen = np.random.default_rng(8)
    qp = psd_instance(gen, 5)
    rep = greedy_select(qp, 5)
    assert rep.value == pytest.approx(trs_max(qp.A, qp.t).value, abs=1e-8)


def test_greedy_tie_break():
    qp = QuadProblem(np.diag([5.0, 5.0]), np.zeros(2))
    rep = greedy_select(qp, 1)
    assert rep.support == (0,)
    assert rep.value == pytest.approx(5.0, abs=1e-12)


def test_local_search_keeps_optimum():
    rep = local_search(DIAG, 2, [0, 1])
    assert rep.support == (0, 1)
    assert rep.value == pytest.approx(5.5, abs=1e-9)


def test_local_search_improves_bad_init():
    qp = QuadProblem(np.diag([1.0, 5.0, 3.0]), np.zeros(3))
    rep = local_search(qp, 1, [0])
    assert rep.support == (1,)
    assert rep.value == pytest.approx(5.0, abs=1e-9)


def test_local_at_least_greedy():
    gen = np.random.default_rng(15)
    for _ in range(25):
        D = int(gen.integers(3, 9))
        d = int(gen.integers(1, min(4, D) + 1))
        qp = psd_instance(gen, D)
        g = greedy_select(qp, d)
        pad = sorted(set(g.support) | set(range(D)))[: min(d, D)] if len(g.support) < d else list(g.support)
        l = local_search(qp, d, sorted(set(g.support) | set(pad))[: min(d, D)])
        assert l.value >= g.value - 1e-9


def test_bnb_diag_example():
    rep = exact_select_bnb(DIAG, 2)
    assert rep.support == (0, 1)
    assert rep.value == pytest.approx(5.5, abs=1e-9)
    assert rep.node_count is not None and rep.node_count >= 1


def test_bnb_full_budget_trivial():
    gen = np.random.default_rng(2)
    qp = psd_instance(gen, 6)
    rep = exact_select_bnb(qp, 6)
    assert rep.value == pytest.approx(trs_max(qp.A, qp.t).value, abs=1e-8)
    assert rep.node_count <= 3


def test_bnb_matches_enumeration():
    gen = np.random.default_rng(33)
    full = 0
    for _ in range(12):
        D = int(gen.integers(3, 9))
        d = int(gen.integers(1, min(3, D) + 1))
        qp = psd_instance(gen, D)
        rep = exact_select_bnb(qp, d)
        best, _ = brute_force_quad(qp.A, qp.t, d)
        assert rep.value == pytest.approx(best, rel=1e-8, abs=1e-8)
        if len(rep.support) == d:
            # the report carries the lane its support was scored by
            full += 1
            sol = lambda_set(rep.support, qp.A, qp.t)
            assert rep.value == qp.report_value(sol.value)
            assert np.array_equal(rep.z.z, make_selection(sol.z, d).z)
    assert full > 0


def test_bnb_dimension_cap():
    # the cap is checked before anything is solved
    gen = np.random.default_rng(0)
    qp = psd_instance(gen, 31)
    with pytest.raises(ValueError, match="exceeds the exact-solver cap 30"):
        exact_select_bnb(qp, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(4, 8), d=st.integers(1, 3))
def test_sandwich_greedy_local_exact_relax(seed, D, d):
    # the certified bound dominates the B&B optimum, and the relaxation
    # reports greedy + local search's selection under it
    qp = psd_instance(np.random.default_rng(seed), D)
    g = greedy_select(qp, d)
    l = local_search(qp, d, list(g.support) if len(g.support) == d else sorted(set(g.support) | set(range(d)))[:d])
    e = exact_select_bnb(qp, d)
    r, bound = relax(qp, d)
    assert g.value <= l.value + 1e-6
    assert l.value <= e.value + 1e-6
    assert e.value <= bound + 1e-6
    assert r.support == l.support
    assert r.value == l.value


def test_relax_full_budget_bound_tight():
    gen = np.random.default_rng(6)
    qp = psd_instance(gen, 5)
    rep, bound = relax(qp, 5)
    w_full = trs_max(qp.A, qp.t).value + qp.shift
    assert bound == pytest.approx(w_full, abs=1e-6)
    assert rep.value == pytest.approx(w_full, abs=1e-6)


def test_relax_diag_rounding():
    qp = QuadProblem(np.diag([5.0, 3.0, 1.0]), np.zeros(3))
    rep, bound = relax(qp, 1)
    assert rep.support == (0,)
    assert rep.value == pytest.approx(5.0, abs=1e-8)
    assert bound <= 15.0 + 1e-9  # D/d * optimum sanity cap


def test_relax_deterministic():
    gen = np.random.default_rng(77)
    qp = psd_instance(gen, 5)
    (r1, b1), (r2, b2) = relax(qp, 2), relax(qp, 2)
    assert r1.support == r2.support and r1.value == r2.value and b1 == b2


def test_relax_bound_certified_on_data_of_scale_1e9():
    # the training half of `mmdselect test --seed 1` on 20 x 6 data scaled by
    # 1e9: A's entries reach ~1e36, and a certificate absolute in A rejected
    # the full-sphere lane and local search's lanes as rounding
    r = np.random.default_rng(6)
    X = 1e9 * r.standard_normal((20, 6))
    Y = 1e9 * r.standard_normal((20, 6))
    train, _ = split_train_test(TwoSampleData(X, Y), 0.5, derive_stream(RandomSource(1), 0))
    kernel = resolve_kernel(KernelSpec(QUADRATIC, None), train, 3)
    qp = assemble_quadratic(train, kernel.require_bandwidth())
    rep, bound = relax(qp, 3)
    assert bound >= rep.value


def test_approximation_gap_checks():
    t = np.array([0.5, -1.0, 0.25])
    # equality case: relax == exact passes with slack (D/d - 1) * exact + ||t||-ish
    ok = approximation_gap(2.0, 2.0, t, D=3, d=1)
    assert ok.passed and ok.slack >= 0.0
    bad = approximation_gap(2.0 * ok.envelope, 2.0, t, D=3, d=1)
    assert not bad.passed and not bad.upper_ok
    below = approximation_gap(1.0, 2.0, t, D=3, d=1)
    assert not below.lower_ok


def test_bnb_node_bound_admissible():
    # the bound of a (forced, candidates) node dominates every descendant leaf
    gen = np.random.default_rng(71)
    for _ in range(10):
        import itertools

        D = 6
        d = 3
        qp = psd_instance(gen, D)
        forced = sorted(gen.choice(D, size=1, replace=False).tolist())
        cands = sorted(set(gen.choice(D, size=4, replace=False).tolist()) - set(forced))
        union = sorted(set(forced) | set(cands))
        bound = lambda_set(union, qp.A, qp.t).value
        for extra in range(0, d - len(forced) + 1):
            for pick in itertools.combinations(cands, extra):
                sup = sorted(set(forced) | set(pick))
                assert lambda_set(sup, qp.A, qp.t).value <= bound + 1e-9


def test_quad_problem_psd_shift_bookkeeping():
    A = np.array([[0.0, 2.0], [2.0, 0.0]])  # eigenvalues +-2
    qp = QuadProblem.from_matrices(A, np.zeros(2))
    assert qp.shift == pytest.approx(-2.0, abs=1e-12)
    assert float(np.linalg.eigvalsh(qp.A)[0]) >= -1e-10
    # reported optimum refers to the unshifted problem: max z'Az = 2
    rep = exact_select_bnb(qp, 2)
    assert rep.value == pytest.approx(2.0, abs=1e-8)
    # a non-PSD, not exactly symmetric input: the result skips the
    # constructor's checks, passes them, and keeps the bits the checked path
    # gave (symmetrize, shift by lambda_min, copy)
    gen = np.random.default_rng(8)
    B = gen.standard_normal((6, 6))
    A, t = B + B.T + 1e-13 * gen.standard_normal((6, 6)), gen.standard_normal(6)
    qp = QuadProblem.from_matrices(A, t)
    sym = 0.5 * (A + A.T)
    lmin = float(np.linalg.eigvalsh(sym)[0])
    assert lmin < 0.0 and qp.shift == lmin
    assert qp.A.tobytes() == (sym - lmin * np.eye(6)).tobytes()
    assert qp.t.tobytes() == t.tobytes()
    assert qp.A.flags.c_contiguous and not qp.A.flags.writeable and not qp.t.flags.writeable
    checked = QuadProblem(qp.A, qp.t)
    assert checked.A.tobytes() == qp.A.tobytes() and checked.t.tobytes() == qp.t.tobytes()
    assert checked.shift == 0.0  # only from_matrices shifts
    with pytest.raises(TypeError):
        QuadProblem(qp.A, qp.t, qp.shift)
    t[0] += 1.0  # the problem holds its own copy
    assert qp.t[0] != t[0]
