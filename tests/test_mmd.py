import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import mmdselect
from mmdselect import mmd
from mmdselect.core import SelectionVector, TwoSampleData, _one_blas_thread, make_selection
from mmdselect.gauss import gauss_objective
from mmdselect.mmd import gram as mmd_gram
from mmdselect.mmd import DegenerateBandwidthError, KernelSpec, median_heuristic, mmd_sq

from oracles import (
    ConcentrationInputs,
    concentration_epsilon,
    gram,
    kernel_eval,
    median_heuristic_reference,
)

LIN = KernelSpec.linear()


def sel(z, d=None):
    z = np.asarray(z, dtype=float)
    return SelectionVector(z / np.linalg.norm(z), d or int(np.count_nonzero(z)))


def test_kernel_eval_linear():
    assert kernel_eval(LIN, sel([1, 0]), np.array([2.0, 3.0]), np.array([4.0, 5.0])) == 8.0


def test_kernel_eval_gaussian_zero_difference():
    spec = KernelSpec.gaussian(0.7)
    x = np.array([1.3, -2.0, 0.5])
    z = sel([0.5, 0.5, np.sqrt(0.5)], d=3)
    assert kernel_eval(spec, z, x, x) == 1.0


def test_kernel_eval_quadratic_zero_inner():
    spec = KernelSpec.quadratic(1.0)
    assert kernel_eval(spec, sel([1, 0]), np.array([0.0, 7.0]), np.array([5.0, 9.0])) == 1.0


def test_kernel_eval_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        kernel_eval(LIN, sel([1, 0]), np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))


def test_kernel_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        KernelSpec.quadratic(0.0)
    with pytest.raises(ValueError, match="positive"):
        KernelSpec.gaussian(-1.0)
    with pytest.raises(ValueError, match="no bandwidth"):
        KernelSpec("linear", 1.0)


def test_mmd_sq_identical_groups_zero():
    gen = np.random.default_rng(0)
    M = gen.standard_normal((6, 3))
    data = TwoSampleData(M, M.copy())
    for spec in (LIN, KernelSpec.quadratic(0.5), KernelSpec.gaussian(2.0)):
        assert abs(mmd_sq(spec, sel([1, 0, 0]), data)) <= 1e-12


def test_mmd_sq_linear_single_pair():
    data = TwoSampleData(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert mmd_sq(LIN, sel([1, 0]), data) == pytest.approx(1.0, abs=1e-12)


def test_mmd_sq_gaussian_single_pair():
    # K(x,x)+K(y,y)-2K(x,y) with unit projected gap at gamma = 0.5
    data = TwoSampleData(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
    expected = 2.0 - 2.0 * math.exp(-1.0)
    got = mmd_sq(KernelSpec.gaussian(0.5), sel([1, 0]), data)
    assert got == pytest.approx(expected, abs=1e-12)


def test_mmd_sq_swap_symmetric_exact():
    gen = np.random.default_rng(7)
    data = TwoSampleData(gen.standard_normal((9, 4)), gen.standard_normal((5, 4)))
    z = sel([0.5, -0.5, 0.5, 0.5], d=4)
    for spec in (LIN, KernelSpec.quadratic(1.3), KernelSpec.gaussian(0.9)):
        assert mmd_sq(spec, z, data) == mmd_sq(spec, z, TwoSampleData(data.Y, data.X))


def test_sign_flip_invariance():
    gen = np.random.default_rng(1)
    data = TwoSampleData(gen.standard_normal((6, 3)), gen.standard_normal((7, 3)))
    z = sel([2.0, -1.0, 0.5], d=3)
    zneg = SelectionVector(-z.z, d=3)
    g = KernelSpec.gaussian(1.1)
    assert mmd_sq(g, z, data) == pytest.approx(mmd_sq(g, zneg, data), abs=1e-12)
    x, y = data.X[0], data.Y[0]
    assert kernel_eval(LIN, z, x, y) == pytest.approx(-kernel_eval(LIN, zneg, x, y), abs=1e-12)


def test_gram_matrices_psd():
    # the linear/quadratic projected kernels are PSD on nonnegative weights
    # (the regime their solvers operate in); the gaussian one for any z
    gen = np.random.default_rng(11)
    for rep in range(10):
        pts = gen.standard_normal((int(gen.integers(2, 9)), 5))
        for _ in range(2):
            z_pos = make_selection(gen.random(5) + 1e-3, 5)
            z_any = make_selection(gen.standard_normal(5), 5)
            checks = [
                (LIN, z_pos),
                (KernelSpec.quadratic(0.8), z_pos),
                (KernelSpec.gaussian(1.5), z_pos),
                (KernelSpec.gaussian(1.5), z_any),
            ]
            for spec, zs in checks:
                G = gram(spec, zs, pts, pts)
                w = np.linalg.eigvalsh(0.5 * (G + G.T))
                assert w[0] >= -1e-8


def test_gram_is_gaussian_only():
    pts = np.ones((2, 2))
    for spec in (LIN, KernelSpec.quadratic(1.0)):
        with pytest.raises(ValueError, match="moments, not a Gram matrix"):
            mmd_gram(spec, sel([1, 0]), pts, pts)
    G = mmd_gram(KernelSpec.gaussian(1.0), sel([1, 0]), pts, pts)
    assert np.array_equal(G, gram(KernelSpec.gaussian(1.0), sel([1, 0]), pts, pts))


def test_mmd_sq_nonnegative_psd_regime():
    gen = np.random.default_rng(5)
    for _ in range(20):
        data = TwoSampleData(gen.standard_normal((5, 4)), gen.standard_normal((6, 4)))
        z_pos = make_selection(gen.random(4) + 1e-3, 4)
        z_any = make_selection(gen.standard_normal(4), 4)
        assert mmd_sq(KernelSpec.quadratic(0.7), z_pos, data) >= -1e-9
        assert mmd_sq(LIN, z_pos, data) >= -1e-9
        assert mmd_sq(KernelSpec.gaussian(1.0), z_any, data) >= -1e-9


def test_cross_module_identity_gauss_objective():
    gen = np.random.default_rng(21)
    for _ in range(10):
        data = TwoSampleData(gen.standard_normal((6, 5)), gen.standard_normal((4, 5)))
        z = gen.standard_normal(5)
        z /= np.linalg.norm(z)
        gamma = 0.8
        F = gauss_objective(np.outer(z, z), data, gamma)
        s2 = mmd_sq(KernelSpec.gaussian(gamma), make_selection(z, 5), data)
        assert F == pytest.approx(-s2, abs=1e-10)


def test_gaussian_mmd_sq_sums_each_gram_block_as_it_is_built():
    # holding the three Gram blocks at once peaked at about 4 tables
    gen = np.random.default_rng(61)
    data = TwoSampleData(gen.standard_normal((300, 6)), gen.standard_normal((300, 6)) + 0.3)
    tracemalloc.start()
    try:
        mmd_sq(KernelSpec.gaussian(3.0), sel([1.0, 1.0, 0, 0, 0, 0]), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 300 * 300 * 8


def test_median_heuristic_values():
    one = TwoSampleData(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert median_heuristic(one) == 1.0
    two = TwoSampleData(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert median_heuristic(two) == 2.5
    same = TwoSampleData(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    with pytest.raises(DegenerateBandwidthError):
        median_heuristic(same)


@st.composite
def _groups(draw):
    dim = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e3, 1e8]))
    cells = st.floats(-10.0, 10.0, allow_subnormal=False).map(lambda v: v * scale)
    X = draw(hnp.arrays(np.float64, (draw(st.integers(1, 9)), dim), elements=cells))
    Y = draw(hnp.arrays(np.float64, (draw(st.integers(1, 9)), dim), elements=cells))
    return X, Y


@settings(max_examples=200, deadline=None, derandomize=True)
@given(groups=_groups())
def test_median_heuristic_matches_the_reference_bit_for_bit(groups):
    X, Y = groups
    want = median_heuristic_reference(X, Y)
    if want <= 0.0:
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(TwoSampleData(X, Y))
    else:
        assert np.float64(median_heuristic(TwoSampleData(X, Y))).tobytes() == np.float64(want).tobytes()


def test_median_heuristic_matches_the_reference_at_scale():
    gen = np.random.default_rng(4)
    X, Y = gen.standard_normal((300, 40)), gen.standard_normal((250, 40)) + 0.3
    assert median_heuristic(TwoSampleData(X, Y)) == median_heuristic_reference(X, Y)


@pytest.mark.parametrize(
    "n, m, dim, tied",
    [
        (101, 103, 5, False),  # 10403 entries, odd
        (100, 120, 3, False),  # 12000, even
        (160, 125, 2, True),  # 20000, even, few distinct values
        (151, 99, 4, True),  # 14949, odd
        (400, 300, 8, True),  # 120000, even
    ],
)
def test_median_heuristic_matches_the_reference_above_1e4_entries(n, m, dim, tied):
    # large enough for numpy's single-kth selection to take its fast path
    gen = np.random.default_rng(n * m + dim)
    if tied:
        X = gen.integers(-2, 3, (n, dim)).astype(float)
        Y = gen.integers(-2, 4, (m, dim)).astype(float)
    else:
        X, Y = gen.standard_normal((n, dim)), 1.5 * gen.standard_normal((m, dim))
    got = np.float64(median_heuristic(TwoSampleData(X, Y)))
    assert got.tobytes() == np.float64(median_heuristic_reference(X, Y)).tobytes()


@pytest.mark.parametrize(
    "X, Y",
    [
        (1e160 * np.eye(3), -1e160 * np.eye(3)),  # inf - inf: NaN distances
        (np.zeros((1, 1)), np.array([[1.3e154], [1.31e154]])),  # finite, mean overflows
    ],
)
def test_median_heuristic_overflow_raises_without_warnings(X, Y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^float64 overflow in the median heuristic's squared"):
            median_heuristic(TwoSampleData(X, Y))


# Lowered block sizes, so that groups of a hundred or two rows span several
# blocks (a block holds at least two 24-row panels).
SMALL_BLOCKS = [1, 7, 64]


def _block_count(n, m):
    rows = mmd._median_rows(n, m)
    return max(1, n // rows)


@st.composite
def _blocked_groups(draw):
    # n x dim against m x dim, each group at its own scale, sometimes with
    # integer cells that tie many distances
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # mostly shapes of several blocks (48-row blocks from m = 51), and wide
    # ones, where a misaligned block meets another dgemm kernel
    n = draw(st.integers(1, 240) | st.integers(144, 240))
    m = draw(st.integers(1, 64) | st.integers(51, 64) | st.integers(300, 600))
    dim = draw(st.integers(1, 8) | st.integers(24, 64))
    scale_x, scale_y = (draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])) for _ in range(2))
    if draw(st.booleans()):
        X = gen.integers(-2, 3, (n, dim)) * scale_x
        Y = gen.integers(-2, 4, (m, dim)) * scale_y
    else:
        X = gen.standard_normal((n, dim)) * scale_x
        Y = (gen.standard_normal((m, dim)) + draw(st.floats(-2.0, 2.0))) * scale_y
    return X, Y


@settings(max_examples=150, deadline=None, derandomize=True)
@given(groups=_blocked_groups(), block=st.sampled_from(SMALL_BLOCKS))
def test_blocked_median_heuristic_matches_the_reference_bit_for_bit(groups, block):
    X, Y = groups
    want = median_heuristic_reference(X, Y)
    with mock.patch.object(mmd, "_MEDIAN_BLOCK", block):
        # the blocks hold the full product's distances, bit for bit
        sx, sy = np.sum(X**2, axis=1), np.sum(Y**2, axis=1)
        d = np.empty((len(X), len(Y)))
        with _one_blas_thread():
            for _ in mmd._distance_blocks(2.0 * X, Y, sx, sy, mmd._median_rows(*d.shape), False, d):
                pass
            full = sx[:, None] + sy[None, :] - 2.0 * X @ Y.T
        assert d.tobytes() == full.tobytes()
        if want <= 0.0:
            with pytest.raises(DegenerateBandwidthError):
                median_heuristic(TwoSampleData(X, Y))
        else:
            got = median_heuristic(TwoSampleData(X, Y))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize(
    "n, m, dim", [(200, 60, 5), (241, 59, 5), (150, 50, 5), (197, 523, 60)]
)  # even, odd, two blocks, wide
def test_blocked_median_spans_blocks_and_matches_the_reference(block, n, m, dim):
    gen = np.random.default_rng(n + m + block)
    X, Y = gen.standard_normal((n, dim)), 1e3 * gen.standard_normal((m, dim))
    with mock.patch.object(mmd, "_MEDIAN_BLOCK", block):
        assert _block_count(n, m) >= 2
        got = median_heuristic(TwoSampleData(X, Y))
    assert np.float64(got).tobytes() == np.float64(median_heuristic_reference(X, Y)).tobytes()


@pytest.fixture
def passes(monkeypatch):
    """The keyword arguments of each pass over the distance blocks."""
    seen = []
    blocks = mmd._distance_blocks
    monkeypatch.setattr(mmd, "_distance_blocks", lambda *a, **k: seen.append(k) or blocks(*a, **k))
    return seen


@pytest.mark.parametrize("side", ["above", "below"])
def test_a_missed_bracket_still_gives_the_reference_bits(side, monkeypatch, passes):
    # a bracket wholly above (or below) the median: the counts show the miss,
    # and a second pass that keeps every distance finds the median
    gen = np.random.default_rng(8)
    X, Y = gen.standard_normal((300, 4)), gen.standard_normal((90, 4)) + 0.5
    want = median_heuristic_reference(X, Y)
    bracket = (2.0 * want, 3.0 * want) if side == "above" else (0.1 * want, 0.5 * want)
    monkeypatch.setattr(mmd, "_MEDIAN_BLOCK", 64)
    monkeypatch.setattr(mmd, "_median_bracket", lambda *args: bracket)
    got = median_heuristic(TwoSampleData(X, Y))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert len(passes) == 2


def test_the_sampled_bracket_holds_the_median_on_mismatched_scales(monkeypatch, passes):
    # the entries of one row share sx_i, so the pairs are drawn independently
    # over the whole matrix; each of these medians takes one pass
    gen = np.random.default_rng(3)
    monkeypatch.setattr(mmd, "_MEDIAN_BLOCK", 64)
    for scale_x, scale_y in [(1.0, 1.0), (1e3, 1.0), (1.0, 1e-3), (1e-3, 1e3)]:
        X = scale_x * gen.standard_normal((400, 6)) * gen.random(6)
        Y = scale_y * (gen.standard_normal((300, 6)) + 1.0)
        got = median_heuristic(TwoSampleData(X, Y))
        assert np.float64(got).tobytes() == np.float64(median_heuristic_reference(X, Y)).tobytes()
    assert passes == [{}] * 4


def test_a_nan_distance_in_the_last_block_raises(monkeypatch):
    # only the last row meets the one huge column of Y: inf - inf there
    gen = np.random.default_rng(9)
    X, Y = gen.standard_normal((200, 3)), gen.standard_normal((60, 3))
    X[-1, 0], Y[7, 0] = 1e160, 1e160
    monkeypatch.setattr(mmd, "_MEDIAN_BLOCK", 7)
    assert _block_count(200, 60) >= 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^float64 overflow in the median heuristic's squared"):
            median_heuristic(TwoSampleData(X, Y))


def test_a_row_of_infinite_distances_keeps_the_finite_median(monkeypatch):
    # sx overflows for one row, but its products stay finite: inf, not NaN
    gen = np.random.default_rng(10)
    X, Y = gen.standard_normal((200, 3)), gen.standard_normal((60, 3))
    X[150, 0] = 1e160
    monkeypatch.setattr(mmd, "_MEDIAN_BLOCK", 7)
    with np.errstate(over="ignore"):
        want = median_heuristic_reference(X, Y)
    assert math.isfinite(want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = median_heuristic(TwoSampleData(X, Y))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_a_zero_blocked_median_raises(monkeypatch):
    # most rows coincide across the groups, so most distances are zero
    X, Y = np.zeros((200, 2)), np.zeros((60, 2))
    X[:20] = 1.0
    monkeypatch.setattr(mmd, "_MEDIAN_BLOCK", 1)
    assert _block_count(200, 60) >= 2
    with pytest.raises(DegenerateBandwidthError):
        median_heuristic(TwoSampleData(X, Y))


def test_median_heuristic_memory_is_bounded():
    # the whole 2000 x 2000 matrix and its cross product took 62 MB
    gen = np.random.default_rng(11)
    data = TwoSampleData(gen.standard_normal((2000, 60)), gen.standard_normal((2000, 60)) + 0.2)
    tracemalloc.start()
    try:
        median_heuristic(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


_THREADS_SCRIPT = """
import hashlib
from mmdselect.bench import SynthSpec, synth_block_gaussian
from mmdselect.core import RandomSource, derive_stream, split_train_test
from mmdselect.mmd import median_heuristic
from mmdselect.quad import assemble_quadratic

def digest(qp):
    return hashlib.sha256(qp.A.tobytes() + qp.t.tobytes()).hexdigest()

for seed in range(4):
    data, _ = synth_block_gaussian(
        SynthSpec(blocks=20, n=100, m=100, mode="shift", seed=RandomSource(seed))
    )
    print(median_heuristic(data).hex(), digest(assemble_quadratic(data, 1.0)))
# the training half of the large-n test command: 1000 + 1000 rows, D=60
data, _ = synth_block_gaussian(
    SynthSpec(blocks=20, n=2000, m=2000, mode="shift", seed=RandomSource(1))
)
train, _ = split_train_test(data, 0.5, derive_stream(RandomSource(1), 0))
print(digest(assemble_quadratic(train, 1.0)))
"""


def test_bandwidth_and_coefficients_bit_identical_across_blas_thread_counts():
    # seed 0's cross product X @ Y.T differed in its last bit between one
    # and two OpenBLAS threads before the median ran it at one
    src = str(Path(mmdselect.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]


def test_concentration_epsilon_reference_point():
    # frozen from the formula: 0.4 + sqrt(0.04 * ln 40)
    expected = 0.4 + math.sqrt(0.04 * math.log(40.0))
    got = concentration_epsilon(ConcentrationInputs(100, 100, 1.0, 0.05))
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(0.7841291165279684, abs=1e-10)


def test_concentration_epsilon_limit_and_monotonicity():
    assert concentration_epsilon(ConcentrationInputs(10**6, 10**6, 1.0, 0.05)) < 0.01
    base = concentration_epsilon(ConcentrationInputs(100, 100, 1.0, 0.05))
    assert concentration_epsilon(ConcentrationInputs(100, 200, 1.0, 0.05)) < base


def test_concentration_inputs_validation():
    with pytest.raises(ValueError):
        ConcentrationInputs(0, 10, 1.0, 0.05)
    with pytest.raises(ValueError):
        ConcentrationInputs(10, 10, 1.0, 1.5)
    with pytest.raises(ValueError):
        ConcentrationInputs(10, 10, -1.0, 0.5)
