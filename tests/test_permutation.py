import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    OracleSelector,
    gram,
    gram_block_stat,
    gram_permutation_stats,
    gram_stat,
    looped_permutation_stats,
    moment_stat,
)

import mmdselect
from mmdselect.core import RandomSource, TwoSampleData, derive_stream, make_selection, split_train_test
from mmdselect import permutation
from mmdselect.mmd import KernelSpec, mmd_sq, moment_features, moment_mmd_sq
from mmdselect.permutation import _shared_tests, permutation_test
from mmdselect.selectors import Selector

# permutation_test draws relabeling t from stream t of this child stream
PERM_STREAM = 2
EPS = np.finfo(np.float64).eps


class RecordingSelector:
    name = "recording"
    d = 2

    def __init__(self, D):
        self.z = np.zeros(D)
        self.z[0] = 1.0
        self.seen = None

    def select(self, train, kernel, rng):
        self.seen = train
        return make_selection(self.z, self.d)


def iid_data(gen, n, m, D, shift=0.0):
    return TwoSampleData(gen.standard_normal((n, D)) + shift, gen.standard_normal((m, D)))


def test_constant_data_gives_p_value_one():
    # every projected sample identical -> all permuted statistics equal T
    data = TwoSampleData(np.ones((8, 2)), np.ones((6, 2)))
    rep = permutation_test(
        data, KernelSpec.linear(), OracleSelector((0,), 1), 50, 0.05, 0.5, RandomSource(3)
    )
    assert rep.p_value == 1.0
    assert not rep.reject


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec.linear(), KernelSpec.quadratic(0.8), KernelSpec.gaussian(1.0)],
    ids=["linear", "quadratic", "gaussian"],
)
def test_statistic_matches_mmd_on_test_split(kernel):
    gen = np.random.default_rng(0)
    data = iid_data(gen, 10, 12, 3, shift=0.4)
    rng = RandomSource(17)
    sel = RecordingSelector(3)
    sel.z = np.array([0.6, -0.8, 0.0])  # mixed signs: catches projection shortcuts
    rep = permutation_test(data, kernel, sel, 10, 0.05, 0.5, rng)
    train, test = split_train_test(data, 0.5, derive_stream(rng, 0))
    assert np.array_equal(sel.seen.X, train.X)  # selector saw exactly the training split
    want = mmd_sq(kernel, rep.selection, test)
    assert rep.statistic == pytest.approx(want, abs=1e-10)


def test_training_rows_never_enter_permutations():
    # sentinel rows that deterministically land in the training split would
    # dominate every permuted statistic if leaked into the pool
    gen = np.random.default_rng(5)
    X = gen.standard_normal((8, 2))
    Y = gen.standard_normal((8, 2))
    rng = RandomSource(123)
    _, test = split_train_test(TwoSampleData(X, Y), 0.5, derive_stream(rng, 0))
    test_rows = {tuple(r) for r in np.vstack([test.X, test.Y])}
    sentinel = 1e6
    for i, row in enumerate(X):
        if tuple(row) not in test_rows:
            X[i] = sentinel
    for i, row in enumerate(Y):
        if tuple(row) not in test_rows:
            Y[i] = sentinel
    rep = permutation_test(
        TwoSampleData(X, Y), KernelSpec.linear(), OracleSelector((0,), 1), 30, 0.05, 0.5, rng
    )
    bound = 100.0  # any leaked sentinel row would push a statistic past 1e9
    assert np.max(np.abs(rep.permuted)) < bound
    assert abs(rep.statistic) < bound


def test_p_value_granularity():
    gen = np.random.default_rng(9)
    data = iid_data(gen, 12, 12, 2)
    n_p = 40
    rep = permutation_test(
        data, KernelSpec.linear(), OracleSelector((0,), 1), n_p, 0.05, 0.5, RandomSource(2)
    )
    assert abs(rep.p_value * n_p - round(rep.p_value * n_p)) < 1e-12


def test_corrected_convention():
    gen = np.random.default_rng(29)
    data = iid_data(gen, 12, 12, 2)
    rep = permutation_test(
        data, KernelSpec.linear(), OracleSelector((0,), 1), 19, 0.05, 0.5, RandomSource(8),
        corrected=True,
    )
    k = round(rep.p_value * 20)
    assert rep.p_value == pytest.approx(k / 20.0, abs=1e-12)
    assert rep.p_value >= 1.0 / 20.0


def test_deterministic_given_seed():
    gen = np.random.default_rng(31)
    data = iid_data(gen, 16, 16, 4, shift=0.3)
    sel = Selector("linear", 2)
    a = permutation_test(data, KernelSpec.linear(), sel, 25, 0.05, 0.5, RandomSource(77))
    b = permutation_test(data, KernelSpec.linear(), sel, 25, 0.05, 0.5, RandomSource(77))
    assert a.statistic == b.statistic
    assert np.array_equal(a.permuted, b.permuted)
    assert a.p_value == b.p_value


def test_type_i_error_near_nominal():
    # identically distributed groups: rejection rate stays near alpha
    sel = Selector("linear", 2)
    rejections = 0
    trials = 500
    for t in range(trials):
        gen = np.random.default_rng(10_000 + t)
        data = iid_data(gen, 20, 20, 3)
        rep = permutation_test(
            data, KernelSpec.linear(), sel, 99, 0.05, 0.5, RandomSource(5, t)
        )
        rejections += rep.reject
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07


def test_power_on_separated_data():
    sel = Selector("quad-greedy", 2)
    zeros = 0
    for s in range(10):
        gen = np.random.default_rng(600 + s)
        data = iid_data(gen, 40, 40, 3, shift=3.0)
        rep = permutation_test(
            data, KernelSpec("quadratic"), sel, 200, 0.05, 0.5, RandomSource(41, s)
        )
        zeros += rep.p_value == 0.0
    assert zeros >= 9


def test_exchangeability_mean_p_under_corrected():
    sel = OracleSelector((0,), 1)
    ps = []
    for t in range(500):
        gen = np.random.default_rng(40_000 + t)
        data = iid_data(gen, 8, 8, 2)
        rep = permutation_test(
            data, KernelSpec.linear(), sel, 39, 0.05, 0.5, RandomSource(13, t), corrected=True
        )
        ps.append(rep.p_value)
    assert 0.45 <= float(np.mean(ps)) <= 0.55


def test_validation_errors():
    gen = np.random.default_rng(1)
    data = iid_data(gen, 6, 6, 2)
    sel = OracleSelector((0,), 1)
    with pytest.raises(ValueError, match="n_permutations"):
        permutation_test(data, KernelSpec.linear(), sel, 0, 0.05)
    with pytest.raises(ValueError, match="alpha"):
        permutation_test(data, KernelSpec.linear(), sel, 10, 1.5)
    tiny = TwoSampleData(np.zeros((1, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="empty part"):
        permutation_test(tiny, KernelSpec.linear(), sel, 10, 0.05)


# Golden panel: p-values and statistics recorded from the pooled-Gram
# implementation that preceded the moment-based calibration.  Each case draws
# a sparse mixed-sign direction, so the projection's signs and its zero
# coordinate both matter.
GOLDEN_PATH = Path(__file__).parent / "golden_permutation.json"


class FixedSelector:
    name = "fixed"

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)
        self.d = int(np.count_nonzero(self.z))

    def select(self, train, kernel, rng):
        return make_selection(self.z, self.d)


def golden_cases():
    cases = []
    for family in ("linear", "quadratic", "gaussian"):
        for mode in ("null", "shift"):
            for seed in range(5):
                cases.append((family, mode, seed, 20, 20, 200))
            for k, n_p in enumerate((1, 63, 64, 65, 200)):
                cases.append((family, mode, 100 + k, 14, 22, n_p))  # 7 vs 11 test rows
    return cases


def golden_id(case):
    family, mode, seed, n, m, n_p = case
    return f"{family}-{mode}-s{seed}-{n}x{m}-np{n_p}"


def run_golden_case(case):
    family, mode, seed, n, m, n_p = case
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, 4))
    Y = gen.standard_normal((m, 4))
    if mode == "shift":
        X[:, 0] += 1.0
        X[:, 1] *= 1.5
    z = np.append(gen.standard_normal(3), 0.0)
    return permutation_test(
        TwoSampleData(X, Y), KernelSpec(family), FixedSelector(z), n_p, 0.05, 0.5,
        RandomSource(seed),
    )


@pytest.mark.parametrize("case", golden_cases(), ids=golden_id)
def test_golden_panel_matches_gram_implementation(case):
    want = json.loads(GOLDEN_PATH.read_text())[golden_id(case)]
    rep = run_golden_case(case)
    assert rep.p_value == want["p_value"]
    assert rep.statistic == pytest.approx(want["statistic"], rel=1e-12, abs=0.0)


KERNELS = [KernelSpec.linear(), KernelSpec.quadratic(0.8), KernelSpec.gaussian(1.0)]
KERNEL_IDS = ["linear", "quadratic", "gaussian"]


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("z", [[0.6, -0.8, 0.0], [0.3, 0.5, 0.8]], ids=["mixed", "positive"])
def test_permuted_matches_gram_reference(kernel, z):
    gen = np.random.default_rng(3)
    data = iid_data(gen, 15, 19, 3, shift=0.4)
    rng = RandomSource(8)
    rep = permutation_test(data, kernel, FixedSelector(z), 64, 0.05, 0.5, rng)
    _, test = split_train_test(data, 0.5, derive_stream(rng, 0))
    stat, permuted, scale = gram_permutation_stats(
        rep.kernel, rep.selection, test, derive_stream(rng, PERM_STREAM), 64
    )
    # both sides sum O(N) terms of size <= max|G| in different orders
    tol = 64 * (test.n + test.m) * EPS * scale
    assert abs(rep.statistic - stat) <= tol
    np.testing.assert_allclose(rep.permuted, permuted, rtol=0.0, atol=tol)


@pytest.mark.parametrize("kernel", KERNELS[:2], ids=KERNEL_IDS[:2])
def test_moment_statistic_is_mmd_sq_of_held_out_split(kernel):
    gen = np.random.default_rng(4)
    data = iid_data(gen, 13, 17, 3, shift=0.3)
    rng = RandomSource(6)
    rep = permutation_test(data, kernel, FixedSelector([0.6, -0.8, 0.0]), 10, 0.05, 0.5, rng)
    _, test = split_train_test(data, 0.5, derive_stream(rng, 0))
    assert rep.statistic == mmd_sq(kernel, rep.selection, test)


small_floats = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    dim=st.integers(1, 4),
    c=st.floats(0.05, 4.0),
    data=st.data(),
)
def test_moment_statistic_equals_gram_statistic(n, m, dim, c, data):
    X = data.draw(hnp.arrays(np.float64, (n, dim), elements=small_floats))
    Y = data.draw(hnp.arrays(np.float64, (m, dim), elements=small_floats))
    z = data.draw(hnp.arrays(np.float64, dim, elements=small_floats))
    pooled = np.vstack([X, Y])
    base = np.arange(n + m)
    for spec in (KernelSpec.linear(), KernelSpec.quadratic(c)):
        G = gram(spec, z, pooled, pooled)
        want = gram_block_stat(G, base[:n], base[n:])
        got = mmd_sq(spec, z, TwoSampleData(X, Y))
        assert abs(got - want) <= 64 * (n + m) * EPS * max(1.0, float(np.abs(G).max()))


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("rows", [2, 3])  # three rows sum in an order-dependent way
def test_observed_partition_and_its_swap_tie_exactly(kernel, rows):
    gen = np.random.default_rng(12)
    data = iid_data(gen, 2 * rows, 2 * rows, 3, shift=0.5)
    rng = RandomSource(21)
    n_p = 200
    rep = permutation_test(data, kernel, FixedSelector([0.6, -0.8, 0.0]), n_p, 0.05, 0.5, rng)
    assert rep.test_sizes == (rows, rows)
    perm_root = derive_stream(rng, PERM_STREAM)
    observed = ({*range(rows)}, {*range(rows, 2 * rows)})
    ties = 0
    for t in range(n_p):
        p = derive_stream(perm_root, t).generator().permutation(2 * rows)
        if set(p[:rows].tolist()) in observed:
            assert rep.permuted[t] == rep.statistic
            ties += 1
    assert ties > 0
    assert rep.p_value >= ties / n_p  # exact ties count as exceedances


_BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from mmdselect import KernelSpec, RandomSource, TwoSampleData, permutation_test
from mmdselect.core import make_selection

class Fixed:
    d = 3
    def select(self, train, kernel, rng):
        return make_selection(np.array([0.6, -0.8, 0.0, 0.5, 0.0]), 3)

gen = np.random.default_rng(3)
data = TwoSampleData(gen.standard_normal((400, 5)) + 0.1, gen.standard_normal((400, 5)))
for spec in (KernelSpec.linear(), KernelSpec.quadratic(1.0), KernelSpec.gaussian(1.0)):
    rep = permutation_test(data, spec, Fixed(), 30, 0.05, 0.5, RandomSource(4))
    print(spec.family, rep.statistic.hex(), hashlib.sha256(rep.permuted.tobytes()).hexdigest())
"""


def test_statistics_bit_identical_across_blas_thread_counts():
    src = str(Path(mmdselect.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "kernel, calibration",
    [(KERNELS[0], "moments"), (KERNELS[1], "moments"), (KERNELS[2], "gram")],
    ids=KERNEL_IDS,
)
def test_report_diagnostics_stay_out_of_to_dict(kernel, calibration):
    gen = np.random.default_rng(2)
    rep = permutation_test(
        iid_data(gen, 10, 10, 2), kernel, OracleSelector((0,), 1), 20, 0.05, 0.5, RandomSource(1)
    )
    assert rep.calibration == calibration
    assert set(rep.stage_s) == {"split_select", "calibration"}
    assert all(v >= 0.0 for v in rep.stage_s.values())
    assert set(rep.to_dict()) == {
        "statistic", "p_value", "alpha", "reject", "n_permutations", "corrected",
        "train_sizes", "test_sizes", "seed",
    }


def test_shared_pass_matches_separate_tests():
    # the selectors of a power trial are tested in one pass over one split
    gen = np.random.default_rng(6)
    data = iid_data(gen, 30, 26, 6, shift=0.3)
    pairs = [
        (KernelSpec.linear(), Selector("linear", 2)),
        (KernelSpec("quadratic"), Selector("quad-greedy", 2)),
        (KernelSpec("gaussian"), Selector("gauss-ccp", 2, {"T_out": 1, "T_in": 10, "batch": 32})),
    ]
    rng = RandomSource(9, 4)
    shared = _shared_tests(data, pairs, 40, 0.1, 0.5, rng)
    assert [rep.calibration for rep in shared] == ["moments", "moments", "gram"]
    for (kernel, selector), rep in zip(pairs, shared):
        alone = permutation_test(data, kernel, selector, 40, 0.1, 0.5, rng)
        assert rep.kernel == alone.kernel
        assert np.array_equal(rep.selection.z, alone.selection.z)
        assert rep.statistic == alone.statistic
        assert np.array_equal(rep.permuted, alone.permuted)
        assert rep.p_value == alone.p_value and rep.reject == alone.reject
        assert rep.to_dict() == alone.to_dict()


# few distinct values, so that different relabelings tie exactly
tie_floats = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), small_floats)
weights = st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(-3.0, -0.1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(4, 9),
    m=st.integers(4, 9),
    dim=st.integers(1, 3),
    family=st.sampled_from(["linear", "quadratic", "gaussian"]),
    n_p=st.integers(1, 30),
    per_chunk=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_chunked_relabelings_equal_one_at_a_time(n, m, dim, family, n_p, per_chunk, seed, data):
    # the held-out halves have 2-4 rows a group, n != m in general, and the
    # chunk length rarely divides the relabeling count
    X = data.draw(hnp.arrays(np.float64, (n, dim), elements=tie_floats))
    Y = data.draw(hnp.arrays(np.float64, (m, dim), elements=tie_floats))
    z = data.draw(hnp.arrays(np.float64, dim, elements=weights))
    if not z.any():
        z[0] = 1.0
    kernel = KernelSpec(family, None if family == "linear" else 0.7)
    rng = RandomSource(seed)
    _, test = split_train_test(TwoSampleData(X, Y), 0.5, derive_stream(rng, 0))
    N = test.n + test.m
    pooled = np.vstack([test.X, test.Y])
    # the scores of one chunk equal the one-relabeling form row by row
    P = np.array([np.random.default_rng(seed + r).permutation(N) for r in range(n_p)])
    IX, IY = np.sort(P[:, : test.n], axis=1), np.sort(P[:, test.n :], axis=1)
    if family == "gaussian":
        G = gram(kernel, z, pooled, pooled)
        got = permutation._gram_stats(G, IX, IY)
        want = [gram_stat(G, ix, iy) for ix, iy in zip(IX, IY)]
        per_row = max(test.n, test.m)  # rows of G one group gathers
    else:
        F, w = moment_features(kernel, z, pooled)
        got = moment_mmd_sq(F, w, IX, IY)
        want = [moment_stat(F, w, ix, iy) for ix, iy in zip(IX, IY)]
        per_row = F.shape[0]
    assert got.tobytes() == np.array(want).tobytes()
    # and the test's relabelings, chunked by a lowered cap, equal the loop
    with mock.patch.object(permutation, "_CHUNK_ENTRIES", per_chunk * N * per_row):
        rep = permutation_test(
            TwoSampleData(X, Y), kernel, FixedSelector(z), n_p, 0.05, 0.5, rng
        )
    stat, permuted = looped_permutation_stats(
        kernel, rep.selection, test, derive_stream(rng, PERM_STREAM), n_p
    )
    assert rep.statistic == stat
    assert rep.permuted.tobytes() == permuted.tobytes()


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_relabeling_chunks_stay_under_the_entry_cap(kernel, monkeypatch):
    gen = np.random.default_rng(5)
    data = iid_data(gen, 60, 50, 4, shift=0.2)
    sel = FixedSelector([0.6, -0.8, 0.0, 0.4])
    whole = permutation_test(data, kernel, sel, 23, 0.05, 0.5, RandomSource(2))
    chunks = []  # (relabelings, features gathered) of each call

    def recorded(score, features):
        def call(*args):
            chunks.append((len(args[-2]), features(args[0])))
            return score(*args)
        return call

    moments, grams = permutation.moment_mmd_sq, permutation._gram_stats
    monkeypatch.setattr(permutation, "moment_mmd_sq", recorded(moments, len))
    monkeypatch.setattr(permutation, "_gram_stats", recorded(grams, lambda G: 1))
    monkeypatch.setattr(permutation, "_CHUNK_ENTRIES", 1000)
    capped = permutation_test(data, kernel, sel, 23, 0.05, 0.5, RandomSource(2))
    assert capped.statistic == whole.statistic
    assert capped.permuted.tobytes() == whole.permuted.tobytes()
    # the observed statistic, then the relabelings in chunks: 55 held-out
    # rows, and 3 linear or 9 quadratic features
    assert chunks[0][0] == 1 and sum(rows for rows, _ in chunks[1:]) == 23
    assert len(chunks) >= 3
    assert all(rows * 55 * features <= 1000 for rows, features in chunks)


@pytest.mark.parametrize("cap, per_chunk", [(1000, 1), (55 * 30 * 4, 4), (1 << 18, 23)])
def test_gram_chunks_hold_the_cap_or_one_relabeling(cap, per_chunk, monkeypatch):
    # 30 + 25 held-out rows: a chunk of P relabelings gathers P x 30 x 55
    # Gram entries for its larger group
    gen = np.random.default_rng(5)
    data = iid_data(gen, 60, 50, 4, shift=0.2)
    sel = FixedSelector([0.6, -0.8, 0.0, 0.4])
    kernel = KernelSpec.gaussian(1.0)
    whole = permutation_test(data, kernel, sel, 23, 0.05, 0.5, RandomSource(2))
    chunks = []
    grams = permutation._gram_stats
    monkeypatch.setattr(
        permutation, "_gram_stats", lambda G, IX, IY: chunks.append(len(IX)) or grams(G, IX, IY)
    )
    monkeypatch.setattr(permutation, "_CHUNK_ENTRIES", cap)
    capped = permutation_test(data, kernel, sel, 23, 0.05, 0.5, RandomSource(2))
    assert capped.permuted.tobytes() == whole.permuted.tobytes()
    assert chunks[0] == 1 and max(chunks[1:]) == per_chunk and sum(chunks[1:]) == 23
