import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import mmdselect
from mmdselect.bench import (
    ExperimentConfig,
    SynthSpec,
    _map_trials,
    _openblas_thread_functions,
    blas_threads,
    block_parameters,
    fdp_ndp,
    run_power_experiment,
    run_recovery_experiment,
    synth_block_gaussian,
    wishart_sample,
)
from mmdselect.core import RandomSource
from mmdselect.selectors import Selector

from oracles import OracleSelector, RandomSelector


def test_wishart_psd_sweep():
    gen = np.random.default_rng(0)
    for _ in range(1000):
        W = wishart_sample(3, 3, gen)
        assert float(np.linalg.eigvalsh(W)[0]) >= -1e-10


def test_wishart_first_moment():
    gen = np.random.default_rng(1)
    acc = np.zeros((3, 3))
    reps = 10_000
    for _ in range(reps):
        acc += wishart_sample(3, 3, gen)
    acc /= reps
    assert np.max(np.abs(acc - 3.0 * np.eye(3))) < 0.15


def test_wishart_invalid_df():
    with pytest.raises(ValueError, match="degrees of freedom"):
        wishart_sample(3, 2, np.random.default_rng(0))


def test_generator_dimensions_default_setup():
    spec = SynthSpec(blocks=20, n=100, m=100, seed=RandomSource(7))
    data, support = synth_block_gaussian(spec)
    assert data.dim == 60 and data.n == 100 and data.m == 100
    assert support == (0, 1, 2)


def test_generator_deterministic():
    spec = SynthSpec(blocks=3, n=10, m=8, seed=RandomSource(5))
    a, _ = synth_block_gaussian(spec)
    b, _ = synth_block_gaussian(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)


def test_null_mode_shares_parameter_objects():
    spec = SynthSpec(blocks=4, n=5, m=5, mode="null", seed=RandomSource(3))
    px, py = block_parameters(spec, RandomSource(3).generator())
    for (mux, covx), (muy, covy) in zip(px, py):
        assert mux is muy and covx is covy
    _, support = synth_block_gaussian(spec)
    assert support == ()


def test_cov_shift_mode_shares_means_only():
    spec = SynthSpec(blocks=2, n=5, m=5, mode="cov_shift", seed=RandomSource(9))
    px, py = block_parameters(spec, RandomSource(9).generator())
    assert px[0][0] is py[0][0]          # first-block means shared
    assert px[0][1] is not py[0][1]      # first-block covariances differ
    assert not np.array_equal(px[0][1], py[0][1])
    assert px[1][0] is py[1][0]          # later blocks fully shared


def test_block_independence_large_sample():
    spec = SynthSpec(blocks=3, n=5000, m=5000, seed=RandomSource(21))
    data, _ = synth_block_gaussian(spec)
    C = np.corrcoef(data.X.T)
    off = np.abs(C[:3, 3:])
    assert float(off.max()) < 0.1


def test_fdp_ndp_examples():
    m = fdp_ndp({1, 2, 3}, {1, 2, 3})
    assert (m.fdp, m.ndp) == (0.0, 0.0)
    m = fdp_ndp({0, 1, 3}, {0, 1, 2})
    assert m.fdp == pytest.approx(1 / 3) and m.ndp == pytest.approx(1 / 3)
    m = fdp_ndp({3, 4, 5}, {0, 1, 2})
    assert (m.fdp, m.ndp) == (1.0, 1.0)
    with pytest.raises(ValueError):
        fdp_ndp(set(), {1})
    with pytest.raises(ValueError):
        fdp_ndp({1}, set())


def small_config(**kw):
    defaults = dict(
        spec=SynthSpec(blocks=2, n=16, m=16, mode="shift", seed=RandomSource(0)),
        selectors=(Selector("linear", 2),),
        trials=3,
        alpha=0.05,
        n_permutations=20,
        rng=RandomSource(77),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_power_trials_one_sd_zero():
    summary = run_power_experiment(small_config(trials=1))
    assert summary.per_selector[0].sd == 0.0


def test_power_duplicate_selector_identical_columns():
    cfg = small_config(selectors=(Selector("linear", 2), Selector("linear", 2)))
    summary = run_power_experiment(cfg)
    a, b = summary.per_selector
    assert a.values == b.values


def test_power_worker_count_invariant():
    cfg1 = small_config(trials=4, workers=1)
    cfg2 = small_config(trials=4, workers=3)
    s1 = run_power_experiment(cfg1)
    s2 = run_power_experiment(cfg2)
    assert [p.values for p in s1.per_selector] == [p.values for p in s2.per_selector]


def test_power_worker_count_invariant_gauss_ccp():
    # mirror-descent iterates carry their eigenpairs; trials in the pool's
    # processes must still reproduce the serial run exactly
    gauss = Selector("gauss-ccp", 2, {"T_out": 2, "T_in": 20, "batch": 32})
    cfg1 = small_config(selectors=(gauss,), trials=4, workers=1)
    cfg2 = small_config(selectors=(gauss,), trials=4, workers=3)
    s1 = run_power_experiment(cfg1)
    s2 = run_power_experiment(cfg2)
    assert [p.values for p in s1.per_selector] == [p.values for p in s2.per_selector]


def test_recovery_oracle_selector_perfect():
    cfg = small_config(selectors=(OracleSelector((0, 1, 2), 3),), trials=3)
    summary = run_recovery_experiment(cfg)
    fdp, ndp = summary.per_selector
    assert fdp.mean == 0.0 and ndp.mean == 0.0


def test_recovery_random_selector_ndp():
    cfg = ExperimentConfig(
        spec=SynthSpec(blocks=20, n=6, m=6, mode="shift", seed=RandomSource(0)),
        selectors=(RandomSelector(3),),
        trials=200,
        rng=RandomSource(1234),
    )
    summary = run_recovery_experiment(cfg)
    ndp = summary.per_selector[1]
    assert ndp.name.endswith(":ndp")
    assert abs(ndp.mean - (1.0 - 3.0 / 60.0)) < 0.05


def test_recovery_quadratic_beats_linear_on_cov_shift():
    cfg = ExperimentConfig(
        spec=SynthSpec(blocks=4, n=200, m=200, mode="cov_shift", seed=RandomSource(0)),
        selectors=(Selector("linear", 3), Selector("quad-greedy", 3)),
        trials=20,
        rng=RandomSource(31),
    )
    summary = run_recovery_experiment(cfg)
    ndp = {s.name: s.mean for s in summary.per_selector if s.name.endswith(":ndp")}
    assert ndp["quad-greedy:ndp"] < ndp["linear:ndp"]
    assert ndp["quad-greedy:ndp"] <= 0.35


def test_recovery_rejects_null_mode():
    cfg = small_config(spec=SynthSpec(blocks=2, n=8, m=8, mode="null", seed=RandomSource(0)))
    with pytest.raises(ValueError, match="non-null"):
        run_recovery_experiment(cfg)


def test_power_null_mode_rate_in_band():
    cfg = ExperimentConfig(
        spec=SynthSpec(blocks=2, n=20, m=20, mode="null", seed=RandomSource(0)),
        selectors=(Selector("linear", 2),),
        trials=100,
        n_permutations=60,
        rng=RandomSource(5150),
    )
    summary = run_power_experiment(cfg)
    rate = summary.per_selector[0].mean
    # binomial 3-sigma band around alpha = 0.05
    assert rate <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / 100)


def test_summary_table_format():
    summary = run_power_experiment(small_config())
    table = summary.to_table()
    assert table.startswith("selector\tmean\tsd")
    assert "linear" in table
    doc = summary.to_dict()
    assert doc["kind"] == "power" and doc["selectors"][0]["name"] == "linear"


@pytest.mark.parametrize("workers", [0, -1])
def test_config_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        small_config(workers=workers)


def _child_blas_threads(t):
    # module-level, so that it pickles into the pool's worker processes
    return blas_threads()


class SelectorFault(RuntimeError):
    pass


class FailingSelector:
    """Module-level, so that it pickles into the pool's worker processes."""

    name = "failing"
    d = 1

    def select(self, train, kernel, rng):
        raise SelectorFault("selector failed inside a worker")


@pytest.mark.skipif(blas_threads() is None, reason="numpy's OpenBLAS not found")
def test_pool_workers_run_one_blas_thread_and_leave_the_caller_alone():
    get, put = _openblas_thread_functions()
    before = get()
    put(2)  # a caller count the pin would visibly change
    try:
        rows, parallel = _map_trials(_child_blas_threads, 2, 2)
        assert rows == [1, 1]
        assert parallel == {"workers": 2, "processes": 2, "blas_threads_per_process": 1}
        summary = run_power_experiment(small_config(trials=2, workers=2))
        assert summary.parallel["blas_threads_per_process"] == 1
        assert get() == 2
    finally:
        put(before)


def test_openblas_thread_functions_resolve_once_per_process():
    # every serial sweep asks for the thread count; it must not reload OpenBLAS
    assert _openblas_thread_functions() is _openblas_thread_functions()


def test_serial_sweep_reports_the_callers_blas_threads():
    # one trial never starts a pool, whatever the worker count
    summary = run_power_experiment(small_config(trials=1, workers=4))
    assert summary.parallel == {
        "workers": 4, "processes": 1, "blas_threads_per_process": blas_threads(),
    }


def test_worker_exception_reaches_the_caller():
    cfg = small_config(selectors=(FailingSelector(),), trials=2, workers=2)
    with pytest.raises(SelectorFault, match="inside a worker"):
        run_recovery_experiment(cfg)


def _subprocess_env(**overrides):
    src = str(Path(mmdselect.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "MMDSELECT_WORKERS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env


def test_package_import_loads_no_pool_modules():
    script = (
        "import sys, mmdselect, mmdselect.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    assert run.stdout.strip() == "[]"


_SWEEP_SCRIPT = """
import json
from mmdselect import ExperimentConfig, RandomSource, SynthSpec
from mmdselect import run_power_experiment, run_recovery_experiment
from mmdselect.selectors import Selector

power = (
    Selector("linear", 3),
    Selector("quad-greedy", 3),
    Selector("gauss-ccp", 3, {"T_out": 2, "T_in": 10, "batch": 32}),
)
out = {}
for workers in (1, 2):
    p = run_power_experiment(ExperimentConfig(
        spec=SynthSpec(blocks=20, n=40, m=40, mode="shift"), selectors=power,
        trials=4, n_permutations=40, rng=RandomSource(9), workers=workers,
    ))
    r = run_recovery_experiment(ExperimentConfig(
        spec=SynthSpec(blocks=6, n=40, m=40, mode="cov_shift"),
        selectors=(Selector("quad-exact", 3),), trials=4, rng=RandomSource(9), workers=workers,
    ))
    out[workers] = [[s.name, s.values] for s in p.per_selector + r.per_selector]
print(json.dumps(out))
"""


def test_trial_values_identical_across_workers_and_blas_threads():
    runs = {}
    for threads in (None, "1", "2"):
        env = _subprocess_env(**({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
        run = subprocess.run(
            [sys.executable, "-c", _SWEEP_SCRIPT],
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        runs[threads] = json.loads(run.stdout)
    ref = runs[None]["1"]
    assert [name for name, _ in ref] == [
        "linear", "quad-greedy", "gauss-ccp", "quad-exact:fdp", "quad-exact:ndp",
    ]
    assert all(len(values) == 4 for _, values in ref)
    for threads, by_workers in runs.items():
        for workers, values in by_workers.items():
            assert values == ref, (threads, workers)


def _worker_pid(t):
    return os.getpid()


def _exit_on_trial_one(t):
    if t == 1:
        os._exit(3)
    return os.getpid()


def _fail_first_mark_rest(marker_dir, t):
    if t == 0:
        raise SelectorFault("trial 0 fails")
    Path(marker_dir, f"trial-{t}").touch()
    time.sleep(0.5)  # long enough that trial 0's failure is seen first
    return t


def _pool_pids():
    return {p.pid for p in multiprocessing.active_children()}


def test_consecutive_sweeps_run_on_the_same_workers():
    first, _ = _map_trials(_worker_pid, 4, 2)
    pids = _pool_pids()
    second, _ = _map_trials(_worker_pid, 4, 2)
    assert len(pids) == 2 and os.getpid() not in pids
    assert _pool_pids() == pids
    assert set(first) | set(second) <= pids


def test_another_process_count_replaces_the_pool():
    _map_trials(_worker_pid, 2, 2)
    two = _pool_pids()
    rows, parallel = _map_trials(_worker_pid, 3, 3)
    three = _pool_pids()
    assert parallel["processes"] == 3
    assert len(two) == 2 and len(three) == 3 and two.isdisjoint(three)
    assert set(rows) <= three


def test_sweep_after_a_broken_pool_starts_fresh_workers():
    _map_trials(_worker_pid, 2, 2)
    before = _pool_pids()
    with pytest.raises(BrokenProcessPool):
        _map_trials(_exit_on_trial_one, 4, 2)
    rows, _ = _map_trials(_worker_pid, 4, 2)
    after = _pool_pids()
    assert len(after) == 2 and after.isdisjoint(before)
    assert set(rows) <= after


def test_a_worker_that_dies_while_idle_does_not_fail_the_next_sweep():
    from mmdselect import bench

    cfg = small_config(trials=4, workers=2)
    first = run_power_experiment(cfg).to_dict()
    os.kill(min(_pool_pids()), signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not bench._pool[1]._broken and time.monotonic() < deadline:
        time.sleep(0.05)
    assert bench._pool[1]._broken  # the pool has seen its worker die
    assert run_power_experiment(cfg).to_dict() == first


def test_failed_sweep_leaves_no_queued_trials(tmp_path):
    processes = 2
    with pytest.raises(SelectorFault, match="trial 0 fails"):
        _map_trials(functools.partial(_fail_first_mark_rest, str(tmp_path)), 12, processes)
    # queued behind whatever the failed sweep left on the pool
    _map_trials(_worker_pid, processes, processes)
    assert len(list(tmp_path.iterdir())) <= processes


_TWO_SWEEPS_SCRIPT = """
import json, multiprocessing, os
from mmdselect.bench import _map_trials

def worker_pid(t):
    return os.getpid()

if __name__ == "__main__":
    pids = set()
    for _ in range(2):
        _map_trials(worker_pid, 4, 2)
        pids |= {p.pid for p in multiprocessing.active_children()}
    print(json.dumps(sorted(pids)))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_pool_workers_end_with_their_process(tmp_path):
    script = tmp_path / "two_sweeps.py"
    script.write_text(_TWO_SWEEPS_SCRIPT)
    run = subprocess.run(
        [sys.executable, str(script)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    pids = json.loads(run.stdout)
    assert len(pids) == 2  # both sweeps ran on one pool
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            continue
        assert stat.rpartition(")")[2].split()[0] == "Z", stat


_FORK_SCRIPT = """
import json, multiprocessing, os, sys
from mmdselect.bench import _map_trials

def worker_pid(t):
    return os.getpid()

if __name__ == "__main__":
    _map_trials(worker_pid, 2, 2)
    parent_pool = {p.pid for p in multiprocessing.active_children()}
    r, w = os.pipe()
    child = os.fork()
    if child == 0:
        rows, _ = _map_trials(worker_pid, 2, 2)
        os.write(w, json.dumps(rows).encode())
        sys.exit(0)
    os.close(w)
    child_rows = json.loads(os.read(r, 4096))
    os.waitpid(child, 0)
    rows, _ = _map_trials(worker_pid, 2, 2)
    print(json.dumps([sorted(parent_pool), child_rows, rows]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool(tmp_path):
    script = tmp_path / "fork_sweep.py"
    script.write_text(_FORK_SCRIPT)
    run = subprocess.run(
        [sys.executable, str(script)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    parent_pool, child_rows, rows = json.loads(run.stdout)
    assert len(parent_pool) == 2
    assert set(child_rows).isdisjoint(parent_pool)
    assert set(rows) <= set(parent_pool)  # the parent's pool survives the child
    # the child forgets the parent's workers at the fork, so it does not try
    # to join them at exit
    assert "Exception ignored" not in run.stderr, run.stderr


_UNGUARDED_SWEEP = """
from mmdselect import ExperimentConfig, RandomSource, SynthSpec, run_power_experiment
from mmdselect.selectors import Selector

run_power_experiment(ExperimentConfig(
    spec=SynthSpec(blocks=2, n=16, m=16), selectors=(Selector("linear", 2),),
    trials=2, n_permutations=20, rng=RandomSource(1), workers=2,
))
"""


_GUARDED_DYING_SWEEP = """
import os, time
from mmdselect.bench import _map_trials

def die_on_one(t):
    if t == 1:
        time.sleep(0.5)  # trial 0 has come back by now
        os._exit(3)
    return t

if __name__ == "__main__":
    _map_trials(die_on_one, 4, 2)
"""


def _last_error_line(argv, tmp_path, exception, **kw):
    """The last stderr line that starts with ``exception``: the traceback's
    last line, which a ``resource_tracker`` warning about leaked semaphores
    can follow."""
    run = subprocess.run(
        argv, env=_subprocess_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=120, **kw,
    )
    assert run.returncode == 1, run.stderr
    lines = [line for line in run.stderr.splitlines() if line.startswith(exception)]
    assert lines, run.stderr
    return lines[-1]


def test_sweep_read_from_stdin_says_why_no_pool_starts(tmp_path):
    last = _last_error_line(
        [sys.executable, "-"], tmp_path, "RuntimeError:", input=_UNGUARDED_SWEEP
    )
    assert last.startswith("RuntimeError: cannot start trial worker processes")
    assert "'<stdin>' is not a file" in last


def test_unguarded_script_names_the_main_guard(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SWEEP)
    last = _last_error_line(
        [sys.executable, str(script)], tmp_path, "concurrent.futures.process.BrokenProcessPool:"
    )
    assert last.startswith("concurrent.futures.process.BrokenProcessPool:")
    assert str(script) in last and 'if __name__ == "__main__":' in last


def test_worker_death_after_a_returned_trial_names_no_main_guard(tmp_path):
    # the workers started, so the guard hint would send the user the wrong way
    script = tmp_path / "guarded.py"
    script.write_text(_GUARDED_DYING_SWEEP)
    last = _last_error_line(
        [sys.executable, str(script)], tmp_path, "concurrent.futures.process.BrokenProcessPool:"
    )
    assert "terminated abruptly" in last
    assert str(script) not in last and "__main__" not in last
