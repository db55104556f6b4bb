"""Synthetic block-Gaussian generator, selection-quality metrics, and the
power / type-I / recovery experiment drivers.

Variables come in independent blocks of three coordinates; each
block shares a mean drawn uniformly on the unit sphere and a covariance drawn
from a Wishart distribution.  Only the first block is drawn separately for the
two groups, so the ground-truth informative set is the first block.  Modes:

* ``"shift"``     first-block mean and covariance both differ (default),
* ``"cov_shift"`` first-block means are shared, covariances differ,
* ``"null"``      the two groups share every parameter.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import itertools
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import RandomSource, TwoSampleData, _openblas_thread_functions, derive_stream
from .mmd import LINEAR, KernelSpec, resolve_kernel
from .permutation import _shared_tests
from .selectors import SOLVER_FAMILIES

MODES = ("shift", "cov_shift", "null")
_BLOCK_SIZE = 3  # coordinates per block


@dataclass(frozen=True)
class SynthSpec:
    blocks: int
    n: int
    m: int
    wishart_df: int = 3
    mode: str = "shift"
    seed: RandomSource = field(default_factory=lambda: RandomSource(0))

    def __post_init__(self):
        if self.blocks < 1 or self.n < 1 or self.m < 1:
            raise ValueError("blocks and sample sizes must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.wishart_df < _BLOCK_SIZE:
            raise ValueError("wishart_df must be at least the block size")

    @property
    def dim(self) -> int:
        return self.blocks * _BLOCK_SIZE


def wishart_sample(dim: int, df: int, gen: np.random.Generator) -> np.ndarray:
    """Wishart(df, I) draw via the Bartlett factor: lower triangle standard
    normal, diagonal chi with decreasing degrees of freedom."""
    if df < dim:
        raise ValueError(f"degrees of freedom {df} below dimension {dim}")
    L = np.zeros((dim, dim))
    for i in range(dim):
        L[i, i] = np.sqrt(gen.chisquare(df - i))
        for j in range(i):
            L[i, j] = gen.standard_normal()
    return L @ L.T


def _sphere_point(dim: int, gen: np.random.Generator) -> np.ndarray:
    v = gen.standard_normal(dim)
    nrm = np.linalg.norm(v)
    while nrm < 1e-12:
        v = gen.standard_normal(dim)
        nrm = np.linalg.norm(v)
    return v / nrm


def block_parameters(spec: SynthSpec, param_gen: np.random.Generator):
    """Per-block (mean, covariance) pairs for the two groups.  Under the null
    mode both groups reference the same parameter objects in every block."""
    b = _BLOCK_SIZE
    px, py = [], []
    for blk in range(spec.blocks):
        mu = _sphere_point(b, param_gen)
        cov = wishart_sample(b, spec.wishart_df, param_gen)
        if blk == 0 and spec.mode != "null":
            mu2 = _sphere_point(b, param_gen)
            cov2 = wishart_sample(b, spec.wishart_df, param_gen)
            if spec.mode == "cov_shift":
                mu2 = mu
            px.append((mu, cov))
            py.append((mu2, cov2))
        else:
            px.append((mu, cov))
            py.append((mu, cov))
    return px, py


def synth_block_gaussian(spec: SynthSpec) -> tuple[TwoSampleData, tuple]:
    """Generate one dataset; returns it with the true informative index set
    (empty under the null mode)."""
    b = _BLOCK_SIZE
    param_gen = derive_stream(spec.seed, 0).generator()
    sample_gen = derive_stream(spec.seed, 1).generator()
    px, py = block_parameters(spec, param_gen)

    def draw(count, params):
        out = np.empty((count, spec.dim))
        for blk, (mu, cov) in enumerate(params):
            L = np.linalg.cholesky(cov + 1e-12 * np.eye(b))
            out[:, blk * b : (blk + 1) * b] = mu + sample_gen.standard_normal((count, b)) @ L.T
        return out

    data = TwoSampleData(draw(spec.n, px), draw(spec.m, py))
    true_support = () if spec.mode == "null" else tuple(range(b))
    return data, true_support


@dataclass(frozen=True)
class SelectionMetrics:
    fdp: float
    ndp: float


def fdp_ndp(selected, true_support) -> SelectionMetrics:
    """False- and non-discovery proportions of a selected index set."""
    I = set(int(i) for i in selected)
    S = set(int(i) for i in true_support)
    if not I:
        raise ValueError("selected set is empty; FDP is undefined")
    if not S:
        raise ValueError("true support is empty; NDP is undefined")
    return SelectionMetrics(fdp=len(I - S) / len(I), ndp=len(S - I) / len(S))


@dataclass(frozen=True)
class ExperimentConfig:
    spec: SynthSpec
    selectors: tuple
    trials: int
    alpha: float = 0.05
    n_permutations: int = 200
    train_fraction: float = 0.5
    rng: RandomSource = field(default_factory=lambda: RandomSource(0))
    workers: int = 1
    corrected: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SelectorSummary:
    name: str
    mean: float
    sd: float
    values: tuple


def _summary(name: str, values) -> SelectorSummary:
    """Mean, population standard deviation and values of one metric."""
    vals = np.array(values)
    return SelectorSummary(
        name=name,
        mean=float(vals.mean()),
        sd=float(vals.std()),
        values=tuple(float(v) for v in vals),
    )


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-selector results of a sweep.  ``parallel`` says how the trials
    ran (see ``_map_trials``); it is left out of ``to_dict`` and of equality,
    since the results never depend on it."""

    kind: str
    per_selector: tuple
    parallel: dict | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "selectors": [
                {"name": s.name, "mean": s.mean, "sd": s.sd} for s in self.per_selector
            ],
        }

    def to_table(self) -> str:
        lines = ["selector\tmean\tsd"]
        for s in self.per_selector:
            lines.append(f"{s.name}\t{s.mean:.6f}\t{s.sd:.6f}")
        return "\n".join(lines) + "\n"


def _selector_kernel(sel) -> KernelSpec:
    """The kernel family of a named solver, bandwidth unresolved; linear for
    a selector that is not one of the solvers."""
    return KernelSpec(SOLVER_FAMILIES.get(sel.name, LINEAR))


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process; ``None`` when numpy's OpenBLAS
    cannot be found."""
    fns = _openblas_thread_functions()
    return None if fns is None else int(fns[0]())


def _pin_one_blas_thread() -> None:
    """Pool-worker initializer: one OpenBLAS thread per worker process, so
    that the workers do not oversubscribe the cores.  Does nothing when
    numpy's OpenBLAS cannot be found."""
    fns = _openblas_thread_functions()
    if fns is not None:
        fns[1](1)


_POOL_LOCK = threading.Lock()
_pool = None  # (processes, executor) of the last pool sweep


@atexit.register
def _close_pool() -> None:
    """Shut the cached pool down and drop it.  Also run at exit, while the
    modules the pool uses are still loaded: a pool left to the interpreter's
    teardown is collected after them, and its clean-up callback then fails
    with an ignored ``AttributeError``."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
    _pool = None


def _forget_pool() -> None:
    """Run in the child after ``os.fork``: the inherited pool and its workers
    belong to the parent.  The child drops them without a shutdown and takes
    the workers out of multiprocessing's registry of children, which it
    would otherwise try to join at exit (an ignored ``AssertionError``: "can
    only join a child process").  The lock is made afresh, in case another
    thread of the parent held it at the fork."""
    global _pool, _POOL_LOCK
    if _pool is not None:
        from multiprocessing import process

        process._children.difference_update(_pool[1]._processes.values())
    _pool = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _main_for_workers():
    """The module name or path of ``__main__`` that each spawned worker
    re-runs before its first trial, or ``None`` when it re-runs nothing
    (``-c``, the interactive prompt, a package's ``__main__``)."""
    main = sys.modules["__main__"]
    spec = getattr(main, "__spec__", None)
    if spec is not None:
        return None if spec.name.rpartition(".")[2] == "__main__" else spec.name
    return getattr(main, "__file__", None)


def _trial_pool(processes: int):
    """The process pool of this process for ``processes`` workers, built on
    first use and kept for later sweeps; a pool of another size, or one that
    a worker's death broke while it sat idle, is shut down first.  A forked
    child builds its own pool."""
    global _pool
    if _pool is not None and _pool[0] == processes and not _pool[1]._broken:
        return _pool[1]
    _close_pool()
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main, "__spec__", None) is None and path is not None and not os.path.isfile(path):
        raise RuntimeError(
            f"cannot start trial worker processes: each one re-runs the main script, "
            f"and {path!r} is not a file (a script read from stdin?); run the script "
            f"from a file, or use workers=1"
        )
    # imported here: they add ~15-20 ms to `import mmdselect`
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    executor = ProcessPoolExecutor(
        max_workers=processes,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_pin_one_blas_thread,
    )
    _pool = (processes, executor)
    return executor


def _pool_map(fn, trials: int, processes: int) -> list:
    """``[fn(0), ..., fn(trials - 1)]`` on the cached pool.  At most one
    trial more than there are workers is in flight, so a worker that finishes
    finds the next trial queued, and a failed sweep leaves at most
    ``processes`` trials behind on the shared pool: on the first failure it
    submits nothing more, cancels what has not started and re-raises.  A
    broken pool is dropped from the cache, so the next sweep starts afresh."""
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    with _POOL_LOCK:
        pool = _trial_pool(processes)
        rows = [None] * trials
        todo = iter(range(trials))
        running = {}
        try:
            for t in itertools.islice(todo, processes + 1):
                running[pool.submit(fn, t)] = t
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for fut in done:
                    rows[running.pop(fut)] = fut.result()
                    t = next(todo, None)
                    if t is not None:
                        running[pool.submit(fn, t)] = t
        except BrokenProcessPool as exc:
            _close_pool()
            main = _main_for_workers()
            if main is None:
                raise
            raise BrokenProcessPool(
                f"{exc} Each worker re-runs the main module {main!r} before its first "
                f"trial: if that module starts a sweep outside an "
                f'`if __name__ == "__main__":` guard, the workers die while starting.'
            ) from exc
        finally:
            for fut in running:
                fut.cancel()
    return rows


def _map_trials(fn, trials: int, workers: int):
    """``[fn(0), ..., fn(trials - 1)]`` and a record of how they ran.

    With ``min(workers, trials)`` processes above one, the trials run on that
    many spawned worker processes at one OpenBLAS thread each; the caller's
    own thread count is left alone.  The workers are started by the first
    such sweep of the process and kept for the next ones.  ``fn`` and its
    results must pickle.  Each trial draws from its own derived stream, so
    the rows do not depend on the worker count.
    """
    processes = min(workers, trials)
    if processes <= 1:
        rows = [fn(t) for t in range(trials)]
        return rows, {"workers": workers, "processes": 1, "blas_threads_per_process": blas_threads()}
    rows = _pool_map(fn, trials, processes)
    pinned = None if blas_threads() is None else 1
    return rows, {"workers": workers, "processes": processes, "blas_threads_per_process": pinned}


def _power_trial(config: ExperimentConfig, t: int) -> list:
    """Reject (1.0) or not (0.0) for each selector on trial ``t``'s dataset."""
    trial_rng = derive_stream(config.rng, t)
    spec = dataclasses.replace(config.spec, seed=derive_stream(trial_rng, 0))
    data, _ = synth_block_gaussian(spec)
    reports = _shared_tests(
        data,
        [(_selector_kernel(sel), sel) for sel in config.selectors],
        config.n_permutations,
        config.alpha,
        config.train_fraction,
        derive_stream(trial_rng, 1),  # shared across selectors: common random numbers
        corrected=config.corrected,
    )
    return [1.0 if rep.reject else 0.0 for rep in reports]


def _recovery_trial(config: ExperimentConfig, t: int) -> list:
    """``(fdp, ndp)`` of each selector on trial ``t``'s dataset."""
    trial_rng = derive_stream(config.rng, t)
    spec = dataclasses.replace(config.spec, seed=derive_stream(trial_rng, 0))
    data, true_support = synth_block_gaussian(spec)
    out = []
    for sel in config.selectors:
        kernel = _selector_kernel(sel)
        kernel = resolve_kernel(kernel, data, getattr(sel, "d", None))
        selection = sel.select(data, kernel, derive_stream(trial_rng, 1))
        m = fdp_ndp(selection.support, true_support)
        out.append((m.fdp, m.ndp))
    return out


def run_power_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Rejection rate of each selector over freshly generated trials.

    Under a null-mode generator this measures type-I error; otherwise power.
    Trials use derived streams and an ordered reduction, so the summary is
    identical for any worker count.
    """
    rows, parallel = _map_trials(
        functools.partial(_power_trial, config), config.trials, config.workers
    )
    per = tuple(
        _summary(sel.name, [row[k] for row in rows]) for k, sel in enumerate(config.selectors)
    )
    return ExperimentSummary(kind="power", per_selector=per, parallel=parallel)


def run_recovery_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Mean FDP/NDP of each selector against the generator's true support."""
    if config.spec.mode == "null":
        raise ValueError("recovery metrics need a non-null generator")
    rows, parallel = _map_trials(
        functools.partial(_recovery_trial, config), config.trials, config.workers
    )
    per = tuple(
        _summary(f"{sel.name}:{metric}", [row[k][m] for row in rows])
        for k, sel in enumerate(config.selectors)
        for m, metric in enumerate(("fdp", "ndp"))
    )
    return ExperimentSummary(kind="recovery", per_selector=per, parallel=parallel)
