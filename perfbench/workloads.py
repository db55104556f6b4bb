"""The benchmark workloads.

Each workload is built from the workload seed alone (its set-up), then
driven by repeated calls:

* ``call(i)`` is the timed work: one public-API or CLI call, ``per_call`` ops;
* ``results(raw)`` runs outside the timed region and turns the raw outcome
  of one call into ``(output, problem)`` pairs, one per op, where ``output``
  is what the digest covers and ``problem`` is ``None`` when every output
  check passed.

Call ``i`` of a run always does the same work for a given seed, so a replay
of calls ``0..k-1`` (traced, or at another worker count) repeats it exactly.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import mmdselect.cli
from mmdselect import (
    ExperimentConfig,
    KernelSpec,
    RandomSource,
    SynthSpec,
    assemble_quadratic,
    derive_stream,
    greedy_select,
    mmd_sq,
    run_power_experiment,
    run_recovery_experiment,
    split_train_test,
    synth_block_gaussian,
)
from mmdselect.core import save_matrix
from mmdselect.selectors import Selector

ROUNDOFF = 1e-9


class NullSweep:
    """Acceptance criterion 01's traffic: null data, three selectors, the
    parallel trial pool at workers=2."""

    name = "null-sweep"
    cli = False
    per_call = 8  # trials per sweep call; 4 per worker keeps the pool busy
    digest_ops = 8
    workers = 2

    def __init__(self, seed: int, workdir: str):
        self.root = RandomSource(seed)
        self.spec = SynthSpec(blocks=20, n=100, m=100, mode="null")
        self.selectors = (
            Selector("linear", 3),
            Selector("quad-greedy", 3),
            Selector("gauss-ccp", 3, {"T_out": 2, "T_in": 60, "batch": 128}),
        )

    def call(self, i: int, workers: int | None = None):
        config = ExperimentConfig(
            spec=self.spec,
            selectors=self.selectors,
            trials=self.per_call,
            alpha=0.05,
            n_permutations=200,
            rng=derive_stream(self.root, i),
            workers=workers or self.workers,
        )
        return run_power_experiment(config)

    def results(self, summary):
        out = []
        for t in range(self.per_call):
            row = [s.values[t] for s in summary.per_selector]
            bad = [v for v in row if v not in (0.0, 1.0)]
            out.append(({"reject": row}, f"per-trial values {bad} outside {{0, 1}}" if bad else None))
        return out


class _Recorded:
    """Selector that keeps what the solver reported, which the summary of
    ``run_recovery_experiment`` drops; the solver call itself is unchanged."""

    def __init__(self, name: str, d: int):
        self.selector = Selector(name, d)
        self.name = name
        self.d = d
        self.calls = []

    def select(self, train, kernel, rng):
        selection, diag = self.selector.select_with_diagnostics(train, kernel, rng)
        self.calls.append((train, kernel, selection, diag))
        return selection


class ExactRecovery:
    """Serial B&B recovery sweep at the exact solver's dimension cap.

    A trial's time follows its B&B node count, which varies tenfold between
    datasets, so a run draws no fresh datasets: it visits a fixed panel of
    trials (streams ``0..panel-1`` of seed 0) in whole passes, and the seed
    sets the order of the panel within a pass."""

    name = "exact-recovery"
    cli = False
    per_call = 1
    digest_ops = 8
    d = 5
    panel = 24
    stride = panel  # a timed loop ends only after a whole pass

    def __init__(self, seed: int, workdir: str):
        self.root = RandomSource(0)
        self.order = [int(j) for j in np.random.default_rng(seed).permutation(self.panel)]
        self.spec = SynthSpec(blocks=10, n=100, m=100, mode="cov_shift")
        self.local = _Recorded("quad-local", self.d)
        self.exact = _Recorded("quad-exact", self.d)

    def call(self, i: int, workers: int | None = None):
        config = ExperimentConfig(
            spec=self.spec,
            selectors=(self.local, self.exact),
            trials=1,
            rng=derive_stream(self.root, self.order[i % self.panel]),
            workers=1,
        )
        summary = run_recovery_experiment(config)
        return summary, self.local.calls.pop(), self.exact.calls.pop()

    def results(self, raw):
        summary, (train, kernel, local_sel, local), (_, _, exact_sel, exact) = raw
        rates = {s.name: s.values[0] for s in summary.per_selector}
        output = {
            "local": {
                "support": list(local_sel.support),
                "value": local["value"],
                "fdp": rates["quad-local:fdp"],
                "ndp": rates["quad-local:ndp"],
            },
            "exact": {
                "support": list(exact_sel.support),
                "value": exact["value"],
                "nodes": exact["node_count"],
                "fdp": rates["quad-exact:fdp"],
                "ndp": rates["quad-exact:ndp"],
            },
        }
        problems = []
        if not all(0.0 <= v <= 1.0 for v in rates.values()):
            problems.append(f"FDP/NDP outside [0, 1]: {rates}")
        _, greedy = Selector("quad-greedy", self.d).select_with_diagnostics(
            train, kernel, RandomSource(0)
        )
        g, l, e = greedy["value"], local["value"], exact["value"]
        if not (g <= l + ROUNDOFF and l <= e + ROUNDOFF):
            problems.append(f"greedy {g!r} <= local {l!r} <= exact {e!r} violated")
        return [(output, "; ".join(problems) or None)]


class LargeNTest:
    """``mmdselect test`` at n=m=2000 on CSV files written at set-up; the
    per-permutation Gram gather dominates."""

    name = "large-n-test"
    cli = True
    per_call = 1
    digest_ops = 1
    n_permutations = 200
    alpha = 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.data, _ = synth_block_gaussian(
            SynthSpec(blocks=20, n=2000, m=2000, mode="shift", seed=RandomSource(seed))
        )
        self.x = os.path.join(workdir, "x.csv")
        self.y = os.path.join(workdir, "y.csv")
        save_matrix(self.x, self.data.X)
        save_matrix(self.y, self.data.Y)
        self.commands = 0

    def call(self, i: int, workers: int | None = None):
        self.commands += 1
        out = os.path.join(self.workdir, f"out-{self.commands}.json")
        argv = [
            "test", "--solver", "quad-greedy", "--d", "3",
            "--np", str(self.n_permutations), "--alpha", str(self.alpha),
            "--x", self.x, "--y", self.y, "--seed", str(self.seed), "--out", out,
        ]
        return mmdselect.cli.dispatch(argv), out

    def results(self, raw):
        rc, path = raw
        if rc != 0:
            return [({"exit": rc}, f"exit code {rc}")]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        sel, test = doc["selection"], doc["test"]
        p = test["p_value"]
        train, held_out = split_train_test(self.data, 0.5, derive_stream(RandomSource(self.seed), 0))
        kernel = KernelSpec("quadratic", doc["config"]["bandwidth"])
        # Reported, not checked: quad-greedy picks variables outside the true
        # block on 6 of seeds 0-39, each time with a higher objective than the
        # true block has, so a miss is the statistic's behaviour, not a fault.
        output = {
            "support": sel["support"],
            "in_true_block": set(sel["support"]) <= {1, 2, 3},
            "statistic": test["statistic"],
            "p_value": p,
            "reject": test["reject"],
        }
        problems = []
        greedy = greedy_select(assemble_quadratic(train, kernel.bandwidth), 3)
        if sel["support"] != [i + 1 for i in greedy.support]:
            problems.append(f"support {sel['support']} is not greedy's on the training half")
        if abs(p * self.n_permutations - round(p * self.n_permutations)) > ROUNDOFF:
            problems.append(f"p-value {p!r} is not a multiple of 1/{self.n_permutations}")
        if test["reject"] != (p < self.alpha):
            problems.append(f"reject={test['reject']} disagrees with p={p!r} < {self.alpha}")
        # the test statistic is the squared MMD of the held-out half
        ref = mmd_sq(kernel, np.asarray(sel["z"]), held_out)
        if not math.isclose(test["statistic"], ref, rel_tol=ROUNDOFF, abs_tol=1e-15):
            problems.append(f"statistic {test['statistic']!r} != held-out mmd_sq {ref!r}")
        return [(output, "; ".join(problems) or None)]


WORKLOADS = {w.name: w for w in (NullSweep, ExactRecovery, LargeNTest)}
