"""Golden panel for the quadratic selectors.

Supports, objective values and branch-and-bound node counts were recorded
from the implementation whose sphere oracle took the rightmost eigenvalue of
a 2k x 2k generalized eigenvalue pencil, with the secular equation as a
fallback.  The secular path alone must reproduce them: identical supports and
node counts, values within 1e-12 relative.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmdselect
from mmdselect.bench import SynthSpec, synth_block_gaussian
from mmdselect.core import RandomSource
from mmdselect.mmd import KernelSpec, resolve_kernel
from mmdselect.selectors import Selector

GOLDEN_PATH = Path(__file__).parent / "golden_quad.json"


def golden_cases():
    cases = []
    for seed in range(6):
        for solver in ("quad-greedy", "quad-local", "quad-exact"):
            cases.append((solver, 10, 5, seed))  # D=30, d=5
    for seed in range(4):
        cases.append(("quad-greedy", 20, 3, seed))  # D=60, d=3
    return cases


def golden_id(case):
    solver, blocks, d, seed = case
    return f"{solver}-D{3 * blocks}-d{d}-s{seed}"


def run_golden_case(case):
    solver, blocks, d, seed = case
    data, _ = synth_block_gaussian(
        SynthSpec(blocks=blocks, n=100, m=100, mode="cov_shift", seed=RandomSource(seed))
    )
    kernel = resolve_kernel(KernelSpec("quadratic"), data, d)
    selection, diag = Selector(solver, d).select_with_diagnostics(data, kernel, RandomSource(seed))
    return {
        "support": [int(i) for i in selection.support],
        "value": float(diag["value"]),
        "nodes": diag.get("node_count"),
    }


@pytest.mark.parametrize("case", golden_cases(), ids=golden_id)
def test_golden_quadratic_selectors(case):
    want = json.loads(GOLDEN_PATH.read_text())[golden_id(case)]
    got = run_golden_case(case)
    assert got["support"] == want["support"]
    assert got["nodes"] == want["nodes"]
    assert got["value"] == pytest.approx(want["value"], rel=1e-12, abs=0.0)


_GREEDY_SCRIPT = """
import hashlib, sys
from test_quad_golden import golden_cases
from mmdselect.bench import SynthSpec, synth_block_gaussian
from mmdselect.core import RandomSource
from mmdselect.mmd import KernelSpec, resolve_kernel
from mmdselect.quad import assemble_quadratic, greedy_select

for solver, blocks, d, seed in golden_cases():
    if solver != "quad-greedy":
        continue
    data, _ = synth_block_gaussian(
        SynthSpec(blocks=blocks, n=100, m=100, mode="cov_shift", seed=RandomSource(seed))
    )
    kernel = resolve_kernel(KernelSpec("quadratic"), data, d)
    rep = greedy_select(assemble_quadratic(data, kernel.bandwidth), d)
    print(rep.support, rep.value.hex(), hashlib.sha256(rep.z.z.tobytes()).hexdigest())
"""


def test_greedy_bit_identical_across_blas_thread_counts():
    # each greedy round is one stacked oracle call: stacked eigh and Q't
    # must not depend on the BLAS thread count
    src = str(Path(mmdselect.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        paths = (src, str(Path(__file__).parent), env.get("PYTHONPATH"))
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        run = subprocess.run(
            [sys.executable, "-c", _GREEDY_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 10
    assert outputs[0] == outputs[1]
