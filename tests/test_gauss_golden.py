"""Golden panel for the mirror-descent solvers.

Recorded from the implementation whose mirror step decomposed the iterate
afresh (``eigh`` of ``Z`` for its logarithm) and took gradient norms by SVD.
The step that carries the iterate's dual and exponentiates it by scaling and
squaring must reproduce it: identical supports, ``no_signal`` flags and
rejection vectors; objectives, gap estimates and values within 1e-9
relative.

The relax cases pin what ``Selector("quad-relax")`` reports: greedy + local
search's support and value, and the certified closed-form bound.

Regenerate with ``PYTHONPATH=src python tests/test_gauss_golden.py [KIND...]``
(only when a change is meant to move these numbers); naming kinds (``ccp``,
``relax``, ``power``) re-records only their cases.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmdselect
from mmdselect import spectrahedron
from mmdselect.bench import ExperimentConfig, SynthSpec, run_power_experiment, synth_block_gaussian
from mmdselect.core import RandomSource
from mmdselect.gauss import GaussConfig, ccp_select
from mmdselect.mmd import KernelSpec, resolve_kernel
from mmdselect.selectors import Selector

GOLDEN_PATH = Path(__file__).parent / "golden_gauss.json"
REL = 1e-9
NULL_SWEEP_CCP = {"T_out": 2, "T_in": 60, "batch": 128}  # the null-sweep options


def golden_cases():
    cases = [("ccp", mode, seed) for mode in ("null", "shift") for seed in range(4)]
    cases += [("relax", "cov_shift", seed) for seed in range(3)]
    cases += [("power", mode, 0) for mode in ("null", "shift")]
    return cases


def golden_id(case):
    kind, mode, seed = case
    return f"{kind}-{mode}-s{seed}"


def run_golden_case(case):
    kind, mode, seed = case
    if kind == "power":
        selector = Selector("gauss-ccp", 2, {"T_out": 2, "T_in": 30, "batch": 64})
        summary = run_power_experiment(
            ExperimentConfig(
                spec=SynthSpec(blocks=4, n=40, m=40, mode=mode),
                selectors=(selector,),
                trials=6,
                n_permutations=50,
                rng=RandomSource(11),
            )
        )
        return {"reject": list(summary.per_selector[0].values)}
    data, _ = synth_block_gaussian(
        SynthSpec(blocks=20, n=100, m=100, mode=mode, seed=RandomSource(seed))
    )
    if kind == "ccp":
        kernel = resolve_kernel(KernelSpec("gaussian"), data, 3)
        selection, diag = Selector("gauss-ccp", 3, NULL_SWEEP_CCP).select_with_diagnostics(
            data, kernel, RandomSource(seed)
        )
        return {
            "support": [int(i) for i in selection.support],
            "no_signal": bool(selection.no_signal),
            "z": [float(v) for v in selection.z],
            "objectives": [p.objective for p in diag["trajectory"]],
            "gaps": [p.gap_estimate for p in diag["trajectory"]],
        }
    kernel = resolve_kernel(KernelSpec("quadratic"), data, 3)
    selection, diag = Selector("quad-relax", 3).select_with_diagnostics(
        data, kernel, RandomSource(seed)
    )
    return {
        "support": [int(i) for i in selection.support],
        "value": float(diag["value"]),
        "upper_bound": float(diag["upper_bound"]),
    }


@pytest.mark.parametrize("case", golden_cases(), ids=golden_id)
def test_golden_mirror_descent(case):
    want = json.loads(GOLDEN_PATH.read_text())[golden_id(case)]
    got = run_golden_case(case)
    if case[0] == "power":
        assert got["reject"] == want["reject"]
        return
    assert got["support"] == want["support"]
    if case[0] == "ccp":
        assert got["no_signal"] == want["no_signal"]
        assert got["objectives"] == pytest.approx(want["objectives"], rel=REL, abs=0.0)
        assert got["gaps"] == pytest.approx(want["gaps"], rel=REL, abs=0.0)
        assert got["z"] == pytest.approx(want["z"], rel=0.0, abs=REL)
    else:
        assert got["value"] == pytest.approx(want["value"], rel=REL, abs=0.0)
        assert got["upper_bound"] == pytest.approx(want["upper_bound"], rel=REL, abs=0.0)


def _golden_ccp(mode, seed):
    """``ccp_select`` on a golden ccp case, configured as its selector is."""
    data, _ = synth_block_gaussian(
        SynthSpec(blocks=20, n=100, m=100, mode=mode, seed=RandomSource(seed))
    )
    gamma = resolve_kernel(KernelSpec("gaussian"), data, 3).require_bandwidth()
    return ccp_select(data, GaussConfig(gamma=gamma, rng=RandomSource(seed), **NULL_SWEEP_CCP), 3)


@pytest.mark.parametrize("case", [c for c in golden_cases() if c[0] == "ccp"], ids=golden_id)
def test_ccp_bits_do_not_depend_on_the_norm_certificate(monkeypatch, case):
    # the certificate only decides whether smd_run computes a gradient norm
    certified = _golden_ccp(*case[1:])
    monkeypatch.setattr(spectrahedron, "_norm_at_most", lambda G, r: False)
    exact = _golden_ccp(*case[1:])
    assert certified.Z.Z.tobytes() == exact.Z.Z.tobytes()
    assert certified.trajectory == exact.trajectory
    assert certified.selection.support == exact.selection.support
    assert certified.selection.z.tobytes() == exact.selection.z.tobytes()


_THREADS_SCRIPT = """
import dataclasses, hashlib
from mmdselect.bench import SynthSpec, synth_block_gaussian
from mmdselect.core import RandomSource
from mmdselect.gauss import GaussConfig, ccp_select
from mmdselect.mmd import KernelSpec, resolve_kernel
from mmdselect.selectors import Selector

def sha(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

data, _ = synth_block_gaussian(SynthSpec(blocks=20, n=150, m=150, seed=RandomSource(5)))
gamma = resolve_kernel(KernelSpec("gaussian"), data, 3).require_bandwidth()
cfg = GaussConfig(gamma=gamma, T_out=2, T_in=60, batch=256, rng=RandomSource(5))
res = ccp_select(data, cfg, 3)
print("ccp", res.selection.support, sha(res.Z.Z, res.selection.z))
for p in res.trajectory:
    print(repr(dataclasses.astuple(p)))
data, _ = synth_block_gaussian(
    SynthSpec(blocks=30, n=100, m=100, mode="cov_shift", seed=RandomSource(1))
)
kernel = resolve_kernel(KernelSpec("quadratic"), data, 3)
sel, diag = Selector("quad-relax", 3).select_with_diagnostics(data, kernel, RandomSource(1))
print("relax", sel.support, diag["value"].hex(), diag["upper_bound"].hex(), sha(sel.z))
"""


def test_mirror_descent_bit_identical_across_blas_thread_counts():
    # at these sizes ccp gave thread-dependent bits before it ran at one
    # OpenBLAS thread; the relaxation's assembly runs at one thread, its
    # greedy + local search and closed-form bound at the caller's count
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


_KERNEL_SCRIPT = """
import ctypes, glob, os, sys
import numpy as np
import pytest

libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
        if hasattr(lib, name):
            corename = getattr(lib, name)
            corename.restype = ctypes.c_char_p
            print("kernel", corename().decode())
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""
# the instruction sets each forced OpenBLAS kernel needs
_KERNEL_FLAGS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}


def _cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@pytest.mark.parametrize("kernel", sorted(_KERNEL_FLAGS))
def test_golden_ccp_and_greedy_margin_under_other_blas_kernels(kernel):
    # numpy's wheel picks its OpenBLAS kernel from the CPU; forcing two
    # others checks a golden ccp case (the null-sweep options) at its own
    # tolerances, and greedy's rounding margin, as other CPUs would run them
    if not _KERNEL_FLAGS[kernel] <= _cpu_flags():
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [
            sys.executable, "-c", _KERNEL_SCRIPT,
            "tests/test_gauss_golden.py::test_golden_mirror_descent[ccp-null-s0]",
            "tests/test_trs.py::test_greedy_margin_keeps_lanes_that_round_above_their_bound",
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "2 passed" in run.stdout
    if "kernel " not in run.stdout:
        pytest.skip("numpy bundles no OpenBLAS whose kernel can be forced")
    assert f"kernel {kernel}\n" in run.stdout


if __name__ == "__main__":
    # re-record the case kinds named on the command line, or all of them
    kinds = set(sys.argv[1:]) or {kind for kind, _, _ in golden_cases()}
    record = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    record.update({golden_id(c): run_golden_case(c) for c in golden_cases() if c[0] in kinds})
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
