"""One run of one workload in a fresh process; ``run.py`` starts it.

Prints one JSON object as its last stdout line: the set-up time, and either
the end-to-end figures (``--trace 0``) or the per-layer figures (``--trace 1``)
together with op and failure counts, the output digest and the environment.
With ``--setup-only`` it stops after the set-up.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MMDSELECT_WORKERS",
)


def timed_pass(wl, seconds=None, calls=None, workers=None):
    """Closed loop over calls 0, 1, ...: each starts when the previous one has
    returned.  Stops after ``calls`` calls, or once ``seconds`` have passed
    at the first call count that is a multiple of the workload's ``stride``.
    Returns the raw outcomes, the per-call latencies and the wall time of
    the loop."""
    stride = getattr(wl, "stride", 1)
    raws, lat = [], []
    start = now = time.perf_counter()
    i = 0
    while (i < calls) if calls is not None else (i == 0 or i % stride or now - start < seconds):
        t0 = time.perf_counter()
        try:
            raws.append((wl.call(i, workers), None))
        except Exception:
            raws.append((None, traceback.format_exc(limit=3)))
        now = time.perf_counter()
        lat.append(now - t0)
        i += 1
    return raws, lat, now - start


def collect(wl, raws):
    """Outputs and check problems (``None`` when passed) of every op."""
    outputs, problems = [], []
    for raw, err in raws:
        if err is None:
            try:
                pairs = wl.results(raw)
            except Exception:
                err = traceback.format_exc(limit=3)
        if err is not None:
            pairs = [(None, err)] * wl.per_call
        for out, prob in pairs:
            outputs.append(out)
            problems.append(prob)
    return outputs, problems


def tail(samples):
    """Nearest-rank 85th percentile of the latencies, or their median when
    there are fewer than 20: (value, percentile).  From 67 samples up, ten
    or more lie beyond it.  A fixed percentile picks the same panel trial in
    ``exact-recovery`` whatever the number of whole passes a run makes."""
    s = sorted(samples)
    n = len(s)
    if n >= 20:
        return s[math.ceil(0.85 * n) - 1], 85.0
    return statistics.median(s), 50.0


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def digest(wl, outputs):
    head = outputs[: wl.digest_ops]
    text = json.dumps(head, sort_keys=True)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "ops": len(head)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="write the traced spans here (jsonl)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # one warm-up command for CLI workloads: checked, not timed
    warm = timed_pass(wl, calls=1)[0] if wl.cli else []
    result = {"setup_s": setup_s, "env": environment()}
    if args.trace == 0:
        raws, lat, elapsed = timed_pass(wl, seconds=args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs, problems = collect(wl, warm + raws)
        per_op = [x / wl.per_call for x in lat]
        p_tail, pct = tail(per_op)
        result.update(
            ops=len(raws) * wl.per_call,
            elapsed_s=elapsed,
            ops_per_s=len(raws) * wl.per_call / elapsed,
            op_p50=statistics.median(per_op),
            op_tail=p_tail,
            tail_percentile=pct,
            latency_samples=len(per_op),
            latencies_s=per_op,
        )
    else:
        from spans import Tracer, layer_metrics

        # A: untraced, for a third of the run; B: the same calls traced;
        # C (pool workloads): the same calls again at workers=1.
        raws_a, _, el_a = timed_pass(wl, seconds=args.seconds / 3)
        k = len(raws_a)
        tracer = Tracer()
        with tracer.installed():
            raws_b, _, el_b = timed_pass(wl, calls=k)
        passes = [raws_a, raws_b]
        el_c = None
        if getattr(wl, "workers", 1) > 1:
            raws_c, _, el_c = timed_pass(wl, calls=k, workers=1)
            passes.append(raws_c)
        collected = [collect(wl, raws) for raws in passes]
        ref = collected[0][0]
        for label, (outs, probs) in zip("BC", collected[1:]):
            for j, (a, b) in enumerate(zip(ref, outs)):
                if probs[j] is None and a is not None and a != b:
                    probs[j] = f"pass {label} op {j} differs from pass A: {b} != {a}"
        outputs, problems = collect(wl, warm)
        for outs, probs in collected:
            outputs += outs
            problems += probs
        ops = k * wl.per_call
        layers = layer_metrics(tracer.spans, ops)
        layers["bench.pool.speedup"] = el_c / el_a if el_c else 0.0
        layers["trace.ops_per_s.untraced"] = ops / el_a
        layers["trace.ops_per_s.traced"] = ops / el_b
        layers["trace.overhead_frac"] = el_b / el_a - 1.0
        result.update(ops=ops, layers=layers, spans=len(tracer.spans))
        if args.spans:
            tracer.write(args.spans)

    failures = [p for p in problems if p is not None]
    result.update(
        attempted=len(problems),
        failed=len(failures),
        failures=failures[:5],
        digest=digest(wl, outputs),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
