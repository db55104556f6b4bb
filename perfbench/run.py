"""mmdselect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``NAME`` is a workload of ``BENCHMARK.json`` or
``all``.  Each workload runs as a closed loop with one client in a fresh
process (``worker.py``) that imports ``mmdselect`` from ``src/`` and builds its
inputs from the seed.  Set-up is repeated in further fresh processes and
``setup_s`` is their median.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced replay (``spans.py``).

Output per workload: one ``metric value unit`` line per metric, one JSON
report (environment, output digest, failures, latency sample count), and,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
Working files go to ``.perfbench_work/`` (removed afterwards); spans and
reports to ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 2  # set-up-only processes started before the measured one
BUDGET_S = 170.0  # a run ends within this, or fails without a result
HERE = os.path.dirname(os.path.abspath(__file__))


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child(argv, deadline):
    """Run worker.py to completion and return its last stdout line, parsed."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, args, spec, root, deadline):
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--workdir", workdir]
    try:
        setups = [child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        spans = os.path.join(outdir, f"spans-{name}-seed{args.seed}.jsonl")
        res = child(common + ["--spans", spans], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    if args.trace == 0:
        found = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "op_s.p50": res["op_p50"],
            "op_s.tail": res["op_tail"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        listed = spec["end_to_end"]
    else:
        found = res["layers"]
        listed = spec["per_layer"]
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in listed}
    fail_frac = res["failed"] / res["attempted"]

    for key, m in metrics.items():
        print(f"{name}  {key:<36} {m['value']:.6g} {m['unit']}")
    print(f"{name}  {'fail_frac':<36} {fail_frac:.6g} ratio")
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "env": res["env"],
        "setup_samples_s": setups,
        "ops": res["ops"],
        "fail_frac": fail_frac,
        "failures": res["failures"],
        "digest": res["digest"],
        "metrics": metrics,
    }
    if args.trace == 0:
        report["latency"] = {
            "samples": res["latency_samples"],
            "per_op_s": res["latencies_s"],
            "tail_percentile": res["tail_percentile"],
            "elapsed_s": res["elapsed_s"],
        }
    else:
        report["spans"] = {"count": res["spans"], "file": os.path.relpath(spans, root)}
    with open(os.path.join(outdir, f"report-{name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mmdselect", "__init__.py")):
        print("error: src/mmdselect not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    for name in names if args.workload == "all" else [args.workload]:
        if args.workload == "all":
            deadline = time.monotonic() + BUDGET_S
        try:
            run_workload(name, args, spec, root, deadline)
        except (RuntimeError, KeyError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
