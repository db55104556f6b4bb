"""Command-line front end.

Subcommands: ``select`` (fit a sparse direction), ``test`` (selection plus
permutation two-sample test), ``synth`` (write a synthetic dataset and its
true support), ``bench-power`` and ``bench-recovery`` (experiment sweeps).
All randomized paths honor ``--seed``; reports are JSON documents with a
versioned schema.  Exit codes: 0 success, 2 usage/validation error, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import bench
from .core import (
    DataFormatError,
    RandomSource,
    default_workers,
    load_two_sample,
    save_matrix,
)
from .gauss import write_trajectory
from .mmd import KernelSpec, mmd_sq, resolve_kernel
from .permutation import permutation_test
from .selectors import SOLVER_FAMILIES, Selector, check_compatible, kernel_for_solver

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")


def _add_selection_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", required=True, choices=sorted(SOLVER_FAMILIES))
    p.add_argument("--kernel", choices=["linear", "quadratic", "gaussian"], default=None)
    p.add_argument("--d", type=int, required=True, help="sparsity budget")
    p.add_argument("--x", required=True, help="group-1 csv (rows = samples)")
    p.add_argument("--y", required=True, help="group-2 csv (rows = samples)")
    p.add_argument("--gamma", type=float, default=None, help="gaussian bandwidth override")
    p.add_argument("--c", type=float, default=None, help="quadratic bandwidth override")
    p.add_argument("--lam", type=float, default=None, help="l1 weight for gauss-ccp")
    p.add_argument(
        "--lambda-grid",
        type=str,
        default=None,
        help="comma-separated l1 weights; picks the best on a validation split",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mmdselect",
        description="Sparse variable selection and two-sample testing with kernel MMD",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("select", help="fit a sparse direction on the full dataset")
    _add_selection_args(ps)
    ps.add_argument(
        "--trajectory",
        type=str,
        default=None,
        help="write the gauss-ccp optimization trajectory here (jsonl)",
    )
    _add_common(ps)

    pt = sub.add_parser("test", help="train on a split, permutation-test on the rest")
    _add_selection_args(pt)
    pt.add_argument("--np", dest="n_permutations", type=int, default=200)
    pt.add_argument("--alpha", type=float, default=0.05)
    pt.add_argument("--train-fraction", type=float, default=0.5)
    pt.add_argument("--corrected-pvalue", action="store_true")
    _add_common(pt)

    pg = sub.add_parser("synth", help="generate a block-Gaussian dataset")
    pg.add_argument("--blocks", type=int, required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--m", type=int, required=True)
    pg.add_argument("--mode", choices=bench.MODES, default="shift")
    pg.add_argument("--df", type=int, default=3)
    pg.add_argument("--out-x", required=True)
    pg.add_argument("--out-y", required=True)
    pg.add_argument("--out-support", default=None)
    _add_common(pg)

    for kind in ("bench-power", "bench-recovery"):
        pb = sub.add_parser(kind, help=f"{kind.split('-')[1]} sweep on synthetic data")
        pb.add_argument("--blocks", type=int, required=True)
        pb.add_argument("--n", type=int, required=True)
        pb.add_argument("--m", type=int, required=True)
        pb.add_argument("--mode", choices=bench.MODES, default="shift")
        pb.add_argument("--selectors", required=True, help="comma-separated solver names")
        pb.add_argument("--d", type=int, required=True)
        pb.add_argument("--trials", type=int, required=True)
        pb.add_argument("--np", dest="n_permutations", type=int, default=200)
        pb.add_argument("--alpha", type=float, default=0.05)
        pb.add_argument("--train-fraction", type=float, default=0.5)
        pb.add_argument("--corrected-pvalue", action="store_true")
        pb.add_argument("--table", default=None, help="also write a delimited summary table")
        pb.add_argument(
            "--workers",
            type=int,
            default=None,
            help="trial worker processes (default: MMDSELECT_WORKERS or 1; results identical)",
        )
        _add_common(pb)

    return ap


def _selector_options(args) -> dict:
    opts = {}
    if getattr(args, "lam", None) is not None:
        opts["lam"] = args.lam
    if getattr(args, "lambda_grid", None):
        opts["lambda_grid"] = [float(v) for v in args.lambda_grid.split(",")]
    return opts


def _resolve_cli_kernel(args) -> KernelSpec:
    family = SOLVER_FAMILIES[args.solver]
    if args.kernel is not None and args.kernel != family:
        raise UsageError(
            f"solver {args.solver!r} requires the {family} kernel, got {args.kernel!r}"
        )
    bandwidth = args.c if family == "quadratic" else args.gamma if family == "gaussian" else None
    kernel = kernel_for_solver(args.solver, bandwidth)
    check_compatible(args.solver, kernel)
    return kernel


def _selection_payload(selection, objective=None) -> dict:
    payload = {
        "support": [int(i) + 1 for i in selection.support],  # 1-based variable indices
        "z": [float(v) for v in selection.z],
        "no_signal": bool(selection.no_signal),
    }
    if objective is not None:
        payload["objective"] = float(objective)
    return payload


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diagnostics_payload(diag: dict, trajectory_path: str | None) -> dict:
    out = {k: v for k, v in diag.items() if k != "trajectory"}
    if trajectory_path and "trajectory" in diag:
        write_trajectory(trajectory_path, diag["trajectory"])
        out["trajectory_path"] = trajectory_path
    return out


def _cmd_select(args) -> dict:
    kernel = _resolve_cli_kernel(args)
    data = load_two_sample(args.x, args.y)
    rng = RandomSource(args.seed)
    selector = Selector(args.solver, args.d, _selector_options(args))
    kernel = resolve_kernel(kernel, data, args.d)
    selection, diag = selector.select_with_diagnostics(data, kernel, rng)
    objective = mmd_sq(kernel, selection, data)
    return {
        "config": {
            "solver": args.solver,
            "kernel": kernel.family,
            "bandwidth": kernel.bandwidth,
            "d": args.d,
            "seed": args.seed,
            "x": args.x,
            "y": args.y,
        },
        "selection": _selection_payload(selection, objective),
        "diagnostics": _diagnostics_payload(diag, args.trajectory),
    }


def _cmd_test(args) -> dict:
    kernel = _resolve_cli_kernel(args)
    data = load_two_sample(args.x, args.y)
    rng = RandomSource(args.seed)
    selector = Selector(args.solver, args.d, _selector_options(args))
    report = permutation_test(
        data,
        kernel,
        selector,
        args.n_permutations,
        args.alpha,
        args.train_fraction,
        rng,
        corrected=args.corrected_pvalue,
    )
    return {
        "config": {
            "solver": args.solver,
            "kernel": report.kernel.family,
            "bandwidth": report.kernel.bandwidth,
            "d": args.d,
            "seed": args.seed,
            "alpha": args.alpha,
            "n_permutations": args.n_permutations,
            "train_fraction": args.train_fraction,
            "corrected": args.corrected_pvalue,
            "x": args.x,
            "y": args.y,
        },
        "selection": _selection_payload(report.selection),
        "test": report.to_dict(),
        "diagnostics": {"method": args.solver, "calibration": report.calibration},
    }


def _cmd_synth(args) -> dict:
    spec = bench.SynthSpec(
        blocks=args.blocks,
        n=args.n,
        m=args.m,
        wishart_df=args.df,
        mode=args.mode,
        seed=RandomSource(args.seed),
    )
    data, true_support = bench.synth_block_gaussian(spec)
    save_matrix(args.out_x, data.X)
    save_matrix(args.out_y, data.Y)
    if args.out_support:
        with open(args.out_support, "w", encoding="utf-8") as fh:
            json.dump({"true_support": [i + 1 for i in true_support]}, fh)
            fh.write("\n")
    return {
        "config": {
            "blocks": args.blocks,
            "n": args.n,
            "m": args.m,
            "mode": args.mode,
            "wishart_df": args.df,
            "seed": args.seed,
        },
        "written": {"x": args.out_x, "y": args.out_y, "support": args.out_support},
        "true_support": [i + 1 for i in true_support],
    }


def _cmd_bench(args, kind: str) -> dict:
    names = [s.strip() for s in args.selectors.split(",") if s.strip()]
    for name in names:
        if name not in SOLVER_FAMILIES:
            raise UsageError(f"unknown solver {name!r}")
    selectors = tuple(Selector(name, args.d) for name in names)
    config = bench.ExperimentConfig(
        spec=bench.SynthSpec(blocks=args.blocks, n=args.n, m=args.m, mode=args.mode),
        selectors=selectors,
        trials=args.trials,
        alpha=args.alpha,
        n_permutations=args.n_permutations,
        train_fraction=args.train_fraction,
        rng=RandomSource(args.seed),
        workers=default_workers() if args.workers is None else args.workers,
        corrected=args.corrected_pvalue,
    )
    if kind == "bench-power":
        summary = bench.run_power_experiment(config)
    else:
        if args.mode == "null":
            raise UsageError("bench-recovery needs a non-null generator mode")
        summary = bench.run_recovery_experiment(config)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(summary.to_table())
    return {
        "config": {
            "blocks": args.blocks,
            "n": args.n,
            "m": args.m,
            "mode": args.mode,
            "selectors": names,
            "d": args.d,
            "trials": args.trials,
            "alpha": args.alpha,
            "n_permutations": args.n_permutations,
            "train_fraction": args.train_fraction,
            "seed": args.seed,
        },
        "summary": summary.to_dict(),
        "diagnostics": {"parallel": summary.parallel},
    }


def dispatch(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        if args.command == "select":
            doc = _cmd_select(args)
        elif args.command == "test":
            doc = _cmd_test(args)
        elif args.command == "synth":
            doc = _cmd_synth(args)
        else:
            doc = _cmd_bench(args, args.command)
    except (UsageError, DataFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    doc["schema_version"] = SCHEMA_VERSION
    doc["command"] = args.command
    doc["runtime_ms"] = int(round(1000 * (time.perf_counter() - start)))
    _emit(doc, getattr(args, "out", None))
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
