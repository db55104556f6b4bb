import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmdselect
from mmdselect import cli
from mmdselect.bench import blas_threads
from mmdselect.cli import dispatch
from mmdselect.core import RandomSource, load_two_sample, save_matrix
from mmdselect.mmd import resolve_kernel
from mmdselect.selectors import SOLVER_FAMILIES, Selector, kernel_for_solver


@pytest.fixture
def csv_pair(tmp_path):
    gen = np.random.default_rng(0)
    X = gen.standard_normal((24, 4))
    Y = gen.standard_normal((24, 4)) + np.array([1.5, 0, 0, 0])
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    for p, M in ((px, X), (py, Y)):
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in M) + "\n")
    return str(px), str(py)


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = dispatch(args + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_select_happy_path(csv_pair, tmp_path):
    px, py = csv_pair
    code, doc = run(
        ["select", "--solver", "quad-greedy", "--d", "2", "--x", px, "--y", py, "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "select"
    assert set(doc) >= {"config", "selection", "runtime_ms"}
    sel = doc["selection"]
    assert 1 <= len(sel["support"]) <= 2
    assert all(1 <= i <= 4 for i in sel["support"])  # 1-based indices
    assert abs(np.linalg.norm(sel["z"]) - 1.0) < 1e-9
    assert sel["objective"] >= -1e-9


def test_select_incompatible_kernel_exits_2(csv_pair, tmp_path, capsys):
    px, py = csv_pair
    code = dispatch(["select", "--solver", "gauss-ccp", "--kernel", "linear",
                     "--d", "1", "--x", px, "--y", py])
    assert code == 2
    assert "requires" in capsys.readouterr().err


def test_unknown_flag_exits_2(csv_pair):
    px, py = csv_pair
    code = dispatch(["select", "--solver", "linear", "--d", "1", "--x", px, "--y", py,
                     "--bogus-flag", "1"])
    assert code == 2


def test_missing_file_exits_2(tmp_path):
    code = dispatch(["select", "--solver", "linear", "--d", "1",
                     "--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope2.csv")])
    assert code in (1, 2)


def test_non_finite_cell_exits_2_naming_it(csv_pair, tmp_path, capsys):
    px, _ = csv_pair
    py = tmp_path / "bad.csv"
    py.write_text("1,2,3,4\n5,6,nan,8\n")
    code = dispatch(["select", "--solver", "linear", "--d", "1", "--x", px, "--y", str(py)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {py}: non-finite cell 'nan' at row 2, column 3\n"


def _scaled_pair(csv_pair, tmp_path, scale):
    """The two tables of ``csv_pair`` with every cell times ``scale``."""
    data = load_two_sample(*csv_pair)
    paths = []
    for i, M in enumerate((data.X, data.Y)):
        big = tmp_path / f"big{i}.csv"
        big.write_text("\n".join(",".join(repr(float(scale * v)) for v in row) for row in M) + "\n")
        paths.append(str(big))
    return paths


@pytest.mark.parametrize("command", ["select", "test"])
@pytest.mark.parametrize(
    "solver, what",
    [
        ("linear", "the norm of the linear kernel's coefficients"),
        ("quad-greedy", "the quadratic kernel's squared moment gaps"),
        ("quad-exact", "the quadratic kernel's squared moment gaps"),
    ],
)
def test_overflowing_coefficients_exit_2_naming_it(
    command, solver, what, csv_pair, tmp_path, capsys, recwarn
):
    # finite cells near 1e150: the coefficients (squared gaps, or their
    # norm) overflow float64
    paths = _scaled_pair(csv_pair, tmp_path, 1e150)
    code = dispatch([command, "--solver", solver, "--d", "2", "--x", paths[0], "--y", paths[1]])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: float64 overflow in {what}; rescale the columns of the data\n"
    )
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("command", ["select", "test"])
@pytest.mark.parametrize("solver", ["quad-greedy", "gauss-ccp"])
def test_overflowing_median_heuristic_exits_2_naming_it(
    command, solver, csv_pair, tmp_path, capsys, recwarn
):
    # cells near 1e160: squared distances overflow float64 before any
    # bandwidth exists
    paths = _scaled_pair(csv_pair, tmp_path, 1e160)
    code = dispatch([command, "--solver", solver, "--d", "2", "--x", paths[0], "--y", paths[1]])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: float64 overflow in the median heuristic's squared distances; "
        "rescale the columns of the data\n"
    )
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_lam_with_a_non_gauss_solver_is_ignored(csv_pair, tmp_path):
    px, py = csv_pair
    base = ["select", "--solver", "quad-greedy", "--d", "2", "--x", px, "--y", py]
    code, plain = run(base, tmp_path, "plain.json")
    code_lam, with_lam = run(base + ["--lam", "0.5"], tmp_path, "lam.json")
    assert code == code_lam == 0
    assert plain["selection"] == with_lam["selection"]


@pytest.mark.parametrize(
    "flag", [["--lam", "nan"], ["--lam", "inf"], ["--lam", "-1"], ["--lambda-grid", "nan,0.1"]],
    ids=["lam-nan", "lam-inf", "lam-negative", "grid-nan"],
)
def test_select_gauss_bad_l1_weight_exits_2(flag, csv_pair, capsys, recwarn):
    px, py = csv_pair
    code = dispatch(["select", "--solver", "gauss-ccp", "--d", "2", "--x", px, "--y", py, *flag])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: l1 weights (lam, lambda_grid) must be finite and nonnegative\n"
    )
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_test_subcommand_deterministic(csv_pair, tmp_path):
    px, py = csv_pair
    args = ["test", "--solver", "linear", "--d", "2", "--x", px, "--y", py,
            "--np", "50", "--alpha", "0.05", "--seed", "11"]
    code1, doc1 = run(args, tmp_path, "a.json")
    code2, doc2 = run(args, tmp_path, "b.json")
    assert code1 == 0 and code2 == 0
    for doc in (doc1, doc2):
        doc.pop("runtime_ms")
        doc["diagnostics"].pop("stage_s")
    assert doc1 == doc2
    assert set(doc1["test"]) >= {"statistic", "p_value", "reject", "n_permutations"}
    assert 0.0 <= doc1["test"]["p_value"] <= 1.0


def test_test_reports_calibration(csv_pair, tmp_path):
    px, py = csv_pair
    code, doc = run(
        ["test", "--solver", "quad-greedy", "--d", "2", "--x", px, "--y", py,
         "--np", "20", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    stage_s = doc["diagnostics"].pop("stage_s")
    assert doc["diagnostics"] == {"method": "quad-greedy", "calibration": "moments"}
    assert set(stage_s) == {"load", "split_select", "calibration"}
    assert all(type(v) is float and math.isfinite(v) and v >= 0.0 for v in stage_s.values())


@pytest.mark.parametrize("solver", ["linear", "quad-greedy", "gauss-ccp"])
def test_select_reports_stage_times(solver, csv_pair, tmp_path):
    px, py = csv_pair
    code, doc = run(
        ["select", "--solver", solver, "--d", "2", "--x", px, "--y", py, "--seed", "7"], tmp_path
    )
    assert code == 0
    stage_s = doc["diagnostics"].pop("stage_s")
    assert set(stage_s) == {"load", "bandwidth", "select"}
    assert all(type(v) is float and math.isfinite(v) and v >= 0.0 for v in stage_s.values())
    # the other diagnostics are the selector's own
    data = load_two_sample(px, py)
    kernel = resolve_kernel(kernel_for_solver(solver), data, 2)
    _, diag = Selector(solver, 2).select_with_diagnostics(data, kernel, RandomSource(7))
    diag.pop("trajectory", None)
    assert doc["diagnostics"] == json.loads(json.dumps(diag))


def test_dispatch_builds_the_parser_once(csv_pair, tmp_path, monkeypatch):
    px, py = csv_pair
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        args = ["test", "--solver", "linear", "--d", "1", "--x", px, "--y", py, "--np", "19"]
        code1, corrected = run(args + ["--corrected-pvalue"], tmp_path, "a.json")
        code2, plain = run(args, tmp_path, "b.json")
    finally:
        cli._parser.cache_clear()
    assert code1 == code2 == 0
    assert len(built) == 1
    # a flag of the first call does not leak into the second
    assert corrected["config"]["corrected"] is True and corrected["test"]["corrected"] is True
    assert plain["config"]["corrected"] is False and plain["test"]["corrected"] is False


def test_test_corrected_flag(csv_pair, tmp_path):
    px, py = csv_pair
    code, doc = run(
        ["test", "--solver", "linear", "--d", "1", "--x", px, "--y", py,
         "--np", "19", "--corrected-pvalue", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    assert doc["test"]["corrected"] is True
    assert doc["test"]["p_value"] >= 1.0 / 20.0


def test_synth_round_trip(tmp_path):
    ox, oy = str(tmp_path / "sx.csv"), str(tmp_path / "sy.csv")
    osup = str(tmp_path / "support.json")
    code, doc = run(
        ["synth", "--blocks", "2", "--n", "9", "--m", "7", "--mode", "shift",
         "--seed", "5", "--out-x", ox, "--out-y", oy, "--out-support", osup],
        tmp_path,
    )
    assert code == 0
    data = load_two_sample(ox, oy)
    assert data.n == 9 and data.m == 7 and data.dim == 6
    assert doc["true_support"] == [1, 2, 3]
    assert json.loads(Path(osup).read_text())["true_support"] == [1, 2, 3]


def test_synth_deterministic(tmp_path):
    args = ["synth", "--blocks", "2", "--n", "5", "--m", "5", "--seed", "8"]
    ax, ay = str(tmp_path / "ax.csv"), str(tmp_path / "ay.csv")
    bx, by = str(tmp_path / "bx.csv"), str(tmp_path / "by.csv")
    assert dispatch(args + ["--out-x", ax, "--out-y", ay, "--out", str(tmp_path / "o1.json")]) == 0
    assert dispatch(args + ["--out-x", bx, "--out-y", by, "--out", str(tmp_path / "o2.json")]) == 0
    assert Path(ax).read_text() == Path(bx).read_text()
    assert Path(ay).read_text() == Path(by).read_text()


def test_bench_power_schema(tmp_path, monkeypatch):
    monkeypatch.delenv("MMDSELECT_WORKERS", raising=False)
    table = tmp_path / "table.tsv"
    code, doc = run(
        ["bench-power", "--blocks", "2", "--n", "14", "--m", "14", "--mode", "null",
         "--selectors", "linear", "--d", "2", "--trials", "2", "--np", "10",
         "--seed", "4", "--table", str(table)],
        tmp_path,
    )
    assert code == 0
    assert doc["summary"]["kind"] == "power"
    assert doc["summary"]["selectors"][0]["name"] == "linear"
    assert table.read_text().startswith("selector\t")
    assert doc["diagnostics"]["parallel"] == {
        "workers": 1, "processes": 1, "blas_threads_per_process": blas_threads(),
    }


def test_bench_recovery_schema(tmp_path):
    code, doc = run(
        ["bench-recovery", "--blocks", "2", "--n", "12", "--m", "12",
         "--selectors", "linear,quad-greedy", "--d", "3", "--trials", "2", "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    names = [s["name"] for s in doc["summary"]["selectors"]]
    assert "linear:fdp" in names and "quad-greedy:ndp" in names


def test_bench_recovery_null_mode_rejected(tmp_path, capsys):
    code = dispatch(
        ["bench-recovery", "--blocks", "2", "--n", "12", "--m", "12", "--mode", "null",
         "--selectors", "linear", "--d", "3", "--trials", "1"]
    )
    assert code == 2


BENCH_POWER = ["bench-power", "--blocks", "2", "--n", "14", "--m", "14", "--mode", "null",
               "--selectors", "linear,quad-greedy", "--d", "2", "--trials", "3", "--np", "10",
               "--seed", "4"]


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_bench_bad_workers_flag_exits_2(workers, capsys):
    assert dispatch(BENCH_POWER + ["--workers", workers]) == 2
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "many"])
def test_bench_bad_workers_env_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("MMDSELECT_WORKERS", value)
    assert dispatch(BENCH_POWER) == 2
    assert "MMDSELECT_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "test", "synth"])
def test_workers_flag_only_on_bench_commands(command, csv_pair, tmp_path, capsys):
    px, py = csv_pair
    if command == "synth":
        argv = ["synth", "--blocks", "1", "--n", "3", "--m", "3",
                "--out-x", str(tmp_path / "sx.csv"), "--out-y", str(tmp_path / "sy.csv")]
    else:
        argv = [command, "--solver", "linear", "--d", "1", "--x", px, "--y", py]
    assert dispatch(argv + ["--workers", "1"]) == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_bench_power_module_run_same_at_two_workers(tmp_path):
    # `python -m mmdselect.cli` makes the CLI module __main__, which each
    # spawned worker imports again
    src = str(Path(mmdselect.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "MMDSELECT_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    docs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        subprocess.run(
            [sys.executable, "-m", "mmdselect.cli", *BENCH_POWER, "--workers", workers,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        docs[workers] = json.loads(out.read_text())
    parallel = {w: doc.pop("diagnostics").pop("parallel") for w, doc in docs.items()}
    pinned = None if blas_threads() is None else 1
    assert parallel["2"] == {"workers": 2, "processes": 2, "blas_threads_per_process": pinned}
    assert parallel["1"]["workers"] == 1 and parallel["1"]["processes"] == 1
    for doc in docs.values():
        doc.pop("runtime_ms")
    assert docs["1"] == docs["2"]


def test_bench_unknown_selector_exits_2(tmp_path, capsys):
    code = dispatch(
        ["bench-power", "--blocks", "2", "--n", "12", "--m", "12",
         "--selectors", "nope", "--d", "2", "--trials", "1"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: unknown solver 'nope'\n"


@pytest.mark.parametrize(
    "command, selectors", [("bench-power", ","), ("bench-recovery", " ")], ids=["comma", "blank"]
)
def test_bench_empty_selector_list_exits_2(command, selectors, capsys):
    code = dispatch(
        [command, "--blocks", "2", "--n", "12", "--m", "12",
         "--selectors", selectors, "--d", "2", "--trials", "1"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: selectors must name at least one solver\n"


def test_select_quad_exact_diagnostics(csv_pair, tmp_path):
    px, py = csv_pair
    code, doc = run(
        ["select", "--solver", "quad-exact", "--d", "2", "--x", px, "--y", py, "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    diag = doc["diagnostics"]
    assert diag["method"] == "exact"
    assert diag["node_count"] >= 1


def test_select_quad_relax_reports_bound(csv_pair, tmp_path):
    px, py = csv_pair
    code, doc = run(
        ["select", "--solver", "quad-relax", "--d", "2", "--x", px, "--y", py],
        tmp_path,
    )
    assert code == 0
    diag = doc["diagnostics"]
    assert diag["method"] == "relax"
    assert "bound_certified" not in diag  # every bound is certified
    assert diag["value"] <= diag["upper_bound"] + 1e-6
    # the approximation algorithm reports greedy + local search's solution
    code, local = run(
        ["select", "--solver", "quad-local", "--d", "2", "--x", px, "--y", py],
        tmp_path, "local.json",
    )
    assert code == 0
    assert local["selection"] == doc["selection"]
    assert local["diagnostics"]["value"] == diag["value"]
    assert "upper_bound" not in local["diagnostics"]


def _degenerate_inputs() -> dict:
    """``kind -> (X, Y)``: inputs that must give a result or a clear error."""
    g = np.random.default_rng(0)

    def normal(rows=20, cols=6):
        return g.standard_normal((rows, cols))

    def ties():
        return g.integers(0, 3, (20, 6)).astype(float)

    inputs = {
        "constant-columns": (np.full((20, 6), 1.5), np.full((20, 6), 1.5)),
        "one-constant-column": (
            np.c_[np.full(20, 2.0), normal(20, 5)], np.c_[np.full(20, 2.0), normal(20, 5)]
        ),
        "single-row": (normal(1), normal(1)),
        "two-row": (normal(2), normal(2)),
        "duplicate-rows": (np.repeat(normal(10), 2, axis=0), np.repeat(normal(10), 2, axis=0)),
        "scale-1e-8": (1e-8 * normal(), 1e-8 * normal()),
        "scale-1e-150": (1e-150 * normal(), 1e-150 * normal()),
        "integer-ties": (ties(), ties()),
        "single-column": (normal(20, 1), normal(20, 1)),
    }
    # large scales: the sphere oracle's certificate must scale with A, and
    # at 1e60 the quadratic kernel's norms overflow float64
    for kind, scale in (("scale-1e8", 1e8), ("scale-1e12", 1e12), ("scale-1e60", 1e60)):
        r = np.random.default_rng(3)
        inputs[kind] = (scale * r.standard_normal((20, 6)), scale * r.standard_normal((20, 6)))
    return inputs


DEGENERATE = _degenerate_inputs()


def _degenerate_cells():
    for kind in DEGENERATE:
        for solver in sorted(SOLVER_FAMILIES):
            for command in ("select", "test"):
                yield pytest.param(kind, solver, command, id=f"{kind}-{solver}-{command}")


@pytest.fixture(scope="module")
def degenerate_csvs(tmp_path_factory):
    root = tmp_path_factory.mktemp("degenerate")
    paths = {}
    for kind, (X, Y) in DEGENERATE.items():
        paths[kind] = (str(root / f"{kind}-x.csv"), str(root / f"{kind}-y.csv"))
        save_matrix(paths[kind][0], X)
        save_matrix(paths[kind][1], Y)
    return paths


@pytest.mark.parametrize("kind, solver, command", list(_degenerate_cells()))
def test_degenerate_input_exits_0_or_2_with_a_message(
    degenerate_csvs, kind, solver, command, tmp_path, capsys
):
    # never an unexplained exit 1: a result, or a usage error that says why
    px, py = degenerate_csvs[kind]
    d = min(3, DEGENERATE[kind][0].shape[1])
    code = dispatch([command, "--solver", solver, "--d", str(d), "--x", px, "--y", py,
                     "--seed", "1", "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err[len("error: "):].strip()


def test_select_gauss_trajectory_and_lambda_grid(csv_pair, tmp_path):
    px, py = csv_pair
    traj = tmp_path / "traj.jsonl"
    code, doc = run(
        ["select", "--solver", "gauss-ccp", "--d", "2", "--x", px, "--y", py,
         "--lambda-grid", "0,0.05", "--seed", "2", "--trajectory", str(traj)],
        tmp_path,
    )
    assert code == 0
    assert doc["diagnostics"]["method"] == "gauss-ccp"
    assert doc["diagnostics"]["lam"] in (0.0, 0.05)
    assert doc["diagnostics"]["trajectory_path"] == str(traj)
    lines = traj.read_text().strip().splitlines()
    assert len(lines) >= 2
    assert "objective" in json.loads(lines[0])
