import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmdselect
from mmdselect.bench import blas_threads
from mmdselect.cli import dispatch
from mmdselect.core import load_two_sample


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


def test_test_subcommand_deterministic(csv_pair, tmp_path):
    px, py = csv_pair
    args = ["test", "--solver", "linear", "--d", "2", "--x", px, "--y", py,
            "--np", "50", "--alpha", "0.05", "--seed", "11"]
    code1, doc1 = run(args, tmp_path, "a.json")
    code2, doc2 = run(args, tmp_path, "b.json")
    assert code1 == 0 and code2 == 0
    doc1.pop("runtime_ms")
    doc2.pop("runtime_ms")
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
    assert doc["diagnostics"] == {"method": "quad-greedy", "calibration": "moments"}


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
    assert json.loads(open(osup).read())["true_support"] == [1, 2, 3]


def test_synth_deterministic(tmp_path):
    args = ["synth", "--blocks", "2", "--n", "5", "--m", "5", "--seed", "8"]
    ax, ay = str(tmp_path / "ax.csv"), str(tmp_path / "ay.csv")
    bx, by = str(tmp_path / "bx.csv"), str(tmp_path / "by.csv")
    assert dispatch(args + ["--out-x", ax, "--out-y", ay, "--out", str(tmp_path / "o1.json")]) == 0
    assert dispatch(args + ["--out-x", bx, "--out-y", by, "--out", str(tmp_path / "o2.json")]) == 0
    assert open(ax).read() == open(bx).read()
    assert open(ay).read() == open(by).read()


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


def test_bench_unknown_selector_exits_2(tmp_path):
    code = dispatch(
        ["bench-power", "--blocks", "2", "--n", "12", "--m", "12",
         "--selectors", "nope", "--d", "2", "--trials", "1"]
    )
    assert code == 2


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
    assert diag["bound_certified"] is True
    assert diag["value"] <= diag["upper_bound"] + 1e-6


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
