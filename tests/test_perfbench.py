"""Smoke test of the traced benchmark path (perfbench/child.py and tracer.py).

The tracer wraps sawtooth_echo names by attribute, so renaming or deleting
one of them breaks traced benchmark runs; this test catches that here.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def run_child(*args):
    return subprocess.run(
        [sys.executable, str(CHILD), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )


COMMON = ["--realizations", 4, "--seed", 1, "--threads", 2]
#: measures.snapshot spans each command records: R * (2 t_r + 1) for the
#: trace, R per grid point for a curve, over every (n_q, epsilon) point
SNAPSHOTS = {"trace": 4 * 5, "echo-curve": 4 * 2, "scaling": 2 * 4 * 4}
#: engine.apply_noisy spans each command records, the benchmark's echo.rit:
#: R * 2 * sum(t_r) over every (n_q, epsilon) point
ITERATIONS = {"trace": 4 * 2 * 2, "echo-curve": 4 * 2 * 3, "scaling": 2 * 4 * 2 * 10}

COMMANDS = {  # command: (CLI arguments before --out, --refit mode, output file)
    "trace": (["trace", "--nq", 3, "--tr", 2, "--epsilon", 0.01, *COMMON], "forward", "csv"),
    "echo-curve": (
        ["echo-curve", "--nq", 3, "--tr-grid", "1,2", "--epsilon", 0.01, *COMMON],
        "curve",
        "csv",
    ),
    "scaling": (
        ["scaling", "--nq-list", 3, "--epsilon-list", "0.01,0.02", "--tr-grid", "1..4",
         *COMMON],
        "none",
        "json",
    ),
}


def spans(tasks, name):
    """How many spans called name the worker tasks recorded."""
    return sum(
        list(task["name"]).count(task["names"].index(name))
        for task in tasks
        if name in task["names"]
    )


def outputs(out):
    """The bytes a run leaves: its CSV, or for scaling every curve CSV (the
    summary carries a timestamp)."""
    if out.suffix == ".csv":
        return {out.name: out.read_bytes()}
    curves = out.parent / (out.stem + "_curves")
    return {path.name: path.read_bytes() for path in sorted(curves.glob("*.csv"))}


@pytest.mark.parametrize("command", COMMANDS)
def test_traced_child_run_matches_untraced(tmp_path, command):
    cli_args, refit, suffix = COMMANDS[command]
    trace_dir = tmp_path / "spans"
    trace_dir.mkdir()
    traced_out = tmp_path / "traced" / f"out.{suffix}"
    untraced_out = tmp_path / "untraced" / f"out.{suffix}"
    traced_out.parent.mkdir()
    untraced_out.parent.mkdir()
    traced = run_child(
        "--trace-dir", trace_dir, "--check", "3,2", "--refit", refit,
        "--", *cli_args, "--out", traced_out,
    )
    assert traced.returncode == 0, traced.stderr
    assert (trace_dir / "cli.pkl").is_file()
    tasks = []
    for path in trace_dir.glob("task-*.pkl"):
        with open(path, "rb") as f:
            tasks.append(pickle.load(f))
    assert tasks
    # the benchmark's count checks and norm-drift metric rest on one
    # echo._record_measures call per snapshot with the register first, and
    # one BoundProgram.apply_noisy call per realization-iteration
    assert spans(tasks, "measures.snapshot") == SNAPSHOTS[command]
    assert spans(tasks, "engine.apply_noisy") == ITERATIONS[command]
    # and on one op count and one draw count across tasks
    for key in ("program.ops_per_iter", "engine.draws_per_iter"):
        assert len(set().union(*(task["counts"].get(key, set()) for task in tasks))) == 1
    assert max(task["norm_drift_max"] for task in tasks) <= 1e-10
    untraced = run_child("--", *cli_args, "--out", untraced_out)
    assert untraced.returncode == 0, untraced.stderr
    expected = outputs(untraced_out)
    assert expected and all(expected.values())
    assert outputs(traced_out) == expected
