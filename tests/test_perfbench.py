"""Smoke test of the traced benchmark path (perfbench/child.py and tracer.py).

The tracer wraps sawtooth_echo names by attribute, so renaming or deleting
one of them breaks traced benchmark runs; this test catches that here.
"""

import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def run_child(*args):
    return subprocess.run(
        [sys.executable, str(CHILD), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )


def test_traced_child_run_matches_untraced(tmp_path):
    trace_dir = tmp_path / "spans"
    trace_dir.mkdir()
    cli_args = [
        "trace", "--nq", 3, "--tr", 2, "--epsilon", 0.01, "--realizations", 4,
        "--seed", 1, "--threads", 2,
    ]
    traced = run_child(
        "--trace-dir", trace_dir, "--check", "3,2", "--refit", "forward",
        "--", *cli_args, "--out", tmp_path / "t.csv",
    )
    assert traced.returncode == 0, traced.stderr
    assert (trace_dir / "cli.pkl").is_file()
    assert list(trace_dir.glob("task-*.pkl"))
    untraced = run_child("--", *cli_args, "--out", tmp_path / "u.csv")
    assert untraced.returncode == 0, untraced.stderr
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()
