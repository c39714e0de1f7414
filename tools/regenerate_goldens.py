"""Regenerate the golden outputs that tests/test_golden.py reruns and compares.

Usage: python tools/regenerate_goldens.py

Runs each command of RUNS in-process, with sawtooth_echo imported from the
src/ directory beside this script, into its own directory under
tests/golden/, which is emptied first.  Every command runs a few
realizations at --threads 1 and takes about a second: trace at n_q = 5,
echo-curve at n_q = 9 (the factorized-diagonal path; t_r = 1 and the tail of
t_r = 5 take the one-row path) and a two-point scaling run with its summary
JSON.  Paths are relative to the run's directory, so the scaling summary's
curve_files name no directory outside it.  A change that moves the outputs
reruns this script and notes the largest difference the test reported.
"""

import contextlib
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sawtooth_echo import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"

#: each golden run's CLI arguments, by the directory it writes into
RUNS = {
    "trace": [
        "trace", "--nq", "5", "--tr", "25", "--epsilon", "0.05", "--realizations", "3",
        "--seed", "7", "--threads", "1", "--out", "trace.csv",
    ],
    "echo-curve": [
        "echo-curve", "--nq", "9", "--tr-grid", "1,2,5,10", "--epsilon", "0.02",
        "--realizations", "3", "--seed", "7", "--threads", "1", "--out", "curve.csv",
    ],
    "scaling": [
        "scaling", "--nq-list", "4", "--epsilon-list", "0.02,0.04", "--realizations", "4",
        "--seed", "7", "--threads", "1", "--out", "scaling.json",
    ],
}


def generate(directory: Path, name: str) -> None:
    """Run RUNS[name] inside directory, which must exist."""
    with contextlib.chdir(directory), contextlib.redirect_stdout(None):
        code = cli.main(RUNS[name])
    if code:
        raise RuntimeError(f"{name} exited {code}")


def main() -> int:
    for name in RUNS:
        directory = GOLDEN / name
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        generate(directory, name)
        print(f"wrote {directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
