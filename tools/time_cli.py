"""Time one sawtooth-echo CLI command from two checkouts, in alternating pairs.

Usage: python tools/time_cli.py [--pairs 10] CHECKOUT_A CHECKOUT_B -- <cli arguments>

Each run is a fresh interpreter that imports sawtooth_echo from the
checkout's src/ directory and calls sawtooth_echo.cli.main with the
arguments, in a new empty working directory, so a relative --out lands
there and is removed with it.  Pair i runs A first when i is even and B
first when it is odd.  A run is timed from outside: wall time, and CPU
time (user + system) and minor page faults from wait4, which include the
pool workers the command waited for.  Prints a header and one line per
checkout: the median and quartiles of each.  Exits 1 when a run fails.
Stdlib only.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_RUN = "import sys; from sawtooth_echo.cli import main; raise SystemExit(main(sys.argv[1:]))"

#: the measures each run reports, in printed order
MEASURES = ("wall_s", "cpu_s", "minflt")


def run_once(checkout: Path, argv) -> dict:
    """One CLI run of checkout in a fresh interpreter and working directory."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    work = Path(tempfile.mkdtemp(prefix="time_cli-"))
    try:
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _RUN, *argv], cwd=work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - begin
        # reaped here, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit code {proc.returncode}: {stderr.decode()[-300:]}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "minflt": usage.ru_minflt}


def quartiles(values) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs to run")
    parser.add_argument("checkouts", nargs=2, type=Path, help="the two checkouts")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.pairs < 1 or not command:
        parser.error("need --pairs >= 1 and a CLI command after --")
    for checkout in args.checkouts:
        if not (checkout / "src" / "sawtooth_echo" / "cli.py").is_file():
            parser.error(f"no sawtooth_echo sources under {checkout / 'src'}")
    runs = ([], [])  # by position, so a checkout may be timed against itself
    try:
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                runs[side].append(run_once(args.checkouts[side].resolve(), command))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(" ".join(["checkout", *(f"{m}_{q}" for m in MEASURES for q in ("q1", "median", "q3"))]))
    for checkout, samples in zip(args.checkouts, runs):
        cells = [
            f"{value:.4g}"
            for measure in MEASURES
            for value in quartiles([sample[measure] for sample in samples])
        ]
        print(" ".join([str(checkout), *cells]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
