"""Time one noisy map iteration, BoundProgram.apply_noisy, of this checkout.

Usage: python tools/time_iteration.py [--nq 4,5,6,8,10,12] [--rounds 15]

Imports sawtooth_echo from the src/ directory beside this script, so two
checkouts compare by running each one's copy in turn.  Each n_q binds one
forward map iteration to a random unit state and draws at epsilon = 0.01
from a fixed generator.  An iteration is timed two ways: alone, one
apply_noisy call that stages and applies one row, and inside a half-echo
of HALF iterations, the calls echo._echo_steps makes, each told how many
of the half remain, so the engine stages the half's noise in blocks.  A
round times one batch of each per n_q, the n_q interleaved, and a batch is
sized to take about 20 ms.  Prints one line per n_q: the op count, then
the best and the median time per iteration over the rounds, alone and
inside a half, in microseconds.  The package is imported before numpy, so
its one-thread OpenBLAS pin applies unless OPENBLAS_NUM_THREADS is set.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# the package first: it pins OpenBLAS to one thread before numpy loads
from sawtooth_echo import MapParams, map_program  # noqa: E402
from sawtooth_echo.engine import BoundProgram  # noqa: E402

import numpy as np  # noqa: E402

EPSILON = 0.01
BATCH_SECONDS = 0.02
#: iterations per half-echo, the shape of the benchmark's trace
HALF = 20


def _bound(n_q):
    rng = np.random.default_rng(n_q)
    amps = rng.normal(size=1 << n_q) + 1j * rng.normal(size=1 << n_q)
    amps /= np.linalg.norm(amps)
    return BoundProgram(map_program(MapParams(n_q)), amps), np.random.default_rng(0)


def _alone(bound, rng, count):
    """Seconds per iteration over count single applications."""
    start = time.perf_counter()
    for _ in range(count):
        bound.apply_noisy(rng, EPSILON)
    return (time.perf_counter() - start) / count


def _in_halves(bound, rng, count):
    """Seconds per iteration over count iterations, whole halves of HALF."""
    halves = -(-count // HALF)
    start = time.perf_counter()
    for _ in range(halves):
        for remaining in range(HALF, 0, -1):
            bound.apply_noisy(rng, EPSILON, remaining)
    return (time.perf_counter() - start) / (halves * HALF)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nq", default="4,5,6,8,10,12", help="comma-separated register sizes")
    parser.add_argument("--rounds", type=int, default=15, help="timed batches per n_q")
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.nq.split(",")]
    if args.rounds < 1 or any(n < 2 for n in sizes):
        parser.error("need --rounds >= 1 and every n_q >= 2")
    runs = {}
    for n_q in sizes:
        bound, rng = _bound(n_q)
        _in_halves(bound, rng, HALF)  # warm-up
        count = max(1, int(BATCH_SECONDS / _alone(bound, rng, 5)))
        runs[n_q] = (bound, rng, count, [], [])
    for _ in range(args.rounds):
        for bound, rng, count, alone, in_halves in runs.values():
            alone.append(_alone(bound, rng, count))
            in_halves.append(_in_halves(bound, rng, count))
    print(f"{'n_q':>4} {'ops':>4} {'best_us':>9} {'median_us':>9} {'half_best_us':>12} "
          f"{'half_median_us':>14}")
    for n_q, (bound, _, _, alone, in_halves) in runs.items():
        times = [1e6 * f(t) for t in (alone, in_halves) for f in (min, statistics.median)]
        print(f"{n_q:4d} {len(bound._ops):4d} {times[0]:9.2f} {times[1]:9.2f} {times[2]:12.2f} "
              f"{times[3]:14.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
