"""One sawtooth-echo CLI run in a fresh interpreter, started by run.py.

    python3 perfbench/child.py -- <cli arguments>
    python3 perfbench/child.py --trace-dir DIR --check NQ,TR --refit MODE -- <cli arguments>

The package is imported from the checkout's src/ directory and
sawtooth_echo.cli.main(argv) is called directly, because no console script
is installed and `python -m sawtooth_echo.cli` exits 0 without running.
The exit code is main's.

With --trace-dir the run is traced (tracer.py), and the child also:

* checks the eps = 0 echo identity on an NQ-qubit register over TR forward
  and TR backward iterations, through the public state and measure calls;
* refits the CLI's output with the fits layer when the command itself fits
  nothing (MODE 'curve': the echo curve; 'forward': the forward half,
  t <= t_r, of a trace; 'none': the command fits), so that every workload
  reports the cost of that layer.
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

_started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

IDENTITY_TOL = 1e-10


def echo_identity_error(n_q: int, t_r: int) -> float:
    """Largest deviation from the ideal echo after t_r noiseless iterations
    forward and t_r backward: amplitudes, concurrence, entropy and fidelity."""
    import numpy as np

    from sawtooth_echo import (
        BoundProgram,
        MapParams,
        concurrence,
        fidelity,
        initial_state,
        map_program,
        partial_trace_12,
        von_neumann_entropy,
    )

    state = initial_state(n_q)
    reference = state.copy()
    forward = map_program(MapParams(n_q))
    rng = np.random.default_rng(0)
    for program in (forward, forward.inverse()):
        bound = BoundProgram(program, state.amps)
        for _ in range(t_r):
            bound.apply_noisy(rng, 0.0)
    rho = partial_trace_12(state)
    return max(
        float(np.abs(state.amps - reference.amps).max()),
        abs(1.0 - concurrence(rho)),
        abs(von_neumann_entropy(rho)),
        abs(1.0 - fidelity(state, reference)),
    )


def refit(mode: str, argv) -> None:
    from sawtooth_echo import scaling
    from sawtooth_echo.output import load_manifest, manifest_path_for, read_records_csv

    csv_path = Path(argv[argv.index("--out") + 1])
    manifest = load_manifest(manifest_path_for(csv_path))
    records = read_records_csv(csv_path)
    if mode == "forward":
        records = [r for r in records if r.t <= manifest["t_r"]]
    scaling.analyze_curve(manifest["n_q"], manifest["epsilon"], records, 0.9)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir")
    parser.add_argument("--check", default=None)
    parser.add_argument("--refit", choices=("none", "curve", "forward"), default="none")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if args.trace_dir is None:
        from sawtooth_echo.cli import main as cli_main

        return cli_main(argv)

    import tracer

    os.environ[tracer.TRACE_DIR_ENV] = args.trace_dir
    begin = time.perf_counter()
    from sawtooth_echo import cli

    import_s = time.perf_counter() - begin
    n_q, t_r = (int(v) for v in args.check.split(","))
    identity_error = echo_identity_error(n_q, t_r)
    tracer.install()
    code = tracer.call("cli.main", cli.main, argv)
    if code == 0 and args.refit != "none":
        refit(args.refit, argv)
    tracer.dump_process(
        exit_code=code,
        import_s=import_s,
        startup_s=begin - _started,
        identity_error=identity_error,
        identity_ok=bool(math.isfinite(identity_error) and identity_error <= IDENTITY_TOL),
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
