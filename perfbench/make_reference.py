"""Regenerate the reference curves that output check (c) compares against.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload's command once with many realizations and a fixed seed
and stores its CSVs under perfbench/reference/<workload>/ together with
reference.json, which records the realization count and seed.  Check (c)
allows each row mean K_SIGMA standard errors of deviation, so a reference
needs regenerating only when the simulated physics changes, not when a
change moves results in their last bits.
"""

import argparse
import json
import shutil

import run

REFERENCE_SEED = 20030915
REFERENCE_REALIZATIONS = {"sweep-nq6": 100, "trace-nq5": 3000, "curve-nq12": 64}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=sorted(run.WORKLOADS))
    args = parser.parse_args()
    index_path = run.REFERENCE_DIR / "reference.json"
    index = json.loads(index_path.read_text()) if index_path.exists() else {}
    work_dir = run.WORK_DIR / "reference"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        for name in args.workload:
            workload = run.WORKLOADS[name]
            realizations = REFERENCE_REALIZATIONS[name]
            cli_args = workload.args(workload.t_r, realizations, REFERENCE_SEED)
            result = run.launch(cli_args, work_dir / name)
            if result.ok:
                run.check_outputs(workload, result, workload.t_r, realizations, REFERENCE_SEED)
            if not result.ok:
                print(f"{name}: {result.error}")
                return 1
            target = run.REFERENCE_DIR / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for key, data in result.files.items():
                (target / f"{key}.csv").write_bytes(data)
            index[name] = {
                "realizations": realizations,
                "master_seed": REFERENCE_SEED,
                "threads": run.THREADS,
                "argv": cli_args,
            }
            print(f"{name}: {len(result.files)} CSVs in {result.wall_s:.1f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
