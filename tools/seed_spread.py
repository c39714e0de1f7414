"""Measure how far the acceptance scaling exponents spread over master seeds.

Usage: python tools/seed_spread.py [--out tools/seed_spread.json]

Runs the two scaling sweeps of the criterion-6 fixtures in
tests/test_acceptance.py, with their grids (imported from that module),
200 realizations and c = 0.9: the epsilon sweep (n_q = 6, epsilon 0.01 to
0.04) and the n_q sweep (n_q = 4..8, epsilon = 0.02).  Each sweep runs
once at its fixture seed (20260808 and 20260809) and once at each of the
master seeds 1..7, both sweeps at the same seed.  The JSON written to --out
holds, per seed, the three exponents criterion 6 checks and their OLS
standard errors, and per exponent the mean, the sample standard deviation
and the range over the seeds.  The fixture-seed row is what the acceptance
fixtures compute.  sawtooth_echo is imported from the src/ directory beside
this script.  Both sweeps together take about half a minute per seed on
two cores, so the run takes several minutes.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from sawtooth_echo.scaling import ScalingConfig, run_scaling  # noqa: E402
from test_acceptance import EPS_SWEEP_GRID, NQ_SWEEP_GRID  # noqa: E402

#: (master seed of the epsilon sweep, of the n_q sweep): the fixtures', then 1..7
SEEDS = [(20260808, 20260809)] + [(seed, seed) for seed in range(1, 8)]

#: fit -> (sweep, group) of each exponent criterion 6 checks
EXPONENTS = {
    "t_e_star_vs_epsilon": ("epsilon", "6"),
    "gamma_vs_epsilon": ("epsilon", "6"),
    "t_e_star_vs_n_q": ("n_q", "0.02"),
}


def sweeps(seeds):
    """The summaries of both sweeps at one (epsilon seed, n_q seed) pair."""
    grids = {
        "epsilon": dict(
            nq_list=(6,), epsilon_list=(0.01, 0.015, 0.02, 0.03, 0.04), t_r_grid=EPS_SWEEP_GRID
        ),
        "n_q": dict(nq_list=(4, 5, 6, 7, 8), epsilon_list=(0.02,), t_r_grid=NQ_SWEEP_GRID),
    }
    return {
        name: run_scaling(
            ScalingConfig(**grid, realizations=200, master_seed=seed, c=0.9),
            write_curve=lambda point, records: None,
        )
        for (name, grid), seed in zip(grids.items(), seeds)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "tools" / "seed_spread.json")
    args = parser.parse_args(argv)
    rows = []
    for seeds in SEEDS:
        summaries = sweeps(seeds)
        row = {"epsilon_seed": seeds[0], "n_q_seed": seeds[1]}
        for name, (sweep, group) in EXPONENTS.items():
            result = summaries[sweep]["fits"][name][group]
            row[name] = result["exponent"]
            row[f"{name}_stderr"] = result["exponent_stderr"]
        rows.append(row)
        print(json.dumps(row), flush=True)
    spread = {}
    for name in EXPONENTS:
        values = [row[name] for row in rows]
        spread[name] = {
            "mean": statistics.fmean(values),
            "sd": statistics.stdev(values),
            "min": min(values),
            "max": max(values),
            "mean_stderr": statistics.fmean(row[f"{name}_stderr"] for row in rows),
        }
    result = {"realizations": 200, "c": 0.9, "seeds": rows, "spread": spread}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
