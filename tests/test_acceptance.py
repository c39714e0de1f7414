"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line.  The scaling runs
(criteria 6-8) share two module-scoped simulation fixtures and dominate the
runtime (several minutes on two cores); everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from sawtooth_echo import (
    EchoConfig,
    MapParams,
    concurrence,
    eof,
    map_program,
    run_trace,
    werner_state,
)
from sawtooth_echo.cli import main as cli_main
from sawtooth_echo.measures import bell_density, von_neumann_entropy
from sawtooth_echo.oracle import align_global_phase, dense_map_unitary, program_unitary
from sawtooth_echo.scaling import (
    REFERENCE_A,
    REFERENCE_B,
    ScalingConfig,
    run_scaling,
    summarize_points,
)

pytestmark = pytest.mark.acceptance

EPS_SWEEP_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 26, 30, 36, 42, 50, 60, 75, 90)
NQ_SWEEP_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 26, 30)

_criterion4_runtime = {}


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\ncriterion {number}: {status} -- {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def saturation_runs():
    """Criterion 4/5 runs: n_q = 5 and 8, eps = 1e-2, 400 realizations."""
    runs = {}
    start = time.perf_counter()
    for n_q in (5, 8):
        runs[n_q] = run_trace(
            EchoConfig(
                n_q=n_q, epsilon=1e-2, t_r=20, realizations=400, master_seed=424242
            )
        )
    _criterion4_runtime["seconds"] = time.perf_counter() - start
    return runs


@pytest.fixture(scope="module")
def epsilon_sweep():
    return run_scaling(
        ScalingConfig(
            nq_list=(6,),
            epsilon_list=(0.01, 0.015, 0.02, 0.03, 0.04),
            t_r_grid=EPS_SWEEP_GRID,
            realizations=200,
            master_seed=20260808,
        ),
        write_curve=lambda point, records: None,
    )


@pytest.fixture(scope="module")
def nq_sweep():
    return run_scaling(
        ScalingConfig(
            nq_list=(4, 5, 6, 7, 8),
            epsilon_list=(0.02,),
            t_r_grid=NQ_SWEEP_GRID,
            realizations=200,
            master_seed=20260809,
        ),
        write_curve=lambda point, records: None,
    )


def test_criterion_1_gate_program_matches_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n_q in (2, 3, 4, 5):
        dense = dense_map_unitary(n_q, 5.0)
        aligned = align_global_phase(
            program_unitary(map_program(MapParams(n_q, 5.0))), dense
        )
        worst = max(worst, float(np.abs(aligned - dense).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"max entry deviation {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_2_noiseless_echo_identity():
    worst_e = worst_s = worst_f = 0.0
    for n_q in range(4, 11):
        final = run_trace(
            EchoConfig(n_q=n_q, epsilon=0.0, t_r=20, realizations=1, workers=1)
        )[-1]
        worst_e = max(worst_e, abs(final.e_mean - 1.0))
        worst_s = max(worst_s, final.s_mean)
        worst_f = max(worst_f, 1.0 - final.f_mean)
    report(
        2,
        worst_e < 1e-10 and worst_s < 1e-10 and worst_f < 1e-10,
        f"n_q=4..10: |E-1| <= {worst_e:.2e}, S <= {worst_s:.2e}, "
        f"1-f <= {worst_f:.2e} (tol 1e-10)",
    )


def test_criterion_3_measure_fixtures():
    bell_c = concurrence(bell_density())
    bell_ok = abs(bell_c - 1.0) < 1e-10 and abs(eof(bell_c) - 1.0) < 1e-10
    mixed = np.eye(4, dtype=complex) / 4.0
    mixed_ok = (
        concurrence(mixed) == 0.0
        and abs(von_neumann_entropy(mixed) - 2.0) < 1e-10
    )
    sy = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 50):
        rho = werner_state(float(p))
        closed_form = max(0.0, (3.0 * p - 1.0) / 2.0)
        # independent oracle: brute-force eigendecomposition of rho @ rho_tilde
        brute = np.sort(
            np.sqrt(np.clip(np.linalg.eigvals(rho @ sy @ rho.conj() @ sy).real, 0, None))
        )[::-1]
        brute_c = max(brute[0] - brute[1:].sum(), 0.0)
        assert abs(brute_c - closed_form) < 1e-7  # closed form vs brute force
        worst = max(worst, abs(concurrence(rho) - closed_form))
    report(
        3,
        bell_ok and mixed_ok and worst < 1e-10,
        f"Bell/mixed fixtures ok, Werner sweep max deviation {worst:.2e} (tol 1e-10)",
    )


def test_criterion_4_ergodic_saturation(saturation_runs):
    results = []
    ok = True
    for n_q, center, tol in ((8, 1.954916, 0.03), (5, 1.639266, 0.05)):
        records = saturation_runs[n_q]
        window = [r.s_mean for r in records if 10 <= r.t <= 20]
        mean_s = sum(window) / len(window)
        ok = ok and abs(mean_s - center) <= tol
        results.append(f"n_q={n_q}: mean S[10,20]={mean_s:.4f} vs {center} (+/-{tol})")
    report(4, ok, "; ".join(results))


def test_criterion_5_entanglement_death(saturation_runs):
    worst = {}
    for n_q in (8, 5):
        records = saturation_runs[n_q]
        worst[n_q] = max(r.e_mean for r in records if 5 <= r.t <= 20)
    ok = all(v < 0.02 for v in worst.values())
    report(
        5,
        ok,
        f"max E(t) over t in [5,20]: n_q=8: {worst[8]:.4f}, n_q=5: {worst[5]:.4f} (< 0.02)",
    )


def test_criterion_6_scaling_exponents(epsilon_sweep, nq_sweep):
    t_eps = epsilon_sweep["fits"]["t_e_star_vs_epsilon"]["6"]["exponent"]
    g_eps = epsilon_sweep["fits"]["gamma_vs_epsilon"]["6"]["exponent"]
    t_nq = nq_sweep["fits"]["t_e_star_vs_n_q"]["0.02"]["exponent"]
    ok = (
        abs(t_eps - (-2.0)) <= 0.25
        and abs(g_eps - 2.0) <= 0.25
        and abs(t_nq - (-2.0)) <= 0.35
    )
    report(
        6,
        ok,
        f"t_e*(eps) slope {t_eps:.3f} (-2 +/- 0.25), Gamma(eps) slope {g_eps:.3f} "
        f"(+2 +/- 0.25), t_e*(n_q) slope {t_nq:.3f} (-2 +/- 0.35)",
    )


def test_criterion_7_constants_best_effort(epsilon_sweep, nq_sweep):
    # pooled constants over both sweeps; a factor-2 miss is acceptable per
    # the criterion as long as the discrepancy factor is reported in the
    # scaling summaries
    pooled = summarize_points(epsilon_sweep["points"] + nq_sweep["points"], c=0.9)["constants"]
    a_factor = pooled["A_discrepancy_factor"]
    b_factor = pooled["B_discrepancy_factor"]
    within = a_factor is not None and b_factor is not None and a_factor <= 2 and b_factor <= 2
    reported = (
        "A_discrepancy_factor" in epsilon_sweep["constants"]
        and "B_discrepancy_factor" in epsilon_sweep["constants"]
    )
    report(
        7,
        within or reported,
        f"A_hat={pooled['A_hat']:.4f} vs {REFERENCE_A} (factor {a_factor:.2f}), "
        f"B_hat={pooled['B_hat']:.4f} vs {REFERENCE_B} (factor {b_factor:.2f})"
        + ("" if within else "; outside factor 2 but reported in summaries"),
    )


def test_criterion_8_common_timescale(epsilon_sweep):
    ratios = {
        p["epsilon"]: p["gamma_over_fidelity_rate"]
        for p in epsilon_sweep["points"]
        if p["epsilon"] in (0.01, 0.02, 0.03)
    }
    values = list(ratios.values())
    ok = all(v is not None for v in values)
    if ok:
        mean = sum(values) / len(values)
        ok = all(abs(v - mean) <= 0.3 * mean for v in values)
    report(
        8,
        ok,
        "Gamma/fidelity-rate at eps=0.01,0.02,0.03: "
        + ", ".join(f"{ratios[e]:.3f}" for e in (0.01, 0.02, 0.03))
        + " (constant within +/-30%)",
    )


def test_criterion_9_reproducibility(tmp_path):
    args = [
        "trace", "--nq", "4", "--tr", "10", "--epsilon", "0.01",
        "--realizations", "20", "--seed", "77",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--threads", "1", "--out", str(out_a)]) == 0
    assert cli_main(args + ["--threads", "2", "--out", str(out_b)]) == 0
    trace_ok = out_a.read_bytes() == out_b.read_bytes()
    curve_args = [
        "echo-curve", "--nq", "4", "--tr-grid", "1..8", "--epsilon", "0.02",
        "--realizations", "10", "--seed", "3",
    ]
    out_c, out_d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main(curve_args + ["--threads", "2", "--out", str(out_c)]) == 0
    assert cli_main(curve_args + ["--threads", "1", "--out", str(out_d)]) == 0
    curve_ok = out_c.read_bytes() == out_d.read_bytes()
    report(
        9,
        trace_ok and curve_ok,
        "trace and echo-curve CSVs byte-identical across reruns and worker counts",
    )


def test_criterion_10_performance_envelope(saturation_runs):
    start = time.perf_counter()
    run_trace(EchoConfig(n_q=10, epsilon=1e-2, t_r=20, realizations=1, workers=1))
    single = time.perf_counter() - start
    saturation = _criterion4_runtime["seconds"]
    report(
        10,
        single < 2.0 and saturation < 300.0,
        f"single n_q=10 echo {single:.2f}s (< 2 s); criterion-4 runs "
        f"{saturation:.0f}s (< 300 s)",
    )
