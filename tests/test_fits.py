"""Fit routines on synthetic curves with known parameters."""

import math

import numpy as np
import pytest

from sawtooth_echo import (
    EchoRecord,
    UnresolvedThreshold,
    analyze_curve,
    entropy_rate,
    ergodic_entropy_reference,
    fidelity_rate,
    gates_per_iteration,
    power_law_fit,
    summarize_points,
    threshold_time,
)


def test_threshold_midpoint_interpolation():
    fit = threshold_time([(2, 0.95), (4, 0.85)], c=0.9)
    assert fit.params["t_e_star"] == pytest.approx(3.0, abs=1e-12)
    assert fit.kind == "threshold"


def test_threshold_exact_hit():
    fit = threshold_time([(0, 1.0), (4, 0.9), (8, 0.2)], c=0.9)
    assert fit.params["t_e_star"] == pytest.approx(4.0, abs=1e-12)


def test_threshold_first_crossing_wins():
    fit = threshold_time([(0, 1.0), (2, 0.8), (4, 0.95), (6, 0.5)], c=0.9)
    assert fit.params["t_e_star"] == pytest.approx(0 + 2 * 0.1 / 0.2, abs=1e-12)


def test_threshold_never_crossed():
    with pytest.raises(UnresolvedThreshold):
        threshold_time([(0, 1.0), (10, 1.0), (20, 0.99)], c=0.9)


def test_threshold_precondition_violations():
    with pytest.raises(ValueError):
        threshold_time([(0, 0.85), (2, 0.5)], c=0.9)  # starts below c
    with pytest.raises(ValueError):
        threshold_time([(0, 1.0)], c=0.9)
    with pytest.raises(ValueError):
        threshold_time([(2, 1.0), (2, 0.5)], c=0.9)  # non-increasing t


def test_threshold_invariant_under_refinement():
    curve = [(0, 1.0), (4, 0.96), (8, 0.84), (12, 0.7)]
    fit = threshold_time(curve, c=0.9)
    refined = []
    for (t0, e0), (t1, e1) in zip(curve, curve[1:]):
        refined.append((t0, e0))
        mid_t = (t0 + t1) / 2
        refined.append((mid_t, e0 + (e1 - e0) * 0.5))  # exact linear interpolant
    refined.append(curve[-1])
    fit2 = threshold_time(refined, c=0.9)
    assert fit2.params["t_e_star"] == pytest.approx(
        fit.params["t_e_star"], abs=1e-12
    )


def test_entropy_rate_exact_model_recovery():
    s_inf = 1.82
    gamma = 0.05
    curve = [(t, s_inf * (1 - math.exp(-gamma * t))) for t in range(2, 41, 2)]
    fit = entropy_rate(curve, s_inf)
    assert fit.params["gamma"] == pytest.approx(gamma, abs=1e-6)
    assert fit.residual < 1e-12


def test_entropy_rate_excludes_saturated_points():
    s_inf = 2.0
    curve = [(t, s_inf * (1 - math.exp(-0.3 * t))) for t in range(1, 60)]
    fit = entropy_rate(curve, s_inf)
    # points within 0.01 of saturation are dropped
    assert fit.n_points == sum(1 for _, s in curve if s_inf - s > 0.01)
    assert fit.params["gamma"] == pytest.approx(0.3, abs=1e-9)


def test_entropy_rate_needs_three_points():
    with pytest.raises(ValueError):
        entropy_rate([(1, 1.999), (2, 1.9999)], s_inf=2.0)


def test_fidelity_rate_exact_and_zero():
    curve = [(t, math.exp(-0.03 * t)) for t in range(0, 60, 3)]
    fit = fidelity_rate(curve)
    assert fit.params["rate"] == pytest.approx(0.03, abs=1e-6)
    flat = [(t, 1.0) for t in range(0, 10)]
    assert fidelity_rate(flat).params["rate"] == pytest.approx(0.0, abs=1e-12)


def test_fidelity_rate_floor_exclusion():
    curve = [(t, math.exp(-0.5 * t)) for t in range(0, 30)]
    fit = fidelity_rate(curve)
    assert fit.n_points == sum(1 for _, f in curve if f > 0.02)
    with pytest.raises(ValueError):
        fidelity_rate([(0, 0.01), (1, 0.005), (2, 0.001)])


def test_rates_scale_equivariant():
    s_inf = 1.5
    base = [(t, s_inf * (1 - math.exp(-0.08 * t))) for t in range(1, 30)]
    scaled = [(4 * t, s) for t, s in base]
    g1 = entropy_rate(base, s_inf).params["gamma"]
    g2 = entropy_rate(scaled, s_inf).params["gamma"]
    assert g2 == pytest.approx(g1 / 4, abs=1e-10)
    f_base = [(t, math.exp(-0.06 * t)) for t in range(1, 30)]
    f_scaled = [(4 * t, f) for t, f in f_base]
    r1 = fidelity_rate(f_base).params["rate"]
    r2 = fidelity_rate(f_scaled).params["rate"]
    assert r2 == pytest.approx(r1 / 4, abs=1e-10)


def test_power_law_exact_recovery():
    points = [(x, 2.0 * x**-2) for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
    fit = power_law_fit(points)
    assert fit.params["exponent"] == pytest.approx(-2.0, abs=1e-10)
    assert fit.params["amplitude"] == pytest.approx(2.0, abs=1e-10)
    assert fit.residual < 1e-12


def test_power_law_validation():
    with pytest.raises(ValueError):
        power_law_fit([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        power_law_fit([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])
    with pytest.raises(ValueError):
        power_law_fit([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])  # degenerate x


@pytest.mark.slow
def test_doubling_epsilon_quadruples_entropy_rate():
    from sawtooth_echo import EchoConfig, ergodic_entropy_reference, run_echo_curve

    grid = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 26, 30, 36, 42, 50, 60, 75, 90, 105, 120)
    gammas = {}
    for eps in (0.01, 0.02):
        records = run_echo_curve(
            EchoConfig(n_q=6, epsilon=eps, t_r_grid=grid, realizations=100, master_seed=31)
        )
        curve = [(0.0, 0.0)] + [(r.t, r.s_mean) for r in records]
        gammas[eps] = entropy_rate(curve, ergodic_entropy_reference(64)).params["gamma"]
    ratio = gammas[0.02] / gammas[0.01]
    assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15


def test_fit_result_reports_points_and_residual():
    rng = np.random.default_rng(3)
    x = np.linspace(1, 10, 20)
    y = 3.0 * x**-1.5 * np.exp(rng.normal(0, 0.01, 20))
    fit = power_law_fit(list(zip(x, y)))
    assert fit.n_points == 20
    assert fit.residual > 0
    assert fit.params["exponent"] == pytest.approx(-1.5, abs=0.05)


def test_slope_stderr_matches_textbook_formula():
    # s / sqrt(sum (x - mean x)^2) with s^2 = RSS / (n - 2), evaluated by
    # hand against the fitted line of every regression kind
    rng = np.random.default_rng(4)
    x = np.linspace(1.0, 30.0, 25)
    log_y = -0.07 * x + 0.3 + rng.normal(0.0, 0.05, x.size)

    def textbook(u, v):
        slope, intercept = np.polyfit(u, v, 1)
        rss = float(((v - (slope * u + intercept)) ** 2).sum())
        return math.sqrt(rss / (u.size - 2)) / math.sqrt(float(((u - u.mean()) ** 2).sum()))

    expected = textbook(x, log_y)
    assert expected > 0.0
    fit = fidelity_rate(list(zip(x, np.exp(log_y))))
    assert fit.slope_stderr == pytest.approx(expected, rel=1e-9)
    s_inf = 1.5
    fit = entropy_rate(list(zip(x, s_inf - np.exp(log_y))), s_inf)
    assert fit.slope_stderr == pytest.approx(expected, rel=1e-6)  # ln(exp(.)) round trip
    lx = np.linspace(-1.0, 1.0, 12)
    ly = -2.0 * lx + 0.5 + rng.normal(0.0, 0.02, lx.size)
    fit = power_law_fit(list(zip(10.0**lx, 10.0**ly)))
    assert fit.slope_stderr == pytest.approx(textbook(lx, ly), rel=1e-9)
    assert threshold_time([(0, 1.0), (2, 0.8)], c=0.9).slope_stderr is None


def test_slope_stderr_vanishes_on_an_exact_line():
    fit = power_law_fit([(x, 2.0 * x**-2) for x in (0.5, 1.0, 2.0, 4.0, 8.0)])
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)
    fit = fidelity_rate([(t, math.exp(-0.06 * t)) for t in range(1, 30)])
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)


def test_analyze_curve_returns_the_summary_point():
    # E falls linearly from 0.98 and crosses c = 0.9 between t = 6 and 8,
    # S = s_inf (1 - exp(-Gamma t)) and f = exp(-rate t) exactly
    n_q, epsilon, gamma, rate = 6, 0.02, 0.05, 0.012
    s_inf = ergodic_entropy_reference(1 << n_q)
    records = [
        EchoRecord(
            t, 0.98 - 0.013 * t, 0.0, s_inf * (1.0 - math.exp(-gamma * t)), 0.0,
            math.exp(-rate * t), 0.0,
        )
        for t in range(0, 42, 2)
    ]
    point = analyze_curve(n_q, epsilon, records, c=0.9)
    assert set(point) == {
        "n_q", "epsilon", "n_g_per_iteration", "t_e_star", "gamma",
        "fidelity_decay_rate", "C_hat", "gamma_over_fidelity_rate", "notes",
    }
    assert (point["n_q"], point["epsilon"], point["notes"]) == (n_q, epsilon, [])
    assert point["n_g_per_iteration"] == gates_per_iteration(n_q) == 84
    # a curve that starts at t = 0 gets no anchor: the crossing is the
    # interpolation between its own t = 6 and t = 8 points
    e6, e8 = records[3].e_mean, records[4].e_mean
    assert point["t_e_star"] == pytest.approx(6.0 + 2.0 * (e6 - 0.9) / (e6 - e8), abs=1e-12)
    assert point["gamma"] == pytest.approx(gamma, abs=1e-12)
    assert point["fidelity_decay_rate"] == pytest.approx(rate, abs=1e-12)
    assert point["C_hat"] == point["fidelity_decay_rate"] / (epsilon**2 * 84)
    assert point["gamma_over_fidelity_rate"] == point["gamma"] / point["fidelity_decay_rate"]
    # without a t = 0 record the exact anchor (E = 1) is prepended, so a
    # crossing before the first grid point still resolves
    early = analyze_curve(n_q, epsilon, [EchoRecord(2, 0.85, 0, 0, 0, 1, 0)], c=0.9)
    assert early["t_e_star"] == pytest.approx(2.0 * 0.1 / 0.15, abs=1e-12)


def test_epsilon_whose_square_underflows_gets_no_constant():
    # 1e-200 is a valid epsilon whose square is 0.0: its point gets C_hat =
    # null and the pooled constants skip it, as at epsilon = 0, instead of a
    # ZeroDivisionError after the whole simulation
    n_q, epsilon, gamma, rate = 6, 1e-200, 0.05, 0.012
    s_inf = ergodic_entropy_reference(1 << n_q)
    records = [
        EchoRecord(
            t, 0.98 - 0.013 * t, 0.0, s_inf * (1.0 - math.exp(-gamma * t)), 0.0,
            math.exp(-rate * t), 0.0,
        )
        for t in range(0, 42, 2)
    ]
    assert epsilon > 0.0 and epsilon**2 == 0.0
    point = analyze_curve(n_q, epsilon, records, c=0.9)
    assert point["gamma"] == pytest.approx(gamma, abs=1e-12)
    assert point["fidelity_decay_rate"] == pytest.approx(rate, abs=1e-12)
    assert point["t_e_star"] is not None and point["C_hat"] is None
    constants = summarize_points([point], c=0.9)["constants"]
    assert (constants["A_hat"], constants["B_hat"], constants["C_hat"]) == (None, None, None)
