"""Decay-law extraction over grids of qubit count and noise strength.

For every (n_q, epsilon) grid point an independent echo curve is simulated,
then reduced to three numbers: the threshold time t_e* where the mean
entanglement echo first drops to c, the entropy equilibration rate Gamma,
and the fidelity decay rate.  Power-law fits across the grid give the
scaling exponents; the amplitudes A (t_e* = A/(n_q^2 eps^2)),
B (Gamma = B eps^2 n_q^2) and C (fidelity rate = C eps^2 n_g) are reported
together with their discrepancy factors against the reference constants,
since the reconstructed gate decomposition and noise injection fix them
only up to an O(1) factor.
"""

import math
from dataclasses import dataclass, field

from .echo import EchoConfig, EchoRecord, run_echo_curve, workers
from .fits import (
    FitResult,
    entropy_rate,
    fidelity_rate,
    power_law_fit,
    threshold_time,
)
from .measures import ergodic_entropy_reference
from .program import gates_per_iteration

# reference decay-law constants for the K=5 sawtooth echo, used only for
# discrepancy reporting
REFERENCE_A = 6.04e-2
REFERENCE_B = 2.34

DEFAULT_T_R_GRID = (
    1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 26, 30, 36, 42, 50, 60, 75, 90,
)


def _check_threshold(c: float) -> None:
    """Refuse an echo threshold outside (0, 1), NaN included."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"threshold c must lie in (0, 1), got {c}")


@dataclass(frozen=True)
class ScalingConfig:
    """A (n_q, epsilon) grid of echo curves.

    The per-point echo configurations are built, and so validated, at
    construction, so a bad grid point fails before any point is simulated.
    They are built lazily from nq_list, which may be a range: an overlong
    one stops at the first n_q whose task does not fit in memory.  t_r_grid
    becomes the tuple the first point made of it.
    """

    nq_list: tuple
    epsilon_list: tuple
    t_r_grid: tuple = DEFAULT_T_R_GRID
    realizations: int = 200
    master_seed: int = 0
    c: float = 0.9
    K: float = 5.0
    workers: int | None = None
    echo_configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "epsilon_list", tuple(float(e) for e in self.epsilon_list)
        )
        if not self.nq_list or not self.epsilon_list:
            raise ValueError("scaling needs at least one n_q and one epsilon")
        if len(set(self.epsilon_list)) < len(self.epsilon_list):
            raise ValueError(f"scaling lists a repeated epsilon: {self.epsilon_list}")
        _check_threshold(self.c)
        nq_list, echo_configs, grid = [], [], self.t_r_grid
        for n_q in map(int, self.nq_list):
            if n_q in nq_list:
                raise ValueError(f"scaling lists a repeated n_q: {n_q}")
            nq_list.append(n_q)
            for epsilon in self.epsilon_list:
                point = EchoConfig(
                    n_q=n_q,
                    epsilon=epsilon,
                    K=self.K,
                    t_r_grid=grid,
                    realizations=self.realizations,
                    master_seed=self.master_seed,
                    workers=self.workers,
                )
                grid = point.t_r_grid
                echo_configs.append(point)
        object.__setattr__(self, "nq_list", tuple(nq_list))
        object.__setattr__(self, "t_r_grid", grid)
        object.__setattr__(self, "echo_configs", tuple(echo_configs))


def analyze_curve(n_q: int, epsilon: float, records, c: float) -> dict:
    """Reduce one echo curve to the summary's point: t_e*, Gamma, the
    fidelity rate and the constants they give, with a note for each
    quantity that cannot be fitted.

    Unless the curve starts at t_e=0, the exact zero-iteration anchor
    (E=1, S=0, f=1) is prepended, so thresholds crossed before the first
    simulated grid point still resolve.
    """
    if not records or records[0].t != 0:
        records = [EchoRecord(0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0), *records]
    point = {
        "n_q": n_q,
        "epsilon": epsilon,
        "n_g_per_iteration": gates_per_iteration(n_q),
        "t_e_star": None,
        "gamma": None,
        "fidelity_decay_rate": None,
        "C_hat": None,
        "gamma_over_fidelity_rate": None,
        "notes": [],
    }
    try:
        fit = threshold_time([(r.t, r.e_mean) for r in records], c)
        point["t_e_star"] = fit.params["t_e_star"]
    except ValueError as exc:
        point["notes"].append(f"threshold: {exc}")
    try:
        s_inf = ergodic_entropy_reference(1 << n_q)
        point["gamma"] = entropy_rate([(r.t, r.s_mean) for r in records], s_inf).params["gamma"]
    except ValueError as exc:
        point["notes"].append(f"entropy rate: {exc}")
    try:
        rate = fidelity_rate([(r.t, r.f_mean) for r in records]).params["rate"]
        point["fidelity_decay_rate"] = rate
        # a positive epsilon below ~1e-162 still squares to 0
        if (scale := epsilon**2 * point["n_g_per_iteration"]) > 0.0:
            point["C_hat"] = rate / scale
        if point["gamma"] is not None and rate > 0.0:
            point["gamma_over_fidelity_rate"] = point["gamma"] / rate
    except ValueError as exc:
        point["notes"].append(f"fidelity rate: {exc}")
    return point


def _geometric_mean(values) -> float | None:
    positive = [v for v in values if v is not None and v > 0.0]
    if not positive:
        return None
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def _fit_to_dict(fit: FitResult) -> dict:
    return {
        "exponent": fit.params["exponent"],
        "amplitude": fit.params["amplitude"],
        "residual": fit.residual,
        "n_points": fit.n_points,
        "exponent_stderr": fit.slope_stderr,
    }


def _discrepancy(estimate: float | None, reference: float) -> float | None:
    if estimate is None or estimate <= 0.0:
        return None
    ratio = estimate / reference
    return max(ratio, 1.0 / ratio)


#: (summary key, grouped by, abscissa, ordinate) of each power-law fit
_POWER_LAWS = (
    ("t_e_star_vs_epsilon", "n_q", "epsilon", "t_e_star"),
    ("gamma_vs_epsilon", "n_q", "epsilon", "gamma"),
    ("t_e_star_vs_n_q", "epsilon", "n_q", "t_e_star"),
)


def summarize_points(points, c: float) -> dict:
    """Power-law fits and pooled constants over grid points, as
    analyze_curve returns them or a saved summary lists them."""
    fits: dict = {}
    for key, group, x, y in _POWER_LAWS:
        fits[key] = {}
        for value in sorted({p[group] for p in points}):
            pairs = [(p[x], p[y]) for p in points if p[group] == value]
            # power_law_fit's domain: both coordinates strictly positive
            data = [(u, v) for u, v in pairs if v is not None and u > 0.0 and v > 0.0]
            if len(data) >= 3:
                fits[key][str(value)] = _fit_to_dict(power_law_fit(data))
    a_hat = _geometric_mean(
        p["t_e_star"] * p["n_q"] ** 2 * p["epsilon"] ** 2
        for p in points
        if p["t_e_star"] is not None and p["epsilon"] > 0.0
    )
    b_hat = _geometric_mean(
        p["gamma"] / scale
        for p in points
        if p["gamma"] is not None and (scale := p["epsilon"] ** 2 * p["n_q"] ** 2) > 0.0
    )
    c_hat = _geometric_mean(p["C_hat"] for p in points)
    constants = {
        "A_hat": a_hat,
        "A_reference": REFERENCE_A,
        "A_discrepancy_factor": _discrepancy(a_hat, REFERENCE_A),
        "B_hat": b_hat,
        "B_reference": REFERENCE_B,
        "B_discrepancy_factor": _discrepancy(b_hat, REFERENCE_B),
        "C_hat": c_hat,
    }
    excluded = [
        {"n_q": p["n_q"], "epsilon": p["epsilon"], "notes": p["notes"]}
        for p in points
        if p["notes"]
    ]
    return {
        "c": c,
        "points": points,
        "fits": fits,
        "constants": constants,
        "excluded": excluded,
    }


def run_scaling(config: ScalingConfig, write_curve) -> dict:
    """Simulate the grid one point at a time and return its summary.

    Each point's records go to write_curve(point, records), point being its
    EchoConfig, as soon as the point ends; summarize_curves then fits them,
    and they are dropped before the next point starts.  So the parent holds
    one point's records at a time, as the memory rule counts them, and a run
    that fails part-way has written every point that ended.  Every point
    runs on one set of processes (echo.workers): the fewest any point
    allows, and one pool, closed before this returns or raises.
    """

    def simulated(point):
        records = run_echo_curve(point)
        write_curve(point, records)
        return point.n_q, point.epsilon, records

    with workers((point, point.t_r_grid) for point in config.echo_configs):
        return summarize_curves(map(simulated, config.echo_configs), config.c)


def summarize_curves(curves, c: float) -> dict:
    """Fit (n_q, epsilon, records) echo curves, simulated or replayed from
    CSV files: the one place that turns curves into a summary.

    curves is read lazily, and each curve is reduced to its point by
    analyze_curve and dropped before the next one is read.
    """
    _check_threshold(c)
    # map keeps no curve between calls, as a loop variable would while the
    # next curve is read or simulated
    points = list(map(lambda curve: analyze_curve(*curve, c), curves))
    return summarize_points(points, c)
