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

from .echo import EchoConfig, run_echo_curve
from .fits import (
    FitResult,
    UnresolvedThreshold,
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


@dataclass(frozen=True)
class ScalingConfig:
    """A (n_q, epsilon) grid of echo curves.

    The per-point echo configurations are built, and so validated, at
    construction, so a bad grid point fails before any point is simulated.
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
        object.__setattr__(self, "nq_list", tuple(int(n) for n in self.nq_list))
        object.__setattr__(
            self, "epsilon_list", tuple(float(e) for e in self.epsilon_list)
        )
        object.__setattr__(self, "t_r_grid", tuple(int(t) for t in self.t_r_grid))
        if not self.nq_list or not self.epsilon_list:
            raise ValueError("scaling needs at least one n_q and one epsilon")
        for name, values in (("n_q", self.nq_list), ("epsilon", self.epsilon_list)):
            if len(set(values)) < len(values):
                raise ValueError(f"scaling lists a repeated {name}: {values}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"threshold c must lie in (0, 1), got {self.c}")
        echo_configs = tuple(
            EchoConfig(
                n_q=n_q,
                epsilon=epsilon,
                K=self.K,
                t_r_grid=self.t_r_grid,
                realizations=self.realizations,
                master_seed=self.master_seed,
                workers=self.workers,
            )
            for n_q in self.nq_list
            for epsilon in self.epsilon_list
        )
        object.__setattr__(self, "echo_configs", echo_configs)


@dataclass
class ScalingPoint:
    """Fitted quantities of one (n_q, epsilon) grid point."""

    n_q: int
    epsilon: float
    n_g: int
    t_e_star: float | None = None
    gamma: float | None = None
    fidelity_decay_rate: float | None = None
    c_hat: float | None = None
    gamma_over_fidelity_rate: float | None = None
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n_q": self.n_q,
            "epsilon": self.epsilon,
            "n_g_per_iteration": self.n_g,
            "t_e_star": self.t_e_star,
            "gamma": self.gamma,
            "fidelity_decay_rate": self.fidelity_decay_rate,
            "C_hat": self.c_hat,
            "gamma_over_fidelity_rate": self.gamma_over_fidelity_rate,
            "notes": list(self.notes),
        }


def analyze_curve(n_q: int, epsilon: float, records, c: float) -> ScalingPoint:
    """Reduce one echo curve to (t_e*, Gamma, fidelity rate).

    The exact zero-iteration anchor (t_e=0: E=1, S=0, f=1) is prepended, so
    thresholds crossed before the first simulated grid point still resolve.
    """
    point = ScalingPoint(n_q=n_q, epsilon=epsilon, n_g=gates_per_iteration(n_q))
    anchor = [] if records and records[0].t == 0 else [0.0]
    curve_e = [(0.0, 1.0) for _ in anchor] + [(r.t, r.e_mean) for r in records]
    curve_s = [(0.0, 0.0) for _ in anchor] + [(r.t, r.s_mean) for r in records]
    curve_f = [(0.0, 1.0) for _ in anchor] + [(r.t, r.f_mean) for r in records]
    try:
        point.t_e_star = threshold_time(curve_e, c).params["t_e_star"]
    except (UnresolvedThreshold, ValueError) as exc:
        point.notes.append(f"threshold: {exc}")
    s_inf = ergodic_entropy_reference(1 << n_q)
    try:
        point.gamma = entropy_rate(curve_s, s_inf).params["gamma"]
    except ValueError as exc:
        point.notes.append(f"entropy rate: {exc}")
    try:
        rate = fidelity_rate(curve_f).params["rate"]
        point.fidelity_decay_rate = rate
        if epsilon > 0.0:
            point.c_hat = rate / (epsilon**2 * point.n_g)
        if point.gamma is not None and rate > 0.0:
            point.gamma_over_fidelity_rate = point.gamma / rate
    except ValueError as exc:
        point.notes.append(f"fidelity rate: {exc}")
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
    """Power-law fits and pooled constants over a set of grid points."""
    fits: dict = {}
    for key, group, x, y in _POWER_LAWS:
        fits[key] = {}
        for value in sorted({getattr(p, group) for p in points}):
            pairs = [(getattr(p, x), getattr(p, y)) for p in points if getattr(p, group) == value]
            # power_law_fit's domain: both coordinates strictly positive
            data = [(u, v) for u, v in pairs if v is not None and u > 0.0 and v > 0.0]
            if len(data) >= 3:
                fits[key][str(value)] = _fit_to_dict(power_law_fit(data))
    a_hat = _geometric_mean(
        p.t_e_star * p.n_q**2 * p.epsilon**2
        for p in points
        if p.t_e_star is not None and p.epsilon > 0.0
    )
    b_hat = _geometric_mean(
        p.gamma / (p.epsilon**2 * p.n_q**2)
        for p in points
        if p.gamma is not None and p.epsilon > 0.0
    )
    c_hat = _geometric_mean(p.c_hat for p in points)
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
        {"n_q": p.n_q, "epsilon": p.epsilon, "notes": list(p.notes)}
        for p in points
        if p.notes
    ]
    return {
        "c": c,
        "points": [p.as_dict() for p in points],
        "fits": fits,
        "constants": constants,
        "excluded": excluded,
    }


def run_scaling(config: ScalingConfig):
    """Simulate the Cartesian grid; returns (summary dict, per-point curves).

    Curves come back as (n_q, epsilon, records) so callers can persist them.
    """
    curves = [
        (point.n_q, point.epsilon, run_echo_curve(point)) for point in config.echo_configs
    ]
    return summarize_curves(curves, config.c), curves


def summarize_curves(curves, c: float = 0.9) -> dict:
    """Fit echo curves, simulated or replayed from CSV files."""
    points = [
        analyze_curve(n_q, epsilon, records, c) for n_q, epsilon, records in curves
    ]
    return summarize_points(points, c)
