"""Curve fits extracting the decay laws from echo data.

All regressions are unweighted ordinary least squares; the std columns in
the data exist for anyone wanting weighted refits.  Fit windows drop
noise-dominated residuals: the entropy fit excludes points within 0.01 of
saturation and the fidelity fit excludes values at or below 0.02.
"""

import math
from dataclasses import dataclass

import numpy as np

ENTROPY_FIT_WINDOW = 0.01
FIDELITY_FIT_FLOOR = 0.02


class UnresolvedThreshold(ValueError):
    """The curve never crosses the threshold on the sampled grid."""


@dataclass(frozen=True)
class FitResult:
    """One fit: its parameters, the root-mean-square residual, the points
    used and, for a regression, the standard error of its slope."""

    kind: str
    params: dict
    residual: float
    n_points: int
    slope_stderr: float | None = None


def _ols(x, y):
    """Least-squares line through at least 3 points: (slope, intercept,
    rms residual, slope standard error s / sqrt(sum (x - mean x)^2) with
    s^2 = RSS / (n - 2))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    denom = float((dx * dx).sum())
    if denom == 0.0:
        raise ValueError("degenerate fit: all abscissa values coincide")
    slope = float((dx * (y - y.mean())).sum()) / denom
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (slope * x + intercept)
    rss = float((resid * resid).sum())
    return (
        slope,
        intercept,
        float(math.sqrt(float((resid * resid).mean()))),
        math.sqrt(rss / (x.size - 2) / denom),
    )


def threshold_time(curve, c: float = 0.9) -> FitResult:
    """First downward crossing of the threshold, linearly interpolated.

    curve is a sequence of (t_e, E_mean) with strictly increasing t_e;
    it must start above c.  Raises UnresolvedThreshold if E never drops to
    c (the experiment needs a longer grid).
    """
    points = [(float(t), float(e)) for t, e in curve]
    if len(points) < 2:
        raise ValueError("threshold needs at least two curve points")
    if any(b[0] <= a[0] for a, b in zip(points, points[1:])):
        raise ValueError("t_e values must be strictly increasing")
    if points[0][1] <= c:
        raise ValueError(
            f"curve starts at E={points[0][1]:.4f}, already at or below c={c}"
        )
    for (t0, e0), (t1, e1) in zip(points, points[1:]):
        if e1 <= c:
            t_star = t0 + (t1 - t0) * (e0 - c) / (e0 - e1)
            return FitResult(
                kind="threshold",
                params={"t_e_star": t_star, "c": c},
                residual=0.0,
                n_points=len(points),
            )
    raise UnresolvedThreshold(
        f"entanglement echo stays above c={c}; extend the reversal-time grid"
    )


def _log_linear(points, floor: float, requirement: str):
    """Regress ln y on t over the (t, y) points with y above floor; returns
    (slope, intercept, residual, slope standard error, points used)."""
    usable = [(float(t), float(y)) for t, y in points if float(y) > floor]
    if len(usable) < 3:
        raise ValueError(f"{requirement}, got {len(usable)}")
    fit = _ols([t for t, _ in usable], [math.log(y) for _, y in usable])
    return (*fit, len(usable))


def entropy_rate(curve, s_inf: float) -> FitResult:
    """Rate of the exponential approach S(t_e) = s_inf*(1 - exp(-Gamma*t_e)).

    Gamma comes from regressing ln(s_inf - S_mean) on t_e over points more
    than 0.01 below saturation (points at or above s_inf drop out with them).
    """
    slope, intercept, resid, stderr, n_points = _log_linear(
        ((t, s_inf - float(s)) for t, s in curve),
        ENTROPY_FIT_WINDOW,
        f"entropy fit needs >= 3 points below s_inf - {ENTROPY_FIT_WINDOW}",
    )
    return FitResult(
        kind="exponential_rate",
        params={"gamma": -slope, "s_inf": s_inf, "log_intercept": intercept},
        residual=resid,
        n_points=n_points,
        slope_stderr=stderr,
    )


def fidelity_rate(curve) -> FitResult:
    """Decay rate of ln f_mean vs t_e above the saturation floor near 1/N."""
    slope, intercept, resid, stderr, n_points = _log_linear(
        curve,
        FIDELITY_FIT_FLOOR,
        f"fidelity fit needs >= 3 points above {FIDELITY_FIT_FLOOR}",
    )
    return FitResult(
        kind="exponential_rate",
        params={"rate": -slope, "log_intercept": intercept},
        residual=resid,
        n_points=n_points,
        slope_stderr=stderr,
    )


def power_law_fit(points) -> FitResult:
    """Least-squares line through (log10 x, log10 y): y = amplitude * x^exponent."""
    data = [(float(x), float(y)) for x, y in points]
    if len(data) < 3:
        raise ValueError("power-law fit needs at least 3 points")
    if any(x <= 0.0 or y <= 0.0 for x, y in data):
        raise ValueError("power-law fit needs strictly positive data")
    lx = [math.log10(x) for x, _ in data]
    ly = [math.log10(y) for _, y in data]
    slope, intercept, resid, stderr = _ols(lx, ly)
    return FitResult(
        kind="power_law",
        params={"exponent": slope, "amplitude": 10.0**intercept},
        residual=resid,
        n_points=len(data),
        slope_stderr=stderr,
    )
