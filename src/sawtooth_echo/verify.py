"""Built-in verification suite: gate programs against dense oracles,
measure fixtures, the noiseless-echo identity, and the exact reversal of a
noisy echo under mirrored draws.  The noisy checks bind registers of their
own, so no echo binding (echo._bind_echo) outlives a check."""

import math
from dataclasses import dataclass

import numpy as np

from .echo import EchoConfig, _echo_steps, _write_initial_state, realization_rng, run_trace
from .engine import BoundProgram
from .measures import (
    bell_density,
    concurrence,
    eof,
    von_neumann_entropy,
    werner_state,
)
from .oracle import (
    align_global_phase,
    bit_reversal_permutation,
    dense_map_unitary,
    dft_matrix,
    program_unitary,
)
from .program import MapParams, map_program, qft_program


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_map_program_matches_oracle(K: float = 5.0) -> CheckResult:
    """Ideal one-iteration program at K vs the dense K = 5 matrix, n_q = 2..5."""
    worst = 0.0
    for n_q in (2, 3, 4, 5):
        program = map_program(MapParams(n_q, K))
        aligned = align_global_phase(program_unitary(program), dense_map_unitary(n_q, 5.0))
        worst = max(worst, float(np.abs(aligned - dense_map_unitary(n_q, 5.0)).max()))
    return CheckResult(
        name="map-program-vs-dense-oracle",
        passed=worst < 1e-10,
        detail=f"max entry deviation {worst:.3e} (tolerance 1e-10)",
    )


def check_qft_matches_dft() -> CheckResult:
    """The QFT ladder vs the DFT with its rows in bit-reversed order."""
    dev = 0.0
    for n_q in (2, 3):
        expected = dft_matrix(n_q)[bit_reversal_permutation(n_q)]
        dev = max(dev, float(np.abs(program_unitary(qft_program(n_q)) - expected).max()))
    return CheckResult(
        name="qft-program-vs-dft-matrix",
        passed=dev < 1e-10,
        detail=f"max entry deviation {dev:.3e} (tolerance 1e-10)",
    )


def check_measure_fixtures() -> CheckResult:
    bell_c = concurrence(bell_density())
    bell_e = eof(bell_c)
    mixed = np.eye(4, dtype=complex) / 4.0
    mixed_c = concurrence(mixed)
    mixed_s = von_neumann_entropy(mixed)
    ok = (
        abs(bell_c - 1.0) < 1e-12
        and abs(bell_e - 1.0) < 1e-12
        and mixed_c == 0.0
        and abs(mixed_s - 2.0) < 1e-12
    )
    return CheckResult(
        name="measure-fixtures",
        passed=ok,
        detail=(
            f"Bell C={bell_c:.12f} E={bell_e:.12f}; "
            f"maximally mixed C={mixed_c:.1e} S={mixed_s:.12f}"
        ),
    )


def check_werner_sweep(n_points: int = 50) -> CheckResult:
    """Concurrence over the Werner family vs the closed form max(0,(3p-1)/2)."""
    worst = 0.0
    for i in range(n_points):
        p = i / (n_points - 1)
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        worst = max(worst, abs(concurrence(werner_state(p)) - expected))
    return CheckResult(
        name="werner-concurrence-sweep",
        passed=worst < 1e-10,
        detail=f"max deviation {worst:.3e} over {n_points} mixing values",
    )


def check_noiseless_echo(n_q: int = 6, t_r: int = 10) -> CheckResult:
    records = run_trace(
        EchoConfig(n_q=n_q, epsilon=0.0, t_r=t_r, realizations=1, workers=1)
    )
    final = records[-1]
    ok = (
        abs(final.e_mean - 1.0) < 1e-10
        and final.s_mean < 1e-10
        and final.f_mean > 1.0 - 1e-10
    )
    return CheckResult(
        name="noiseless-echo-identity",
        passed=ok,
        detail=(
            f"n_q={n_q} t_r={t_r}: |E-1|={abs(final.e_mean - 1.0):.3e} "
            f"S={final.s_mean:.3e} 1-f={1.0 - final.f_mean:.3e}"
        ),
    )


def check_noisy_norm_preservation(n_q: int = 6, t_r: int = 20) -> CheckResult:
    """Unitary noise must keep the state normalized over a full experiment."""
    amps = np.empty(1 << n_q, dtype=np.complex128)
    forward = BoundProgram(map_program(MapParams(n_q, 5.0)), amps)
    backward = forward.inverse()
    _write_initial_state(amps)
    for _ in _echo_steps(forward, backward, realization_rng(7, t_r, 0), 0.03, t_r):
        pass
    drift = abs(float(np.vdot(amps, amps).real) - 1.0)
    return CheckResult(
        name="noisy-norm-preservation",
        passed=drift < 1e-10,
        detail=f"norm drift {drift:.3e} over {2 * t_r} noisy iterations",
    )


def check_noisy_echo_reversibility(epsilon: float = 0.3, t_r: int = 5) -> CheckResult:
    """The backward map fed the mirrored forward draws undoes t_r noisy
    forward iterations exactly, at n_q = 6 (every diagonal on the dense
    phase path) and 9 (both phase paths); fed the draws reversed
    wholesale, the negative control, it must miss."""
    worst, control = 0.0, math.inf
    for n_q in (6, 9):
        amps = np.empty(1 << n_q, dtype=np.complex128)
        forward = BoundProgram(map_program(MapParams(n_q, 5.0)), amps)
        backward = forward.inverse()
        _write_initial_state(amps)
        start = amps.copy()
        rng = realization_rng(11, t_r, 0)
        draws = [rng.uniform(-epsilon, epsilon, forward.draw_count) for _ in range(t_r)]

        def miss(mirror):
            np.copyto(amps, start)
            for d in draws:
                forward.apply(d)
            for d in reversed(draws):
                backward.apply(mirror(d))
            return float(np.abs(amps - start).max())

        worst = max(worst, miss(forward.mirror))
        control = min(control, miss(lambda d: d[::-1]))
    return CheckResult(
        name="noisy-echo-reversibility",
        passed=worst < 1e-10 <= control,
        detail=(
            f"n_q=6,9 t_r={t_r} eps={epsilon}: mirrored draws return within "
            f"{worst:.3e} (tolerance 1e-10); draws reversed wholesale miss by "
            f">= {control:.3e}"
        ),
    )


def run_checks() -> list:
    """All verification checks."""
    return [
        check_map_program_matches_oracle(),
        check_qft_matches_dft(),
        check_measure_fixtures(),
        check_werner_sweep(),
        check_noiseless_echo(),
        check_noisy_norm_preservation(),
        check_noisy_echo_reversibility(),
    ]
