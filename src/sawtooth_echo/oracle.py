"""Dense-matrix oracles for cross-checking the gate programs.

These build the one-iteration map unitary directly from its definition
(diagonal kick in the angle index, Fourier transform, diagonal free rotation,
inverse transform) so the O(n_q^2)-gate program can be validated entry by
entry on small registers.
"""

import numpy as np

from .engine import BoundProgram
from .program import GateProgram, MapParams

ORACLE_MAX_QUBITS = 12


def dft_matrix(n_q: int) -> np.ndarray:
    """Unitary DFT with kernel exp(+2*pi*i*j*k/N)/sqrt(N) (the QFT convention)."""
    if n_q < 1:
        raise ValueError(f"need n_q >= 1, got {n_q}")
    N = 1 << n_q
    j = np.arange(N)
    return np.exp(2j * np.pi * np.outer(j, j) / N) / np.sqrt(N)


def bit_reversal_permutation(n_q: int) -> np.ndarray:
    """Index permutation reversing the qubit order (an involution)."""
    bits = (np.arange(1 << n_q)[:, None] >> np.arange(n_q)) & 1  # bit 0 least significant
    return bits @ (1 << np.arange(n_q - 1, -1, -1))


def dense_map_unitary(n_q: int, K: float = 5.0) -> np.ndarray:
    """One-iteration map matrix diag(kick) @ F^dag @ diag(free) @ F over the
    angle grid (the just-after-the-kick section of the driven system).

    kick[j] = exp(+i*(K*pi/N)*(j + 1/2 - N/2)^2) on the offset angle grid
    theta_j = 2*pi*(j + 1/2)/N, and free[j] = exp(-i*(pi/N)*(j + 1/2)^2)
    over the half-integer momentum grid.  The coefficients match the gate
    decomposition, so the result equals the ideal gate program up to one
    global phase (the decomposition drops the constant terms of the
    shifted quadratics).
    """
    if not 2 <= n_q <= ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle supports 2 <= n_q <= {ORACLE_MAX_QUBITS}, got {n_q}")
    params = MapParams(n_q, K)
    N = params.N
    j = np.arange(N, dtype=float)
    kick = np.exp(1j * params.kick_coefficient * (j - params.kick_shift) ** 2)
    free = np.exp(-1j * params.free_coefficient * (j + 0.5) ** 2)
    fourier = dft_matrix(n_q)
    m = fourier.conj().T @ (free[:, None] * fourier)  # F^dag @ diag(free) @ F
    return kick[:, None] * m


def program_unitary(program: GateProgram) -> np.ndarray:
    """Dense matrix of a gate program, one basis-state application per column."""
    if program.n_q > ORACLE_MAX_QUBITS:
        raise ValueError(f"dense expansion supports n_q <= {ORACLE_MAX_QUBITS}")
    N = 1 << program.n_q
    u = np.empty((N, N), dtype=np.complex128)
    amps = np.empty(N, dtype=np.complex128)
    bound = BoundProgram(program, amps)
    for col in range(N):
        amps[:] = 0.0
        amps[col] = 1.0
        bound.apply_ideal()
        u[:, col] = amps
    return u


def align_global_phase(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rescale by the unit phase matching reference at its largest entry.

    Global phase is physically irrelevant but numerically present; alignment
    anchors on the largest-magnitude reference entry so comparisons are not
    dominated by near-zero amplitudes.
    """
    values = np.asarray(values)
    reference = np.asarray(reference)
    idx = int(np.argmax(np.abs(reference)))
    v = values.reshape(-1)[idx]
    r = reference.reshape(-1)[idx]
    if v == 0:
        return values.copy()
    phase = r / v
    return values * (phase / abs(phase))
