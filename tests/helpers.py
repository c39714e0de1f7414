"""Shared test utilities: random and basis states, dense gate
constructions and the ergodic-register concurrence check."""

import math

import numpy as np

from sawtooth_echo import StateVector, concurrence


def random_state(n_q: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(1 << n_q) + 1j * rng.standard_normal(1 << n_q)
    return StateVector(n_q, amps / np.linalg.norm(amps))


def norm_drift(amps: np.ndarray) -> float:
    """|  ||amps||^2 - 1 |, the accumulated unitarity drift."""
    return abs(float(np.vdot(amps, amps).real) - 1.0)


def basis_state(n_q: int, index: int) -> StateVector:
    amps = np.zeros(1 << n_q, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_q, amps)


def diagonal_ergodic_eof_check(rho, offdiag_bound: float) -> bool:
    """True unless rho is near-diagonal-ergodic yet still shows concurrence.

    A register equilibrated by chaotic dynamics leaves qubits 1 and 2 in a
    nearly diagonal state with entries close to 1/4, which carries no
    pairwise entanglement; this encodes that as a checkable property.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    diag = np.diag(rho)
    off = rho - np.diag(diag)
    near_ergodic = (
        np.abs(off).max() <= offdiag_bound
        and np.abs(diag - 0.25).max() <= offdiag_bound
    )
    if not near_ergodic:
        return True
    return concurrence(rho) == 0.0


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def tilted_hadamard(nu: float) -> np.ndarray:
    """Hadamard with its axis tilted by nu in the x-z plane (unit axis dotted
    with the Pauli vector, hence Hermitian, unitary, and self-inverse)."""
    c = math.cos(0.25 * math.pi + nu)
    s = math.sin(0.25 * math.pi + nu)
    return np.array([[s, c], [c, -s]], dtype=np.complex128)


def dense_single_qubit(n_q: int, target: int, u: np.ndarray) -> np.ndarray:
    """kron(I, u, I) with qubit 1 as the most significant factor."""
    left = np.eye(1 << (target - 1))
    right = np.eye(1 << (n_q - target))
    return np.kron(np.kron(left, u), right)


def dense_controlled_phase(n_q: int, control: int, target: int, phase: float) -> np.ndarray:
    dim = 1 << n_q
    diag = np.ones(dim, dtype=complex)
    for j in range(dim):
        c_bit = (j >> (n_q - control)) & 1
        t_bit = (j >> (n_q - target)) & 1
        if c_bit and t_bit:
            diag[j] = np.exp(1j * phase)
    return np.diag(diag)


def dense_phase_shift(n_q: int, target: int, phase: float) -> np.ndarray:
    dim = 1 << n_q
    diag = np.ones(dim, dtype=complex)
    for j in range(dim):
        if (j >> (n_q - target)) & 1:
            diag[j] = np.exp(1j * phase)
    return np.diag(diag)
