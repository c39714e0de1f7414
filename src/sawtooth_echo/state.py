"""State-vector register and its two-qubit reductions.

Basis convention: qubit 1 is the most significant bit of the basis index,
so |a1 a2 ... an> sits at index a1*2**(n-1) + a2*2**(n-2) + ... + an.
With that ordering the reduced density matrix of qubits 1 and 2 is a single
reshape-and-matmul over contiguous blocks of N/4 amplitudes.

All amplitudes are complex128; the engine's kernels mutate the buffer in
place and are single-writer.  Read-only operations (fidelity, partial trace)
are pure.  The echo path works on the bare amplitude array; StateVector
wraps one for initial_state, verify and the benchmark's identity check.
"""

import numpy as np


class StateVector:
    """Amplitudes of an n_q-qubit register, mutated in place by the engine."""

    __slots__ = ("n_q", "amps")

    def __init__(self, n_q: int, amps: np.ndarray):
        if n_q < 1:
            raise ValueError(f"need at least one qubit, got n_q={n_q}")
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (1 << n_q,):
            raise ValueError(
                f"expected {1 << n_q} amplitudes for n_q={n_q}, got shape {amps.shape}"
            )
        self.n_q = n_q
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.n_q, self.amps.copy())

    def norm_error(self) -> float:
        """|  ||amps||^2 - 1 |, the accumulated unitarity drift."""
        return abs(float(np.vdot(self.amps, self.amps).real) - 1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateVector(n_q={self.n_q})"


def partial_trace_12(state: StateVector) -> np.ndarray:
    """Reduced 4x4 density matrix of qubits 1 and 2.

    rho[a, b] = sum_r psi[a*N/4 + r] * conj(psi[b*N/4 + r]); for n_q = 2 this
    degenerates to the pure-state outer product.
    """
    if state.n_q < 2:
        raise ValueError("partial trace over qubits 3..n_q needs n_q >= 2")
    blocks = state.amps.reshape(4, -1)
    return blocks @ blocks.conj().T


def fidelity(state: StateVector, reference: StateVector) -> float:
    """Squared overlap |<reference|state>|^2."""
    if state.n_q != reference.n_q:
        raise ValueError(
            f"qubit counts differ: {state.n_q} vs {reference.n_q}"
        )
    return float(abs(np.vdot(reference.amps, state.amps)) ** 2)
