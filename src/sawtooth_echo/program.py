"""Gate programs realizing one sawtooth-map iteration and its inverse.

The register stores the wave function over the angle grid.  One forward
iteration is: QFT to the momentum basis -> free-rotation phases (quadratic
in the momentum index) -> inverse QFT -> kick phases (quadratic in the
angle index, applied directly to the stored amplitudes); as a matrix this
is diag(kick) @ F^dag @ diag(free) @ F.  This samples the periodically
kicked system just after each kick; the kick-first section is the same map
conjugated by the kick factor.  Both diagonal factors decompose exactly
into one phase shift per qubit plus one controlled phase per qubit pair by
expanding the basis index in bits; the dropped constant term is a global
phase.  The QFT circuit leaves its output on reversed qubits; that
reversal is a relabelling of qubits, never gates, so it is not applied at
all: the map writes the free rotation on the reversed qubits instead.

Both grids carry a half-cell offset: angles theta_j = 2*pi*(j + 1/2)/N and
momenta n_j = j + 1/2.  On the integer grids the K=5 map is a resonant
quantized cat map on N = 2**n_q levels -- exactly periodic with period
3N/8 and strong partial revivals -- which destroys the ergodic behavior
the map exists to produce; the half-cell offsets break that arithmetic
degeneracy (verified against the ergodic entropy plateau and the absence
of fidelity revivals out to t = 300 for n_q = 4..8).

Gate count per iteration: 2*n_q Hadamards, 2*n_q phase shifts, and
2*n_q*(n_q-1) controlled phases, i.e. 2*n_q**2 + 2*n_q noisy gates.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MapParams:
    """Operating point of the quantum sawtooth map.

    K is the dimensionless chaos parameter (K = k*T by construction); the
    register size fixes N = 2**n_q levels, T = 2*pi/N and k = K/T.
    """

    n_q: int
    K: float = 5.0

    def __post_init__(self):
        if self.n_q < 2:
            raise ValueError(f"map needs n_q >= 2, got {self.n_q}")

    @property
    def N(self) -> int:
        return 1 << self.n_q

    @property
    def T(self) -> float:
        return TWO_PI / self.N

    @property
    def k(self) -> float:
        return self.K / self.T

    @property
    def kick_coefficient(self) -> float:
        """Kick phase is +coef*(j - kick_shift)^2 with coef = K*pi/N."""
        return self.K * math.pi / self.N

    @property
    def kick_shift(self) -> float:
        """theta_j - pi = (2*pi/N)*(j - shift) on the offset grid
        theta_j = 2*pi*(j + 1/2)/N, so shift = N/2 - 1/2."""
        return self.N / 2.0 - 0.5

    @property
    def free_coefficient(self) -> float:
        """Free-rotation phase is -coef*(j + 1/2)^2 with coef = pi/N over
        the half-integer momentum grid."""
        return math.pi / self.N


@dataclass(frozen=True)
class Hadamard:
    target: int

    def inverse(self) -> "Hadamard":
        return self


@dataclass(frozen=True)
class ControlledPhase:
    control: int
    target: int
    phase: float

    def inverse(self) -> "ControlledPhase":
        return ControlledPhase(self.control, self.target, -self.phase)


@dataclass(frozen=True)
class PhaseShift:
    target: int
    phase: float

    def inverse(self) -> "PhaseShift":
        return PhaseShift(self.target, -self.phase)


@dataclass(frozen=True)
class GateProgram:
    """Ordered gate sequence; immutable and shareable across threads."""

    n_q: int
    gates: tuple

    def __post_init__(self):
        for gate in self.gates:
            targets = (
                (gate.control, gate.target)
                if isinstance(gate, ControlledPhase)
                else (gate.target,)
            )
            for q in targets:
                if not 1 <= q <= self.n_q:
                    raise ValueError(f"qubit index {q} out of range 1..{self.n_q}")
            if isinstance(gate, ControlledPhase) and gate.control == gate.target:
                raise ValueError("controlled phase needs distinct qubits")

    def __add__(self, other: "GateProgram") -> "GateProgram":
        if self.n_q != other.n_q:
            raise ValueError("cannot concatenate programs on different registers")
        return GateProgram(self.n_q, self.gates + other.gates)

    def inverse(self) -> "GateProgram":
        """Reversed gate order with every gate inverted."""
        return GateProgram(self.n_q, tuple(g.inverse() for g in reversed(self.gates)))


def _quadratic_gates(n_q, s, shift):
    weights = [float(1 << (n_q - i)) for i in range(1, n_q + 1)]
    gates = []
    for i in range(1, n_q + 1):
        w = weights[i - 1]
        gates.append(PhaseShift(i, s * (w * w - 2.0 * shift * w)))
    for i in range(1, n_q + 1):
        for l in range(i + 1, n_q + 1):
            gates.append(ControlledPhase(i, l, s * 2.0 * weights[i - 1] * weights[l - 1]))
    return tuple(gates)


def quadratic_phase_program(n_q: int, coefficient: float, shift: float = 0.0) -> GateProgram:
    """Diagonal unitary exp(i*coefficient*(j - shift)^2) on basis index j.

    Expanding j = sum_i b_i 2^(n_q-i) turns the quadratic into per-qubit
    linear terms and per-pair cross terms; the constant shift^2 term is
    dropped as a global phase.  The kick factor uses shift = N/2 - 1/2,
    the free rotation shift = -1/2.
    """
    if n_q < 1:
        raise ValueError(f"need n_q >= 1, got {n_q}")
    return GateProgram(n_q, _quadratic_gates(n_q, coefficient, shift))


def free_rotation_program(n_q: int) -> GateProgram:
    """Free-rotation diagonal exp(-i*(pi/N)*(j + 1/2)^2) over the
    half-integer momentum grid (the generic quadratic with shift -1/2)."""
    return quadratic_phase_program(n_q, -MapParams(n_q).free_coefficient, shift=-0.5)


def qft_program(n_q: int) -> GateProgram:
    """Quantum Fourier transform with kernel exp(+2*pi*i*j*k/N)/sqrt(N),
    without its output bit reversal.

    Standard circuit: per target qubit one Hadamard followed by controlled
    phases pi/2^d from each qubit d places below.  Its matrix is the DFT
    with its rows in bit-reversed order (qubit q of the output holds bit
    n_q + 1 - q of the momentum index).  Its .inverse() runs the reversed
    sequence with negated phases.
    """
    if n_q < 1:
        raise ValueError(f"need n_q >= 1, got {n_q}")
    gates = []
    for m in range(1, n_q + 1):
        gates.append(Hadamard(m))
        for d in range(1, n_q - m + 1):
            gates.append(ControlledPhase(m + d, m, math.pi / (1 << d)))
    return GateProgram(n_q, tuple(gates))


@lru_cache(maxsize=16)
def map_program(params: MapParams) -> GateProgram:
    """One forward map iteration as a gate program; .inverse() is the exact
    gate-by-gate backward iteration.  Cached, since a program is immutable:
    the memory rule builds every config's map before any task runs, and the
    tasks of this process, or of a pool worker forked from it, bind it.

    The free rotation is written on qubit n_q + 1 - q, the QFT ladder's
    output order; with R the reversal, R @ diag(free) @ R is that same
    diagonal on relabelled qubits, so the matrix is unchanged.
    """
    n_q = params.n_q
    kick = quadratic_phase_program(n_q, params.kick_coefficient, shift=params.kick_shift)
    fourier = qft_program(n_q)
    # relabelled in place, not reordered: the gate order fixes the compiled
    # diagonal's coefficient cells and draw columns, and so the noisy output
    free = tuple(
        ControlledPhase(n_q + 1 - g.control, n_q + 1 - g.target, g.phase)
        if isinstance(g, ControlledPhase)
        else PhaseShift(n_q + 1 - g.target, g.phase)
        for g in free_rotation_program(n_q).gates
    )
    return fourier + GateProgram(n_q, free) + fourier.inverse() + kick


def gates_per_iteration(n_q: int) -> int:
    """Noisy gates in one map iteration: 2*n_q**2 + 2*n_q."""
    return 2 * n_q * n_q + 2 * n_q
