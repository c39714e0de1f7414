"""Program application with per-gate unitary noise.

Noise model (all errors unitary, uncorrelated between gates, redrawn on
every application including backward evolution):

* Hadamard: the rotation axis (1/sqrt(2), 0, 1/sqrt(2)) is tilted within
  the x-z plane by an angle drawn uniformly from [-eps, eps].
* Phase shift: the noisy primitive is diag(e^(i*d0), e^(i*(phase + d1)))
  with independent uniform d0, d1 in [-eps, eps] -- random phases on both
  diagonal entries.
* Controlled phase: the same noisy phase-shift primitive applied to the
  target, conditioned on the control qubit; the control-0 block stays
  untouched.
* Bit reversals are index bookkeeping and stay noise-free.

A program compiles into alternating ops: each Hadamard, and one fused
diagonal for each maximal run of phase-type gates and bit reversals between
Hadamards (a map iteration has 4*n_q ops), and one permutation after a
run with an odd number of bit reversals.  Each op has one kernel, a
function of its draws.  Draws are consumed in program order from the
caller's generator, one uniform vector per application; the echo protocol
passes each realization's own stream (echo.realization_rng), so a fixed
(master seed, reversal time, realization) triple reproduces every
amplitude bit-for-bit.  The ideal program is the same ops with zero draws.
"""

import math
from functools import lru_cache, partial
from itertools import combinations, groupby

import numpy as np

from .program import BitReversal, ControlledPhase, GateProgram, Hadamard, PhaseShift
from .state import StateVector, bit_reversal_permutation


def tilted_hadamard(nu: float) -> np.ndarray:
    """Hadamard with its axis tilted by nu in the x-z plane (unit axis dotted
    with the Pauli vector, hence Hermitian, unitary, and self-inverse)."""
    c = math.cos(0.25 * math.pi + nu)
    s = math.sin(0.25 * math.pi + nu)
    return np.array([[s, c], [c, -s]], dtype=np.complex128)


def _bind_hadamard(amps, n_q, target):
    v = amps.reshape(-1, 2, 1 << (n_q - target))
    x0 = v[:, 0, :]
    x1 = v[:, 1, :]
    keep = np.empty_like(x0)
    work = np.empty_like(x0)

    def tilted(d):
        # axis tilted by d[0]: (x0, x1) -> (s*x0 + c*x1, c*x0 - s*x1)
        angle = 0.25 * math.pi + d[0]
        c = math.cos(angle)
        s = math.sin(angle)
        np.multiply(x0, c, out=keep)
        np.multiply(x0, s, out=x0)
        np.multiply(x1, c, out=work)
        np.add(x0, work, out=x0)
        np.multiply(x1, s, out=x1)
        np.subtract(keep, x1, out=x1)

    return tilted, 1


@lru_cache(maxsize=None)
def _features(m):
    """Feature columns over the 2**m settings of m bits (bit 0 most
    significant): each bit, the constant 1, and each product of two bits.
    Returns the matrix and the column index of each monomial."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    monomials = [(i,) for i in range(m)] + [()] + list(combinations(range(m), 2))
    columns = [bits[:, list(mono)].prod(axis=1) for mono in monomials]
    features = np.column_stack(columns).astype(float)
    features.setflags(write=False)
    return features, {mono: c for c, mono in enumerate(monomials)}


def _compile_diagonal(n_q, gates):
    """Compile a maximal run of phase-type gates and bit reversals into at
    most two ops and return their binders: one diagonal (none when the run
    holds no phase-type gate), then one permutation when the run holds an
    odd number of bit reversals.

    A bit reversal inside the run relabels qubit q as n_q + 1 - q for the
    gates after it (BR . D . BR is diagonal), so the run is one diagonal
    followed by the reversals' net permutation.
    With draws (d0, d1) a gate with qubits (controls..., target) adds
    d0 * prod(controls) + (phase + d1 - d0) * prod(qubits) to the phase of a
    basis state: a quadratic form in the basis bits, linear in the draws.

    The table spans the window of qubits the run touches.  Its phase is
    evaluated over a high/low split of the window index as
    F_high @ C @ F_low^T, where the coefficient matrix C is the ideal
    coefficients plus a linear map of the run's draws, so no table-by-draws
    matrix is ever formed.
    """
    reversed_ = False
    terms = []  # (qubits in the run's input frame, target last; phase)
    for gate in gates:
        if isinstance(gate, BitReversal):
            reversed_ = not reversed_
            continue
        if isinstance(gate, PhaseShift):
            qubits = (gate.target,)
        elif isinstance(gate, ControlledPhase):
            qubits = (gate.control, gate.target)
        else:
            raise TypeError(f"unknown gate {gate!r}")
        if reversed_:
            qubits = tuple(n_q + 1 - q for q in qubits)
        terms.append((qubits, gate.phase))
    permutation = [partial(_bind_permutation, n_q=n_q)] if reversed_ else []
    if not terms:
        return permutation

    first = min(min(qubits) for qubits, _ in terms)
    last = max(max(qubits) for qubits, _ in terms)
    width = last - first + 1
    high = width // 2
    f_high, high_column = _features(high)
    f_low, low_column = _features(width - high)
    f_low_t = f_low.T.copy()

    def cell(monomial):  # flat index of a monomial's coefficient in C
        row = high_column[tuple(i for i in monomial if i < high)]
        col = low_column[tuple(i - high for i in monomial if i >= high)]
        return row * f_low.shape[1] + col

    cells = {}  # cell of C -> slot of a coefficient the run sets
    term_slots = []  # (slot of prod(controls), slot of prod(qubits))
    for qubits, _ in terms:
        local = [q - first for q in qubits]
        term_slots.append(
            (
                cells.setdefault(cell(sorted(local[:-1])), len(cells)),
                cells.setdefault(cell(sorted(local)), len(cells)),
            )
        )
    weights = np.zeros((len(cells), 2 * len(terms)))
    offsets = np.zeros(len(cells))  # the ideal coefficients
    for g, ((controls, both), (_, phase)) in enumerate(zip(term_slots, terms)):
        weights[controls, 2 * g] += 1.0
        weights[both, 2 * g] -= 1.0
        weights[both, 2 * g + 1] += 1.0
        # reduced into (-pi, pi] through the exact unit factor, so that a
        # table entry's summed phase is as accurate as the product of its
        # gates' factors would be
        offsets[both] += math.atan2(math.sin(phase), math.cos(phase))
    slots = np.array(list(cells))
    for table in (f_low_t, weights, slots, offsets):
        table.setflags(write=False)

    def bind(amps):
        view = amps.reshape(1 << (first - 1), 1 << width, 1 << (n_q - last))
        coefficients = np.zeros((f_high.shape[1], f_low.shape[1]))
        flat = coefficients.reshape(-1)

        def diagonal(d):  # view *= exp(i * F_high @ C @ F_low^T), as a column
            flat[slots] = offsets + weights @ d
            phase = f_high @ coefficients @ f_low_t
            factor = np.empty(phase.shape, dtype=np.complex128)
            np.cos(phase, out=factor.real)
            np.sin(phase, out=factor.imag)
            np.multiply(view, factor.reshape(-1, 1), out=view)

        return diagonal, 2 * len(terms)

    return [bind] + permutation


def _bind_permutation(amps, n_q):
    """The net bit reversal of a run with an odd number of them; draws none."""
    perm = bit_reversal_permutation(n_q)

    def permute(d):
        amps[:] = amps[perm]

    return permute, 0


@lru_cache(maxsize=32)
def _compile(program):
    """The buffer-independent form of a program: one binder per op.

    Cached, because every echo task binds the same forward and backward
    programs to a fresh buffer.
    """
    binders = []
    for is_hadamard, run in groupby(program.gates, lambda g: isinstance(g, Hadamard)):
        if is_hadamard:
            binders += [partial(_bind_hadamard, n_q=program.n_q, target=g.target) for g in run]
        else:
            binders += _compile_diagonal(program.n_q, tuple(run))
    return tuple(binders)


class BoundProgram:
    """A program compiled into ops bound to one amplitude buffer.

    Each Hadamard is one op; each maximal run of phase shifts, controlled
    phases and bit reversals between Hadamards fuses into one diagonal op
    (see _compile_diagonal).  Each op binds one kernel, a function of its
    slice of the draws.  Compilation is done once per program and binding
    takes every view once, so repeated applications (thousands per echo
    experiment) do only arithmetic.  The buffer must be the C-contiguous
    complex128 array the views were taken from.
    """

    __slots__ = ("amps", "draw_count", "_ops")

    def __init__(self, program: GateProgram, amps: np.ndarray):
        if amps.shape != (1 << program.n_q,) or amps.dtype != np.complex128:
            raise ValueError("buffer must be a complex128 vector of length 2**n_q")
        self.amps = amps
        self._ops = []
        start = 0
        for bind in _compile(program):
            kernel, count = bind(amps)
            self._ops.append((kernel, start, start + count))
            start += count
        self.draw_count = start

    def apply_ideal(self) -> None:
        """The program without noise: every op at zero draws."""
        self._apply(np.zeros(self.draw_count))

    def apply_noisy(self, rng: np.random.Generator, epsilon: float) -> None:
        """One application with draws uniform in [-epsilon, epsilon]; at
        epsilon = 0 they are zeros (rng still advances)."""
        self._apply(rng.uniform(-epsilon, epsilon, self.draw_count))

    def _apply(self, draws: np.ndarray) -> None:
        for kernel, start, stop in self._ops:
            kernel(draws[start:stop])


def apply_program(program: GateProgram, state: StateVector) -> StateVector:
    """Apply the ideal program (zero draws) in place."""
    if program.n_q != state.n_q:
        raise ValueError("program and state have different qubit counts")
    BoundProgram(program, state.amps).apply_ideal()
    return state

