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

A program compiles into two op kinds: each Hadamard, and one fused
diagonal for each maximal run of phase-type gates between Hadamards (a map
iteration has 4*n_q ops).  Each op has one kernel, a function of its
draws, that writes out of place into the other of two buffers.  A
diagonal's phase has one representation, its coefficients in the slots of
a high x low grid of bit features (see _compile_diagonal), with two ways
to evaluate it, and every diagonal ends in the same multiply by its factor
exp(i * phase).  A diagonal whose phase matrix fits _DENSE_PHASE_BYTES has
its phases evaluated by the bound program before the ops run: one matmul
per such op into one phase buffer, then one cos and one sin for all of
them into one factor buffer; a larger diagonal evaluates its own phases
and factor in a region of the same two buffers, so applying a program
allocates no table.  A program's inverse binds to the same buffers (see
BoundProgram).  Draws are consumed in program order from the caller's
generator, one uniform vector per application; the echo protocol passes
each realization's own stream (echo.realization_rng), so a fixed (master
seed, reversal time, realization) triple reproduces every amplitude
bit-for-bit.  The ideal program is the same ops with zero draws.
"""

import math
from functools import lru_cache, partial
from itertools import combinations, groupby

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .program import ControlledPhase, GateProgram, Hadamard, PhaseShift


#: Targets whose block stride L = 2 * 2**(n_q - t) floats is at most this
#: rotate through one (rows, 2L) @ kron(M^T, I_L) product; wider targets
#: through the batched M @ (blocks, 2, L) product.  The batched 2x2 matmul
#: pays per block, so it loses once blocks are short.  One application,
#: kron/batched in us (best of 3 x 15 interleaved rounds,
#: OPENBLAS_NUM_THREADS=1, a 2-CPU Intel Xeon host):
#:
#:     L   n_q = 4    5          6          8          10         12
#:     16  2.68/2.20  2.72/2.22  2.70/2.24  3.28/2.88  5.52/5.23  11.84/12.29
#:     8   2.37/2.08  2.50/2.23  2.48/2.48  2.97/3.49  3.96/6.96  8.05/20.74
#:     2   2.26/2.40  2.43/2.88  2.30/3.25  2.71/6.54  3.51/19.07 7.11/69.55
#:
#: so batched blocks of 16 floats are faster up to n_q = 10 and within
#: 0.5 us at 12, while kron wins from L = 8 once the register is large.
_KRON_MAX_STRIDE = 8

#: A fused diagonal whose phase matrix P (table entries x draws, float64)
#: takes at most this many bytes evaluates its phases as one P @ draws
#: matmul; a larger one keeps the factorized F_high @ C @ F_low^T.  The
#: choice is fixed by the op's window and gate count: in a map iteration
#: every diagonal is dense up to n_q = 8, the two full-register ones (free
#: rotation and kick) factorize from n_q = 9, and the QFT ladders are dense
#: up to a 10-qubit window at any n_q.  So the dense tables a map iteration
#: binds stop growing at n_q = 10.
_DENSE_PHASE_BYTES = 256 * 1024

#: amplitude registers a bound program and its inverse hold between them:
#: the buffer they evolve and the scratch buffer their ops write into
TASK_REGISTERS = 2

#: bytes a bound program and its inverse hold per amplitude: their
#: registers, 16 bytes each, and the float phase and complex factor table
#: (8 + 16 bytes per entry) that the factorized diagonals share, which spans
#: the whole register once the full-register diagonals of a map iteration
#: factorize (from n_q = 9); the dense tables stop growing at n_q = 10
TASK_BYTES_PER_AMPLITUDE = 16 * TASK_REGISTERS + 24


def _bind_hadamard(src, dst, n_q, target):
    """The tilted Hadamard on target as one real matmul from src into dst.

    Viewed as float64, the buffer is blocks (x0, x1) of L floats each, and
    the tilt-d rotation maps them to M(d) @ (x0, x1) with
    M(d) = [[s, c], [c, -s]], (c, s) = (cos, sin)(pi/4 + d).
    """
    stride = 2 << (n_q - target)
    src = src.view(np.float64)
    dst = dst.view(np.float64)
    rotation = np.empty((2, 2))
    entries = rotation.reshape(-1)

    def rotate(d):
        angle = 0.25 * math.pi + d[0]
        c = math.cos(angle)
        s = math.sin(angle)
        entries[:] = (s, c, c, -s)

    if stride > _KRON_MAX_STRIDE:
        blocks_src = src.reshape(-1, 2, stride)
        blocks_dst = dst.reshape(-1, 2, stride)

        def tilted(d):
            rotate(d)
            np.matmul(rotation, blocks_src, out=blocks_dst)

    else:
        # rows (x0 | x1) times kron(M^T, I_L) = kron(M, I_L): only the
        # diagonals of its four L x L blocks, 4L entries, are ever nonzero
        kron = np.zeros((2 * stride, 2 * stride))
        row, col = kron.strides
        diagonals = as_strided(kron, (2, 2, stride), (stride * row, stride * col, row + col))
        rotation_column = rotation[:, :, None]
        rows_src = src.reshape(-1, 2 * stride)
        rows_dst = dst.reshape(-1, 2 * stride)

        def tilted(d):
            rotate(d)
            diagonals[...] = rotation_column
            np.matmul(rows_src, kron, out=rows_dst)

    return tilted


@lru_cache(maxsize=None)
def _features(m):
    """Feature columns over the 2**m settings of m bits: each bit, the
    constant 1, and each product of two bits.  Returns the matrix and the
    column index of each monomial, a tuple of bit positions (bit 0 most
    significant; () is the constant)."""
    monomials = [(i,) for i in range(m)] + [()] + list(combinations(range(m), 2))
    bits = ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(float)
    features = np.column_stack([bits[:, list(mono)].prod(axis=1) for mono in monomials])
    features.setflags(write=False)
    return features, {mono: c for c, mono in enumerate(monomials)}


def _bind_multiply(src, dst, phase, factor, shape):
    """The multiply every diagonal op ends in: src times its factor table,
    a column over the window index, into dst."""
    view = src.reshape(shape)
    out = dst.reshape(shape)
    column = factor.reshape(-1, 1)
    return lambda d: np.multiply(view, column, out=out)


def _compile_diagonal(n_q, gates, phase_budget):
    """Compile a maximal run of phase-type gates into one diagonal op.

    With draws (d0, d1) a gate with qubits (controls..., target) adds
    d0 * prod(controls) + (phase + d1 - d0) * prod(qubits) to the phase of a
    basis state: a quadratic form in the basis bits, linear in the draws.
    The table spans the window of qubits the run touches, split into high
    and low bits.  Its phase is F_high @ C @ F_low^T, where F are the
    feature columns of each half (see _features) and C holds one
    coefficient per monomial the run sets, in that monomial's slot of the
    high x low feature grid: the ideal coefficients plus a linear map of the
    run's draws.

    Returns (bind, entries, phases), where entries = 2**width is the size
    of the table and bind(src, dst, phase, factor) binds the op to its
    source and destination buffers and to its phase and factor tables.  The
    op ends in one multiply by the factor exp(i * phase); the form has two
    ways to reach it.  When the phase matrix P (the grid's columns at the
    run's slots times the linear map) takes at most phase_budget bytes,
    phases is (P, ideal table), the columns times the map and times the
    ideal coefficients, and the bound program evaluates the factor.
    Otherwise phases is None and the op fills C from the draws on every
    application and evaluates F_high @ C @ F_low^T into phase and
    exp(i * phase) into factor itself, so no table-by-draws matrix is ever
    formed, and only C and the F_high @ C product are the op's own.
    """
    terms = []  # (qubits, target last; phase)
    for gate in gates:
        if isinstance(gate, PhaseShift):
            qubits = (gate.target,)
        elif isinstance(gate, ControlledPhase):
            qubits = (gate.control, gate.target)
        else:
            raise TypeError(f"unknown gate {gate!r}")
        terms.append((qubits, gate.phase))

    first = min(min(qubits) for qubits, _ in terms)
    last = max(max(qubits) for qubits, _ in terms)
    width = last - first + 1
    shape = (1 << (first - 1), 1 << width, 1 << (n_q - last))

    monomials = {}  # window-local monomial -> row of its coefficient in weights
    term_rows = []  # (row of prod(controls), row of prod(qubits))
    for qubits, _ in terms:
        local = [q - first for q in qubits]
        term_rows.append(
            (
                monomials.setdefault(tuple(sorted(local[:-1])), len(monomials)),
                monomials.setdefault(tuple(sorted(local)), len(monomials)),
            )
        )
    weights = np.zeros((len(monomials), 2 * len(terms)))
    offsets = np.zeros(len(monomials))  # the ideal coefficients
    for g, ((controls, both), (_, phase)) in enumerate(zip(term_rows, terms)):
        weights[controls, 2 * g] += 1.0
        weights[both, 2 * g] -= 1.0
        weights[both, 2 * g + 1] += 1.0
        # reduced into (-pi, pi] through the exact unit factor, so that a
        # table entry's summed phase is as accurate as the product of its
        # gates' factors would be
        offsets[both] += math.atan2(math.sin(phase), math.cos(phase))

    high = width // 2
    f_high, high_column = _features(high)
    f_low, low_column = _features(width - high)
    slots = np.array(
        [
            high_column[tuple(i for i in mono if i < high)] * f_low.shape[1]
            + low_column[tuple(i - high for i in mono if i >= high)]
            for mono in monomials
        ]
    )  # the flat cell of C that each coefficient fills

    if (8 << width) * weights.shape[1] <= phase_budget:  # the bytes of P
        high_slots, low_slots = np.divmod(slots, f_low.shape[1])
        # F_high (x) F_low at the slots, C-contiguous: a strided operand
        # sends both products to other BLAS kernels, which round differently
        grid = f_high[:, None, high_slots] * f_low[None, :, low_slots]
        columns = np.ascontiguousarray(grid.reshape(1 << width, -1))
        phases = (columns @ weights, columns @ offsets)
        for table in phases:
            table.setflags(write=False)
        return partial(_bind_multiply, shape=shape), 1 << width, phases

    f_low_t = f_low.T.copy()
    for table in (f_low_t, weights, slots, offsets):
        table.setflags(write=False)

    def bind(src, dst, phase, factor):
        multiply = _bind_multiply(src, dst, phase, factor, shape)
        coefficients = np.zeros((f_high.shape[1], f_low.shape[1]))
        flat = coefficients.reshape(-1)
        high_part = np.empty((f_high.shape[0], f_low.shape[1]))  # F_high @ C
        table = phase.reshape(f_high.shape[0], f_low_t.shape[1])

        def diagonal(d):  # dst = src * exp(i * F_high @ C @ F_low^T), as a column
            flat[slots] = offsets + weights @ d
            np.matmul(f_high, coefficients, out=high_part)
            np.matmul(high_part, f_low_t, out=table)
            np.cos(phase, out=factor.real)
            np.sin(phase, out=factor.imag)
            multiply(d)

        return diagonal

    return bind, 1 << width, None


@lru_cache(maxsize=32)
def _compile(program, phase_budget):
    """The buffer-independent form of a program under a dense-phase budget.

    Returns (ops, phase_ops, ideal, entries):
    * ops: per op (bind, draws, table), where draws is the op's slice of the
      draw vector and bind takes the op's (source, destination) buffers,
      plus its slice table of the phase and factor buffers when table is
      not None (a diagonal);
    * phase_ops: per dense diagonal (P, draws, table);
    * ideal: the dense diagonals' ideal phase tables, end to end;
    * entries: the length of the phase and factor buffers.  The dense
      tables fill the first ideal.size entries; the factorized diagonals
      run one at a time, so each takes the start of the region after them,
      which is as long as the largest factorized table.

    Cached, because every echo task binds the same forward and backward
    programs to fresh buffers.
    """
    ops = []
    phase_ops = []
    ideal = []
    factorized = []  # (index in ops, table size) of each factorized diagonal
    draws = entries = shared = 0
    for is_hadamard, run in groupby(program.gates, lambda g: isinstance(g, Hadamard)):
        if is_hadamard:
            for g in run:
                bind = partial(_bind_hadamard, n_q=program.n_q, target=g.target)
                ops.append((bind, slice(draws, draws + 1), None))
                draws += 1
            continue
        run = tuple(run)
        span = slice(draws, draws + 2 * len(run))
        draws = span.stop
        bind, size, phases = _compile_diagonal(program.n_q, run, phase_budget)
        if phases is None:
            factorized.append((len(ops), size))
            shared = max(shared, size)
            ops.append((bind, span, None))
            continue
        matrix, table = phases
        rows = slice(entries, entries + table.size)
        entries = rows.stop
        ops.append((bind, span, rows))
        phase_ops.append((matrix, span, rows))
        ideal.append(table)
    for i, size in factorized:
        ops[i] = (*ops[i][:2], slice(entries, entries + size))
    ideal = np.concatenate([np.zeros(0), *ideal])
    ideal.setflags(write=False)
    return tuple(ops), tuple(phase_ops), ideal, entries + shared


class BoundProgram:
    """A program compiled into ops bound to one amplitude buffer.

    Each Hadamard is one op, a tilted Hadamard computed as one real matmul;
    each maximal run of phase shifts and controlled phases between
    Hadamards fuses into one diagonal op (see _compile_diagonal).  Each op
    binds one kernel, a function of its slice of the draws.  Ops write out
    of place, so binding allocates a scratch buffer beside amps: op i reads
    one of the two and writes the other, starting from amps, and a program
    with an odd op count copies its result back once.

    A diagonal whose phase matrix fits _DENSE_PHASE_BYTES is dense: binding
    gives it a slice of one phase buffer and of one complex factor buffer,
    and apply() fills both before the ops run (one matmul per dense op, then
    one add of the ideal tables, one cos and one sin), so the op itself is
    one multiply.  The factorized diagonals share one region after the
    dense slices, as long as the largest of their tables, and fill it
    themselves; so no op allocates a table when it runs.  The two buffers
    hold 24 bytes per entry: the dense part follows the dense ops the budget
    admits, not the register, and the shared part is the largest factorized
    window (the whole register from n_q = 9 in a map iteration).  They hold
    nothing between applications.  inverse() binds to the same amps,
    scratch, phase and factor buffers.

    Compilation is done once per program and binding takes every view once,
    so repeated applications (thousands per echo experiment) do only
    arithmetic.  amps must stay the C-contiguous complex128 array the views
    were taken from.
    """

    __slots__ = (
        "amps", "draw_count", "_program", "_buffers", "_ops", "_phase_ops", "_ideal", "_dense",
        "_result",
    )

    def __init__(self, program: GateProgram, amps: np.ndarray):
        if (
            amps.shape != (1 << program.n_q,)
            or amps.dtype != np.complex128
            or not amps.flags.c_contiguous
        ):
            raise ValueError("buffer must be a contiguous complex128 vector of length 2**n_q")
        entries = _compile(program, _DENSE_PHASE_BYTES)[3]
        tables = (np.empty(entries), np.empty(entries, dtype=np.complex128))
        self._bind(program, (amps, np.empty_like(amps)) + tables)

    def _bind(self, program, buffers):
        ops, phase_ops, self._ideal, _ = _compile(program, _DENSE_PHASE_BYTES)
        self.amps = buffers[0]
        self._program = program
        self._buffers = buffers  # (amps, scratch, phases, factors)
        phases, factors = buffers[2:]
        self._ops = []
        for i, (bind, draws, table) in enumerate(ops):
            src, dst = buffers[i % 2], buffers[1 - i % 2]
            tables = () if table is None else (phases[table], factors[table])
            self._ops.append((bind(src, dst, *tables), draws))
        self._phase_ops = [(matrix, draws, phases[table]) for matrix, draws, table in phase_ops]
        self._dense = (phases[: self._ideal.size], factors[: self._ideal.size])
        self.draw_count = ops[-1][1].stop if ops else 0
        self._result = buffers[len(ops) % 2]

    def inverse(self) -> "BoundProgram":
        """The inverse program bound to this program's buffers, so the two
        must not run at the same time."""
        inverse = object.__new__(BoundProgram)
        inverse._bind(self._program.inverse(), self._buffers)
        return inverse

    def mirror(self, draws: np.ndarray) -> np.ndarray:
        """The draws under which inverse().apply undoes apply(draws) exactly:
        gates in reverse order, each gate's draws kept in order, and the
        phase-type draws negated (a tilted Hadamard is its own inverse at the
        same draw)."""
        gates = []  # (draw indices, sign) of each gate
        start = 0
        for gate in self._program.gates:
            count = 1 if isinstance(gate, Hadamard) else 2
            gates.append((range(start, start + count), 1.0 if count == 1 else -1.0))
            start += count
        index = [i for span, _ in reversed(gates) for i in span]
        sign = [s for span, s in reversed(gates) for _ in span]
        return draws[index] * sign

    def apply(self, draws: np.ndarray) -> None:
        """One application at the given draws, draw_count of them in program
        order: one per Hadamard tilt, (d0, d1) per phase-type gate."""
        if draws.shape != (self.draw_count,):
            raise ValueError(f"expected {self.draw_count} draws, got shape {draws.shape}")
        phases, factors = self._dense
        for matrix, span, phase in self._phase_ops:
            np.matmul(matrix, draws[span], out=phase)
        np.add(phases, self._ideal, out=phases)
        np.cos(phases, out=factors.real)
        np.sin(phases, out=factors.imag)
        for kernel, span in self._ops:
            kernel(draws[span])
        if self._result is not self.amps:
            np.copyto(self.amps, self._result)

    def apply_ideal(self) -> None:
        """The program without noise: every op at zero draws."""
        self.apply(np.zeros(self.draw_count))

    def apply_noisy(self, rng: np.random.Generator, epsilon: float) -> None:
        """One application with draws uniform in [-epsilon, epsilon]; at
        epsilon = 0 they are zeros (rng still advances)."""
        self.apply(rng.uniform(-epsilon, epsilon, self.draw_count))
