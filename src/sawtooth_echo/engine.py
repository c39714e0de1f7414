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

A program compiles into two op kinds: each Hadamard, and one fused diagonal
for each maximal run of phase-type gates between Hadamards (a map iteration
has 4*n_q ops).  Each op writes out of place into the other of two buffers.
A diagonal's phase has one representation, its coefficients in the slots of
a high x low grid of bit features (see _compile_diagonal), with two ways to
evaluate it, and every diagonal ends in the same multiply by its factor
exp(i * phase).  The ops read one row of tables, which a stage fills for
one or more applications at once; the larger diagonals build their factor
when they run, in one shared region, from high, cross and low factors (see
BoundProgram).  Draws are consumed in program order: a block of
applications draws one uniform (rows, draw_count) matrix from the caller's
generator, which is bit for bit the rows drawn one vector at a time.  The
echo protocol stages each half-echo from its realization's own stream
(echo.realization_rng), so a fixed (master seed, reversal time,
realization) triple reproduces every amplitude bit-for-bit.  The ideal
program is the same ops with zero draws.
"""

import math
from functools import lru_cache, partial
from itertools import combinations, groupby
from typing import NamedTuple

import numpy as np

from .program import ControlledPhase, GateProgram, Hadamard, PhaseShift


#: Targets whose block stride L = 2 * 2**(n_q - t) floats is at most this
#: rotate through one (rows, 2L) @ kron(M^T, I_L) product; wider targets
#: through the batched M @ (blocks, 2, L) product.  The batched 2x2 matmul
#: pays per block, so it loses once blocks are short.  One prebound matmul,
#: kron/batched in us (best of 3 x 15 interleaved rounds,
#: OPENBLAS_NUM_THREADS=1, a 2-CPU Intel Xeon host):
#:
#:     L   n_q = 4    5          6          8          10         12
#:     16  1.51/1.50  1.65/1.68  1.74/1.87  2.43/2.98  4.27/5.01  11.84/14.44
#:     8   1.58/1.69  1.62/1.83  1.65/2.21  2.06/3.75  3.26/10.16  7.35/26.72
#:     4   1.56/1.84  1.56/2.16  1.67/2.68  1.91/5.57  2.99/16.60  5.60/52.98
#:     2   1.51/2.18  1.58/2.68  1.63/3.68  2.03/9.60  3.18/28.69  7.11/108.18
#:
#: Kron also pays one fill of its tables per stride in the bound program's
#: stage, 0.9-1.5 us for a map iteration's two tables of one stride.  So
#: kron wins at L <= 8 for every n_q, while at L = 16 it and its share of
#: the fill only tie with batched at n_q = 10 and win at 12, by about
#: 0.3% of an iteration.
_KRON_MAX_STRIDE = 8

#: A fused diagonal whose phase matrix P (table entries x draws, float64)
#: takes at most this many bytes evaluates its phases as one P @ draws
#: matmul; a larger one builds its factor from its coefficients C (see
#: _compile_diagonal).  The choice is fixed by the op's window and gate
#: count: in a map iteration every diagonal is dense up to n_q = 8, the two
#: full-register ones (free rotation and kick) factorize from n_q = 9, and
#: the QFT ladders are dense up to a 10-qubit window at any n_q.  So the
#: dense tables a map iteration binds stop growing at n_q = 10.
_DENSE_PHASE_BYTES = 256 * 1024

#: bytes of the staged rows a bound program and its inverse hold (see
#: BoundProgram): the rows of the tables its ops read, with the draws,
#: gathered draws and phases a stage evaluates them from.  Their capacity is
#: as many rows as fit, at least one: 21 at n_q = 5, 14 at 6, 5 at 8, 4 at 9,
#: 2 at n_q = 10..16 and 1 from 17, where the block has no rows and every
#: application stages into the row the ops read.  From n_q = 10 a row's cos
#: and sin dominate and staging more rows at once saves nothing.  Fixed, so
#: the staging never depends on the processes or on t_r.
_STAGE_BYTES = 256 * 1024

#: amplitude registers a bound program and its inverse hold between them:
#: the buffer they evolve and the scratch buffer their ops write into
TASK_REGISTERS = 2

#: bytes a bound program and its inverse hold per amplitude: their
#: registers, 16 bytes each, and the complex factor region (16 bytes per
#: entry) the factorized diagonals share, which spans the register once a
#: map iteration's full-register diagonals factorize (from n_q = 9).  The
#: staging is counted apart (staged_block); its rows stop growing at
#: n_q = 10.
TASK_BYTES_PER_AMPLITUDE = 16 * TASK_REGISTERS + 16


def _bind_tilt(src, dst, tables, stride, row, kron):
    """A tilted Hadamard as one prebound real matmul from src into dst.

    Viewed as float64, the buffer is blocks (x0, x1) of L = stride floats
    each, and the tilt-d rotation maps them to M(d) @ (x0, x1) with
    M(d) = [[s, c], [c, -s]], (c, s) = (cos, sin)(pi/4 + d): row `row` of
    the stage's rotation table.  With kron, the rows (x0 | x1) instead
    multiply kron(M^T, I_L) = kron(M, I_L), which the stage fills from
    that row.
    """
    src = src.view(np.float64)
    dst = dst.view(np.float64)
    if kron:
        rows = (-1, 2 * stride)
        return partial(np.matmul, src.reshape(rows), tables.krons[row], dst.reshape(rows))
    blocks = (-1, 2, stride)
    return partial(np.matmul, tables.rotations[row], src.reshape(blocks), dst.reshape(blocks))


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


def _multiply(src, dst, factors, shape):
    """The multiply every diagonal op ends in, as one prebound call: src
    times factors, a column over the window index, into dst; 1-D, with no
    broadcast, when the window is the register."""
    shape, column = ((-1,), -1) if shape[0] == shape[2] == 1 else (shape, (-1, 1))
    return partial(np.multiply, src.reshape(shape), factors.reshape(column), dst.reshape(shape))


def _bind_dense(src, dst, tables, shape, table):
    """A dense diagonal op: the multiply by its slice of the row's factors."""
    return _multiply(src, dst, tables.factors[table], shape)


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

    Returns (shape, phases, bind), shape being the (outer, 2**width,
    inner) view of the register the op multiplies by its factor
    exp(i * phase).  When the phase matrix P (the grid's columns at the
    run's slots times the linear map) takes at most phase_budget bytes,
    phases is (P, ideal table) and bind is None: the bound program's stage
    evaluates the factor.  Otherwise phases is None and bind(src, dst,
    tables, table, span) binds the op's own kernel, which fills C from its
    draws in the row and builds the factor in its slice of the shared
    region, with no phase per entry.  A monomial has at most two bits, so
    C's rows of high pairs hold only their low-constant cell, and

        phase(high bits h, low bits l) = sum_j h_j Y[j](l) + B(l) + A(h),

    with [Y; B] = C[:high + 1] @ F_low^T and A = F_high's pair columns @
    those cells.  One cos and one sin cover the (high + 1) * 2**low +
    2**high angles (512 at width 12, not 4096).  Row 0 of the table is
    exp(i * B); each high bit j doubles the rows filled, times
    exp(i * Y[j]) on contiguous blocks (column blocks would make numpy
    buffer all three operands), and a multiply by exp(i * A) completes it,
    all prebound onto views.
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

    high, low = width // 2, width - width // 2
    f_high, high_column = _features(high)
    f_low, low_column = _features(low)
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
        return shape, phases, None

    f_low_t, f_pairs = f_low.T.copy(), f_high[:, high + 1 :].copy()  # F_high's pair columns
    angles = (high + 1) << low  # of [Y; B], before the 2**high of A
    for table in (f_low_t, f_pairs, weights, slots, offsets):
        table.setflags(write=False)

    def bind(src, dst, tables, table, span):
        coefficients = np.zeros((f_high.shape[1], f_low.shape[1]))  # C
        values, phases = np.empty(len(offsets)), np.empty(angles + (1 << high))
        exps = np.empty_like(phases, dtype=np.complex128)
        e, full = exps[:angles].reshape(high + 1, -1), tables.region[table].reshape(-1, 1 << low)
        calls = [
            partial(np.matmul, weights, tables.draws[span], values),
            partial(np.add, values, offsets, values),
            partial(coefficients.put, slots, values),
            partial(np.matmul, coefficients[: high + 1], f_low_t, phases[:angles].reshape(e.shape)),
            partial(np.matmul, f_pairs, coefficients[high + 1 :, low], phases[angles:]),
            partial(np.cos, phases, exps.real),
            partial(np.sin, phases, exps.imag),
            partial(np.copyto, full[0], e[high]),
        ]
        for k in range(high):  # e[-2 - k]: Y's row for the bit 2**k
            calls.append(partial(np.multiply, full[: 1 << k], e[-2 - k], full[1 << k : 2 << k]))
        calls.append(partial(np.multiply, full, exps[angles:, None], full))
        calls.append(_multiply(src, dst, tables.region[table], shape))

        def diagonal():  # dst = src * exp(i * phase), as a column
            for call in calls:
                call()

        return diagonal

    return shape, None, bind


class _Tables(NamedTuple):
    """The arrays a bound program's ops read besides their two buffers:
    views of the row of tables an application copies in, and the factor
    region the factorized diagonals share."""

    factors: np.ndarray  # exp(i * phase) of the dense diagonals' tables, then of the tilts
    rotations: np.ndarray  # (tilts, 2, 2): M(d) of each Hadamard
    krons: list  # kron(M, I_L) of each kron Hadamard, by rotation row
    draws: np.ndarray  # the factorized diagonals' draws, op after op
    region: np.ndarray  # the factorized diagonals' shared factor table


class _Compiled(NamedTuple):
    """The buffer-independent form of a program (see _compile)."""

    ops: tuple  # per op, bind(src, dst, tables) -> the op as one prebound call
    groups: tuple  # per P shape, (stacked P^T, slice of gathered draws, slice of phases)
    gather: np.ndarray  # draw indices a stage gathers: groups', tilts', factorized ops'
    tilts: np.ndarray  # draw index of each Hadamard, in rotation-table order
    loose: slice  # of the gathered draws: the factorized ops'
    ideal: np.ndarray  # the stage's ideal phases: the groups' tables, then pi/4 per tilt
    rotations: slice  # of a row: the entries (s, c, c, -s) of each tilt's M(d)
    krons: tuple  # per kron stride, (stride, first rotation row, row count, slice of a row)
    draws: slice  # of a row: the factorized diagonals' draws
    width: int  # floats per row, even, so that every row's factors stay aligned
    region: int  # length of the factorized diagonals' shared region
    row_bytes: int  # a staged row, and the draws, gathered draws and phases it comes from
    draw_count: int


@lru_cache(maxsize=32)
def _compile(program, phase_budget, kron_max_stride):
    """The buffer-independent form of a program under a dense-phase budget
    and a kron stride limit.

    Every dense diagonal's table and every Hadamard's tilt is one entry range
    of the phases a stage evaluates, and of the factors in a row.  Dense
    diagonals whose P has the same shape form one group, stacked once here
    as P^T and evaluated as one batched matmul (in a map iteration each QFT
    ladder pairs with its mirror and the free rotation with the kick); their
    tables lie group by group at the start, and the tilts follow, kron
    Hadamards first, grouped by stride, so that each stride fills its kron
    tables from consecutive rotation rows.  After the factors a row holds the
    rotations, the kron matrices stride by stride, and the factorized
    diagonals' draws.  Those diagonals run one at a time, so each takes the
    start of one shared region, as long as the largest factorized table.

    Cached: the memory rule prices every config by its map's row
    (staged_block) before any task runs, and forked pool workers inherit
    that compile from the parent.
    """
    ops = []
    dense = {}  # P shape -> [(op index, view shape, P, ideal table, draw span)]
    factorized = []  # (op index, bind, table size, draw span)
    hadamards = []  # (stride, op index, draw index)
    draws = 0
    for is_hadamard, run in groupby(program.gates, lambda g: isinstance(g, Hadamard)):
        if is_hadamard:
            for g in run:
                hadamards.append((2 << (program.n_q - g.target), len(ops), draws))
                ops.append(None)
                draws += 1
            continue
        run = tuple(run)
        span = range(draws, draws + 2 * len(run))
        draws = span.stop
        shape, phases, bind = _compile_diagonal(program.n_q, run, phase_budget)
        if phases is None:
            factorized.append((len(ops), bind, shape[1], span))
        else:
            dense.setdefault(phases[0].shape, []).append((len(ops), shape, *phases, span))
        ops.append(None)

    gather = []
    groups = []
    ideal = []
    entries = 0
    for members in dense.values():
        gathered, start = len(gather), entries
        for i, shape, _, table, span in members:
            ops[i] = partial(_bind_dense, shape=shape, table=slice(entries, entries + table.size))
            entries += table.size
            gather.extend(span)
            ideal.append(table)
        # P^T, which a block's rows of draws multiply as one gemm per member
        matrices = np.array([matrix.T for _, _, matrix, _, _ in members])
        matrices.setflags(write=False)
        groups.append((matrices, slice(gathered, len(gather)), slice(start, entries)))

    hadamards.sort(key=lambda h: h[0] if h[0] <= kron_max_stride else math.inf)
    for row, (stride, i, _) in enumerate(hadamards):
        ops[i] = partial(_bind_tilt, stride=stride, row=row, kron=stride <= kron_max_stride)
    width = 2 * (entries + len(hadamards))  # the factors, as (real, imag) pairs
    rotations = slice(width, width + 4 * len(hadamards))
    width = rotations.stop
    strides = [stride for stride, _, _ in hadamards if stride <= kron_max_stride]
    krons = []
    for L in dict.fromkeys(strides):
        count = strides.count(L)
        krons.append((L, strides.index(L), count, slice(width, width + 4 * count * L * L)))
        width += 4 * count * L * L

    tilts = [draw for _, _, draw in hadamards]
    gather.extend(tilts)
    first = len(gather)  # the factorized ops' draws follow the tilts
    region = 0
    for i, bind, size, span in factorized:
        rows = slice(len(gather) - first, len(gather) - first + len(span))
        ops[i] = partial(bind, table=slice(0, size), span=rows)
        gather.extend(span)
        region = max(region, size)
    loose = slice(first, len(gather))
    row_draws = slice(width, width + len(gather) - first)
    width = row_draws.stop + row_draws.stop % 2

    ideal = np.concatenate([np.zeros(0), *ideal, np.full(len(hadamards), 0.25 * math.pi)])
    gather, tilts = (np.array(indices, dtype=np.intp) for indices in (gather, tilts))
    for table in (ideal, gather, tilts):
        table.setflags(write=False)
    row_bytes = 8 * (width + draws + gather.size + ideal.size)
    return _Compiled(
        tuple(ops), tuple(groups), gather, tilts, loose, ideal, rotations, tuple(krons),
        row_draws, width, region, row_bytes, draws,
    )


def _rows_that_fit(compiled) -> int:
    """The capacity of a binding's staging under _STAGE_BYTES, at least one
    row (an empty program's rows take no bytes)."""
    return max(1, _STAGE_BYTES // max(1, compiled.row_bytes))


def staged_block(program: GateProgram) -> tuple:
    """(capacity, bytes) of the staging a bound program and its inverse
    hold, all of it allocated at bind (see _Staged): the row the ops read
    and capacity rows of block, draws, gathered draws and phases, whatever
    the runs they apply.  At capacity 1, from n_q = 17, the block has no
    rows and the count keeps its one, beside registers of 7 MB and more."""
    compiled = _compile(program, _DENSE_PHASE_BYTES, _KRON_MAX_STRIDE)
    capacity = _rows_that_fit(compiled)
    return capacity, 8 * compiled.width + capacity * compiled.row_bytes


class _Staged:
    """What a bound program and its inverse share of their staging, all
    allocated once at the capacity _rows_that_fit gives: the row their ops
    read, the block of a noisy run's rows (none at capacity 1), the gathered
    draws and phases a stage evaluates rows from, which rows of the block
    wait, and, while some do, their source, (program, generator, epsilon)."""

    __slots__ = ("row", "block", "gathered", "phases", "next", "stop", "source")

    def __init__(self, compiled):
        capacity = _rows_that_fit(compiled)
        # zeros: a kron matrix only ever has its diagonals written
        self.row = np.zeros(compiled.width)
        self.block = np.zeros((capacity if capacity > 1 else 0, compiled.width))
        self.gathered = np.empty((capacity, compiled.gather.size))
        self.phases = np.empty((capacity, compiled.ideal.size))
        self.next = self.stop = 0
        self.source = None


class BoundProgram:
    """A program compiled into ops bound to one amplitude buffer.

    Ops write out of place, so binding allocates a scratch buffer beside
    amps: op i reads one of the two and writes the other, starting from
    amps, and a program with an odd op count copies its result back once.

    The ops read one row of tables.  Every Hadamard and every dense diagonal
    (one whose phase matrix fits _DENSE_PHASE_BYTES) is one prebound numpy
    call on views of the row, a matmul by its rotation M(d) or
    kron(M, I_L), or a multiply by its complex factor (1-D when the
    diagonal spans the register).  A factorized diagonal's prebound calls
    read its draws from the row and build its factor in one shared region,
    as long as the largest of their tables (the register from n_q = 9 in a
    map iteration); so no op allocates a table when it runs.

    A stage evaluates one row per application from the rows' gathered
    draws: one batched matmul per group of same-shape P (see _compile), the
    tilts beside them, one add of the ideal phases (pi/4 for a tilt), one
    cos and one sin for the factors, three assignments for the rotations
    and one per kron stride for their diagonals.  One application
    (apply(draws), apply_ideal or a noisy run of one) stages straight into
    the row the ops read.  apply_noisy stages, when no row waits, the next
    min(remaining, capacity) applications from one uniform draw, capacity
    being the rows _STAGE_BYTES holds; two or more wait in the block, and
    each application copies its row into the row the ops read.  Every op
    then runs with no arguments.  The staging is allocated at bind and
    never moves (_Staged), so every stage is bound once: the stage of one
    row with the ops, and that of each block size on its first run.

    inverse() binds to the same amps, scratch, region, row and block, so the
    two must not run at the same time, and neither may stage a block while
    the other's rows wait; one application of either runs at any time.
    Binding takes every view once, so repeated applications (thousands per
    echo experiment) do only arithmetic.  amps must stay the C-contiguous
    complex128 array the views were taken from.
    """

    __slots__ = (
        "amps", "draw_count", "_program", "_compiled", "_buffers", "_staged", "_capacity",
        "_stages", "_ops", "_result",
    )

    def __init__(self, program: GateProgram, amps: np.ndarray):
        if (
            amps.shape != (1 << program.n_q,)
            or amps.dtype != np.complex128
            or not amps.flags.c_contiguous
        ):
            raise ValueError("buffer must be a contiguous complex128 vector of length 2**n_q")
        # compiled once per bind: the cache key hashes every gate
        compiled = _compile(program, _DENSE_PHASE_BYTES, _KRON_MAX_STRIDE)
        region = np.empty(compiled.region, dtype=np.complex128)
        buffers = (amps, np.empty_like(amps), region, _Staged(compiled))
        self._bind(program, compiled, buffers)

    def _bind(self, program, compiled, buffers):
        self._program = program
        self._compiled = compiled
        self.amps = buffers[0]
        self.draw_count = compiled.draw_count
        self._buffers = buffers  # (amps, scratch, region, staged)
        self._staged = staged = buffers[3]
        self._capacity = len(staged.gathered)
        row = staged.row
        # rows -> stage: one row stages straight into the row the ops read
        self._stages = {1: self._bind_stage(row[None], staged.gathered[:1], staged.phases[:1])}
        krons = []
        for stride, _, count, span in compiled.krons:
            krons.extend(row[span].reshape(count, 2 * stride, 2 * stride))
        tables = _Tables(
            row[: 2 * compiled.ideal.size].view(np.complex128),
            row[compiled.rotations].reshape(compiled.tilts.size, 2, 2),
            krons,
            row[compiled.draws],
            buffers[2],
        )
        self._ops = [
            bind(buffers[i % 2], buffers[1 - i % 2], tables) for i, bind in enumerate(compiled.ops)
        ]
        self._result = buffers[len(self._ops) % 2]

    def inverse(self) -> "BoundProgram":
        """The inverse program bound to this program's buffers, so the two
        must not run at the same time."""
        # the same gates reversed have the same tables, so the same row layout
        program = self._program.inverse()
        compiled = _compile(program, _DENSE_PHASE_BYTES, _KRON_MAX_STRIDE)
        inverse = object.__new__(BoundProgram)
        inverse._bind(program, compiled, self._buffers)
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

    def _bind_stage(self, block, gathered, phases) -> tuple:
        """The stage of the rows of block, as prebound numpy calls that
        evaluate them from gathered draws through phases: (gathered, the
        calls)."""
        compiled, rows = self._compiled, len(block)
        # every call takes its out array positionally: through a partial, a
        # keyword costs about 0.2 us per call
        calls = []
        for matrices, span, table in compiled.groups:
            # (members, rows, ...) views: one gemm of the rows' draws per member
            d, out = (
                a.reshape(rows, len(matrices), -1).swapaxes(0, 1)
                for a in (gathered[:, span], phases[:, table])
            )
            calls.append(partial(np.matmul, d, matrices, out))
        hadamards = compiled.tilts.size
        tilts = slice(compiled.ideal.size - hadamards, compiled.ideal.size)
        drawn = slice(compiled.loose.start - hadamards, compiled.loose.start)
        factors = block[:, : 2 * compiled.ideal.size].view(np.complex128)
        calls += [
            partial(np.copyto, phases[:, tilts], gathered[:, drawn]),
            partial(np.add, phases, compiled.ideal, phases),
            partial(np.cos, phases, factors.real),
            partial(np.sin, phases, factors.imag),
        ]
        entries = block[:, compiled.rotations].reshape(rows, hadamards, 4)  # (s, c, c, -s) each
        c, s = factors[:, tilts].real, factors[:, tilts].imag
        calls += [
            partial(np.copyto, entries[:, :, 0], s),
            partial(np.copyto, entries[:, :, 1:3], c[:, :, None]),
            partial(np.negative, s, entries[:, :, 3]),
        ]
        rotations = entries.reshape(rows, hadamards, 2, 2)
        for stride, first, count, span in compiled.krons:
            # only the diagonals of kron(M, I_L)'s four L x L blocks, 4L
            # entries, are ever nonzero
            across, step, row, col = block[:, span].reshape(rows, count, 2 * stride, -1).strides
            strides = (across, step, stride * row, stride * col, row + col)
            shape = (rows, count, 2, 2, stride)
            diagonals = np.ndarray(shape, np.float64, block, span.start * col, strides)
            calls.append(
                partial(np.copyto, diagonals, rotations[:, first : first + count, :, :, None])
            )
        if compiled.loose.stop > compiled.loose.start:  # factorized diagonals, from n_q = 9
            calls.append(partial(np.copyto, block[:, compiled.draws], gathered[:, compiled.loose]))
        return gathered, calls

    def _stage(self, draws: np.ndarray) -> None:
        """Evaluate one row of tables per row of draws: one row straight into
        the row the ops read, more into the block, whose rows then wait."""
        rows, staged = len(draws), self._staged
        if rows not in self._stages:  # a block size's first run
            self._stages[rows] = self._bind_stage(
                *(a[:rows] for a in (staged.block, staged.gathered, staged.phases))
            )
        gathered, calls = self._stages[rows]
        if rows > 1:
            staged.next, staged.stop = 0, rows
        # every index is in range; mode="clip" writes out directly, where
        # the default mode buffers it
        draws.take(self._compiled.gather, axis=1, out=gathered, mode="clip")
        for call in calls:
            call()

    def _run(self) -> None:
        """Run the ops on the row they read."""
        for op in self._ops:
            op()
        if self._result is not self.amps:
            np.copyto(self.amps, self._result)

    def apply(self, draws: np.ndarray) -> None:
        """One application at the given draws, draw_count of them in program
        order: one per Hadamard tilt, (d0, d1) per phase-type gate."""
        if draws.shape != (self.draw_count,):
            raise ValueError(f"expected {self.draw_count} draws, got shape {draws.shape}")
        self._stage(draws[None])
        self._run()

    def apply_ideal(self) -> None:
        """The program without noise: every op at zero draws."""
        self.apply(np.zeros(self.draw_count))

    def apply_noisy(self, rng: np.random.Generator, epsilon: float, remaining: int = 1) -> None:
        """One application with draws uniform in [-epsilon, epsilon]; at
        epsilon = 0 they are zeros (rng still advances).

        remaining counts the applications left in this run of calls, this one
        included.  A call that finds no staged row draws the next
        min(remaining, capacity) applications as one uniform
        (rows, draw_count) matrix, bit for bit the draws of that many calls
        one at a time.  One row it stages straight into the row the ops
        read; more it stages into the block, and it and the calls after it
        each copy one row of the block and apply it, and must pass the same
        rng and epsilon.
        """
        staged = self._staged
        if staged.next == staged.stop:
            if remaining < 1:
                raise ValueError(f"remaining applications must be >= 1, got {remaining}")
            rows = min(remaining, self._capacity)
            self._stage(rng.uniform(-epsilon, epsilon, (rows, self.draw_count)))
            if rows > 1:
                staged.source = (self, rng, epsilon)
        elif staged.source != (self, rng, epsilon) or staged.stop - staged.next > remaining:
            raise ValueError(
                f"{staged.stop - staged.next} staged applications wait to run from another "
                "program, generator or epsilon, or beyond the remaining count"
            )
        if staged.next < staged.stop:  # the block's next row, which the ops read once copied
            np.copyto(staged.row, staged.block[staged.next])
            staged.next += 1
            if staged.next == staged.stop:
                # the source would keep the program, and with it the buffers,
                # in a reference cycle that only the cyclic collector frees
                staged.source = None
        self._run()
