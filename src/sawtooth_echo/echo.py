"""Forward-backward echo experiments on the noisy sawtooth map.

The register starts as a Bell pair on qubits 1, 2 tensored with |0...0>,
runs t_r noisy forward iterations and t_r noisy backward iterations (the
exact gate-by-gate inverse program, with fresh noise), and records pairwise
entanglement of formation, two-qubit entropy, and fidelity with the initial
state.  The echo occurs at t_e = 2*t_r.

Every (reversal time, realization) pair draws from its own stream,
realization_rng(master_seed, t_r, realization), so individual realizations
are reproducible, grid points are uncorrelated, and results do not depend
on how work is split across processes.

A register is a C-contiguous complex128 array of 2**n_q amplitudes, which
the engine mutates in place.  Qubit 1 is the most significant bit of the
basis index, so |a1 a2 ... an> sits at index a1*2**(n-1) + ... + an, and the
reduced density matrix of qubits 1 and 2 is one reshape-and-matmul over
contiguous blocks of N/4 amplitudes.  StateVector wraps a register for the
public initial_state, partial_trace_12 and fidelity.
"""

import math
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .engine import TASK_BYTES_PER_AMPLITUDE, TASK_REGISTERS, BoundProgram, staged_block
# concurrence and von_neumann_entropy stay bound here because
# perfbench/tracer.py wraps echo.concurrence, echo.eof and
# echo.von_neumann_entropy by name
from .measures import concurrence, concurrence_and_entropy, eof, von_neumann_entropy  # noqa: F401
from .program import GateProgram, MapParams, map_program

#: snapshots an echo task gathers before one stacked measure reduction:
#: 256 bytes of rho_12 each, so at most 256 kB per task whatever R, t_r or
#: the worker count.  One realization's 2*t_r + 1 snapshots already amortize
#: the eigh and svd dispatch, so this bounds memory, not speed.
_MEASURE_BLOCK = 1024


def _cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: bytes the parent holds per record beyond its observables: a curve's
#: grid entry, task, result block, record and CSV row, and a trace step's
#: record and CSV row (tracemalloc at R = 1: 590-660 per grid value)
_RECORD_BYTES = 1024


def _map(config) -> GateProgram:
    """The map iteration of config, refused when K overflows one of its
    gate phases."""
    program = map_program(MapParams(config.n_q, config.K))
    # the kick phases grow as K * N: a finite K can still overflow one
    if not all(math.isfinite(getattr(gate, "phase", 0.0)) for gate in program.gates):
        raise ValueError(f"K = {config.K} overflows a gate phase of the n_q = {config.n_q} map")
    return program


def _processes_that_fit(config) -> int:
    """How many echo tasks of config fit in physical memory beside what
    the parent holds; the one memory rule, which refuses a run where none
    fits.

    A task holds TASK_BYTES_PER_AMPLITUDE * 2**n_q bytes and the staging
    its binding allocates (engine.staged_block): the row its ops read and
    the rows of the engine's fixed budget, whatever t_r.  The parent holds
    24 bytes of observables per recorded snapshot (every task's rows and
    one point's concatenated copy) and _RECORD_BYTES per record.  A grid is
    sized with len(), so a range is refused before it is listed, and the
    map is built to price the staging (refusing an overflowing K) only once
    its registers fit.
    """
    memory = math.prod(map(os.sysconf, ("SC_PAGE_SIZE", "SC_PHYS_PAGES")))
    if config.t_r_grid is None:
        records, where = 2 * (config.t_r or 0) + 1, f"t_r = {config.t_r}"
        snapshots = 2 * records
    else:
        records = len(config.t_r_grid)
        snapshots, where = records + 1, f"a {records}-point t_r grid"
    parent = 24 * config.realizations * snapshots + _RECORD_BYTES * records
    # (memory - parent) // (TASK_BYTES_PER_AMPLITUDE * 2**n_q), without forming 2**n_q
    processes = ((memory - parent) // TASK_BYTES_PER_AMPLITUDE) >> config.n_q
    rows = staging = 0
    if processes >= 1:
        rows, staging = staged_block(_map(config))
        processes = (memory - parent) // ((TASK_BYTES_PER_AMPLITUDE << config.n_q) + staging)
    if processes < 1:
        raise ValueError(
            f"an n_q = {config.n_q} echo task ({TASK_REGISTERS} registers and phase tables, "
            f"{TASK_BYTES_PER_AMPLITUDE} * 2**{config.n_q} bytes, and its staging of {rows} "
            f"rows of noise, {staging} bytes) beside the {parent} bytes that "
            f"{config.realizations} realizations at {where} leave in the parent need more "
            f"than the {memory} bytes of physical memory"
        )
    return processes


def check_point(n_q: int, epsilon: float) -> None:
    """Refuse an (n_q, epsilon) point outside the echo protocol: n_q from 2
    up to where 2**n_q is still a float, and epsilon in [0, pi], NaN
    refused.  EchoConfig applies it, and so does a fit of recorded curves."""
    # the map's period T = 2 pi / 2**n_q and the fit's ergodic entropy
    # reference take 2**n_q as a float
    if not 2 <= n_q < sys.float_info.max_exp:
        raise ValueError(f"echo protocol needs 2 <= n_q < {sys.float_info.max_exp}, got {n_q}")
    # the draws are angles (a Hadamard tilt and phase errors): a range
    # wider than pi only wraps the circle
    if not 0.0 <= epsilon <= math.pi:
        raise ValueError(f"epsilon must lie in [0, pi], got {epsilon}")


@dataclass(frozen=True)
class EchoConfig:
    """Parameters of one echo experiment (trace or echo-curve mode)."""

    n_q: int
    epsilon: float
    K: float = 5.0
    t_r: int | None = None
    t_r_grid: tuple | None = None
    realizations: int = 400
    master_seed: int = 0
    workers: int | None = None

    def __post_init__(self):
        check_point(self.n_q, self.epsilon)
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # SeedSequence splits a seed into 32-bit words, so a larger one keys
        # the stream of a smaller key: (2**32, t_r, r) draws (0, 1, t_r)'s
        if not 0 <= self.master_seed < 2**32:
            raise ValueError(f"master_seed must lie in [0, 2**32), got {self.master_seed}")
        if self.t_r is not None and self.t_r < 0:
            raise ValueError(f"t_r must be >= 0, got {self.t_r}")
        _processes_that_fit(self)
        if self.t_r_grid is not None:
            grid = self.t_r_grid
            # a tuple of ints is kept, so the points of a scaling run share one
            if type(grid) is not tuple or not all(type(t) is int for t in grid):
                grid = tuple(int(t) for t in grid)
            if not grid:
                raise ValueError("t_r grid must be nonempty")
            if any(t < 0 for t in grid):
                raise ValueError("t_r grid values must be >= 0")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("t_r grid must be strictly increasing")
            object.__setattr__(self, "t_r_grid", grid)


@dataclass(frozen=True)
class EchoRecord:
    """Mean and spread of the observables at one time point; the field
    order is the CSV column order."""

    t: int
    e_mean: float
    e_std: float
    s_mean: float
    s_std: float
    f_mean: float
    f_std: float


class StateVector:
    """Amplitudes of an n_q-qubit register, as initial_state returns them."""

    __slots__ = ("n_q", "amps")

    def __init__(self, n_q: int, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
        if n_q < 1 or amps.shape != (1 << n_q,):
            raise ValueError(
                f"need n_q >= 1 and 2**n_q amplitudes, got n_q={n_q} and shape {amps.shape}"
            )
        self.n_q = n_q
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.n_q, self.amps.copy())


def initial_state(n_q: int) -> StateVector:
    """(|00> + |11>)/sqrt(2) on qubits 1, 2 tensored with |0...0>."""
    if n_q < 2:
        raise ValueError(f"initial state needs n_q >= 2, got {n_q}")
    amps = np.empty(1 << n_q, dtype=np.complex128)
    _write_initial_state(amps)
    return StateVector(n_q, amps)


def _bell_index(amps: np.ndarray) -> int:
    """Where the Bell pair's second amplitude, |11 0...0>, sits: 3 * N/4."""
    return 3 * amps.size // 4


def _write_initial_state(amps: np.ndarray) -> None:
    amps.fill(0.0)
    amps[0] = amps[_bell_index(amps)] = math.sqrt(0.5)


def _rho_12(amps: np.ndarray, out=None) -> np.ndarray:
    """rho[a, b] = sum_r psi[a*N/4 + r] * conj(psi[b*N/4 + r]), into out if
    given; for n_q = 2 this is the pure-state outer product."""
    blocks = amps.reshape(4, -1)
    return np.matmul(blocks, blocks.conj().T, out=out)


def partial_trace_12(state: StateVector) -> np.ndarray:
    """Reduced 4x4 density matrix of qubits 1 and 2."""
    if state.n_q < 2:
        raise ValueError("partial trace over qubits 3..n_q needs n_q >= 2")
    return _rho_12(state.amps)


def fidelity(state: StateVector, reference: StateVector) -> float:
    """Squared overlap |<reference|state>|^2."""
    if state.n_q != reference.n_q:
        raise ValueError(f"qubit counts differ: {state.n_q} vs {reference.n_q}")
    return float(abs(np.vdot(reference.amps, state.amps)) ** 2)


def realization_rng(master_seed: int, t_r: int, r: int) -> np.random.Generator:
    """The noise stream of realization r at reversal time t_r: the one
    stream contract of every echo experiment."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, t_r, r]))


def _record_measures(amps: np.ndarray, rho: np.ndarray, fidelities: np.ndarray, slot: int) -> None:
    """Gather one snapshot into slot of the stacks rho (B, 4, 4) and
    fidelities (B,): rho_12 of amps and its fidelity with the initial state."""
    _rho_12(amps, out=rho[slot])
    # fidelity against the initial state reduces to the two amplitudes on its
    # support: |<psi0|psi>|^2 = |amps[0] + amps[3N/4]|^2 / 2
    overlap = amps[0] + amps[_bell_index(amps)]
    fidelities[slot] = 0.5 * (overlap.real * overlap.real + overlap.imag * overlap.imag)


def _reduce_measures(rho: np.ndarray, fidelities: np.ndarray, out: np.ndarray) -> None:
    """Rows (eof, entropy, fidelity) of gathered snapshots: one stacked
    eigh and one stacked svd for all of them."""
    c, out[:, 1] = concurrence_and_entropy(rho)
    out[:, 0] = eof(c)
    out[:, 2] = fidelities


class _OpenRun(threading.local):
    """The run open in this thread (see workers): the process count its
    tasks split for, its pool (None while its tasks run in this thread),
    and the binding the tasks that run here share, ((n_q, K), forward,
    backward).  A pool worker keeps its binding until the pool closes."""

    processes = None
    pool = None
    binding = None


_open = _OpenRun()


def _bind_echo(n_q: int, K: float):
    """The forward map iteration and its inverse, bound to one register
    (forward.amps) and one shared scratch buffer: the two halves of an echo
    never overlap.  A process binds them for the first task of (n_q, K)
    that it runs, after dropping any other binding, and every later task of
    the run reuses them: each rewrites the register."""
    if _open.binding is None or _open.binding[0] != (n_q, K):
        _open.binding = None  # the old register goes before the new one is bound
        amps = np.empty(1 << n_q, dtype=np.complex128)
        forward = BoundProgram(map_program(MapParams(n_q, K)), amps)
        _open.binding = ((n_q, K), forward, forward.inverse())
    return _open.binding[1:]


def _echo_steps(forward, backward, rng, epsilon: float, t_r: int):
    """Evolve one realization on the buffer both programs are bound to.

    Yields t = 0 for the initial state, then t after each of the 2*t_r noisy
    iterations: forward while t <= t_r, backward after.  Each iteration is
    one apply_noisy call, which is told how many of its half remain, so the
    engine stages a half's noise in blocks of rows.
    """
    yield 0
    for t in range(1, t_r + 1):
        forward.apply_noisy(rng, epsilon, t_r + 1 - t)
        yield t
    for t in range(t_r + 1, 2 * t_r + 1):
        backward.apply_noisy(rng, epsilon, 2 * t_r + 1 - t)
        yield t


def _echo_block(task) -> np.ndarray:
    """Observables of realizations first .. first+count-1 at one reversal time.

    task is (config, t_r, first, count, record_trace).  Returns
    (count, steps, 3): steps = 2*t_r + 1 when tracing every iteration, else
    1, the echo time.  Observable columns are (eof, entropy, fidelity).
    Each snapshot only gathers rho_12 and the fidelity into a stack of at
    most _MEASURE_BLOCK; the stack is reduced when it is full and at the end.
    """
    config, t_r, first, count, record_trace = task
    first_step = 0 if record_trace else 2 * t_r
    forward, backward = _bind_echo(config.n_q, config.K)
    amps = forward.amps
    out = np.empty((count, 2 * t_r + 1 - first_step, 3))
    rows = out.reshape(-1, 3)
    rho = np.empty((min(_MEASURE_BLOCK, len(rows)), 4, 4), dtype=np.complex128)
    fidelities = np.empty(len(rho))
    reduced = slot = 0
    for b in range(count):
        _write_initial_state(amps)
        rng = realization_rng(config.master_seed, t_r, first + b)
        for t in _echo_steps(forward, backward, rng, config.epsilon, t_r):
            if t < first_step:
                continue
            _record_measures(amps, rho, fidelities, slot)
            slot += 1
            if slot == len(rho):
                _reduce_measures(rho, fidelities, rows[reduced : reduced + slot])
                reduced += slot
                slot = 0
    if slot:
        _reduce_measures(rho[:slot], fidelities[:slot], rows[reduced:])
    return out


def _processes(config) -> int:
    """The processes config's tasks may use: the worker count capped at the
    CPUs and at the tasks that fit in memory."""
    return min(config.workers or math.inf, _cpus(), _processes_that_fit(config))


def _chunks(config, t_rs, processes: int) -> int:
    """Realization chunks per reversal time: about four tasks per process
    over the whole run, at least one per reversal time and at most one per
    realization."""
    return min(config.realizations, -(-4 * processes // len(t_rs)))


@contextmanager
def workers(runs):
    """Open the processes of a command's echo runs, runs being its
    (config, t_rs) pairs, and yield how many run: the fewest that any run's
    config allows (_processes), decided once.

    The pool, one for every run, has no more processes than the largest
    run has tasks (a fork pool starts all its processes at once), and there
    is none when that leaves one process.  Inside an open run it yields
    that run's count and opens nothing.  On exit the pool closes, so no
    worker and no worker's binding outlives the command, and this thread
    drops its binding.
    """
    if _open.processes is not None:
        yield _open.processes
        return
    runs = list(runs)
    processes = min(_processes(config) for config, _ in runs)
    tasks = max(len(t_rs) * _chunks(config, t_rs, processes) for config, t_rs in runs)
    size = min(processes, tasks)
    _open.pool = ProcessPoolExecutor(max_workers=size) if size > 1 else None
    _open.processes = processes
    try:
        with _open.pool or nullcontext():
            yield processes
    finally:
        _open.processes = _open.pool = _open.binding = None


def _scatter(tasks, processes: int):
    """Run tasks, the last one first, and return their results in task order.

    _run lists tasks in increasing t_r, so the longest start first.  They
    run on the open run's pool, or in this process when it has none or
    when one process is all they need.  Each process binds its registers
    once (_bind_echo).  Aggregation downstream folds realizations in index
    order, so the result is independent of scheduling.
    """
    pool = _open.pool
    if pool is None or min(processes, len(tasks)) <= 1:
        return [_echo_block(task) for task in tasks]
    return list(pool.map(_echo_block, tasks[::-1]))[::-1]


def _aggregate(t: int, block: np.ndarray) -> EchoRecord:
    # (mean, std) of each observable column, in EchoRecord field order
    pairs = np.column_stack((block.mean(axis=0), block.std(axis=0)))
    return EchoRecord(t, *(float(v) for v in pairs.ravel()))


def _run(config: EchoConfig, t_rs, record_trace: bool) -> list:
    """Records of every reversal time in t_rs, in order: one per recorded step.

    The split follows the processes that run (see workers: those of the
    open run, or of a run opened for this one): about four (reversal time,
    realization chunk) tasks per process over the whole run, at least one
    per reversal time and at most one per realization.
    """
    with workers([(config, t_rs)]) as processes:
        chunks = _chunks(config, t_rs, processes)
        split = np.array_split(np.arange(config.realizations), chunks)
        tasks = [
            (config, t_r, int(chunk[0]), len(chunk), record_trace)
            for t_r in t_rs
            for chunk in split
        ]
        results = _scatter(tasks, processes)
    records = []
    for i, t_r in enumerate(t_rs):
        block = np.concatenate(results[i * chunks : (i + 1) * chunks], axis=0)
        first_step = 0 if record_trace else 2 * t_r
        records += [_aggregate(first_step + j, block[:, j]) for j in range(block.shape[1])]
    return records


def run_trace(config: EchoConfig) -> list:
    """Observables after every iteration of one echo experiment,
    t = 0 .. 2*t_r, averaged over realizations."""
    if config.t_r is None:
        raise ValueError("trace mode needs t_r")
    return _run(config, (config.t_r,), record_trace=True)


def run_echo_curve(config: EchoConfig) -> list:
    """Echo-time observables across the reversal-time grid.

    Each grid point is an independent experiment; records carry t = 2*t_r.
    """
    if config.t_r_grid is None:
        raise ValueError("echo-curve mode needs t_r_grid")
    return _run(config, config.t_r_grid, record_trace=False)
