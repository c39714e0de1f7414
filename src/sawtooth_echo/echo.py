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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import TASK_BYTES_PER_AMPLITUDE, TASK_REGISTERS, BoundProgram
# concurrence and von_neumann_entropy stay bound here because
# perfbench/tracer.py wraps echo.concurrence, echo.eof and
# echo.von_neumann_entropy by name
from .measures import concurrence, concurrence_and_entropy, eof, von_neumann_entropy  # noqa: F401
from .program import MapParams, map_program

#: snapshots an echo task gathers before one stacked measure reduction:
#: 256 bytes of rho_12 each, so at most 256 kB per task whatever R, t_r or
#: the worker count.  One realization's 2*t_r + 1 snapshots already amortize
#: the eigh and svd dispatch, so this bounds memory, not speed.
_MEASURE_BLOCK = 1024


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
        if self.n_q < 2:
            raise ValueError(f"echo protocol needs n_q >= 2, got {self.n_q}")
        if not math.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not math.isfinite(self.K):
            raise ValueError(f"K must be finite, got {self.K}")
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        # TASK_BYTES_PER_AMPLITUDE * 2**n_q > memory, without forming 2**n_q
        if self.n_q >= (memory // TASK_BYTES_PER_AMPLITUDE).bit_length():
            raise ValueError(
                f"an n_q = {self.n_q} echo task holds {TASK_REGISTERS} registers "
                f"and its phase tables, {TASK_BYTES_PER_AMPLITUDE} * 2**{self.n_q} "
                f"bytes, more than the {memory} bytes of physical memory"
            )
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.t_r is not None and self.t_r < 0:
            raise ValueError(f"t_r must be >= 0, got {self.t_r}")
        if self.t_r_grid is not None:
            grid = tuple(int(t) for t in self.t_r_grid)
            if not grid:
                raise ValueError("t_r grid must be nonempty")
            if any(t < 0 for t in grid):
                raise ValueError("t_r grid values must be >= 0")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("t_r grid must be strictly increasing")
            object.__setattr__(self, "t_r_grid", grid)

    def resolved_workers(self) -> int:
        """The worker count, by default the CPUs this process may run on."""
        if self.workers is not None:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


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


def _bind_echo(n_q: int, K: float):
    """The forward map iteration and its inverse, bound to one new register
    (forward.amps) and one shared scratch buffer: the two halves of an echo
    never overlap."""
    amps = np.empty(1 << n_q, dtype=np.complex128)
    forward = BoundProgram(map_program(MapParams(n_q, K)), amps)
    return forward, forward.inverse()


def _echo_steps(forward, backward, rng, epsilon: float, t_r: int):
    """Evolve one realization on the buffer both programs are bound to.

    Yields t = 0 for the initial state, then t after each of the 2*t_r noisy
    iterations: forward while t <= t_r, backward after.
    """
    yield 0
    for t in range(1, 2 * t_r + 1):
        (forward if t <= t_r else backward).apply_noisy(rng, epsilon)
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


def _scatter(tasks, workers):
    """Run tasks (expensive first) and return results in task order.

    Aggregation downstream folds realizations in index order, so the result
    is independent of scheduling.
    """
    results = [None] * len(tasks)
    if workers <= 1 or len(tasks) <= 1:
        for i, task in enumerate(tasks):
            results[i] = _echo_block(task)
        return results

    def cost(i):  # realizations times the 2*t_r + 1 steps of each
        _, t_r, _, count, _ = tasks[i]
        return count * (2 * t_r + 1)

    order = sorted(range(len(tasks)), key=cost, reverse=True)
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = {i: pool.submit(_echo_block, tasks[i]) for i in order}
        for i, future in futures.items():
            results[i] = future.result()
    return results


def _chunk_ranges(total: int, workers: int, points: int):
    """(first, count) chunks of one point's total realizations: about four
    tasks per worker over all points, at least one per point."""
    chunks = min(total, -(-4 * workers // points))
    base, extra = divmod(total, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, size))
        start += size
    return ranges


def _aggregate(t: int, block: np.ndarray) -> EchoRecord:
    # (mean, std) of each observable column, in EchoRecord field order
    pairs = np.column_stack((block.mean(axis=0), block.std(axis=0)))
    return EchoRecord(t, *(float(v) for v in pairs.ravel()))


def _run(config: EchoConfig, t_rs, record_trace: bool) -> list:
    """Records of every reversal time in t_rs, in order: one per recorded step."""
    workers = config.resolved_workers()
    ranges = _chunk_ranges(config.realizations, workers, len(t_rs))
    tasks = [
        (config, t_r, first, count, record_trace)
        for t_r in t_rs
        for first, count in ranges
    ]
    results = _scatter(tasks, workers)
    records = []
    for i, t_r in enumerate(t_rs):
        block = np.concatenate(results[i * len(ranges) : (i + 1) * len(ranges)], axis=0)
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
