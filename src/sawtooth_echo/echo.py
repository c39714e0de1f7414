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
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import BoundProgram
# concurrence and von_neumann_entropy stay bound here because
# perfbench/tracer.py wraps echo.concurrence, echo.eof and
# echo.von_neumann_entropy by name
from .measures import concurrence, concurrence_and_entropy, eof, von_neumann_entropy  # noqa: F401
from .program import MapParams, map_program
from .state import StateVector


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
        if self.n_q + 4 >= memory.bit_length():  # 16 bytes * 2**n_q > memory
            raise ValueError(
                f"an n_q = {self.n_q} register needs 2**{self.n_q + 4} bytes, "
                f"more than the {memory} bytes of physical memory"
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


def initial_state(n_q: int) -> StateVector:
    """(|00> + |11>)/sqrt(2) on qubits 1, 2 tensored with |0...0>."""
    if n_q < 2:
        raise ValueError(f"initial state needs n_q >= 2, got {n_q}")
    amps = np.zeros(1 << n_q, dtype=np.complex128)
    amps[0] = amps[3 << (n_q - 2)] = math.sqrt(0.5)
    return StateVector(n_q, amps)


def realization_rng(master_seed: int, t_r: int, r: int) -> np.random.Generator:
    """The noise stream of realization r at reversal time t_r: the one
    stream contract of every echo experiment."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, t_r, r]))


def _record_measures(amps: np.ndarray, bell_index: int, out: np.ndarray) -> None:
    # fidelity against the initial state reduces to the two amplitudes on its
    # support: |<psi0|psi>|^2 = |amps[0] + amps[bell_index]|^2 / 2
    blocks = amps.reshape(4, -1)
    rho = blocks @ blocks.conj().T
    c, out[1] = concurrence_and_entropy(rho)
    out[0] = eof(c)
    overlap = amps[0] + amps[bell_index]
    out[2] = 0.5 * (overlap.real * overlap.real + overlap.imag * overlap.imag)


def _bind_echo(n_q: int, K: float, amps: np.ndarray):
    """The forward map iteration and its inverse, bound to one buffer."""
    forward_program = map_program(MapParams(n_q, K))
    return (
        BoundProgram(forward_program, amps),
        BoundProgram(forward_program.inverse(), amps),
    )


def _echo_steps(forward, backward, rng, epsilon: float, t_r: int):
    """Evolve one realization on the buffer both programs are bound to.

    Yields t = 0 for the start vector, then t after each of the 2*t_r noisy
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
    """
    config, t_r, first, count, record_trace = task
    first_step = 0 if record_trace else 2 * t_r
    start = initial_state(config.n_q).amps
    amps = np.empty_like(start)
    forward, backward = _bind_echo(config.n_q, config.K, amps)
    bell_index = 3 << (config.n_q - 2)
    out = np.empty((count, 2 * t_r + 1 - first_step, 3))
    for b in range(count):
        amps[:] = start
        rng = realization_rng(config.master_seed, t_r, first + b)
        for t in _echo_steps(forward, backward, rng, config.epsilon, t_r):
            if t >= first_step:
                _record_measures(amps, bell_index, out[b, t - first_step])
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
