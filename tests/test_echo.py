"""Echo protocol: initial state, noiseless identity, reproducibility."""

import gc
import math
import os
import re
import weakref

import numpy as np
import pytest

from helpers import InlinePool, norm_drift, random_state
from sawtooth_echo import (
    EchoConfig,
    EchoRecord,
    ScalingConfig,
    concurrence,
    fidelity,
    initial_state,
    partial_trace_12,
    run_echo_curve,
    run_scaling,
    run_trace,
    von_neumann_entropy,
)
from sawtooth_echo import MapParams, echo, engine, map_program
from sawtooth_echo.echo import _record_measures, _reduce_measures
from sawtooth_echo.verify import run_checks


def test_initial_state_two_qubits():
    state = initial_state(2)
    np.testing.assert_allclose(
        state.amps, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
    )


def test_initial_state_support():
    state = initial_state(5)
    nonzero = np.nonzero(state.amps)[0]
    np.testing.assert_array_equal(nonzero, [0, 24])  # |00000> and |11000>
    assert state.amps[0] == pytest.approx(1 / math.sqrt(2))
    assert norm_drift(state.amps) < 1e-15


def test_initial_state_measures():
    state = initial_state(4)
    rho = partial_trace_12(state)
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)
    rho, fidelities, measures = np.empty((1, 4, 4), complex), np.empty(1), np.empty((1, 3))
    _record_measures(state.amps, rho, fidelities, 0)
    _reduce_measures(rho, fidelities, measures)
    eof, entropy, fidelity = measures[0]
    assert eof == pytest.approx(1.0, abs=1e-12)
    assert entropy == pytest.approx(0.0, abs=1e-12)
    assert fidelity == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        initial_state(1)


@pytest.mark.parametrize("n_q", range(2, 9))
def test_snapshot_gather_matches_public_reductions(n_q):
    # the echo path's rho_12 is partial_trace_12's to the bit, and its
    # two-amplitude fidelity is the full overlap with the initial state
    state = random_state(n_q, np.random.default_rng(50 + n_q))
    rho, fidelities = np.zeros((n_q + 1, 4, 4), complex), np.zeros(n_q + 1)
    _record_measures(state.amps, rho, fidelities, n_q)
    np.testing.assert_array_equal(rho[n_q], partial_trace_12(state))
    assert abs(fidelities[n_q] - fidelity(state, initial_state(n_q))) <= 1e-14
    assert not rho[:n_q].any() and not fidelities[:n_q].any()


@pytest.mark.parametrize("n_q", [4, 7, 10])
def test_noiseless_echo_identity(n_q):
    records = run_trace(
        EchoConfig(n_q=n_q, epsilon=0.0, t_r=20, realizations=1, workers=1)
    )
    assert len(records) == 41
    final = records[-1]
    assert abs(final.e_mean - 1.0) < 1e-10
    assert final.s_mean < 1e-10
    assert final.f_mean > 1 - 1e-10


def test_trace_records_shape_and_t0():
    records = run_trace(
        EchoConfig(n_q=3, epsilon=0.02, t_r=4, realizations=3, workers=1)
    )
    assert [r.t for r in records] == list(range(9))
    first = records[0]
    assert first.e_mean == pytest.approx(1.0, abs=1e-12)
    assert first.f_mean == pytest.approx(1.0, abs=1e-12)
    assert first.s_mean == pytest.approx(0.0, abs=1e-12)
    assert first.e_std == 0.0


def test_trace_reproducible_and_worker_independent():
    config = dict(n_q=4, epsilon=0.03, t_r=5, realizations=6, master_seed=42)
    a = run_trace(EchoConfig(**config, workers=1))
    b = run_trace(EchoConfig(**config, workers=1))
    c = run_trace(EchoConfig(**config, workers=2))
    assert a == b
    assert a == c


def test_echo_curve_reproducible_and_grid_consistent():
    config = dict(n_q=4, epsilon=0.02, realizations=5, master_seed=7)
    curve = run_echo_curve(EchoConfig(**config, t_r_grid=(1, 3, 6), workers=1))
    assert [r.t for r in curve] == [2, 6, 12]
    again = run_echo_curve(EchoConfig(**config, t_r_grid=(1, 3, 6), workers=2))
    assert curve == again
    # a grid point's result is keyed by its reversal time, not its position
    sub = run_echo_curve(EchoConfig(**config, t_r_grid=(3,), workers=1))
    assert sub[0] == curve[1]


def test_echo_curve_matches_trace_endpoint():
    # the echo-curve point at t_r equals the last trace record for the same
    # seed: identical streams, identical dynamics
    config = dict(n_q=4, epsilon=0.02, realizations=4, master_seed=9)
    trace = run_trace(EchoConfig(**config, t_r=6, workers=1))
    curve = run_echo_curve(EchoConfig(**config, t_r_grid=(6,), workers=1))
    assert curve[0] == trace[-1]


def test_noiseless_curve_is_flat():
    curve = run_echo_curve(
        EchoConfig(n_q=5, epsilon=0.0, t_r_grid=(1, 4, 9), realizations=1, workers=1)
    )
    for record in curve:
        assert abs(record.e_mean - 1.0) < 1e-10
        assert record.f_mean > 1 - 1e-10


def test_realization_halves_agree():
    # means over realizations [0, 60) and [60, 120) agree within 3 combined
    # standard errors
    config = dict(n_q=5, epsilon=0.02, t_r=6, master_seed=13)
    full = run_trace(EchoConfig(**config, realizations=120))
    half = 60
    final_full = full[-1]

    def run_slice(first):
        # reuse the protocol by shifting the realization window via seeds:
        # realizations are keyed (seed, t_r, index), so slices of the full
        # run are reproduced by running with the same seed and reading the
        # per-index observables; easiest is to re-run both halves fully
        from sawtooth_echo.echo import _echo_block

        block = _echo_block((EchoConfig(**config), 6, first, half, False))
        return block[:, 0]

    a = run_slice(0)
    b = run_slice(half)
    for col in range(3):
        mean_a, mean_b = a[:, col].mean(), b[:, col].mean()
        se = math.sqrt(a[:, col].var(ddof=1) / half + b[:, col].var(ddof=1) / half)
        assert abs(mean_a - mean_b) <= 3 * se + 1e-12
    # and the full-run mean is the average of the halves
    assert final_full.e_mean == pytest.approx(
        (a[:, 0].mean() + b[:, 0].mean()) / 2, abs=1e-12
    )


def test_tasks_split_each_reversal_time(monkeypatch):
    # about four (reversal time, realization chunk) tasks per process over
    # the whole run, at least one per reversal time, never more than R per point
    seen = []
    scatter = echo._scatter
    monkeypatch.setattr(echo, "_cpus", lambda: 2)  # two processes, whatever the host
    monkeypatch.setattr(
        echo, "_scatter", lambda tasks, processes: seen.append(tasks) or scatter(tasks, 1)
    )
    base = dict(n_q=3, epsilon=0.02, realizations=10, master_seed=4, workers=2)
    run_trace(EchoConfig(**base, t_r=3))
    run_echo_curve(EchoConfig(**base, t_r_grid=tuple(range(1, 9))))
    run_echo_curve(EchoConfig(**base, t_r_grid=tuple(range(1, 21))))
    run_echo_curve(EchoConfig(**base, t_r_grid=(4,)))
    run_echo_curve(EchoConfig(**{**base, "realizations": 5}, t_r_grid=(4,)))
    assert [len(tasks) for tasks in seen] == [8, 8, 20, 8, 5]
    assert [{task[4] for task in tasks} for tasks in seen] == [{True}] + [{False}] * 4
    for tasks in seen:
        # each reversal time's chunks cover its realizations in order
        for t_r in {task[1] for task in tasks}:
            covered = [
                r for _, t, first, count, _ in tasks if t == t_r
                for r in range(first, first + count)
            ]
            assert covered == list(range(tasks[0][0].realizations))


def test_pool_never_forks_more_workers_than_tasks(monkeypatch):
    pool = InlinePool()
    monkeypatch.setattr(echo, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(echo, "_cpus", lambda: 4)  # the task count caps the pool
    config = dict(n_q=3, epsilon=0.01, t_r=2, realizations=2)
    records = run_trace(EchoConfig(**config, workers=4))
    assert pool.sizes == [2]
    assert records == run_trace(EchoConfig(**config, workers=1))


def test_pool_never_outgrows_the_cpus_and_starts_the_longest_tasks_first(monkeypatch):
    # 5000 workers split each of 4 points into R = 3 one-realization tasks;
    # a fork pool would start every process it is sized for at once
    pool = InlinePool()
    monkeypatch.setattr(echo, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(echo, "_cpus", lambda: 3)
    config = dict(n_q=3, epsilon=0.02, t_r_grid=(1, 2, 4, 7), realizations=3, master_seed=2)
    records = run_echo_curve(EchoConfig(**config, workers=5000))
    assert pool.sizes == [3]
    submitted = [t_r for ((_, t_r, _, _, _),) in pool.submitted]
    assert submitted == [7, 7, 7, 4, 4, 4, 2, 2, 2, 1, 1, 1]
    assert records == run_echo_curve(EchoConfig(**config, workers=1))
    # one CPU runs the same tasks in this process, without a pool
    monkeypatch.setattr(echo, "_cpus", lambda: 1)
    assert run_echo_curve(EchoConfig(**config, workers=5000)) == records
    assert pool.sizes == [3]


def test_workers_above_the_cpus_run_the_tasks_of_the_cpus(monkeypatch):
    # the split follows the processes that run, not the workers asked for:
    # 400 workers on 2 CPUs submit the tasks of 2 workers, not one per
    # realization, and a pool of 2
    pool = InlinePool()
    monkeypatch.setattr(echo, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(echo, "_cpus", lambda: 2)
    config = dict(n_q=3, epsilon=0.02, t_r_grid=(1, 2, 3), realizations=10, master_seed=6)
    runs = {}
    for workers in (2, 400):
        pool.submitted.clear()
        records = run_echo_curve(EchoConfig(**config, workers=workers))
        runs[workers] = records, [task[1:] for (task,) in pool.submitted]
    assert runs[400] == runs[2]
    assert len(runs[2][1]) == 9  # three chunks of 4, 3 and 3 per reversal time
    assert pool.sizes == [2, 2]


def test_processes_never_outgrow_the_memory_of_their_tasks(monkeypatch):
    # every process binds its own registers and staging: memory that holds
    # two n_q = 14 echo tasks (56 * 2**14 bytes each and the staging) holds
    # one n_q = 15 task, which then runs without a pool, whatever the CPUs
    staging = engine.staged_block(map_program(MapParams(14, 5.0)))[1]
    task = (engine.TASK_BYTES_PER_AMPLITUDE << 14) + staging
    parent = 24 * 2 * 6 + 3 * echo._RECORD_BYTES  # t_r = 1: its observables and records
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": -(-(2 * task + parent) // 4096)}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(echo, "_cpus", lambda: 2)
    pool = InlinePool()
    monkeypatch.setattr(echo, "ProcessPoolExecutor", pool)
    for n_q in (14, 15):
        config = dict(n_q=n_q, epsilon=0.02, t_r=1, realizations=2, master_seed=8)
        records = run_trace(EchoConfig(**config, workers=2))
        assert records == run_trace(EchoConfig(**config, workers=1))
    assert pool.sizes == [2]


def _scaled_curves(config):
    """(summary, {(n_q, epsilon): records}) of a scaling run."""
    curves = {}

    def write_curve(point, records):
        curves[point.n_q, point.epsilon] = records

    return run_scaling(config, write_curve), curves


def test_a_scaling_run_shares_one_pool_decided_by_its_tightest_point(monkeypatch):
    # the four points run on one pool, sized once: the n_q = 4 points admit
    # two processes by the memory rule, the n_q = 3 ones eight, so every
    # point splits for two (three chunks of each reversal time's four
    # realizations) and the pool has two
    pool = InlinePool()
    monkeypatch.setattr(echo, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(echo, "_cpus", lambda: 3)
    monkeypatch.setattr(echo, "_processes_that_fit", lambda config: 2 if config.n_q == 4 else 8)
    grid = dict(nq_list=(3, 4), epsilon_list=(0.01, 0.03), t_r_grid=(1, 2, 4), realizations=4)
    pooled = _scaled_curves(ScalingConfig(**grid, master_seed=3, workers=3))
    assert pool.sizes == [2]
    assert len(pool.submitted) == 4 * 3 * 3
    assert pooled == _scaled_curves(ScalingConfig(**grid, master_seed=3, workers=1))
    assert pool.sizes == [2]


def test_a_process_binds_once_per_register_and_frees_it_with_its_run(monkeypatch):
    # one process runs every task, (n_q, t_r, realization chunk) at a time:
    # it binds each n_q once, drops that register before binding the next,
    # and keeps none once the run returns.  The cyclic collector stays off,
    # so a register that outlives its last reference shows
    registers = []

    def bind(program, amps):
        assert all(register() is None for register in registers)
        registers.append(weakref.ref(amps))
        return engine.BoundProgram(program, amps)

    monkeypatch.setattr(echo, "BoundProgram", bind)
    config = ScalingConfig(
        nq_list=(3, 4), epsilon_list=(0.01, 0.03), t_r_grid=(1, 2, 4), realizations=3, workers=1
    )
    gc.disable()
    try:
        run_scaling(config, lambda point, records: None)
        assert len(registers) == 2 and registers[-1]() is None
        run_trace(EchoConfig(n_q=5, epsilon=0.02, t_r=3, realizations=5, workers=1))
        assert len(registers) == 3 and registers[-1]() is None
    finally:
        gc.enable()
    assert echo._open.binding is None


def test_verify_leaves_no_echo_binding_behind():
    # the noisy checks bind registers of their own; an echo binding made
    # outside any run would keep its register until the next run's first task
    assert all(check.passed for check in run_checks())
    assert echo._open.binding is None


def test_a_long_half_stages_no_more_than_the_block_budget(monkeypatch):
    # a task holds the staging its binding allocates, the row its ops read
    # and the rows of the engine's fixed budget, whatever its halves: a
    # 10**6-iteration half costs what a one-iteration half does, and 2 MiB
    # holds one such n_q = 14 task where memory for a second one holds two
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (2 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    program = map_program(MapParams(14, 5.0))
    compiled = engine._compile(program, engine._DENSE_PHASE_BYTES, engine._KRON_MAX_STRIDE)
    rows, staging = engine.staged_block(program)
    assert staging == 8 * compiled.width + rows * compiled.row_bytes
    assert 1 <= rows * compiled.row_bytes <= engine._STAGE_BYTES
    config = dict(n_q=14, epsilon=0.02, realizations=2)
    long, short = EchoConfig(**config, t_r_grid=(1, 10**6)), EchoConfig(**config, t_r=1)
    assert echo._processes_that_fit(long) == echo._processes_that_fit(short) == 1
    task = (engine.TASK_BYTES_PER_AMPLITUDE << 14) + staging
    parent = 24 * 2 * 6 + 3 * echo._RECORD_BYTES  # t_r = 1: its observables and records
    pages["SC_PHYS_PAGES"] = -(-(2 * task + parent) // 4096)
    assert echo._processes_that_fit(long) == echo._processes_that_fit(short) == 2
    # memory that holds an n_q = 15 task and its staging, to the page,
    # refuses it a page short, and names the staging
    rows, staging = engine.staged_block(map_program(MapParams(15, 5.0)))
    parent = 24 * 2 * 3 + 2 * echo._RECORD_BYTES  # the (1, 2) grid's observables and records
    memory = (engine.TASK_BYTES_PER_AMPLITUDE << 15) + parent + staging
    pages["SC_PHYS_PAGES"] = -(-memory // 4096)
    config = dict(n_q=15, epsilon=0.02, realizations=2, t_r_grid=(1, 2))
    assert echo._processes_that_fit(EchoConfig(**config)) == 1
    pages["SC_PHYS_PAGES"] -= 1
    with pytest.raises(ValueError, match=f"its staging of {rows} rows of noise, {staging} bytes"):
        EchoConfig(**config)


def test_curve_records_independent_of_chunking(monkeypatch):
    # 14 realizations: at 2 and 3 processes the chunk count does not divide R
    monkeypatch.setattr(echo, "_cpus", lambda: 3)
    config = dict(n_q=3, epsilon=0.03, realizations=14, master_seed=11)
    one = [run_echo_curve(EchoConfig(**config, t_r_grid=(5,), workers=w)) for w in (1, 2, 3)]
    two = [run_echo_curve(EchoConfig(**config, t_r_grid=(2, 5), workers=w)) for w in (1, 2, 3)]
    assert one[0] == one[1] == one[2]
    assert two[0] == two[1] == two[2]
    assert one[0][0] == two[0][1]


def test_trace_records_independent_of_chunking(monkeypatch):
    # 14 realizations of 11 snapshots: at 2 and 3 processes the chunks, and
    # so the stacks each task reduces, hold different realizations
    monkeypatch.setattr(echo, "_cpus", lambda: 3)
    config = dict(n_q=3, epsilon=0.03, t_r=5, realizations=14, master_seed=12)
    runs = [run_trace(EchoConfig(**config, workers=w)) for w in (1, 2, 3)]
    assert len(runs[0]) == 11
    assert runs[0] == runs[1] == runs[2]


def test_trace_records_independent_of_measure_block(monkeypatch):
    # a block that fills mid-realization, several times per task, and
    # leaves a partial stack at the end reduces to the same records
    config = EchoConfig(n_q=4, epsilon=0.02, t_r=3, realizations=5, master_seed=3, workers=1)
    expected = run_trace(config)
    reductions = []
    reduce_measures = echo._reduce_measures

    def counting_reduce(rho, *rest):
        reductions.append(len(rho))
        reduce_measures(rho, *rest)

    monkeypatch.setattr(echo, "_reduce_measures", counting_reduce)
    monkeypatch.setattr(echo, "_MEASURE_BLOCK", 5)
    assert run_trace(config) == expected
    # four tasks of 2, 1, 1 and 1 realizations of 7 snapshots each
    assert reductions == [5, 5, 4] + [5, 2] * 3


def test_one_eigendecomposition_per_snapshot(monkeypatch):
    # concurrence and entropy share one eigh of rho_12, and every snapshot
    # is decomposed exactly once, in the stacks its task reduces
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("the snapshot path must not call eigvalsh")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    t_r, count = 3, 5
    records = run_trace(
        EchoConfig(n_q=4, epsilon=0.02, t_r=t_r, realizations=count, master_seed=2, workers=1)
    )
    assert len(records) == 2 * t_r + 1
    assert sum(calls) == count * (2 * t_r + 1)
    assert len(calls) == 4  # one stack per task: 5 realizations in 4 chunks


def test_t_r_zero_trace():
    records = run_trace(EchoConfig(n_q=3, epsilon=0.5, t_r=0, realizations=2))
    assert len(records) == 1
    assert records[0].e_mean == pytest.approx(1.0, abs=1e-12)


@pytest.mark.slow
def test_entanglement_recovered_only_at_echo_time():
    # chaos destroys the pairwise entanglement within a few iterations and
    # only the reversal brings it back
    records = run_trace(
        EchoConfig(n_q=5, epsilon=0.01, t_r=20, realizations=50, master_seed=3)
    )
    echo_value = records[-1].e_mean
    mid = max(r.e_mean for r in records if 5 <= r.t <= 35)
    assert echo_value > 0.8
    assert echo_value > mid + 0.5


def test_fidelity_non_increasing_in_epsilon():
    shared = dict(n_q=4, t_r_grid=(2, 5), realizations=40, master_seed=5, workers=1)
    weak = run_echo_curve(EchoConfig(epsilon=0.01, **shared))
    strong = run_echo_curve(EchoConfig(epsilon=0.03, **shared))
    for w, s in zip(weak, strong):
        spread = 2 * math.sqrt(w.f_std**2 + s.f_std**2) / math.sqrt(40)
        assert s.f_mean <= w.f_mean + spread
        assert s.e_mean <= w.e_mean + spread


@pytest.mark.slow
def test_echo_curve_shape_matches_observed_decay():
    # mean echo decays monotonically (up to 2 sigma) and strong noise kills
    # it outright by t_e = 40
    curve = run_echo_curve(
        EchoConfig(
            n_q=7, epsilon=0.01, t_r_grid=tuple(range(1, 16)), realizations=60,
            master_seed=9,
        )
    )
    for a, b in zip(curve, curve[1:]):
        wiggle = 2 * math.sqrt(a.e_std**2 + b.e_std**2) / math.sqrt(60)
        assert b.e_mean <= a.e_mean + wiggle
    tail = run_echo_curve(
        EchoConfig(
            n_q=7, epsilon=0.04, t_r_grid=(20, 25, 30), realizations=60,
            master_seed=9,
        )
    )
    assert all(r.e_mean < 0.05 for r in tail)


def test_config_validation():
    with pytest.raises(ValueError):
        EchoConfig(n_q=1, epsilon=0.0, t_r=3)
    # epsilon is an angle range: above pi it only wraps the circle
    for epsilon in (-0.1, 4.0, 1e308, math.inf, math.nan):
        with pytest.raises(ValueError):
            EchoConfig(n_q=3, epsilon=epsilon, t_r=3)
        with pytest.raises(ValueError):
            ScalingConfig(nq_list=(3,), epsilon_list=(0.01, epsilon))
    # a K for which a gate phase of the map overflows is refused, even when
    # K itself is finite; the same K fits a smaller register
    for n_q, K in ((3, 1e308), (10, 1e307), (3, math.inf), (3, -math.inf), (3, math.nan)):
        message = rf"K = {re.escape(str(K))} overflows .* n_q = {n_q} map"
        with pytest.raises(ValueError, match=message):
            EchoConfig(n_q=n_q, epsilon=0.01, t_r=3, K=K)
        with pytest.raises(ValueError, match="K = "):
            ScalingConfig(nq_list=(2, n_q), epsilon_list=(0.01,), K=K)
    assert EchoConfig(n_q=3, epsilon=0.01, t_r=3, K=1e307).K == 1e307
    # a repeated grid value is refused: it would be simulated, written and fitted twice
    with pytest.raises(ValueError):
        ScalingConfig(nq_list=(3,), epsilon_list=(0.01, 0.01))
    # a register larger than physical memory is refused before allocation
    with pytest.raises(ValueError, match="physical memory"):
        EchoConfig(n_q=40, epsilon=0.0, t_r=3)
    with pytest.raises(ValueError, match="physical memory"):
        ScalingConfig(nq_list=(3, 40), epsilon_list=(0.01,))
    # so are observables that the parent could not hold, 24 bytes each
    with pytest.raises(ValueError, match="physical memory"):
        EchoConfig(n_q=4, epsilon=0.01, t_r=10**13, realizations=2)
    with pytest.raises(ValueError, match="physical memory"):
        EchoConfig(n_q=4, epsilon=0.01, t_r_grid=(1, 2), realizations=10**14)
    # and a range whose records would not fit, before it is listed
    with pytest.raises(ValueError, match="physical memory"):
        EchoConfig(n_q=3, epsilon=0.01, t_r_grid=range(1, 10**12 + 1), realizations=1)
    with pytest.raises(ValueError, match="physical memory"):
        ScalingConfig(nq_list=range(3, 10**12 + 1), epsilon_list=(0.01,), t_r_grid=(1, 2))
    with pytest.raises(ValueError):
        EchoConfig(n_q=3, epsilon=0.1, t_r=3, realizations=0)
    with pytest.raises(ValueError):
        EchoConfig(n_q=3, epsilon=0.1, t_r_grid=())
    with pytest.raises(ValueError):
        EchoConfig(n_q=3, epsilon=0.1, t_r_grid=(3, 2))
    with pytest.raises(ValueError):
        run_trace(EchoConfig(n_q=3, epsilon=0.1, t_r_grid=(1, 2)))
    with pytest.raises(ValueError):
        run_echo_curve(EchoConfig(n_q=3, epsilon=0.1, t_r=4))


def test_workers_decided_at_construction(monkeypatch):
    # the default is the CPUs this process may run on, not the machine's
    pool = InlinePool()
    monkeypatch.setattr(echo, "ProcessPoolExecutor", pool)
    config = dict(n_q=3, epsilon=0.01, t_r=2, realizations=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert echo._cpus() == 1
    run_trace(EchoConfig(**config))  # one CPU runs without a pool
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert echo._cpus() == 3
    for workers in (None, 2, 5):
        run_trace(EchoConfig(**config, workers=workers))
    assert pool.sizes == [3, 2, 3]
    # a bad count fails at construction, before any run starts a pool
    with pytest.raises(ValueError, match="workers"):
        EchoConfig(n_q=3, epsilon=0.01, t_r=2, workers=0)
    with pytest.raises(ValueError, match="workers"):
        ScalingConfig(nq_list=(3,), epsilon_list=(0.01,), workers=0)


def test_record_is_plain_data():
    record = EchoRecord(3, 0.5, 0.1, 1.0, 0.2, 0.9, 0.05)
    assert record.t == 3
    assert record.f_std == 0.05
