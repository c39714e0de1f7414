"""Noise model: tilted Hadamards, random phases, reproducible streams."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import dense_single_qubit, norm_drift, random_state, tilted_hadamard
from sawtooth_echo import (
    ControlledPhase,
    GateProgram,
    Hadamard,
    MapParams,
    PhaseShift,
    bit_reversal_permutation,
    dft_matrix,
    fidelity,
    gates_per_iteration,
    initial_state,
    map_program,
    qft_program,
    realization_rng,
)
from sawtooth_echo import engine
from sawtooth_echo.engine import BoundProgram


def test_zero_noise_reproduces_ideal_bit_for_bit():
    rng = np.random.default_rng(1)
    program = map_program(MapParams(5, 5.0))
    ideal = random_state(5, rng)
    noisy = ideal.copy()
    BoundProgram(program, ideal.amps).apply_ideal()
    BoundProgram(program, noisy.amps).apply_noisy(realization_rng(3, 0, 0), 0.0)
    np.testing.assert_array_equal(noisy.amps, ideal.amps)


def test_tilted_hadamard_properties():
    # unit axis dotted with the Pauli vector: Hermitian, unitary, squares to 1
    for nu in (-0.3, -1e-3, 0.0, 0.2, 1.0):
        h = tilted_hadamard(nu)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        tilted_hadamard(0.0), np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15
    )


def test_mean_tilted_hadamard_deviation_is_second_order():
    # E[tilted H] = sinc(eps) * H: deviation about eps^2/6, well under 5 eps^2
    epsilon = 0.1
    rng = np.random.default_rng(7)
    draws = rng.uniform(-epsilon, epsilon, 100_000)
    mean = np.zeros((2, 2), dtype=complex)
    for nu in draws:
        mean += tilted_hadamard(nu)
    mean /= len(draws)
    ideal = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    deviation = np.linalg.norm(mean - ideal, ord=2)
    assert deviation < 5 * epsilon**2


def test_noise_streams_are_reproducible_and_distinct():
    a = realization_rng(11, 3, 7).uniform(-1, 1, 8)
    b = realization_rng(11, 3, 7).uniform(-1, 1, 8)
    c = realization_rng(11, 3, 8).uniform(-1, 1, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noisy_application_is_reproducible():
    program = map_program(MapParams(4, 5.0))
    s1 = random_state(4, np.random.default_rng(2))
    s2 = s1.copy()
    BoundProgram(program, s1.amps).apply_noisy(realization_rng(9, 0, 0), 0.05)
    BoundProgram(program, s2.amps).apply_noisy(realization_rng(9, 0, 0), 0.05)
    np.testing.assert_array_equal(s1.amps, s2.amps)


def test_noisy_gates_preserve_norm():
    program = map_program(MapParams(6, 5.0))
    state = random_state(6, np.random.default_rng(3))
    rng = realization_rng(1, 0, 0)
    bound = BoundProgram(program, state.amps)
    for _ in range(125):  # > 1e4 noisy gates
        bound.apply_noisy(rng, 0.08)
    assert norm_drift(state.amps) < 1e-10


def test_single_noisy_iteration_fidelity_bound():
    # per-gate infidelity is O(eps^2); one iteration stays within
    # 10 * n_g * eps^2 of the ideal map on average
    n_q, epsilon = 5, 1e-2
    params = MapParams(n_q, 5.0)
    program = map_program(params)
    rng = np.random.default_rng(4)
    total = 0.0
    draws = 100
    for r in range(draws):
        state = random_state(n_q, rng)
        reference = state.copy()
        BoundProgram(program, reference.amps).apply_ideal()
        BoundProgram(program, state.amps).apply_noisy(realization_rng(17, 0, r), epsilon)
        total += fidelity(state, reference)
    mean_fidelity = total / draws
    assert mean_fidelity >= 1 - 10 * gates_per_iteration(n_q) * epsilon**2


def test_draw_count_layout():
    program = map_program(MapParams(4, 5.0))
    state = random_state(4, np.random.default_rng(5))
    bound = BoundProgram(program, state.amps)
    # 2n Hadamards x1, 2n phase shifts x2, 2n(n-1) controlled phases x2
    n = 4
    assert bound.draw_count == 2 * n * 1 + 2 * n * 2 + 2 * n * (n - 1) * 2


def test_noisy_controlled_phase_leaves_control_zero_block():
    # the noisy controlled gate is a control-conditioned noisy phase shift;
    # amplitudes with the control bit unset must be bit-identical
    rng = np.random.default_rng(6)
    for control, target in ((2, 4), (4, 2)):
        program = GateProgram(4, (ControlledPhase(control, target, 0.73),))
        state = random_state(4, rng)
        before = state.amps.copy()
        BoundProgram(program, state.amps).apply_noisy(realization_rng(8, 0, 0), 0.3)
        control_bit = (np.arange(16) >> (4 - control)) & 1
        np.testing.assert_array_equal(
            state.amps[control_bit == 0], before[control_bit == 0]
        )
        assert np.abs(state.amps[control_bit == 1] - before[control_bit == 1]).max() > 1e-3
        assert norm_drift(state.amps) < 1e-12


def _reference_noisy(program, amps, draws):
    """Gate-by-gate dense application of the noisy program, consuming draws
    in program order (1 per Hadamard, 2 per phase-type gate)."""
    n_q = program.n_q
    amps = amps.copy()
    pos = 0
    for gate in program.gates:
        if isinstance(gate, Hadamard):
            u = dense_single_qubit(n_q, gate.target, tilted_hadamard(draws[pos]))
            pos += 1
        else:
            d0, d1 = draws[pos : pos + 2]
            pos += 2
            primitive = np.diag([np.exp(1j * d0), np.exp(1j * (gate.phase + d1))])
            u = dense_single_qubit(n_q, gate.target, primitive)
            if isinstance(gate, ControlledPhase):
                # both factors are diagonal, so their product is elementwise
                unset = dense_single_qubit(n_q, gate.control, np.diag([1.0, 0.0]))
                u = unset + dense_single_qubit(n_q, gate.control, np.diag([0.0, 1.0])) * u
        amps = u @ amps
    assert pos == len(draws)
    return amps


def _random_program(n_q, rng):
    gates = []
    for _ in range(40):
        kind = rng.integers(3)
        if kind == 0:
            gates.append(Hadamard(int(rng.integers(1, n_q + 1))))
        elif kind == 1:
            gates.append(PhaseShift(int(rng.integers(1, n_q + 1)), rng.uniform(-8, 8)))
        else:
            control, target = rng.choice(np.arange(1, n_q + 1), size=2, replace=False)
            gates.append(ControlledPhase(int(control), int(target), rng.uniform(-8, 8)))
    return GateProgram(n_q, tuple(gates))


#: (Hadamard kron stride, dense phase budget) settings the engine tests run
#: under: the bind rules, every target forced onto each Hadamard layout, and
#: every diagonal forced onto each phase path
def _layouts(n_q):
    rule = (engine._KRON_MAX_STRIDE, engine._DENSE_PHASE_BYTES)
    widest = 2 << n_q
    return [rule, (0, rule[1]), (widest, rule[1]), (rule[0], 0), (rule[0], math.inf)]


@pytest.mark.parametrize("n_q", [2, 3, 4, 5, 6, 7, 9])
def test_compiled_engine_matches_gate_by_gate_reference(n_q, monkeypatch):
    # draw order and the fusion of phase-type runs into one diagonal are
    # invisible to the statistical checks; compare every amplitude against
    # the dense per-gate reference, with the layouts and phase paths the
    # bind rules pick (both Hadamard layouts from n_q = 4, both phase paths
    # at n_q = 9) and with every op forced onto each one
    rng = np.random.default_rng(40 + n_q)
    params = MapParams(n_q, 5.0)
    programs = [_random_program(n_q, rng) for _ in range(4)]
    programs += [map_program(params), map_program(params).inverse()]
    epsilon = 0.3
    cases = []
    for seed, program in enumerate(programs):
        state = random_state(n_q, rng)
        count = sum(1 if isinstance(g, Hadamard) else 2 for g in program.gates)
        draws = np.random.default_rng(seed).uniform(-epsilon, epsilon, count)
        cases.append((seed, program, state, draws, _reference_noisy(program, state.amps, draws)))
    for max_stride, phase_budget in _layouts(n_q):
        monkeypatch.setattr(engine, "_KRON_MAX_STRIDE", max_stride)
        monkeypatch.setattr(engine, "_DENSE_PHASE_BYTES", phase_budget)
        for seed, program, state, draws, expected in cases:
            bound = BoundProgram(program, state.amps.copy())
            assert bound.draw_count == len(draws)
            if max_stride > 1 << n_q:  # all kron: one stride group per target
                targets = {g.target for g in program.gates if isinstance(g, Hadamard)}
                assert len(bound._compiled.krons) == len(targets)
            bound.apply_noisy(np.random.default_rng(seed), epsilon)
            assert np.abs(bound.amps - expected).max() < 1e-12


@pytest.mark.parametrize("epsilon", [0.01, math.pi])
@pytest.mark.parametrize("window", [9, 10, 11, 12])
def test_factorized_table_matches_the_dense_phase_evaluation(window, epsilon):
    # the gate-by-gate reference takes 11 s at n_q = 10 and a 268 MB matrix
    # per gate at 12, so the factorized kernel's table is checked directly,
    # over a whole register, against exp(i * F_high @ C @ F_low^T) as the
    # dense path evaluates it: a run of every phase shift and controlled
    # phase, a phase-shift-only run, and the map's full-window runs (the
    # free rotation, the kick and the first ladder of each QFT).  Both round
    # the phase, so they agree within a few ulps of its largest value (at
    # most 4.5 over 640 random runs), where |phase| reaches about 60
    rng = np.random.default_rng(window)
    qubits = range(1, window + 1)
    mixed = [PhaseShift(q, rng.uniform(-8, 8)) for q in qubits]
    pairs = itertools.combinations(qubits, 2)
    mixed += [ControlledPhase(c, t, rng.uniform(-8, 8)) for c, t in pairs]
    runs = [mixed, mixed[:window]]
    for is_hadamard, run in itertools.groupby(
        map_program(MapParams(window, 5.0)).gates, lambda g: isinstance(g, Hadamard)
    ):
        run = tuple(run)
        if not is_hadamard and engine._compile_diagonal(window, run, math.inf)[0][1] >> window:
            runs.append(run)
    assert len(runs) == 6
    for gates in runs:
        draws = rng.uniform(-epsilon, epsilon, 2 * len(gates))
        matrix, ideal = engine._compile_diagonal(window, gates, math.inf)[1]
        phase = ideal + matrix @ draws
        _, _, bind = engine._compile_diagonal(window, gates, 0)
        region = np.empty(1 << window, complex)
        tables = engine._Tables(None, None, None, draws=draws, region=region)
        src, dst = np.ones(1 << window, complex), np.empty(1 << window, complex)
        bind(src, dst, tables, table=slice(0, 1 << window), span=slice(0, draws.size))()
        np.testing.assert_array_equal(dst, region)
        assert np.abs(region - np.exp(1j * phase)).max() <= 8 * np.spacing(np.abs(phase).max())


def test_dense_phase_tables_stop_growing_with_the_register():
    # the phases and factors a staged row holds for the dense diagonals are
    # bounded by the budget, and the same at n_q = 12 and 20; the Hadamard
    # tilts follow them, and the factorized diagonals share one factor
    # region, as long as the largest factorized table, with the inverse,
    # which engine.TASK_BYTES_PER_AMPLITUDE counts
    def tables(n_q):
        bound = BoundProgram(map_program(MapParams(n_q, 5.0)), np.zeros(1 << n_q, complex))
        assert bound.inverse()._buffers is bound._buffers
        region = bound._buffers[2]
        assert region.dtype == np.complex128
        compiled = bound._compiled
        dense = compiled.ideal.size - compiled.tilts.size
        assert compiled.tilts.size == 2 * n_q
        dense_ops = sum(len(matrices) for matrices, _, _ in compiled.groups)
        diagonals = len(bound._ops) - 2 * n_q  # all but the Hadamards
        return 24 * dense, dense_ops, diagonals, region.size

    # every diagonal is dense up to n_q = 8; from 9 the free rotation and
    # the kick factorize, and the QFT ladders are dense up to 10 qubits
    assert tables(8)[1:] == (16, 16, 0)
    # each P shape occurs twice: a QFT ladder and its mirror, and the free
    # rotation and the kick
    bound = BoundProgram(map_program(MapParams(8, 5.0)), np.zeros(1 << 8, complex))
    assert [len(matrices) for matrices, _, _ in bound._compiled.groups] == [2] * 8
    assert tables(9)[1:] == (16, 18, 2**9)
    small, large = tables(12), tables(20)
    assert small[:2] == large[:2] == (24 * 2 * (2**11 - 4), 18)
    assert small[0] <= engine._DENSE_PHASE_BYTES
    assert (small[3], large[3]) == (2**12, 2**20)
    assert 16 * 2**20 == (engine.TASK_BYTES_PER_AMPLITUDE - 16 * engine.TASK_REGISTERS) << 20


def test_noisy_iteration_allocates_no_table():
    # the factorized diagonals evaluate their tables in the bound buffers:
    # one noisy n_q = 16 iteration allocates no table-sized temporary (a
    # register is 1 MiB, its phase table 512 kB); numpy's own ufunc buffer,
    # at most getbufsize() entries of 16 bytes, is the only larger block
    n_q = 16
    bound = BoundProgram(map_program(MapParams(n_q, 5.0)), initial_state(n_q).amps)
    rng = np.random.default_rng(5)
    bound.apply_noisy(rng, 0.01)
    tracemalloc.start()
    try:
        bound.apply_noisy(rng, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 + 16 * np.getbufsize()


@pytest.mark.parametrize("n_q", [1, 3, 6])
def test_odd_op_count_leaves_result_in_callers_buffer(n_q):
    # qft_program has 2 n_q - 1 ops, so its result lands in the scratch
    # buffer and is copied back once per application
    program = qft_program(n_q)
    state = random_state(n_q, np.random.default_rng(n_q))
    amps = state.amps
    before = amps.copy()
    bound = BoundProgram(program, amps)
    assert len(bound._ops) == 2 * n_q - 1
    assert bound.amps is amps
    matrix = dft_matrix(n_q)[bit_reversal_permutation(n_q)]
    bound.apply_ideal()
    assert np.abs(amps - matrix @ before).max() < 1e-12
    bound.apply_ideal()  # again from the copied-back result
    assert np.abs(amps - matrix @ (matrix @ before)).max() < 1e-12


@pytest.mark.parametrize("n_q", range(2, 10))
def test_inverse_with_mirrored_draws_undoes_noisy_program(n_q, monkeypatch):
    # the inverse is bound to the forward program's buffers; fed the
    # mirrored draws it returns the start exactly, and fed the draws
    # reversed wholesale (the negative control) it does not; qft_program
    # has an odd op count, so its result is copied back through the scratch
    rng = np.random.default_rng(60 + n_q)
    programs = [map_program(MapParams(n_q, 5.0)), qft_program(n_q)]
    programs += [_random_program(n_q, rng) for _ in range(2)]
    for (max_stride, phase_budget), program in itertools.product(_layouts(n_q), programs):
        monkeypatch.setattr(engine, "_KRON_MAX_STRIDE", max_stride)
        monkeypatch.setattr(engine, "_DENSE_PHASE_BYTES", phase_budget)
        start = random_state(n_q, rng).amps
        amps = start.copy()
        forward = BoundProgram(program, amps)
        backward = forward.inverse()
        assert backward.amps is amps
        assert backward._buffers is forward._buffers
        assert backward.draw_count == forward.draw_count
        draws = rng.uniform(-0.3, 0.3, forward.draw_count)
        forward.apply(draws)
        backward.apply(forward.mirror(draws))
        assert np.abs(amps - start).max() < 1e-13
        forward.apply(draws)
        backward.apply(draws[::-1])
        assert np.abs(amps - start).max() > 1e-2


_BLAS_PROBE = """
import hashlib
from sawtooth_echo import MapParams, initial_state, map_program, realization_rng
from sawtooth_echo.engine import BoundProgram
state = initial_state(12)
forward = map_program(MapParams(12, 5.0))
rng = realization_rng(7, 2, 0)
for program in (forward, forward.inverse()):
    bound = BoundProgram(program, state.amps)
    for _ in range(2):
        bound.apply_noisy(rng, 0.05)
print(hashlib.sha256(state.amps.tobytes()).hexdigest())
"""


def test_amplitudes_independent_of_blas_threads():
    # every Hadamard is a BLAS matmul; the BLAS thread count, fixed when
    # numpy loads, must not change a single bit of a short n_q = 12 echo
    src = str(Path(engine.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


#: the bundled OpenBLAS's thread count once sawtooth_echo is imported,
#: read as perfbench/run.py's fingerprint reads it; None without one
_BLAS_THREADS_PROBE = """
import ctypes, glob, os
import sawtooth_echo
import numpy
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            if get is not None and threads is None:
                get.restype = ctypes.c_int
                threads = get()
print(threads)
"""


def test_package_pins_one_blas_thread_unless_the_user_sets_one():
    # every BLAS call is below OpenBLAS's threading threshold and the
    # parallelism comes from processes, so a second thread would only spin
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts one thread on one CPU, pinned or not")
    src = str(Path(engine.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    counts = []
    for threads in (None, "2"):
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_PROBE],
            capture_output=True, text=True, timeout=120,
            env=env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads),
        )
        assert run.returncode == 0, run.stderr
        if run.stdout.strip() == "None":
            pytest.skip("numpy bundles no OpenBLAS library")
        counts.append(int(run.stdout))
    assert counts == [1, 2]


def test_iteration_timer_runs_on_one_blas_thread():
    # the timer imports the package before numpy, so the package's pin
    # applies to the iterations it times; runpy loads it without its main
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts one thread on one CPU, pinned or not")
    tool = Path(__file__).resolve().parents[1] / "tools" / "time_iteration.py"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    probe = f"import runpy\nrunpy.run_path({str(tool)!r})" + _BLAS_THREADS_PROBE
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert run.returncode == 0, run.stderr
    if run.stdout.strip() == "None":
        pytest.skip("numpy bundles no OpenBLAS library")
    assert int(run.stdout) == 1


def test_iteration_timer_prints_one_row_per_register():
    # tools/time_iteration.py at one n_q for one round: a header and one
    # row, with the time of an iteration alone and inside a half-echo
    tool = Path(__file__).resolve().parents[1] / "tools" / "time_iteration.py"
    run = subprocess.run(
        [sys.executable, str(tool), "--nq", "4", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    header, row = run.stdout.splitlines()
    assert header.split() == [
        "n_q", "ops", "best_us", "median_us", "half_best_us", "half_median_us"
    ]
    n_q, ops, best, median, half_best, half_median = row.split()
    assert (int(n_q), int(ops)) == (4, 16)
    assert 0 < float(best) == float(median)
    assert 0 < float(half_best) == float(half_median)


def test_iteration_timer_prints_one_row_per_op():
    # tools/time_iteration.py --ops at n_q = 9 for one round: a header and
    # one row per bound op of the iteration, with its kind and window; the
    # two full-register diagonals are the factorized ones
    tool = Path(__file__).resolve().parents[1] / "tools" / "time_iteration.py"
    run = subprocess.run(
        [sys.executable, str(tool), "--nq", "9", "--rounds", "1", "--ops"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["n_q", "op", "kind", "window", "best_us"]
    rows = [row.split() for row in rows]
    assert [(int(n_q), int(op)) for n_q, op, *_ in rows] == [(9, i) for i in range(36)]
    kinds = {}
    for _, _, kind, window, best in rows:
        kinds.setdefault(kind, []).append(int(window))
        assert float(best) > 0
    assert sorted(kinds) == ["batched-tilt", "dense-diagonal", "factorized-diagonal", "kron-tilt"]
    assert len(kinds["batched-tilt"]) + len(kinds["kron-tilt"]) == 18
    assert set(kinds["batched-tilt"] + kinds["kron-tilt"]) == {1}
    assert kinds["factorized-diagonal"] == [9, 9]
    assert sorted(kinds["dense-diagonal"]) == sorted(2 * list(range(2, 10)))


class _RecordingRng:
    """A generator that records the shape of every uniform draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size)


def _half(bound, rng, epsilon, t_r):
    """One half-echo as echo._echo_steps runs it: t_r calls, each told how
    many of the half remain."""
    for t in range(1, t_r + 1):
        bound.apply_noisy(rng, epsilon, t_r + 1 - t)


@pytest.mark.parametrize("epsilon", [0.01, 0.3])
def test_blocked_half_draws_the_single_row_stream(epsilon):
    # a half staged as one block of t_r rows takes the draws of t_r
    # single-row calls, every one of them, and leaves the generator where
    # they leave it; the amplitudes match t_r applications of those draws
    n_q, t_r = 5, 7
    program = map_program(MapParams(n_q, 5.0))
    start = random_state(n_q, np.random.default_rng(21)).amps
    blocked, single = BoundProgram(program, start.copy()), BoundProgram(program, start.copy())
    assert blocked._capacity > t_r
    rng, reference = realization_rng(5, t_r, 3), realization_rng(5, t_r, 3)
    draws = np.array([reference.uniform(-epsilon, epsilon, single.draw_count) for _ in range(t_r)])
    recording = _RecordingRng(rng)
    _half(blocked, recording, epsilon, t_r)
    assert recording.sizes == [(t_r, blocked.draw_count)]
    np.testing.assert_array_equal(
        blocked._staged.gathered[:t_r], draws[:, blocked._compiled.gather]
    )
    assert rng.bit_generator.state == reference.bit_generator.state
    for d in draws:
        single.apply(d)
    assert np.abs(blocked.amps - single.amps).max() < 1e-13


def test_blocked_half_at_zero_noise_is_the_ideal_program():
    n_q, t_r = 6, 9
    program = map_program(MapParams(n_q, 5.0))
    start = random_state(n_q, np.random.default_rng(22)).amps
    blocked, ideal = BoundProgram(program, start.copy()), BoundProgram(program, start.copy())
    _half(blocked, realization_rng(1, t_r, 0), 0.0, t_r)
    for _ in range(t_r):
        ideal.apply_ideal()
    np.testing.assert_array_equal(blocked.amps, ideal.amps)


@pytest.mark.parametrize(
    ("n_q", "rows"), [(5, 21), (6, 14), (8, 5), (9, 4), (10, 2), (16, 2), (17, 1)]
)
def test_block_capacity_follows_the_stage_budget(n_q, rows):
    # the table of _STAGE_BYTES's comment and the README: from n_q = 17 a
    # block holds one row, so every application stages into the row the
    # ops read
    assert engine.staged_block(map_program(MapParams(n_q, 5.0)))[0] == rows


def test_half_longer_than_the_block_splits_into_blocks(monkeypatch):
    # a budget of three rows splits an 8-iteration half into blocks of 3,
    # 3 and 2 rows, which together draw and apply what 8 single calls do;
    # the backward half then stages its own blocks on the shared block
    n_q, t_r, epsilon = 4, 8, 0.2
    program = map_program(MapParams(n_q, 5.0))
    compiled = engine._compile(program, engine._DENSE_PHASE_BYTES, engine._KRON_MAX_STRIDE)
    row_bytes = compiled.row_bytes
    monkeypatch.setattr(engine, "_STAGE_BYTES", 3 * row_bytes + 1)
    assert engine.staged_block(program) == (3, 8 * compiled.width + 3 * row_bytes)
    start = random_state(n_q, np.random.default_rng(23)).amps
    forward = BoundProgram(program, start.copy())
    backward = forward.inverse()
    rng = _RecordingRng(realization_rng(2, t_r, 1))
    _half(forward, rng, epsilon, t_r)
    _half(backward, rng, epsilon, t_r)
    assert rng.sizes == ([(3, forward.draw_count)] * 2 + [(2, forward.draw_count)]) * 2
    reference = realization_rng(2, t_r, 1)
    single = BoundProgram(program, start.copy())
    single_backward = single.inverse()
    for bound in [single] * t_r + [single_backward] * t_r:
        bound.apply(reference.uniform(-epsilon, epsilon, bound.draw_count))
    assert np.abs(forward.amps - single.amps).max() < 1e-13


@pytest.mark.parametrize("n_q", [5, 6, 12])
def test_a_binding_allocates_no_staging_after_bind(n_q):
    # the row, the block, the gathered draws and the phases are allocated
    # at bind, at the capacity the stage budget gives; after one single
    # application, a forward and a backward half longer than the block
    # allocate less than one block: each block's draws, each block size's
    # stage and numpy's ufunc buffer
    program = map_program(MapParams(n_q, 5.0))
    forward = BoundProgram(program, random_state(n_q, np.random.default_rng(24)).amps)
    backward = forward.inverse()
    forward.apply_ideal()
    capacity = engine.staged_block(program)[0]
    block = 8 * capacity * forward._compiled.width
    t_r = capacity + 1
    rng = realization_rng(4, t_r, 0)
    tracemalloc.start()
    try:
        _half(forward, rng, 0.01, t_r)
        _half(backward, rng, 0.01, t_r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def test_waiting_rows_are_never_discarded():
    # while a block's rows wait, the inverse's noisy call, another generator
    # or epsilon, and a remaining count below the waiting rows raise; apply,
    # apply_ideal, the inverse's apply and inverse() stage into the row the
    # ops read, so they run between two waiting rows, and the half then ends
    # where a single-row reference making the same calls does
    n_q, t_r, epsilon = 4, 5, 0.1
    program = map_program(MapParams(n_q, 5.0))
    start = random_state(n_q, np.random.default_rng(24)).amps
    bound, single = BoundProgram(program, start.copy()), BoundProgram(program, start.copy())
    backward = bound.inverse()
    rng = realization_rng(4, t_r, 0)
    bound.apply_noisy(rng, epsilon, t_r)
    before = bound.amps.copy()
    refused = [
        lambda: backward.apply_noisy(rng, epsilon, t_r - 1),
        lambda: bound.apply_noisy(realization_rng(4, t_r, 0), epsilon, t_r - 1),
        lambda: bound.apply_noisy(rng, 2 * epsilon, t_r - 1),
        lambda: bound.apply_noisy(rng, epsilon, t_r - 2),
    ]
    for call in refused:
        with pytest.raises(ValueError):
            call()
    np.testing.assert_array_equal(bound.amps, before)
    bound.apply_noisy(rng, epsilon, t_r - 1)
    draws = np.random.default_rng(25).uniform(-epsilon, epsilon, bound.draw_count)

    def between(forward, backward):
        forward.apply(draws)
        forward.apply_ideal()
        backward.apply(forward.mirror(draws))
        return forward.inverse()

    between(bound, backward).apply_ideal()
    for remaining in range(t_r - 2, 0, -1):
        bound.apply_noisy(rng, epsilon, remaining)
    reference = realization_rng(4, t_r, 0)
    for step in range(t_r):
        if step == 2:
            between(single, single.inverse()).apply_ideal()
        single.apply(reference.uniform(-epsilon, epsilon, single.draw_count))
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.abs(bound.amps - single.amps).max() < 1e-13
    with pytest.raises(ValueError):
        bound.apply_noisy(rng, epsilon, 0)
