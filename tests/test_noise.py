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
    apply_program,
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
    apply_program(program, ideal.amps)
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
        apply_program(program, reference.amps)
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
    # bind rules pick (both Hadamard layouts from n_q = 5, both phase paths
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
            bound.apply_noisy(np.random.default_rng(seed), epsilon)
            assert np.abs(bound.amps - expected).max() < 1e-12


def test_dense_phase_tables_stop_growing_with_the_register():
    # the phase and factor tables that dense diagonals bind are bounded by
    # the budget, shared with the inverse, and the same at n_q = 12 and 20;
    # the factorized diagonals share one region after them, as long as the
    # largest factorized table, which engine.TASK_BYTES_PER_AMPLITUDE counts
    def tables(n_q):
        bound = BoundProgram(map_program(MapParams(n_q, 5.0)), np.zeros(1 << n_q, complex))
        assert bound.inverse()._buffers is bound._buffers
        phases, factors = bound._buffers[2:]
        assert phases.size == factors.size
        dense = bound._ideal.size
        diagonals = len(bound._ops) - 2 * n_q  # all but the Hadamards
        return 24 * dense, len(bound._phase_ops), diagonals, phases.size - dense

    # every diagonal is dense up to n_q = 8; from 9 the free rotation and
    # the kick factorize, and the QFT ladders are dense up to 10 qubits
    assert tables(8)[1:] == (16, 16, 0)
    assert tables(9)[1:] == (16, 18, 2**9)
    small, large = tables(12), tables(20)
    assert small[:2] == large[:2] == (24 * 2 * (2**11 - 4), 18)
    assert small[0] <= engine._DENSE_PHASE_BYTES
    assert (small[3], large[3]) == (2**12, 2**20)
    assert 24 * 2**20 == (engine.TASK_BYTES_PER_AMPLITUDE - 16 * engine.TASK_REGISTERS) << 20


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
