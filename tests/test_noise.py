"""Noise model: tilted Hadamards, random phases, reproducible streams."""

import math

import numpy as np
import pytest

from helpers import dense_single_qubit, random_state
from sawtooth_echo import (
    ControlledPhase,
    GateProgram,
    Hadamard,
    MapParams,
    PhaseShift,
    apply_program,
    fidelity,
    gates_per_iteration,
    map_program,
    realization_rng,
    tilted_hadamard,
)
from sawtooth_echo.engine import BoundProgram


def test_zero_noise_reproduces_ideal_bit_for_bit():
    rng = np.random.default_rng(1)
    program = map_program(MapParams(5, 5.0))
    ideal = random_state(5, rng)
    noisy = ideal.copy()
    apply_program(program, ideal)
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
    assert state.norm_error() < 1e-10


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
        apply_program(program, reference)
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
        assert state.norm_error() < 1e-12


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
                unset = dense_single_qubit(n_q, gate.control, np.diag([1.0, 0.0]))
                u = unset + dense_single_qubit(n_q, gate.control, np.diag([0.0, 1.0])) @ u
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


@pytest.mark.parametrize("n_q", [2, 3, 4, 5, 6])
def test_compiled_engine_matches_gate_by_gate_reference(n_q):
    # draw order and the fusion of phase-type runs into one diagonal are
    # invisible to the statistical checks; compare every amplitude against
    # the dense per-gate reference
    rng = np.random.default_rng(40 + n_q)
    params = MapParams(n_q, 5.0)
    programs = [_random_program(n_q, rng) for _ in range(4)]
    programs += [map_program(params), map_program(params).inverse()]
    epsilon = 0.3
    for seed, program in enumerate(programs):
        state = random_state(n_q, rng)
        bound = BoundProgram(program, state.amps.copy())
        assert bound.draw_count == sum(
            1 if isinstance(g, Hadamard) else 2
            for g in program.gates
        )
        draws = np.random.default_rng(seed).uniform(-epsilon, epsilon, bound.draw_count)
        bound.apply_noisy(np.random.default_rng(seed), epsilon)
        expected = _reference_noisy(program, state.amps, draws)
        assert np.abs(bound.amps - expected).max() < 1e-12
