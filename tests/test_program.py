"""Gate-program builders against dense oracles."""

import math

import numpy as np
import pytest

from helpers import random_state
from sawtooth_echo import (
    ControlledPhase,
    GateProgram,
    Hadamard,
    MapParams,
    PhaseShift,
    apply_program,
    bit_reversal_permutation,
    free_rotation_program,
    gates_per_iteration,
    map_program,
    qft_program,
    quadratic_phase_program,
)
from sawtooth_echo.oracle import (
    align_global_phase,
    dense_map_unitary,
    dft_matrix,
    program_unitary,
)


def diag_of(program):
    return np.diag(program_unitary(program))


def test_quadratic_phase_free_rotation_diagonal():
    # direct construction: diag(exp(-i*(pi/4)*j^2)) for n_q = 2
    program = quadratic_phase_program(2, -math.pi / 4)
    expected = np.exp(-1j * (math.pi / 4) * np.arange(4) ** 2)
    got = diag_of(program)
    aligned = align_global_phase(got, expected)
    assert np.abs(aligned - expected).max() < 1e-12


@pytest.mark.parametrize("n_q", [2, 3, 4])
@pytest.mark.parametrize("shift", [0.0, -0.5, 3.5, 8.0])
def test_quadratic_phase_generic_shift(n_q, shift):
    coefficient = 0.377
    program = quadratic_phase_program(n_q, coefficient, shift=shift)
    j = np.arange(1 << n_q, dtype=float)
    expected = np.exp(1j * coefficient * (j - shift) ** 2)
    aligned = align_global_phase(diag_of(program), expected)
    assert np.abs(aligned - expected).max() < 1e-12


def test_quadratic_phase_zero_coefficient_is_identity():
    program = quadratic_phase_program(3, 0.0, shift=4.0)
    np.testing.assert_allclose(program_unitary(program), np.eye(8), atol=1e-12)


def test_quadratic_phase_kick_matches_oracle_factor():
    # kick diagonal of dense_map_unitary at n_q = 3, K = 5
    params = MapParams(3, 5.0)
    program = quadratic_phase_program(3, params.kick_coefficient, params.kick_shift)
    j = np.arange(8, dtype=float)
    expected = np.exp(1j * params.kick_coefficient * (j - params.kick_shift) ** 2)
    aligned = align_global_phase(diag_of(program), expected)
    assert np.abs(aligned - expected).max() < 1e-10


def test_quadratic_phase_gate_count():
    program = quadratic_phase_program(5, 1.0)
    kinds = [type(g) for g in program.gates]
    assert kinds.count(PhaseShift) == 5
    assert kinds.count(ControlledPhase) == 10


def test_qft_single_qubit_is_hadamard():
    program = qft_program(1)
    assert [type(g) for g in program.gates] == [Hadamard]


@pytest.mark.parametrize("n_q", [2, 3, 4])
def test_qft_program_equals_dft(n_q):
    # the ladder leaves the DFT's rows in bit-reversed order
    expected = dft_matrix(n_q)[bit_reversal_permutation(n_q)]
    assert np.abs(program_unitary(qft_program(n_q)) - expected).max() < 1e-10


def test_qft_roundtrip_on_random_states():
    rng = np.random.default_rng(42)
    forward = qft_program(6)
    backward = forward.inverse()
    for _ in range(5):
        state = random_state(6, rng)
        before = state.amps.copy()
        apply_program(forward, state.amps)
        apply_program(backward, state.amps)
        assert np.abs(state.amps - before).max() < 1e-12


@pytest.mark.parametrize("n_q", [2, 3, 4, 5])
def test_map_program_matches_dense_oracle(n_q):
    program = map_program(MapParams(n_q, 5.0))
    dense = dense_map_unitary(n_q, 5.0)
    aligned = align_global_phase(program_unitary(program), dense)
    assert np.abs(aligned - dense).max() < 1e-10


def test_map_program_free_factor_matches_oracle_momentum_grid():
    n_q = 3
    program = free_rotation_program(n_q)
    j = np.arange(8, dtype=float)
    expected = np.exp(-1j * (math.pi / 8) * (j + 0.5) ** 2)
    aligned = align_global_phase(diag_of(program), expected)
    assert np.abs(aligned - expected).max() < 1e-10


def test_dense_oracle_unitary():
    for n_q in (2, 4):
        u = dense_map_unitary(n_q, 5.0)
        np.testing.assert_allclose(
            u @ u.conj().T, np.eye(1 << n_q), atol=1e-10
        )


def test_dense_oracle_roundtrip_on_initial_state():
    from sawtooth_echo import initial_state

    u = dense_map_unitary(4, 5.0)
    psi = initial_state(4).amps
    back = u.conj().T @ (u @ psi)
    assert np.abs(back - psi).max() < 1e-12


def test_forward_backward_is_identity():
    rng = np.random.default_rng(11)
    for n_q in (2, 5, 8, 10):
        forward = map_program(MapParams(n_q, 5.0))
        backward = forward.inverse()
        state = random_state(n_q, rng)
        before = state.amps.copy()
        apply_program(forward, state.amps)
        apply_program(backward, state.amps)
        assert np.abs(state.amps - before).max() < 1e-11


def test_backward_is_gate_by_gate_inverse():
    program = map_program(MapParams(4, 5.0))
    backward = program.inverse()
    assert backward.gates == tuple(g.inverse() for g in reversed(program.gates))
    # inverse reverses order and negates phases
    fwd_cp = [g for g in program.gates if isinstance(g, ControlledPhase)]
    bwd_cp = [g for g in backward.gates if isinstance(g, ControlledPhase)]
    assert [g.phase for g in bwd_cp] == [-g.phase for g in reversed(fwd_cp)]


def test_gate_count_per_iteration():
    for n_q in (2, 5, 7):
        program = map_program(MapParams(n_q, 5.0))
        assert len(program.gates) == 2 * n_q**2 + 2 * n_q
        assert len(program.gates) == gates_per_iteration(n_q)
    assert gates_per_iteration(7) == 112


def test_map_params_derived_quantities():
    params = MapParams(5, 5.0)
    assert params.N == 32
    assert params.T == pytest.approx(2 * math.pi / 32)
    assert params.k * params.T == pytest.approx(5.0)  # K = kT exactly
    with pytest.raises(ValueError):
        MapParams(1)


def test_program_validation():
    with pytest.raises(ValueError):
        GateProgram(2, (Hadamard(3),))
    with pytest.raises(ValueError):
        GateProgram(3, (ControlledPhase(2, 2, 0.1),))
    a = qft_program(2)
    b = qft_program(3)
    with pytest.raises(ValueError):
        a + b
