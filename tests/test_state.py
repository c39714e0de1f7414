"""Gate kernels against explicit dense matrices, partial trace, fidelity.

Each gate kernel is exercised as a one-gate GateProgram bound to a
register's amplitudes and applied with BoundProgram.apply_ideal, which runs
the engine's noisy kernels at zero draws.
"""

import math

import numpy as np
import pytest

from helpers import (
    basis_state,
    dense_controlled_phase,
    dense_phase_shift,
    dense_single_qubit,
    norm_drift,
    random_state,
)
from sawtooth_echo import (
    BoundProgram,
    ControlledPhase,
    GateProgram,
    Hadamard,
    PhaseShift,
    StateVector,
    bit_reversal_permutation,
    fidelity,
    partial_trace_12,
    von_neumann_entropy,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def run(state, *gates):
    """Apply the gates, as one program, to the state in place."""
    BoundProgram(GateProgram(state.n_q, gates), state.amps).apply_ideal()


def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(1)
    state = random_state(4, rng)
    before = state.amps.copy()
    run(state)
    np.testing.assert_array_equal(state.amps, before)
    run(state, PhaseShift(2, 0.0))
    np.testing.assert_array_equal(state.amps, before)


def test_hadamard_on_zero_register():
    state = basis_state(3, 0)
    run(state, Hadamard(1))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[4] = 1 / np.sqrt(2)  # |000> + |100>
    np.testing.assert_allclose(state.amps, expected, atol=1e-15)


def test_hadamard_twice_is_identity():
    rng = np.random.default_rng(2)
    state = random_state(5, rng)
    before = state.amps.copy()
    run(state, Hadamard(3), Hadamard(3))
    np.testing.assert_allclose(state.amps, before, atol=1e-12)


@pytest.mark.parametrize("n_q", [2, 3, 4, 5])
def test_single_qubit_kernel_matches_dense(n_q):
    rng = np.random.default_rng(10 + n_q)
    for target in range(1, n_q + 1):
        state = random_state(n_q, rng)
        expected = dense_single_qubit(n_q, target, HADAMARD) @ state.amps
        run(state, Hadamard(target))
        assert np.abs(state.amps - expected).max() < 1e-12


@pytest.mark.parametrize("n_q", [2, 3, 4, 5])
def test_controlled_phase_kernel_matches_dense(n_q):
    rng = np.random.default_rng(20 + n_q)
    for control in range(1, n_q + 1):
        for target in range(1, n_q + 1):
            if control == target:
                continue
            phase = rng.uniform(-8, 8)
            state = random_state(n_q, rng)
            expected = dense_controlled_phase(n_q, control, target, phase) @ state.amps
            run(state, ControlledPhase(control, target, phase))
            assert np.abs(state.amps - expected).max() < 1e-12


@pytest.mark.parametrize("n_q", [2, 4])
def test_phase_shift_kernel_matches_dense(n_q):
    rng = np.random.default_rng(30 + n_q)
    for target in range(1, n_q + 1):
        phase = rng.uniform(-8, 8)
        state = random_state(n_q, rng)
        expected = dense_phase_shift(n_q, target, phase) @ state.amps
        run(state, PhaseShift(target, phase))
        assert np.abs(state.amps - expected).max() < 1e-12


def test_controlled_phase_basics():
    state = StateVector(2, [0, 0, 0, 1])
    run(state, ControlledPhase(1, 2, math.pi))
    np.testing.assert_allclose(state.amps, [0, 0, 0, -1], atol=1e-15)

    state = StateVector(2, [0, 0, 1, 0])  # |10>: control/target not both 1
    run(state, ControlledPhase(1, 2, 1.234))
    np.testing.assert_array_equal(state.amps, [0, 0, 1, 0])

    state = random_state(3, np.random.default_rng(3))
    before = state.amps.copy()
    run(state, ControlledPhase(2, 3, 0.0))
    np.testing.assert_array_equal(state.amps, before)


def test_gate_input_validation():
    state = basis_state(3, 0)
    with pytest.raises(ValueError):
        run(state, Hadamard(0))
    with pytest.raises(ValueError):
        run(state, Hadamard(4))
    with pytest.raises(ValueError):
        run(state, ControlledPhase(2, 2, 0.5))
    with pytest.raises(ValueError):
        run(state, ControlledPhase(1, 5, 0.5))
    with pytest.raises(ValueError):
        BoundProgram(GateProgram(4, (Hadamard(1),)), state.amps).apply_ideal()


def test_bit_reversal_permutation_involution():
    for n_q in (1, 2, 3, 6):
        perm = bit_reversal_permutation(n_q)
        assert np.array_equal(perm[perm], np.arange(1 << n_q))
        # reference: reverse each index's n_q-digit binary string
        reference = [int(format(j, f"0{n_q}b")[::-1], 2) for j in range(1 << n_q)]
        assert perm.tolist() == reference


def test_norm_preserved_over_many_gates():
    rng = np.random.default_rng(5)
    state = random_state(6, rng)
    gates = []
    for _ in range(2500):
        kind = rng.integers(3)
        if kind == 0:
            gates.append(Hadamard(int(rng.integers(1, 7))))
        elif kind == 1:
            q = sorted(rng.choice(np.arange(1, 7), size=2, replace=False))
            gates.append(ControlledPhase(int(q[0]), int(q[1]), rng.uniform(-6, 6)))
        else:
            gates.append(PhaseShift(int(rng.integers(1, 7)), rng.uniform(-6, 6)))
    run(state, *gates)
    assert norm_drift(state.amps) < 1e-10


def test_partial_trace_bell_times_pure_environment():
    # Bell pair on qubits 1,2; qubits 3,4 in |00>
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[12] = 1 / np.sqrt(2)
    rho = partial_trace_12(StateVector(4, amps))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(bell, bell.conj()), atol=1e-14)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_partial_trace_ghz():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    rho = partial_trace_12(StateVector(3, amps))
    np.testing.assert_allclose(rho, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)


def test_partial_trace_product_state_is_pure():
    # rho_12 of a product state equals the outer product of the first two factors
    rng = np.random.default_rng(6)
    singles = []
    for _ in range(5):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        singles.append(v / np.linalg.norm(v))
    full = singles[0]
    for v in singles[1:]:
        full = np.kron(full, v)
    rho = partial_trace_12(StateVector(5, full))
    pair = np.kron(singles[0], singles[1])
    np.testing.assert_allclose(rho, np.outer(pair, pair.conj()), atol=1e-12)
    assert von_neumann_entropy(rho) < 1e-12


def test_partial_trace_two_qubit_outer_product():
    rng = np.random.default_rng(7)
    state = random_state(2, rng)
    rho = partial_trace_12(state)
    np.testing.assert_allclose(rho, np.outer(state.amps, state.amps.conj()), atol=1e-14)


def test_partial_trace_output_is_valid_density():
    # Hermitian, unit trace, positive semidefinite
    rng = np.random.default_rng(8)
    for n_q in (2, 3, 5, 7):
        rho = partial_trace_12(random_state(n_q, rng))
        assert rho.shape == (4, 4)
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert abs(np.trace(rho).imag) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_fidelity_basics():
    rng = np.random.default_rng(9)
    state = random_state(4, rng)
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)
    a = basis_state(3, 1)
    b = basis_state(3, 6)
    assert fidelity(a, b) == 0.0
    plus = StateVector(2, np.array([1, 0, 1, 0]) / np.sqrt(2))
    zero = basis_state(2, 0)
    assert fidelity(plus, zero) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity(a, random_state(4, rng))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))
    with pytest.raises(ValueError):
        StateVector(0, np.zeros(1))
