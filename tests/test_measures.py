"""Entanglement measures against closed forms and brute-force oracles."""

import math

import numpy as np
import pytest

from helpers import diagonal_ergodic_eof_check, random_state, random_unitary_2x2
from sawtooth_echo import (
    MapParams,
    StateVector,
    bell_density,
    binary_entropy,
    concurrence,
    eof,
    ergodic_entropy_reference,
    initial_state,
    map_program,
    partial_trace_12,
    realization_rng,
    von_neumann_entropy,
    werner_state,
)
from sawtooth_echo.engine import BoundProgram
from sawtooth_echo.measures import EIGENVALUE_CLAMP, concurrence_and_entropy

SY_SY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)


def brute_force_concurrence(rho):
    """Independent oracle: eigendecomposition of R = rho @ rho_tilde."""
    rho_tilde = SY_SY @ rho.conj() @ SY_SY
    evals = np.linalg.eigvals(rho @ rho_tilde)
    lams = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]
    return max(lams[0] - lams[1] - lams[2] - lams[3], 0.0)


def random_mixed_density(rng, rank=4):
    vecs = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = vecs @ vecs.conj().T
    return rho / np.trace(rho).real


def test_bell_state_concurrence_and_eof():
    c = concurrence(bell_density())
    assert c == pytest.approx(1.0, abs=1e-12)
    assert eof(c) == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_state():
    rho = np.eye(4, dtype=complex) / 4
    assert concurrence(rho) == 0.0
    assert eof(0.0) == 0.0
    assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
def test_werner_concurrence_closed_form(p):
    expected = max(0.0, (3 * p - 1) / 2)
    assert concurrence(werner_state(p)) == pytest.approx(expected, abs=1e-10)
    assert brute_force_concurrence(werner_state(p)) == pytest.approx(
        expected, abs=1e-7
    )


def test_werner_sweep_50_values():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 50):
        got = concurrence(werner_state(float(p)))
        worst = max(worst, abs(got - max(0.0, (3 * p - 1) / 2)))
    assert worst < 1e-10


def test_concurrence_agrees_with_brute_force_on_mixed_states():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rho = random_mixed_density(rng)
        assert concurrence(rho) == pytest.approx(
            brute_force_concurrence(rho), abs=1e-7
        )


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(22)
    for _ in range(20):
        rho = random_mixed_density(rng)
        u = np.kron(random_unitary_2x2(rng), random_unitary_2x2(rng))
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(
            concurrence(rho), abs=1e-10
        )


def test_concurrence_rejects_broken_input():
    with pytest.raises(ValueError):
        concurrence(np.diag([2.0, -1.0, 0.0, 0.0]))  # not PSD
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.3  # grossly non-Hermitian
    with pytest.raises(ValueError):
        concurrence(bad)


def _stack_of_states(rng):
    """Random mixed states of every rank, Werner states, the Bell state and
    product states, in one (n, 4, 4) stack."""
    mixed = [random_mixed_density(rng, rank) for rank in (1, 2, 3, 4) for _ in range(6)]
    werner = [werner_state(float(p)) for p in np.linspace(0.0, 1.0, 9)]
    products = []
    for _ in range(6):
        a, b = random_mixed_density(rng)[:2, :2], random_mixed_density(rng)[:2, :2]
        products.append(np.kron(a / np.trace(a), b / np.trace(b)))
    return np.array(mixed + werner + [bell_density()] + products)


def test_stacked_measures_match_each_batch_of_one():
    # each row of a stack is bit-identical to the same matrix alone, so the
    # echo's block reduction records what one matrix at a time would
    stack = _stack_of_states(np.random.default_rng(25))
    c, s = concurrence_and_entropy(stack)
    assert c.shape == s.shape == (len(stack),)
    for i, rho in enumerate(stack):
        c_one, s_one = concurrence_and_entropy(rho[None])
        assert c[i] == c_one[0] == concurrence(rho)
        assert s[i] == s_one[0] == von_neumann_entropy(rho)
    # any leading shape, and the empty stack
    c_grid, s_grid = concurrence_and_entropy(stack[:24].reshape(4, 6, 4, 4))
    np.testing.assert_array_equal(c_grid.ravel(), c[:24])
    np.testing.assert_array_equal(s_grid.ravel(), s[:24])
    assert [v.shape for v in concurrence_and_entropy(np.empty((0, 4, 4)))] == [(0,), (0,)]
    with pytest.raises(ValueError):
        concurrence_and_entropy(np.eye(3))


@pytest.mark.parametrize("index", [0, 7, -1])
def test_one_bad_row_anywhere_rejects_the_stack(index):
    stack = _stack_of_states(np.random.default_rng(26))
    concurrence_and_entropy(stack)  # the clean stack passes
    non_hermitian = stack.copy()
    non_hermitian[index, 0, 1] += 0.3
    with pytest.raises(ValueError, match="Hermitian"):
        concurrence_and_entropy(non_hermitian)
    negative = stack.copy()
    negative[index] = np.diag([1.0 + 10 * EIGENVALUE_CLAMP, -10 * EIGENVALUE_CLAMP, 0.0, 0.0])
    with pytest.raises(ValueError, match="eigenvalue"):
        concurrence_and_entropy(negative)
    # within the clamp, round-off passes
    negative[index] = np.diag([1.0 + EIGENVALUE_CLAMP / 2, -EIGENVALUE_CLAMP / 2, 0.0, 0.0])
    concurrence_and_entropy(negative)


def test_eof_on_arrays():
    grid = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(eof(grid), [eof(float(c)) for c in grid])
    assert eof(grid.reshape(101, 1)).shape == (101, 1)
    for bad in (1.5, -0.1, np.nan):
        values = grid.copy()
        values[37] = bad
        with pytest.raises(ValueError, match="concurrence"):
            eof(values)


def test_eof_fixtures():
    assert eof(1.0) == pytest.approx(1.0, abs=1e-12)
    assert eof(0.0) == 0.0
    # E(0.6) = h(0.9), evaluated independently
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert expected == pytest.approx(0.468996, abs=1e-6)
    assert eof(0.6) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        eof(1.5)


def test_eof_monotone_in_concurrence():
    grid = np.linspace(0.0, 1.0, 1000)
    values = [eof(c) for c in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_binary_entropy_limits():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)


def test_pure_rho_eof_equals_subsystem_entropy():
    # for a pure two-qubit state, E equals the entropy of either qubit
    rng = np.random.default_rng(23)
    for _ in range(20):
        state = random_state(2, rng)
        rho = partial_trace_12(state)
        c = concurrence(rho)
        amp = state.amps.reshape(2, 2)
        rho_one = amp @ amp.conj().T
        evals = np.clip(np.linalg.eigvalsh(rho_one), 0.0, 1.0)
        entropy_one = float(-(evals[evals > 0] * np.log2(evals[evals > 0])).sum())
        assert eof(c) == pytest.approx(entropy_one, abs=1e-10)


def test_entropy_fixtures():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    assert von_neumann_entropy(np.diag([0.5, 0, 0, 0.5])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_entropy_basis_invariance():
    rng = np.random.default_rng(24)
    rho = random_mixed_density(rng)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-10
    )


def test_entropy_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.1, -0.1, 0.0, 0.0]))


def test_ergodic_entropy_reference_values():
    # 2 - 8/(N ln 2), evaluated by hand
    assert ergodic_entropy_reference(256) == pytest.approx(1.954916, abs=1e-6)
    assert ergodic_entropy_reference(32) == pytest.approx(
        2 - 8 / (32 * math.log(2)), abs=1e-15
    )
    assert ergodic_entropy_reference(32) == pytest.approx(1.639326, abs=1e-6)
    # monotone approach to 2 from below
    values = [ergodic_entropy_reference(1 << k) for k in range(3, 16)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 2.0
    with pytest.raises(ValueError):
        ergodic_entropy_reference(4)


def test_diagonal_ergodic_check_fixtures():
    assert diagonal_ergodic_eof_check(np.eye(4, dtype=complex) / 4, 1e-6)
    assert diagonal_ergodic_eof_check(np.diag([0.3, 0.2, 0.3, 0.2]), 0.06)
    # far from the ergodic form: vacuously true
    assert diagonal_ergodic_eof_check(bell_density(), 1e-3)
    # diagonal states in this basis carry no concurrence
    assert concurrence(np.diag([0.3, 0.2, 0.3, 0.2])) == 0.0


@pytest.mark.slow
def test_ergodic_register_has_zero_concurrence():
    # after a long noisy forward run the register is ergodic and the
    # two-qubit state carries no pairwise entanglement
    n_q = 8
    program = map_program(MapParams(n_q, 5.0))
    start = initial_state(n_q).amps
    amps = np.empty_like(start)
    bound = BoundProgram(program, amps)
    zero_count = 0
    realizations = 400
    for r in range(realizations):
        rng = realization_rng(77, 10, r)
        amps[:] = start
        for _ in range(10):
            bound.apply_noisy(rng, 0.01)
        rho = partial_trace_12(StateVector(n_q, amps))
        if concurrence(rho) == 0.0:
            zero_count += 1
        assert diagonal_ergodic_eof_check(rho, 0.2)
    assert zero_count >= 0.99 * realizations
