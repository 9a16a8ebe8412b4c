"""Unit tests for the single-qubit statevector primitives."""

import numpy as np
import pytest

import statevector_oracle as sv

I2 = np.eye(2, dtype=np.complex128)
PAULI_Z = np.diag([1.0, -1.0]).astype(np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class TestGates:
    def test_zero_state(self):
        np.testing.assert_array_equal(sv.zero_state(), [1.0, 0.0])

    def test_hadamard_is_unitary_and_involutive(self):
        h = sv.hadamard()
        np.testing.assert_allclose(h @ h.conj().T, I2, atol=1e-15)
        np.testing.assert_allclose(h @ h, I2, atol=1e-15)

    def test_rz_matches_matrix_exponential(self):
        # rz(a) = expm(-i a Z / 2), checked via eigendecomposition
        for a in (0.0, 0.37, -2.0, np.pi):
            expected = np.diag(np.exp(-0.5j * a * np.diag(PAULI_Z)))
            np.testing.assert_allclose(sv.rz(a), expected, atol=1e-15)

    def test_ry_matches_series(self):
        for a in (0.0, 0.37, -2.0, np.pi):
            expected = np.cos(a / 2) * I2 - 1j * np.sin(a / 2) * PAULI_Y
            np.testing.assert_allclose(sv.ry(a), expected, atol=1e-15)

    def test_rotations_are_unitary(self):
        for a in (0.1, -1.3, 4.0):
            for gate in (sv.rz(a), sv.ry(a)):
                np.testing.assert_allclose(gate @ gate.conj().T, I2, atol=1e-15)

    def test_nonfinite_angle_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                sv.rz(bad)
            with pytest.raises(ValueError):
                sv.ry(bad)
            with pytest.raises(ValueError):
                sv.euler_unitary(0.0, bad, 0.0)


class TestEulerUnitary:
    def test_ordering(self):
        a, b, g = 0.3, -0.7, 1.1
        expected = sv.rz(g) @ sv.ry(b) @ sv.rz(a)
        np.testing.assert_allclose(sv.euler_unitary(a, b, g), expected,
                                   atol=1e-15)

    def test_zero_angles_give_identity(self):
        np.testing.assert_allclose(sv.euler_unitary(0.0, 0.0, 0.0), I2,
                                   atol=1e-15)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(1)
        angles = rng.normal(size=(4, 5, 3))
        batched = sv.euler_unitaries(angles)
        assert batched.shape == (4, 5, 2, 2)
        for i in range(4):
            for j in range(5):
                np.testing.assert_allclose(
                    batched[i, j], sv.euler_unitary(*angles[i, j]), atol=1e-14)


class TestExpectation:
    def test_basis_states(self):
        assert sv.expect_z(np.array([1.0, 0.0])) == 1.0
        assert sv.expect_z(np.array([0.0, 1.0])) == -1.0

    def test_plus_state(self):
        plus = sv.apply(sv.zero_state(), sv.hadamard())
        np.testing.assert_allclose(sv.expect_z(plus), 0.0, atol=1e-15)

    def test_phase_invariance(self):
        state = sv.apply(sv.zero_state(), sv.ry(0.9))
        phased = np.exp(0.3j) * state
        np.testing.assert_allclose(sv.expect_z(phased), sv.expect_z(state),
                                   atol=1e-15)


class TestBatchedLayout:
    def test_state_batch_is_plus(self):
        s = sv.state_batch(3, 2, 4)
        assert s.shape == (3, 2, 4, 2)
        assert s.dtype == np.complex128
        np.testing.assert_allclose(np.abs(s), 1.0 / np.sqrt(2.0))

    def test_apply_batch_matches_loop(self):
        rng = np.random.default_rng(2)
        gates = sv.euler_unitaries(rng.normal(size=(2, 3, 3)))
        states = sv.state_batch(4, 2, 3)
        out = sv.apply_batch(states, gates)
        for b in range(4):
            for n in range(2):
                for m in range(3):
                    np.testing.assert_allclose(
                        out[b, n, m], gates[n, m] @ states[b, n, m],
                        atol=1e-14)

    def test_expect_z_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        gates = sv.euler_unitaries(rng.normal(size=(2, 2, 3)))
        states = sv.apply_batch(sv.state_batch(5, 2, 2), gates)
        ez = sv.expect_z_batch(states)
        assert ez.shape == (5, 2, 2)
        for b in range(5):
            for n in range(2):
                for m in range(2):
                    np.testing.assert_allclose(
                        ez[b, n, m], sv.expect_z(states[b, n, m]), atol=1e-14)
        assert np.all(np.abs(ez) <= 1.0 + 1e-12)
