"""Unit tests for the dense two-spin linear algebra layer."""

import re

import numpy as np
import pytest

from exchsim import core
from helpers import expm_series, random_hermitian, random_state, random_unitary


class TestKron:
    def test_identity_tensor_identity(self):
        np.testing.assert_array_equal(core.kron(core.IDENT_2, core.IDENT_2), np.eye(4))

    def test_sigma_z_tensor_sigma_z(self):
        np.testing.assert_array_equal(
            core.kron(core.SIGMA_Z, core.SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_basis_ordering_qubit1_left(self):
        # sigma_x on qubit 1 maps |00> (index 0) to |10> (index 2)
        op = core.kron(core.SIGMA_X, core.IDENT_2)
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(op @ ket00, [0, 0, 1, 0], atol=1e-15)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            core.kron(np.eye(4), core.IDENT_2)

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            core.kron(bad, core.IDENT_2)

    @pytest.mark.parametrize("shape", [(2,), (2, 4), (2, 2, 2)])
    def test_rejects_a_non_square_operand_naming_its_shape(self, shape):
        with pytest.raises(ValueError, match=f"expected a square matrix, got shape "
                                             f"{re.escape(str(shape))}"):
            core.kron(np.zeros(shape), core.IDENT_2)


class TestSpinDot:
    def test_eigenvalues_are_triplet_singlet(self):
        eig = np.sort(np.linalg.eigvalsh(core.spin_dot_operator()))
        np.testing.assert_allclose(eig, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_equals_swap_combination(self):
        np.testing.assert_allclose(
            core.spin_dot_operator(), (2.0 * core.SWAP - np.eye(4)) / 4.0, atol=1e-15
        )

    def test_exchange_matrix_element(self):
        # <10| s1.s2 |01> = 1/2
        assert core.spin_dot_operator()[2, 1] == pytest.approx(0.5, abs=1e-15)

    def test_traceless_and_hermitian(self):
        sd = core.spin_dot_operator()
        assert abs(np.trace(sd)) < 1e-15
        np.testing.assert_allclose(sd, sd.conj().T, atol=1e-15)

    def test_commutes_with_swap(self):
        sd = core.spin_dot_operator()
        assert core.max_abs(sd @ core.SWAP - core.SWAP @ sd) <= 1e-12

    @pytest.mark.parametrize("sigma", [core.SIGMA_X, core.SIGMA_Y, core.SIGMA_Z])
    def test_commutes_with_total_spin_rotations(self, sigma):
        sd = core.spin_dot_operator()
        total = (core.kron(sigma, core.IDENT_2) + core.kron(core.IDENT_2, sigma)) / 2.0
        for theta in (0.3, 1.0, 2.5):
            rot = core.expm_hermitian(total, theta)
            assert core.max_abs(sd @ rot - rot @ sd) <= 1e-12


class TestExpmHermitian:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(
            core.expm_hermitian(core.spin_dot_operator(), 0.0), np.eye(4), atol=1e-15
        )

    def test_diagonal_case(self):
        u = core.expm_hermitian(core.SIGMA_Z, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_agrees_with_series_oracle_on_spin_dot(self):
        h = core.spin_dot_operator()
        diff = core.expm_hermitian(h, 0.3) - expm_series(h, 0.3)
        assert core.max_abs(diff) <= core.ATOL_ORACLE

    def test_agrees_with_series_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_hermitian(rng)
            theta = rng.uniform(-2.0, 2.0)
            diff = core.expm_hermitian(h, theta) - expm_series(h, theta)
            assert core.max_abs(diff) <= core.ATOL_ORACLE

    def test_output_unitarity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = core.expm_hermitian(random_hermitian(rng), rng.uniform(-10, 10))
            assert core.max_abs(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_group_law(self):
        rng = np.random.default_rng(13)
        h = core.spin_dot_operator()
        for _ in range(10):
            t1, t2 = rng.uniform(-5, 5, size=2)
            combined = core.expm_hermitian(h, t1) @ core.expm_hermitian(h, t2)
            assert core.max_abs(combined - core.expm_hermitian(h, t1 + t2)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            core.expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ValueError):
            core.expm_hermitian(core.SIGMA_Z, np.inf)


class TestProcessFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(14)
        u = random_unitary(rng)
        assert core.process_fidelity(u, u) == pytest.approx(1.0, abs=1e-14)

    def test_identity_vs_swap(self):
        # Tr(SWAP) = 2, so F = 4/16
        assert core.process_fidelity(np.eye(4), core.SWAP) == pytest.approx(0.25, abs=1e-15)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(15)
        u = random_unitary(rng)
        for phi in (0.1, 1.7, -2.9):
            assert core.process_fidelity(u, np.exp(1j * phi) * u) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_symmetric(self):
        rng = np.random.default_rng(16)
        u, v = random_unitary(rng), random_unitary(rng)
        assert core.process_fidelity(u, v) == pytest.approx(core.process_fidelity(v, u), abs=1e-14)

    def test_invariant_under_simultaneous_left_multiplication(self):
        rng = np.random.default_rng(17)
        u, v, w = random_unitary(rng), random_unitary(rng), random_unitary(rng)
        assert core.process_fidelity(w @ u, w @ v) == pytest.approx(
            core.process_fidelity(u, v), abs=1e-13
        )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            core.process_fidelity(np.eye(4) * 2.0, np.eye(4))

    def test_rejects_unitaries_of_unequal_dimension(self):
        with pytest.raises(ValueError, match="unitaries must have equal dimension"):
            core.process_fidelity(core.IDENT_2, core.SWAP)


class TestDensityFromPure:
    def test_basis_state(self):
        rho = core.density_from_pure([1, 0, 0, 0])
        np.testing.assert_array_equal(rho, np.diag([1.0, 0, 0, 0]))

    def test_bell_like_state(self):
        rho = core.density_from_pure(np.array([0, 1, 1, 0]) / np.sqrt(2))
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_random_states_are_valid_pure_densities(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            rho = core.density_from_pure(random_state(rng))
            core.check_density_matrix(rho)
            assert core.max_abs(rho @ rho - rho) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            core.density_from_pure([1, 1, 0, 0])

    def test_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"4-component state vector, got shape \(2,\)"):
            core.density_from_pure([1, 0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1j * np.inf])
    def test_rejects_nonfinite_entries(self, entry):
        with pytest.raises(ValueError, match="state vector entries must be finite"):
            core.density_from_pure([entry, 0, 0, 0])


class TestDensityMatrixChecks:
    def test_rejects_non_hermitian(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            core.check_density_matrix(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            core.check_density_matrix(np.eye(4) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            core.check_density_matrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))
