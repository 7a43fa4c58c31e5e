"""Tests for the dense matrix kernel."""

import numpy as np
import pytest

from qcorr.linalg import (
    ID2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    dagger,
    hermitian_eigenvalues,
    hs_norm,
    kron,
    partial_trace,
)
from qcorr.states import bd_eigenvalues, bd_matrix, sample_bd


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestPauliAlgebra:
    def test_paulis_are_involutions(self):
        for s in PAULIS:
            np.testing.assert_allclose(s @ s, ID2, atol=1e-15)

    def test_cyclic_products(self):
        """sigma_x sigma_y = i sigma_z and cyclic permutations."""
        np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)
        np.testing.assert_allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y, atol=1e-15)

    def test_traceless(self):
        for s in PAULIS:
            assert abs(np.trace(s)) < 1e-15


class TestKron:
    def test_sigma_x_squared_tensor(self):
        """kron(sigma_x, sigma_x) is the 4x4 anti-diagonal of ones."""
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
        np.testing.assert_allclose(kron(SIGMA_X, SIGMA_X), expected, atol=0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            kron(np.eye(4), np.eye(2))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
            np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


class TestPartialTrace:
    def test_product_state_reduction(self):
        """Tracing out a unit-trace factor recovers the other factor."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            ra = random_hermitian(rng, 2)
            rb = random_hermitian(rng, 2)
            rb = rb / np.trace(rb)
            np.testing.assert_allclose(partial_trace(kron(ra, rb), "A"), ra, atol=1e-12)
            ra_unit = ra / np.trace(ra)
            np.testing.assert_allclose(partial_trace(kron(ra_unit, rb), "B"), rb, atol=1e-12)

    def test_trace_is_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_hermitian(rng, 4)
            for keep in ("A", "B"):
                np.testing.assert_allclose(
                    np.trace(partial_trace(rho, keep)), np.trace(rho), atol=1e-12
                )

    def test_bad_keep_flag(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), "C")


class TestHermitianEigenvalues:
    def test_pauli_spectrum(self):
        for s in PAULIS:
            np.testing.assert_allclose(hermitian_eigenvalues(s), [1.0, -1.0], atol=1e-13)

    def test_projector_spectrum(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.diag([1.0, 0.0]).astype(complex)), [1.0, 0.0], atol=0
        )

    def test_matches_closed_form_spectra(self):
        """Rotated Paulis n.sigma (+1, -1), rank-k projectors (1^k, 0^(4-k)) and Bell-diagonal states."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            np.testing.assert_allclose(
                hermitian_eigenvalues(sum(c * s for c, s in zip(n, PAULIS))), [1.0, -1.0], rtol=0, atol=1e-14
            )
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            for k in range(5):
                projector = q[:, :k] @ q[:, :k].conj().T
                want = [1.0] * k + [0.0] * (4 - k)
                np.testing.assert_allclose(hermitian_eigenvalues(projector), want, rtol=0, atol=1e-14)
        for bd in sample_bd(100, seed=42):
            want = np.sort(bd_eigenvalues(bd))[::-1]
            np.testing.assert_allclose(hermitian_eigenvalues(bd_matrix(bd)), want, rtol=0, atol=1e-15)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            assert abs(np.sum(hermitian_eigenvalues(h)) - np.trace(h).real) < 1e-10

    def test_shift_invariance(self):
        """Eigenvalues of h + lam*I are those of h shifted by lam."""
        rng = np.random.default_rng(44)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            lam = float(rng.standard_normal())
            np.testing.assert_allclose(
                hermitian_eigenvalues(h + lam * np.eye(4)),
                hermitian_eigenvalues(h) + lam,
                atol=1e-9,
            )

    def test_descending_order(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            w = hermitian_eigenvalues(random_hermitian(rng, 4))
            assert np.all(np.diff(w) <= 0)

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        m = np.eye(4, dtype=complex)
        m[1, 2] = m[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(m)

    def test_rejects_unsupported_dimension(self):
        for n in (3, 5):
            with pytest.raises(ValueError):
                hermitian_eigenvalues(np.eye(n))


class TestNormsAndCommutators:
    def test_hs_norm_pauli(self):
        """||sigma||_2 = sqrt(2) for every Pauli."""
        for s in PAULIS:
            assert abs(hs_norm(s) - np.sqrt(2)) < 1e-14

    def test_commutator_antisymmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-13)

    def test_commutator_norm_bound(self):
        """||[a, b]||_2 <= 2 ||a||_2 ||b||_2."""
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert hs_norm(commutator(a, b)) <= 2 * hs_norm(a) * hs_norm(b) + 1e-12

    def test_pauli_commutator(self):
        np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-14)

    def test_adjoint_involution(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(dagger(dagger(a)), a, atol=0)
