"""Tests for state validation, Fano form and the Bell-diagonal family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.linalg import hermitian_eigenvalues, kron
from qcorr.states import (
    BDState,
    FanoDecomposition,
    NonHermitianError,
    NotBellDiagonalError,
    NotFiniteError,
    NotPSDError,
    TraceNotOneError,
    bd_eigenvalues,
    bd_extract,
    bd_matrix,
    check_bd,
    check_bd_rows,
    fano_compose,
    fano_decompose,
    marginal,
    sample_bd,
    state_from_dict,
    state_to_dict,
    validate,
)

ID2 = np.eye(2, dtype=complex)


simplex = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4
).map(lambda v: np.array(v) / np.sum(v))


def coeffs_from_simplex(lam):
    l0, l1, l2, l3 = lam
    return np.array([-l0 - l1 + l2 + l3, -l0 + l1 - l2 + l3, -l0 + l1 + l2 - l3])


class TestBDEigenvalues:
    def test_known_spectra(self):
        np.testing.assert_allclose(
            bd_eigenvalues([0.6, -0.6, 0.6]), [0.1, 0.1, 0.7, 0.1], atol=1e-15
        )
        np.testing.assert_allclose(
            bd_eigenvalues([1.0, -0.6, 0.6]), [0.0, 0.0, 0.8, 0.2], atol=1e-15
        )

    def test_bell_state_is_pure(self):
        np.testing.assert_allclose(bd_eigenvalues([1, -1, 1]), [0, 0, 1, 0], atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(bd_eigenvalues([0, 0, 0]), [0.25] * 4, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(lam=simplex)
    def test_closed_form_matches_diagonalization(self, lam):
        """Affine eigenvalue formulas agree with diagonalizing the matrix."""
        c = coeffs_from_simplex(lam)
        closed = np.sort(bd_eigenvalues(c))[::-1]
        numeric = hermitian_eigenvalues(bd_matrix(c))
        np.testing.assert_allclose(closed, numeric, atol=1e-10)

    def test_l1_ball_is_always_valid(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            c = rng.uniform(-1, 1, size=3)
            c *= rng.uniform(0, 1) / max(np.sum(np.abs(c)), 1e-12)
            check_bd(c)

    def test_invalid_triple_rejected(self):
        with pytest.raises(NotPSDError):
            check_bd([1.0, 1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_triple_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_bd([bad, 0.0, 0.0])

    def test_rows_check_reports_first_bad_row(self):
        c = np.array([[0.1, 0.2, 0.3], [1.0, 1.0, -0.5], [np.nan, 0.0, 0.0]])
        with pytest.raises(NotPSDError, match=r"\[1\.0, 1\.0, -0\.5\]"):
            check_bd_rows(c)
        with pytest.raises(ValueError, match="finite"):
            check_bd_rows(c[[0, 2]])
        np.testing.assert_array_equal(check_bd_rows(c[:1]), bd_eigenvalues(c[0])[None])


class TestValidate:
    def test_accepts_bd_matrix(self):
        validate(bd_matrix([0.3, -0.2, 0.1]))

    def test_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-3
        with pytest.raises(NonHermitianError) as err:
            validate(m)
        assert err.value.violation > 1e-4

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOneError):
            validate(np.eye(4, dtype=complex))

    def test_not_psd(self):
        m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(NotPSDError) as err:
            validate(m)
        assert err.value.violation == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("entry, value", [
        ((0, 1), complex(np.nan, 0.0)),
        ((0, 0), complex(np.inf, 0.0)),
        ((2, 3), complex(0.0, -np.inf)),
    ])
    def test_non_finite_entry(self, entry, value):
        """A NaN off-diagonal used to run the eigensolver to its sweep cap; an inf read as a trace error."""
        m = bd_matrix([0.3, -0.2, 0.1])
        m[entry] = value
        with pytest.raises(NotFiniteError) as err:
            validate(m)
        assert err.value.violation == np.inf

    def test_tolerates_tiny_negative_eigenvalue(self):
        m = np.diag([0.5 + 5e-11, 0.5 + 5e-11, -5e-11, -5e-11]).astype(complex)
        validate(m)


class TestFano:
    def test_bd_states_have_no_local_polarization(self):
        f = fano_decompose(bd_matrix([0.6, -0.6, 0.6]))
        np.testing.assert_allclose(f.a, 0, atol=1e-14)
        np.testing.assert_allclose(f.b, 0, atol=1e-14)
        np.testing.assert_allclose(f.t, np.diag([0.6, -0.6, 0.6]), atol=1e-14)

    def test_bell_state_covariance(self):
        phi_plus = np.zeros((4, 4), dtype=complex)
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        phi_plus = np.outer(v, v.conj())
        f = fano_decompose(phi_plus)
        np.testing.assert_allclose(f.t, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_product_state_has_zero_covariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            va /= np.linalg.norm(va)
            vb /= np.linalg.norm(vb)
            rho = kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
            np.testing.assert_allclose(fano_decompose(rho).t, 0, atol=1e-12)

    def test_round_trip(self):
        """compose(decompose(rho)) == rho for random mixtures."""
        rng = np.random.default_rng(22)
        for _ in range(20):
            probs = rng.dirichlet((1, 1, 1, 1))
            vecs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = np.zeros((4, 4), dtype=complex)
            for p, v in zip(probs, vecs):
                v = v / np.linalg.norm(v)
                rho += p * np.outer(v, v.conj())
            np.testing.assert_allclose(fano_compose(fano_decompose(rho)), rho, atol=1e-12)

    def test_unphysical_triple_rejected(self):
        f = FanoDecomposition(a=np.zeros(3), b=np.zeros(3), t=np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(NotPSDError):
            fano_compose(f)


class TestBDExtract:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for bd in sample_bd(20, rng):
            got = bd_extract(bd_matrix(bd))
            np.testing.assert_allclose(got.coeffs, bd.coeffs, atol=1e-12)

    def test_refuses_polarized_state(self):
        f = FanoDecomposition(a=np.array([0.2, 0, 0]), b=np.zeros(3), t=np.zeros((3, 3)))
        with pytest.raises(NotBellDiagonalError):
            bd_extract(fano_compose(f))

    def test_refuses_near_bd(self):
        """A 1e-6 local polarization is outside the 1e-10 gate."""
        f = FanoDecomposition(
            a=np.array([1e-6, 0, 0]), b=np.zeros(3), t=np.diag([0.2, -0.1, 0.1])
        )
        with pytest.raises(NotBellDiagonalError):
            bd_extract(fano_compose(f))

    def test_refuses_off_diagonal_covariance(self):
        t = np.diag([0.2, -0.1, 0.1])
        t[0, 1] = 0.05
        with pytest.raises(NotBellDiagonalError):
            bd_extract(fano_compose(FanoDecomposition(a=np.zeros(3), b=np.zeros(3), t=t)))


class TestSampler:
    def test_samples_are_valid(self):
        for bd in sample_bd(200, seed=42):
            lam = bd_eigenvalues(bd)
            assert np.all(lam >= -1e-12)
            assert np.all(lam <= 1 + 1e-12)
            assert abs(np.sum(lam) - 1) < 1e-12

    def test_deterministic_under_seed(self):
        a = sample_bd(10, seed=7)
        b = sample_bd(10, seed=7)
        assert a == b

    def test_marginals_maximally_mixed(self):
        for bd in sample_bd(10, seed=1):
            rho = bd_matrix(bd)
            np.testing.assert_allclose(marginal(rho, "A"), ID2 / 2, atol=1e-12)
            np.testing.assert_allclose(marginal(rho, "B"), ID2 / 2, atol=1e-12)


class TestJsonFormat:
    def test_bd_round_trip(self):
        bd = BDState(0.6, -0.6, 0.6)
        assert state_from_dict(state_to_dict(bd)) == bd

    def test_dense_round_trip(self):
        rho = bd_matrix([0.3, 0.2, -0.4])
        back = state_from_dict(state_to_dict(rho))
        np.testing.assert_allclose(back, rho, atol=0)

    def test_missing_kind(self):
        with pytest.raises(ValueError, match="kind"):
            state_from_dict({"c": [0, 0, 0]})

    def test_wrong_c_length(self):
        with pytest.raises(ValueError):
            state_from_dict({"kind": "bd", "c": [0.1, 0.2]})

    def test_invalid_bd_coefficients(self):
        with pytest.raises(NotPSDError):
            state_from_dict({"kind": "bd", "c": [1.0, 1.0, -0.9]})

    def test_dense_must_be_a_state(self):
        bad = np.diag([0.6, 0.6, -0.1, -0.1])
        with pytest.raises(NotPSDError):
            state_from_dict({"kind": "dense", "re": bad.tolist(), "im": np.zeros((4, 4)).tolist()})
