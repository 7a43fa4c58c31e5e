"""Tests for the projective-measurement layer."""

import numpy as np
import pytest

from qcorr.linalg import ID2, PAULIS, SIGMA_X, dagger
from qcorr.measurement import (
    OPTIMAL_Z,
    basis,
    conditional_states_bd,
    conditional_states_general,
    optimal_z,
    post_measurement_state,
    pvm_from_z,
    t_after_measurement,
    theta,
)
from qcorr.states import bd_matrix, fano_decompose, sample_bd, validate

E3 = np.array([0.0, 0.0, 1.0])


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def z_sigma(z):
    return sum(zi * sigma for zi, sigma in zip(z, PAULIS))


def bloch(ket):
    """Bloch vector <ket|sigma_k|ket> of a qubit ket."""
    return np.array([np.vdot(ket, p @ ket).real for p in PAULIS])


def seam_and_poles():
    """Unit z on the z3 = +0 / -0 seam of basis(z), and both poles."""
    ring = np.linspace(0.0, 2 * np.pi, 9)
    seam = [[np.cos(t), np.sin(t), zero] for t in ring for zero in (0.0, -0.0)]
    return seam + [E3, -E3]


class TestUnitaryAndPvm:
    def test_identity_parameter(self):
        assert np.array_equal(basis(E3), ID2)

    def test_unitarity_everywhere(self):
        """basis(z) is unitary, with columns the +1 and -1 eigenkets of z.sigma.

        Random z, both poles, and the z3 = +0 / -0 seam where the construction
        switches between its two forms.
        """
        rng = np.random.default_rng(42)
        for z in [random_unit(rng, 3) for _ in range(1000)] + seam_and_poles():
            v = basis(z)
            np.testing.assert_allclose(v @ dagger(v), ID2, rtol=0, atol=1e-15)
            np.testing.assert_allclose(z_sigma(z) @ v, v * [1, -1], rtol=0, atol=1e-15)

    def test_projector_algebra(self):
        """M_j^2 = M_j, M_0 + M_1 = I, and M_0 has Bloch vector z, for random z."""
        rng = np.random.default_rng(43)
        for _ in range(200):
            z = random_unit(rng, 3)
            pvm = pvm_from_z(z)
            np.testing.assert_allclose(pvm.m0 @ pvm.m0, pvm.m0, atol=1e-12)
            np.testing.assert_allclose(pvm.m1 @ pvm.m1, pvm.m1, atol=1e-12)
            np.testing.assert_allclose(pvm.m0 + pvm.m1, ID2, atol=1e-12)
            np.testing.assert_allclose([np.trace(pvm.m0 @ p).real for p in PAULIS], z, atol=1e-15)
            ket = basis(z)[:, 0]
            np.testing.assert_allclose(np.outer(ket, ket.conj()), pvm.m0, atol=1e-15)

    def test_sign_flip_gives_same_pvm(self):
        """z and -z name one measurement: the projectors, and the eigenkets up to a phase, swap."""
        rng = np.random.default_rng(44)
        for _ in range(50):
            z = random_unit(rng, 3)
            a, b = pvm_from_z(z), pvm_from_z(-z)
            assert np.array_equal(a.m0, b.m1)
            assert np.array_equal(a.m1, b.m0)
            overlaps = np.abs(dagger(basis(-z)) @ basis(z))
            np.testing.assert_allclose(overlaps, [[0, 1], [1, 0]], rtol=0, atol=1e-15)

    def test_axis_parameter_gives_computational_basis(self):
        pvm = pvm_from_z(E3)
        assert np.array_equal(pvm.m0, np.diag([1, 0]))
        assert np.array_equal(pvm.m1, np.diag([0, 1]))

    def test_x_basis_parameter(self):
        pvm = pvm_from_z([1.0, 0, 0])
        np.testing.assert_allclose(pvm.m0, (ID2 + SIGMA_X) / 2, atol=0)
        np.testing.assert_allclose(pvm.m1, (ID2 - SIGMA_X) / 2, atol=0)

    def test_rejects_non_unit(self):
        for reject in (pvm_from_z, basis, lambda z: theta([0.1, 0.2, 0.3], z)):
            with pytest.raises(ValueError, match="unit"):
                reject([1, 1, 0])
            with pytest.raises(ValueError, match="3-vector"):
                reject([1, 0, 0, 0])


class TestZVector:
    def test_always_unit(self):
        """Both eigenkets of basis(z) are pure states: unit norm and unit Bloch vector."""
        rng = np.random.default_rng(45)
        for z in [random_unit(rng, 3) for _ in range(1000)] + seam_and_poles():
            for ket in basis(z).T:
                assert abs(np.linalg.norm(ket) - 1) < 1e-15
                assert abs(np.linalg.norm(bloch(ket)) - 1) < 1e-15

    def test_s_from_z_round_trip(self):
        """z -> basis(z) -> z: the eigenkets of basis(z) have Bloch vectors z and -z."""
        rng = np.random.default_rng(46)
        for z in [random_unit(rng, 3) for _ in range(300)] + seam_and_poles():
            v = basis(z)
            np.testing.assert_allclose(bloch(v[:, 0]), z, rtol=0, atol=1e-15)
            np.testing.assert_allclose(bloch(v[:, 1]), -np.asarray(z), rtol=0, atol=1e-15)

    def test_s_from_z_poles(self):
        """At the poles basis(z) is exact: I at +e3, and the swapped kets at -e3."""
        assert np.array_equal(basis(E3), ID2)
        assert np.array_equal(basis(-E3), [[0, -1], [1, 0]])
        assert np.array_equal(bloch(basis(-E3)[:, 0]), -E3)
        assert np.array_equal(bloch(basis(-E3)[:, 1]), E3)

    def test_optimal_representatives_hit_the_axes(self):
        assert np.array_equal(OPTIMAL_Z, np.eye(3))
        for axis, c in ((1, [0.6, -0.6, 0.6]), (2, [0.3, -0.6, 0.2]), (3, [0.1, 0.2, -0.9])):
            z, _, got = optimal_z(c)
            assert got == axis
            assert np.array_equal(z, np.eye(3)[axis - 1])


class TestTheta:
    def test_bounded_by_largest_coefficient(self):
        rng = np.random.default_rng(47)
        states = sample_bd(100, rng)
        for bd in states:
            cmax = np.max(np.abs(bd.coeffs))
            for _ in range(10):
                assert theta(bd, random_unit(rng, 3)) <= cmax + 1e-12

    def test_optimal_z_attains_bound(self):
        for c in ([0.6, -0.6, 0.6], [1.0, -0.6, 0.6], [0.2, 0.7, -0.3]):
            z, cmax, axis = optimal_z(c)
            assert theta(c, z) == cmax
            assert cmax == pytest.approx(np.max(np.abs(c)), abs=0)

    def test_zero_state(self):
        assert theta([0, 0, 0], E3) == 0.0

    def test_tie_break_prefers_smallest_axis(self):
        assert optimal_z([0.5, 0.5, 0.3])[2] == 1
        assert optimal_z([0.3, 0.5, 0.5])[2] == 2
        assert optimal_z([0.3, 0.3, 0.5])[2] == 3


class TestConditionals:
    def test_bd_probabilities_are_half(self):
        rng = np.random.default_rng(48)
        for bd in sample_bd(20, rng):
            (r0, p0), (r1, p1) = conditional_states_bd(bd, random_unit(rng, 3))
            assert p0 == 0.5 and p1 == 0.5
            for r in (r0, r1):
                assert abs(np.trace(r).real - 1) < 1e-12

    def test_bd_closed_form_matches_general_path(self):
        rng = np.random.default_rng(49)
        for bd in sample_bd(25, rng):
            z = random_unit(rng, 3)
            closed = conditional_states_bd(bd, z)
            general = conditional_states_general(bd_matrix(bd), pvm_from_z(z))
            for (rc, pc), (rg, pg) in zip(closed, general):
                assert pg == pytest.approx(pc, abs=1e-12)
                np.testing.assert_allclose(rc, rg, atol=1e-12)

    def test_bell_state_conditionals_are_pure(self):
        (r0, _), (r1, _) = conditional_states_bd([1, -1, 1], [1.0, 0, 0])
        np.testing.assert_allclose(r0, (ID2 + SIGMA_X) / 2, atol=1e-12)
        np.testing.assert_allclose(r1, (ID2 - SIGMA_X) / 2, atol=1e-12)

    def test_zero_probability_outcome_is_flagged(self):
        ket00 = np.zeros(4)
        ket00[0] = 1
        rho = np.outer(ket00, ket00).astype(complex)
        out = conditional_states_general(rho, pvm_from_z(E3))
        assert out[0][1] == pytest.approx(1.0, abs=1e-14)
        assert out[1] == (None, 0.0)


class TestPostMeasurement:
    def test_bell_state_dephases_to_classical_mixture(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(v, v).astype(complex)
        out = post_measurement_state(rho, pvm_from_z(E3))
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_output_is_a_state(self):
        rng = np.random.default_rng(50)
        for bd in sample_bd(10, rng):
            out = post_measurement_state(bd_matrix(bd), pvm_from_z(random_unit(rng, 3)))
            validate(out)

    def test_covariance_closed_form(self):
        """T(z)_ij = c_j z_i z_j matches the assembled post-measurement state."""
        rng = np.random.default_rng(51)
        for bd in sample_bd(30, rng):
            z = random_unit(rng, 3)
            rho_m = post_measurement_state(bd_matrix(bd), pvm_from_z(z))
            f = fano_decompose(rho_m)
            np.testing.assert_allclose(f.a, 0, atol=1e-12)
            np.testing.assert_allclose(f.b, 0, atol=1e-12)
            np.testing.assert_allclose(f.t, t_after_measurement(bd, z), atol=1e-12)

    def test_optimal_measurement_leaves_single_entry(self):
        c = [0.6, -0.6, 0.6]
        z, cmax, axis = optimal_z(c)
        t = t_after_measurement(c, z)
        expected = np.zeros((3, 3))
        expected[axis - 1, axis - 1] = c[axis - 1]
        assert np.array_equal(t, expected)
