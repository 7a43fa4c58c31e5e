"""Tests for the local flip channels and Bell-diagonal dynamics."""

import dataclasses

import numpy as np
import pytest

from qcorr.correlations import binary_entropy, report_bd
from qcorr.decoherence import (
    ChannelSpec,
    apply_channel,
    c_trajectory,
    freezing_time,
    is_freezing_initial,
    kraus_ops,
    trajectory,
)
from qcorr.linalg import ID2, dagger
from qcorr.measurement import optimal_z, t_after_measurement
from qcorr.ncm import d_a_optimized
from qcorr.states import bd_eigenvalues, bd_extract, bd_matrix, sample_bd, validate

T_STAR = 0.25541281188299536  # -ln(0.6) / 2
# Corners, faces and ties of the tetrahedron of valid coefficients.
EDGE_STATES = [
    (1.0, -1.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (1.0, 1.0, -1.0),
    (-1.0, -1.0, -1.0), (1.0, -0.6, 0.6), (0.5, -0.5, 0.5), (0.0, 0.0, -1.0), (0.3, -0.3, 0.1),
]


class TestChannelSpec:
    def test_valid(self):
        ChannelSpec(k=3, gamma=1.0)
        ChannelSpec(k=1, gamma=0.0)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            ChannelSpec(k=0, gamma=1.0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ChannelSpec(k=2, gamma=-0.5)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    def test_non_finite_rate(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            ChannelSpec(k=3, gamma=gamma)


class TestKraus:
    def test_completeness(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            spec = ChannelSpec(k=int(rng.integers(1, 4)), gamma=float(rng.uniform(0, 3)))
            ops = kraus_ops(spec, float(rng.uniform(0, 5)))
            total = sum(dagger(e) @ e for e in ops)
            np.testing.assert_allclose(total, ID2, atol=1e-12)

    def test_identity_at_t_zero(self):
        flip, ident = kraus_ops(ChannelSpec(k=1, gamma=2.0), 0.0)
        np.testing.assert_allclose(flip, 0, atol=1e-15)
        np.testing.assert_allclose(ident, ID2, atol=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            kraus_ops(ChannelSpec(k=1, gamma=1.0), -0.1)


class TestChannelAction:
    def test_matches_coefficient_law(self):
        """Applying the Kraus pairs reproduces the closed coefficient decay."""
        rng = np.random.default_rng(62)
        for bd in sample_bd(20, rng):
            spec = ChannelSpec(k=int(rng.integers(1, 4)), gamma=float(rng.uniform(0, 2)))
            t = float(rng.uniform(0, 3))
            evolved = apply_channel(bd_matrix(bd), spec, t)
            expected = bd_matrix(c_trajectory(bd, spec, t))
            np.testing.assert_allclose(evolved, expected, atol=1e-12)

    def test_preserves_bell_diagonal_form(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        out = apply_channel(bd_matrix([1.0, -0.6, 0.6]), spec, 0.7)
        bd_extract(out)  # raises if the form is broken
        validate(out)

    def test_trace_preserving_on_any_state(self):
        rng = np.random.default_rng(63)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        out = apply_channel(rho, ChannelSpec(k=2, gamma=0.8), 1.3)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        validate(out)


class TestCoefficientTrajectory:
    def test_protected_axis_constant(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        c_t = c_trajectory([1.0, -0.6, 0.6], spec, 0.3)
        decay = np.exp(-0.6)
        np.testing.assert_allclose(c_t.coeffs, [decay, -0.6 * decay, 0.6], atol=1e-14)

    def test_zero_rate_is_static(self):
        spec = ChannelSpec(k=1, gamma=0.0)
        c_t = c_trajectory([0.5, -0.2, 0.1], spec, 10.0)
        np.testing.assert_allclose(c_t.coeffs, [0.5, -0.2, 0.1], atol=0)

    def test_stays_valid_forever(self):
        rng = np.random.default_rng(64)
        for bd in sample_bd(20, rng):
            spec = ChannelSpec(k=int(rng.integers(1, 4)), gamma=1.0)
            for t in (0.1, 1.0, 10.0):
                lam = bd_eigenvalues(c_trajectory(bd, spec, t))
                assert np.all(lam >= -1e-12)


class TestFreezingConditions:
    def test_recognized_cases(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        assert is_freezing_initial([1.0, -0.6, 0.6], spec)
        assert is_freezing_initial([-1.0, 0.6, 0.6], spec)
        assert is_freezing_initial([-0.6, 1.0, 0.6], spec)  # roles swapped

    def test_rejected_cases(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        assert not is_freezing_initial([0.6, -0.6, 0.6], spec)
        assert not is_freezing_initial([1.0, -0.5, 0.6], spec)
        assert not is_freezing_initial([1.0, -0.6, 0.6], ChannelSpec(k=1, gamma=1.0))

    def test_crossover_time(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        assert freezing_time([1.0, -0.6, 0.6], spec) == pytest.approx(T_STAR, abs=1e-12)

    def test_crossover_scales_with_rate(self):
        spec = ChannelSpec(k=3, gamma=2.0)
        assert freezing_time([1.0, -0.6, 0.6], spec) == pytest.approx(T_STAR / 2, abs=1e-12)

    def test_edge_cases(self):
        assert freezing_time([1.0, -1.0, 1.0], ChannelSpec(k=3, gamma=1.0)) == 0.0
        assert freezing_time([1.0, 0.0, 0.0], ChannelSpec(k=3, gamma=1.0)) is None
        assert freezing_time([1.0, -0.6, 0.6], ChannelSpec(k=3, gamma=0.0)) is None
        assert freezing_time([0.6, -0.6, 0.6], ChannelSpec(k=3, gamma=1.0)) is None


class TestTrajectory:
    def test_frozen_discord_before_crossover(self):
        """Discord holds at 1 - H2((1+c0)/2) on [0, t*)."""
        spec = ChannelSpec(k=3, gamma=1.0)
        grid = np.linspace(0.0, T_STAR, 100, endpoint=False)
        pts = trajectory([1.0, -0.6, 0.6], spec, grid)
        d = np.array([p.report.discord for p in pts])
        expected = 1.0 - binary_entropy(0.8)
        assert np.max(d) - np.min(d) <= 1e-9
        np.testing.assert_allclose(d, expected, atol=1e-9)

    def test_frozen_classical_after_crossover(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        grid = np.linspace(T_STAR * 1.0001, 2.0, 50)
        pts = trajectory([1.0, -0.6, 0.6], spec, grid)
        j = np.array([p.report.classical for p in pts])
        np.testing.assert_allclose(j, 1.0 - binary_entropy(0.8), atol=1e-9)

    def test_continuity_at_crossover(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        eps = 1e-9 * T_STAR
        left, right = trajectory([1.0, -0.6, 0.6], spec, [T_STAR - eps, T_STAR + eps])
        assert abs(left.report.classical - right.report.classical) <= 1e-9
        assert abs(left.report.discord - right.report.discord) <= 1e-9

    def test_axis_switches_at_crossover(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        pts = trajectory([1.0, -0.6, 0.6], spec, [0.0, 0.25, T_STAR, 0.26, 1.0])
        assert [p.optimal_axis for p in pts] == [1, 1, 1, 3, 3]

    def test_protected_correlations_monotone_decay(self):
        """With no unit coefficient, J is constant and I, D, d_A decay."""
        spec = ChannelSpec(k=3, gamma=1.0)
        pts = trajectory([0.6, -0.6, 0.6], spec, np.linspace(0, 1, 40))
        j = np.array([p.report.classical for p in pts])
        np.testing.assert_allclose(j, j[0], atol=1e-12)
        for series in (
            [p.report.mutual_info for p in pts],
            [p.report.discord for p in pts],
            [p.d_a for p in pts],
        ):
            assert np.all(np.diff(series) < 0)

    def test_point_contents(self):
        spec = ChannelSpec(k=3, gamma=1.0)
        (pt,) = trajectory([1.0, -0.6, 0.6], spec, [0.0])
        assert pt.report.mutual_info == pytest.approx(
            pt.report.classical + pt.report.discord, abs=1e-10
        )
        expected_t = np.zeros((3, 3))
        expected_t[0, 0] = 1.0
        np.testing.assert_allclose(pt.t_matrix_after, expected_t, atol=1e-14)
        assert pt.optimal_axis == 1


class TestColumnarTrajectory:
    def test_points_equal_scalar_routes(self):
        """Every column entry is exactly what the per-state functions give at that time."""
        rng = np.random.default_rng(66)
        grid = np.sort(np.append(np.linspace(0.0, 2.0, 17), T_STAR))
        starts = [bd.coeffs for bd in sample_bd(10, rng)] + [np.array(c) for c in EDGE_STATES]
        for c0 in starts:
            for k, gamma in ((1, 0.0), (2, float(rng.uniform(0.1, 3.0))), (3, 1.0)):
                spec = ChannelSpec(k=k, gamma=gamma)
                traj = trajectory(c0, spec, grid)
                assert len(traj) == len(grid)
                for t, pt in zip(grid, traj):
                    c_t = c_trajectory(c0, spec, t)
                    z, _, axis = optimal_z(c_t)
                    t_after = t_after_measurement(c_t, z)
                    assert pt.t == t
                    assert pt.c == c_t
                    assert pt.report == report_bd(c_t)
                    assert pt.d_a == d_a_optimized(c_t)
                    assert pt.optimal_axis == axis
                    assert np.array_equal(pt.t_matrix_after, t_after)
                    assert np.array_equal(np.signbit(pt.t_matrix_after), np.signbit(t_after))

    def test_sequence_of_points(self):
        traj = trajectory([1.0, -0.6, 0.6], ChannelSpec(k=3, gamma=1.0), [0.0, 0.5, 1.0])
        assert len(traj) == 3
        assert traj[-1].t == 1.0
        assert [pt.t for pt in traj[1:]] == [0.5, 1.0]
        with pytest.raises(IndexError):
            traj[3]
        assert traj.optimal_axis.tolist() == [1, 3, 3]
        pt = traj[1]
        assert pt.d_a == traj.d_a[1]
        assert type(pt.d_a) is float and type(pt.optimal_axis) is int and type(pt.report.optimal_axis) is int
        with pytest.raises(ValueError):
            traj.d_a[0] = 0.0

    def test_membership_index_and_count(self):
        """Points compare by value, t_matrix_after included, so the Sequence mixins work."""
        traj = trajectory([1.0, -0.6, 0.6], ChannelSpec(k=3, gamma=1.0), [0.0, 0.5, 0.5, 1.0])
        assert traj[0] in traj
        assert traj.index(traj[2]) == 1
        assert traj.count(traj[1]) == 2
        assert traj[0] != traj[1]
        shifted = dataclasses.replace(traj[3], t_matrix_after=traj[3].t_matrix_after + 1.0)
        assert shifted != traj[3]
        assert shifted not in traj

    def test_rejects_non_vector_grid(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            trajectory([0.5, 0.0, 0.0], ChannelSpec(k=3, gamma=1.0), [[0.0, 1.0]])
