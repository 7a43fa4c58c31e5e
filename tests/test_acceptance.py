"""Acceptance gate: one test, and one pass/fail line, per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside pytest's own verdict lines.  Every tolerance here
is load-bearing; loosening one is a behavior change, not a cleanup.
"""

import time

import numpy as np
import pytest

from qcorr.correlations import (
    SearchConfig,
    binary_entropy,
    classical_correlations_bd,
    classical_correlations_numeric,
    discord,
    report_bd,
)
from qcorr.decoherence import (
    ChannelSpec,
    apply_channel,
    c_trajectory,
    freezing_time,
    kraus_ops,
    trajectory,
)
from qcorr.linalg import ID2, dagger
from qcorr.measurement import optimal_z, theta
from qcorr.ncm import alpha_triple, d_a_numeric, d_a_optimized, f_hat
from qcorr.states import bd_matrix, fano_decompose, sample_bd

FROZEN_J = 0.2780719051126377  # 1 - H2(0.8)


@pytest.fixture(scope="module")
def sample200():
    return sample_bd(200, 42)


@pytest.fixture(scope="module", autouse=True)
def two_minute_budget():
    start = time.perf_counter()
    yield
    total = time.perf_counter() - start
    assert total < 120.0, f"acceptance module took {total:.1f}s"


def announce(num, name, detail):
    print(f"\ncriterion {num} ({name}): PASS  [{detail}]")


class TestAcceptance:
    def test_criterion_1_protected_axis_trajectory(self):
        start = time.perf_counter()
        spec = ChannelSpec(k=3, gamma=1.0)
        pts = trajectory([0.6, -0.6, 0.6], spec, np.linspace(0.0, 1.0, 101))
        j = np.array([p.report.classical for p in pts])
        i = np.array([p.report.mutual_info for p in pts])
        d = np.array([p.report.discord for p in pts])
        da = np.array([p.d_a for p in pts])
        elapsed = time.perf_counter() - start

        assert np.max(j) - np.min(j) <= 1e-9
        assert abs(j[0] - 0.278072) <= 1e-6
        assert abs(i[0] - 0.643221) <= 1e-6
        assert abs(d[0] - 0.365148) <= 1e-6
        assert abs(da[0] - 0.487279) <= 1e-6
        for series in (d, i, da):
            assert np.all(np.diff(series) < 0)
        assert elapsed < 1.0
        announce(1, "constant classical correlations under the protected axis",
                 f"J spread {np.max(j) - np.min(j):.2e}, {elapsed:.2f}s")

    def test_criterion_2_frozen_discord_crossover(self):
        start = time.perf_counter()
        spec = ChannelSpec(k=3, gamma=1.0)
        t_star = freezing_time([1.0, -0.6, 0.6], spec)
        grid = np.linspace(0.0, 1.0, 101)
        pts = trajectory([1.0, -0.6, 0.6], spec, grid)
        elapsed = time.perf_counter() - start

        assert abs(t_star - (-0.5 * np.log(0.6))) <= 1e-9
        before = [p for p in pts if p.t < t_star]
        after = [p for p in pts if p.t > t_star]
        d_before = np.array([p.report.discord for p in before])
        assert np.max(d_before) - np.min(d_before) <= 1e-9
        assert abs(d_before[0] - 0.278072) <= 1e-6
        j_before = np.array([p.report.classical for p in before])
        assert np.all(np.diff(j_before) < 0)
        j_after = np.array([p.report.classical for p in after])
        np.testing.assert_allclose(j_after, FROZEN_J, atol=1e-9)

        for p in before:
            diag = np.diag(p.t_matrix_after)
            assert p.optimal_axis == 1
            assert diag[0] != 0.0 and diag[1] == 0.0 and diag[2] == 0.0
            assert np.count_nonzero(p.t_matrix_after) == 1
        for p in after:
            diag = np.diag(p.t_matrix_after)
            assert p.optimal_axis == 3
            assert diag[2] != 0.0 and diag[0] == 0.0 and diag[1] == 0.0
            assert np.count_nonzero(p.t_matrix_after) == 1

        da_before = np.array([p.d_a for p in before])
        assert np.all(np.diff(da_before) < 0)
        assert elapsed < 1.0
        announce(2, "frozen discord until the axis crossover",
                 f"t*={t_star:.9f}, D spread {np.max(d_before) - np.min(d_before):.2e}, {elapsed:.2f}s")

    def test_criterion_3_discord_route_equivalence(self, sample200):
        start = time.perf_counter()
        worst = 0.0
        for bd in sample200:
            d_closed = discord(bd.coeffs, method="closed_bd")
            d_route = discord(bd_matrix(bd.coeffs), method="via_mi")
            worst = max(worst, abs(d_closed - d_route))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-5
        assert elapsed < 30.0
        announce(3, "both discord definitions agree",
                 f"200 states, max gap {worst:.2e}, {elapsed:.1f}s")

    def test_criterion_4_closed_vs_numeric(self, sample200):
        start = time.perf_counter()
        worst_j = worst_da = 0.0
        for bd in sample200:
            c = bd.coeffs
            j_closed, _ = classical_correlations_bd(c)
            j_numeric, _ = classical_correlations_numeric(bd_matrix(c))
            worst_j = max(worst_j, abs(j_closed - j_numeric))
            da_closed = d_a_optimized(c)
            da_num, _ = d_a_numeric(c)
            worst_da = max(worst_da, abs(da_closed - da_num))
        elapsed = time.perf_counter() - start
        assert worst_j <= 1e-5
        assert worst_da <= 1e-5
        assert elapsed < 60.0
        announce(4, "closed forms match the numeric searches",
                 f"J gap {worst_j:.2e}, dA gap {worst_da:.2e}, {elapsed:.1f}s")

    def test_criterion_5_interior_maximum_and_axis_minimum(self):
        rng = np.random.default_rng(42)
        worst_dom = np.inf
        for bd in sample_bd(100, rng):
            alpha = alpha_triple(bd.coeffs)
            total = sum(alpha)
            if total == 0.0:
                continue
            peak = f_hat(total / 5.0, alpha)
            thetas = rng.uniform(0.0, total, 1000)
            values = np.array([f_hat(th, alpha) for th in thetas])
            worst_dom = min(worst_dom, peak - np.max(values))
            assert peak >= np.max(values) - 1e-12

        worst_min = 0.0
        for bd in sample_bd(100, 43):
            da_axis = d_a_optimized(bd.coeffs)
            da_num, _ = d_a_numeric(bd.coeffs)
            worst_min = max(worst_min, abs(da_num - da_axis))
            assert abs(da_num - da_axis) <= 1e-8
        announce(5, "interior maximum dominates and the sphere minimum sits on an axis",
                 f"dominance margin {worst_dom:.2e}, axis-min gap {worst_min:.2e}")

    def test_criterion_6_channel_laws(self):
        rng = np.random.default_rng(44)
        worst_kraus = worst_law = worst_form = 0.0
        for bd in sample_bd(100, rng):
            spec = ChannelSpec(k=int(rng.integers(1, 4)), gamma=float(rng.uniform(0.0, 2.0)))
            t = float(rng.uniform(0.0, 3.0))
            ops = kraus_ops(spec, t)
            completeness = sum(dagger(e) @ e for e in ops)
            worst_kraus = max(worst_kraus, float(np.max(np.abs(completeness - ID2))))

            evolved = apply_channel(bd_matrix(bd.coeffs), spec, t)
            closed = bd_matrix(c_trajectory(bd.coeffs, spec, t))
            worst_law = max(worst_law, float(np.max(np.abs(evolved - closed))))

            fano = fano_decompose(evolved)
            off = fano.t - np.diag(np.diag(fano.t))
            worst_form = max(worst_form, float(np.max(np.abs(off))),
                             float(np.max(np.abs(fano.a))), float(np.max(np.abs(fano.b))))
        assert worst_kraus <= 1e-12
        assert worst_law <= 1e-12
        assert worst_form <= 1e-12
        announce(6, "channel laws hold and the state family is preserved",
                 f"completeness {worst_kraus:.1e}, law {worst_law:.1e}, form {worst_form:.1e}")

    def test_criterion_7_measurement_angle_bound(self):
        rng = np.random.default_rng(45)
        states = sample_bd(100, rng)
        worst_excess = -np.inf
        for bd in states:
            cap = float(np.max(np.abs(bd.coeffs)))
            for _ in range(100):
                z = rng.standard_normal(3)
                z /= np.linalg.norm(z)
                worst_excess = max(worst_excess, theta(bd.coeffs, z) - cap)
                assert theta(bd.coeffs, z) <= cap + 1e-12
            z_opt, c_max, _ = optimal_z(bd.coeffs)
            assert theta(bd.coeffs, z_opt) == pytest.approx(c_max, abs=1e-12)
            assert c_max == pytest.approx(cap, abs=0)
        announce(7, "measurement angle never beats the largest coefficient",
                 f"10000 pairs, worst excess {worst_excess:.2e}")

    def test_criterion_8_anchor_states(self):
        rep = report_bd([1.0, -1.0, 1.0])
        assert rep.mutual_info == pytest.approx(2.0, abs=1e-9)
        assert rep.classical == pytest.approx(1.0, abs=1e-9)
        assert rep.discord == pytest.approx(1.0, abs=1e-9)

        mixed = report_bd([0.0, 0.0, 0.0])
        assert mixed.mutual_info == pytest.approx(0.0, abs=1e-12)
        assert mixed.classical == pytest.approx(0.0, abs=1e-12)
        assert mixed.discord == pytest.approx(0.0, abs=1e-12)
        assert d_a_optimized([0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        announce(8, "maximally entangled and maximally mixed anchors",
                 "I=2, J=1, D=1 and all-zero")
