"""Tests for entropies, classical correlations and discord."""

import json

import numpy as np
import pytest

from qcorr.correlations import (
    CorrelationReport,
    binary_entropy,
    classical_correlations_bd,
    classical_correlations_numeric,
    discord,
    mutual_information,
    mutual_information_bd,
    report_bd,
    report_numeric,
    von_neumann_entropy,
)
from qcorr.measurement import conditional_states_bd, theta
from qcorr.search import SearchConfig
from qcorr.states import NotPSDError, bd_eigenvalues, bd_matrix, sample_bd

# Light search budget for module-level tests; the acceptance suite runs the
# full default budget.
FAST = SearchConfig(grid_points=200)


def exact_bd_entropy(c):
    """Independent route: entropy straight from the affine eigenvalue formulas."""
    lam = bd_eigenvalues(c)
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log2(lam)))


class TestEntropies:
    def test_binary_entropy_anchors(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.8) == pytest.approx(0.7219280948873623, abs=1e-15)

    def test_binary_entropy_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)

    def test_pure_state_has_zero_entropy(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert von_neumann_entropy(np.outer(v, v).astype(complex)) == pytest.approx(0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_bd_state_entropy(self):
        got = von_neumann_entropy(bd_matrix([0.6, -0.6, 0.6]))
        assert got == pytest.approx(exact_bd_entropy([0.6, -0.6, 0.6]), abs=1e-12)
        assert got == pytest.approx(1.3567796494470394, abs=1e-12)

    def test_clamps_rounding_noise(self):
        rho = np.diag([0.5 + 5e-11, 0.5 + 5e-11, -5e-11, -5e-11]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_genuinely_negative(self):
        rho = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(NotPSDError):
            von_neumann_entropy(rho)


class TestMutualInformation:
    def test_product_state(self):
        rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])).astype(complex)
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert mutual_information_bd([1, -1, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_closed_matches_matrix_route(self):
        for bd in sample_bd(25, seed=3):
            a = mutual_information_bd(bd)
            b = mutual_information(bd_matrix(bd))
            assert a == pytest.approx(b, abs=1e-10)

    def test_known_value(self):
        assert mutual_information_bd([0.6, -0.6, 0.6]) == pytest.approx(0.6432203505529606, abs=1e-12)


class TestClassicalCorrelations:
    def test_closed_form_anchor(self):
        j, axis = classical_correlations_bd([0.6, -0.6, 0.6])
        assert j == pytest.approx(0.2780719051126377, abs=1e-12)
        assert axis == 1  # all |c_i| tie; smallest index wins

    def test_perfect_correlation_axis(self):
        j, axis = classical_correlations_bd([1.0, -0.6, 0.6])
        assert j == pytest.approx(1.0, abs=1e-12)
        assert axis == 1

    def test_uncorrelated_state(self):
        j, _ = classical_correlations_bd([0, 0, 0])
        assert j == 0.0

    def test_coefficient_just_above_one(self):
        """check_bd accepts |c_1| up to about 1 + 4e-12; J used to raise for (1 + 3e-12, 0, 0)."""
        assert classical_correlations_bd([1 + 3e-12, 0.0, 0.0]) == (1.0, 1)

    def test_measured_term_decreases_with_theta(self):
        """Larger effective correlation always means a sharper conditional."""
        rng = np.random.default_rng(8)
        for bd in sample_bd(20, rng):
            s1, s2 = (rng.standard_normal(4) for _ in range(2))
            s1, s2 = s1 / np.linalg.norm(s1), s2 / np.linalg.norm(s2)
            if theta(bd, s1) > theta(bd, s2):
                s1, s2 = s2, s1
            def measured(s):
                return sum(p * von_neumann_entropy(r) for r, p in conditional_states_bd(bd, s))
            assert measured(s2) <= measured(s1) + 1e-10

    def test_numeric_matches_closed(self):
        for bd in sample_bd(15, seed=5):
            jc, _ = classical_correlations_bd(bd)
            jn, _ = classical_correlations_numeric(bd_matrix(bd), FAST)
            assert jn == pytest.approx(jc, abs=1e-7)

    def test_numeric_is_deterministic(self):
        rho = bd_matrix([0.4, -0.2, 0.55])
        v1, s1 = classical_correlations_numeric(rho, FAST)
        v2, s2 = classical_correlations_numeric(rho, FAST)
        assert v1 == v2
        np.testing.assert_array_equal(s1, s2)


class TestDiscord:
    def test_closed_anchors(self):
        assert discord([0.6, -0.6, 0.6]) == pytest.approx(0.3651484454403229, abs=1e-12)
        assert discord([1.0, -0.6, 0.6]) == pytest.approx(0.2780719051126377, abs=1e-12)
        assert discord([1, -1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_classically_correlated_state_has_zero_discord(self):
        assert discord([0.3, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_accepts_matrix_input(self):
        rho = bd_matrix([0.5, -0.3, 0.2])
        assert discord(rho) == pytest.approx(discord([0.5, -0.3, 0.2]), abs=1e-12)

    def test_route_equivalence(self):
        """Definition route and measured-mutual-information route agree."""
        for bd in sample_bd(8, seed=11):
            d_closed = discord(bd, method="closed_bd")
            d_via = discord(bd, method="via_mi", config=FAST)
            d_num = discord(bd, method="numeric", config=FAST)
            assert d_via == pytest.approx(d_closed, abs=1e-5)
            assert d_num == pytest.approx(d_closed, abs=1e-5)

    def test_nonnegative_on_samples(self):
        for bd in sample_bd(50, seed=12):
            assert discord(bd) >= -1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            discord([0, 0, 0], method="magic")


class TestCorrelationReport:
    def test_split_is_exact(self):
        for bd in sample_bd(40, seed=13):
            r = report_bd(bd)
            assert r.mutual_info == pytest.approx(r.classical + r.discord, abs=1e-10)
            assert r.theta_star == pytest.approx(np.max(np.abs(bd.coeffs)), abs=1e-14)
            assert r.optimal_axis in (1, 2, 3)

    def test_json_round_trip(self):
        r = report_bd([0.6, -0.6, 0.6])
        d = json.loads(json.dumps(r.to_dict()))
        assert set(d) == {"mutual_info", "classical", "discord", "optimal_axis", "theta_star"}
        assert CorrelationReport.from_dict(d) == r

    def test_numeric_report_on_general_state(self):
        rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])).astype(complex)
        r = report_numeric(rho, FAST)
        assert r.mutual_info == pytest.approx(0.0, abs=1e-9)
        assert r.classical == pytest.approx(0.0, abs=1e-9)
        assert r.optimal_axis is None
        assert r.theta_star is None
