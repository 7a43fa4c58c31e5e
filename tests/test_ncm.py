"""Tests for the non-commutativity measure of quantum correlations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.correlations import _measured_term, classical_correlations_numeric, von_neumann_entropy
from qcorr.linalg import ID2, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, commutator, hs_norm, kron, partial_trace
from qcorr.measurement import basis
from qcorr.ncm import (
    _d_a_objective,
    a_operators,
    alpha_triple,
    d_a_basis,
    d_a_bd_closed,
    d_a_minimized,
    d_a_numeric,
    d_a_optimized,
    f_hat,
)
from qcorr.search import SearchConfig
from qcorr.states import FanoDecomposition, NotPSDError, bd_matrix, fano_compose, fano_vectors, sample_bd

FAST = SearchConfig(grid_points=200)

COMPUTATIONAL = np.array([0.0, 0.0, 1.0])

# Bell-diagonal states where two axis values of the d_A objective are close.
# The first six sent a single-start search into the wrong axis basin; the
# last three have near-tied |c_i| (flat valleys and near-cone tips).
HARD_DA_STATES = [
    [0.14766674681390102, -0.937012857543081, 0.1560569039451163],
    [-0.10279272788120536, 0.7308232318275789, -0.09419117796263937],
    [0.08430884284296025, -0.662226272381129, 0.0934705185456659],
    [0.08192205668550123, 0.5414145217216695, 0.08822398566864686],
    [-0.014082874130415812, 0.747002919458295, -0.011522600142974404],
    [0.1072891030956592, 0.12003066072367674, -0.8993158228218336],
    [-0.6416064494293993, -0.20724307319862656, -0.20580903544915338],
    [0.2659102075107623, 0.2655902582662984, -0.9036254649106568],
    [0.7680810237321235, 0.7679477629332344, -0.9873758042597378],
]

# Bell-diagonal states under U_A x U_B, the two Haar unitaries drawn from
# default_rng(seed).  Two of their local d_A minima share a start cell of the
# search in the standard frame, which then missed the lower one by 1.1e-5,
# 2.7e-5 and 3.5e-4.
ROTATED_HARD_DA_STATES = [
    ([6, 1578], [-0.07331983815016524, -0.07262274017113474, -0.3492023558848426]),
    ([12, 486], [0.47303526799452267, 0.07859348704158448, -0.0734547831003996]),
    ([12, 780], [0.9392033417897503, -0.11924276783124016, 0.13068337223254128]),
]


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_state(rng):
    probs = rng.dirichlet((1, 1, 1, 1))
    rho = np.zeros((4, 4), dtype=complex)
    for p in probs:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    return rho


class TestAOperators:
    def test_reconstruction(self):
        """rho = sum_ij A_ij x |i><j| in the expansion basis."""
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = random_state(rng)
            z = random_unit(rng, 3)
            v = basis(z)
            kets = [v[:, 0], v[:, 1]]
            blocks = a_operators(rho, z)
            rebuilt = sum(
                kron(blocks[i][j], np.outer(kets[i], kets[j].conj()))
                for i in range(2)
                for j in range(2)
            )
            np.testing.assert_allclose(rebuilt, rho, atol=1e-12)

    def test_bd_blocks_in_computational_basis(self):
        """Diagonal blocks carry c3; off-diagonal blocks mix c1 and c2."""
        c1, c2, c3 = 0.5, -0.3, 0.2
        blocks = a_operators(bd_matrix([c1, c2, c3]), COMPUTATIONAL)
        np.testing.assert_allclose(blocks[0][0], (ID2 + c3 * SIGMA_Z) / 4, atol=1e-14)
        np.testing.assert_allclose(blocks[1][1], (ID2 - c3 * SIGMA_Z) / 4, atol=1e-14)
        np.testing.assert_allclose(blocks[0][1], (c1 * SIGMA_X - 1j * c2 * SIGMA_Y) / 4, atol=1e-14)
        np.testing.assert_allclose(blocks[1][0], (c1 * SIGMA_X + 1j * c2 * SIGMA_Y) / 4, atol=1e-14)

    def test_commutator_norm_expansion(self):
        """Each pair norm reduces to the Pauli-overlap expansion."""
        rng = np.random.default_rng(32)
        for bd in sample_bd(10, rng):
            z = random_unit(rng, 3)
            rho = bd_matrix(bd)
            v = basis(z)
            kets = [v[:, 0], v[:, 1]]
            overlap = {
                m: np.array(
                    [[kets[i].conj() @ (PAULIS[m] @ kets[j]) for j in range(2)] for i in range(2)]
                )
                for m in range(3)
            }
            blocks = a_operators(rho, z)
            keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
            c1, c2, c3 = bd.coeffs
            for x in range(4):
                for y in range(x + 1, 4):
                    (i, j), (k, l) = keys[x], keys[y]

                    def pair(m, n):
                        return overlap[m][i, j] * overlap[n][k, l] - overlap[n][i, j] * overlap[m][k, l]

                    lhs = hs_norm(commutator(blocks[i][j], blocks[k][l])) ** 2
                    rhs = (
                        abs(c1 * c2) ** 2 * abs(pair(0, 1)) ** 2
                        + abs(c1 * c3) ** 2 * abs(pair(2, 0)) ** 2
                        + abs(c2 * c3) ** 2 * abs(pair(1, 2)) ** 2
                    ) / 2**5
                    assert lhs == pytest.approx(rhs, abs=1e-10)


class TestClosedForm:
    def test_direct_sum_matches_closed_form(self):
        rng = np.random.default_rng(33)
        for bd in sample_bd(30, rng):
            z = random_unit(rng, 3)
            direct = d_a_basis(bd_matrix(bd), z)
            closed = d_a_bd_closed(bd, z)
            assert direct == pytest.approx(closed, abs=1e-10)

    def test_bell_state_computational_value(self):
        rho = bd_matrix([1, -1, 1])
        want = 1 / (2 * np.sqrt(2)) + 1
        assert d_a_basis(rho, COMPUTATIONAL) == pytest.approx(want, abs=1e-12)
        assert d_a_bd_closed([1, -1, 1], COMPUTATIONAL) == pytest.approx(want, abs=1e-12)

    def test_anchor_values(self):
        assert d_a_bd_closed([0.6, -0.6, 0.6], COMPUTATIONAL) == pytest.approx(
            0.4872792206135785, abs=1e-12
        )
        assert d_a_bd_closed([1.0, -0.6, 0.6], [1.0, 0, 0]) == pytest.approx(
            0.7272792206135785, abs=1e-12
        )

    def test_same_alpha_means_basis_independent(self):
        """When all pairwise products tie, the closed form is constant in z."""
        rng = np.random.default_rng(34)
        vals = [d_a_bd_closed([0.6, -0.6, 0.6], random_unit(rng, 3)) for _ in range(20)]
        np.testing.assert_allclose(vals, vals[0], atol=1e-12)


class TestOptimized:
    def test_anchor_values(self):
        assert d_a_optimized([0.6, -0.6, 0.6]) == pytest.approx(0.4872792206135785, abs=1e-12)
        assert d_a_optimized([1.0, -0.6, 0.6]) == pytest.approx(0.7069047094300835, abs=1e-12)
        assert d_a_optimized([1, -1, 1]) == pytest.approx((1 + 2 * np.sqrt(2)) / np.sqrt(8), abs=1e-12)

    def test_zero_iff_at_most_one_coefficient(self):
        assert d_a_optimized([0.5, 0, 0]) == 0.0
        assert d_a_optimized([0, -0.4, 0]) == 0.0
        assert d_a_optimized([0, 0, 0]) == 0.0
        assert d_a_optimized([0.5, 0.2, 0]) > 0.0

    def test_lower_bounds_every_basis(self):
        rng = np.random.default_rng(35)
        for bd in sample_bd(10, rng):
            opt = d_a_optimized(bd)
            for _ in range(50):
                assert opt <= d_a_bd_closed(bd, random_unit(rng, 3)) + 1e-10

    def test_generic_states_are_basis_dependent(self):
        """A state with distinct pairwise products has strictly worse bases."""
        c = [1.0, -0.6, 0.6]
        opt = d_a_optimized(c)
        worst = max(
            d_a_bd_closed(c, random_unit(np.random.default_rng(36), 3)) for _ in range(50)
        )
        assert worst > opt + 1e-3


class TestNumericMinimizer:
    def test_matches_closed_optimum(self):
        for bd in sample_bd(10, seed=37):
            val, z_best = d_a_numeric(bd, FAST)
            assert val == pytest.approx(d_a_optimized(bd), abs=1e-8)
            assert abs(np.linalg.norm(z_best) - 1) < 1e-12

    def test_minimum_sits_on_an_axis(self):
        for bd in sample_bd(5, seed=38):
            _, z_best = d_a_numeric(bd, FAST)
            z = np.abs(z_best)
            assert np.max(z) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("c", HARD_DA_STATES)
    def test_finds_the_axis_minimum_on_hard_states(self, c):
        val, _ = d_a_numeric(c)
        assert abs(val - d_a_optimized(c)) <= 1e-12

    def test_deterministic(self):
        v1, z1 = d_a_numeric([0.5, -0.3, 0.2], FAST)
        v2, z2 = d_a_numeric([0.5, -0.3, 0.2], FAST)
        assert v1 == v2
        np.testing.assert_array_equal(z1, z2)


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    d = np.diag(r)
    return q * (d / np.abs(d))


class TestDenseMinimizer:
    @pytest.mark.parametrize("seed, c", ROTATED_HARD_DA_STATES)
    def test_finds_the_axis_minimum_on_rotated_states(self, seed, c):
        rng = np.random.default_rng(seed)
        u = kron(haar_unitary(rng), haar_unitary(rng))
        rho = u @ bd_matrix(c) @ u.conj().T
        a, _, r = fano_vectors(rho)
        assert abs(d_a_minimized(a, r) - d_a_optimized(c)) <= 1e-12


def x_state(rng):
    """A physical state with Fano vectors a, b parallel to e3 and R = diag(r1, r2, r3), by rejection."""
    while True:
        a3, b3, *r = rng.uniform(-1.0, 1.0, 5)
        a, b = np.array([0.0, 0.0, a3]), np.array([0.0, 0.0, b3])
        try:
            return fano_compose(FanoDecomposition.from_vectors(a, b, np.diag(r)))
        except NotPSDError:
            pass


def about_e3(phi):
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def great_circle_minimum(objective):
    """Minimum of an even batched objective over the xz and yz great circles.

    A theta scan of each half circle, then golden-section refinement of
    every local minimum of the scan.
    """
    theta = np.linspace(0.0, np.pi, 2001)[:-1]  # theta = pi is theta = 0, as the objective is even
    step, golden = theta[1], (np.sqrt(5.0) - 1.0) / 2.0

    def on_circles(t, k):
        z = np.zeros((t.size, 3))
        z[np.arange(t.size), k], z[:, 2] = np.sin(t), np.cos(t)
        return objective(z)

    t, k = np.tile(theta, 2), np.repeat([0, 1], theta.size)
    vals = on_circles(t, k).reshape(2, -1)
    local = ((vals <= np.roll(vals, 1, axis=1)) & (vals <= np.roll(vals, -1, axis=1))).ravel()
    lo, hi, k = t[local] - step, t[local] + step, k[local]
    for _ in range(70):
        m1, m2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
        left = on_circles(m1, k) <= on_circles(m2, k)
        lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
    return min(vals.min(), on_circles(0.5 * (lo + hi), k).min())


class TestXStates:
    """X states: every root under the d_A kernel, and J's conditional entropy, is
    concave in z1^2 at fixed z3, so both optima lie on the xz or the yz great circle
    (the axis and equator candidates of Ali, Rau & Alber, PRA 81, 042105 (2010),
    widened to whole circles).  The searches see each state under independent local
    rotations about e3, so R is not diagonal for them.

    |Az| has a cone point at the pole e3.  Without the cone candidate, the d_A
    search ended more than 1e-12 above the circle minimum on 140 of 200 such
    states, by up to 2.9e-11.
    """

    @pytest.fixture(scope="class")
    def states(self):
        rng = np.random.default_rng(5)
        out = []
        for _ in range(20):
            rho = x_state(rng)
            u = kron(about_e3(rng.uniform(0, 2 * np.pi)), about_e3(rng.uniform(0, 2 * np.pi)))
            out.append((rho, u @ rho @ u.conj().T))
        return out

    def test_d_a_search_reaches_the_great_circle_minimum(self, states):
        for rho, rotated in states:
            want = great_circle_minimum(_d_a_objective(*fano_vectors(rho)[::2]))
            a, _, r = fano_vectors(rotated)
            assert abs(d_a_minimized(a, r) - want) <= 1e-14

    def test_j_search_reaches_the_great_circle_maximum(self, states):
        for rho, rotated in states:
            term = _measured_term(*fano_vectors(rho))
            want = von_neumann_entropy(partial_trace(rho, "B")) - great_circle_minimum(term)
            assert abs(classical_correlations_numeric(rotated)[0] - want) <= 1e-14


nonneg = st.floats(min_value=0.0, max_value=1.0)


class TestAxisProfile:
    def test_alpha_triple(self):
        a = alpha_triple([0.6, -0.6, 0.6])
        np.testing.assert_allclose(a, [0.1296, 0.1296, 0.1296], atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(a1=nonneg, a2=nonneg, a3=nonneg, frac=st.floats(min_value=0.0, max_value=1.0))
    def test_interior_stationary_point_dominates(self, a1, a2, a3, frac):
        """f_hat peaks at alpha/5, so no interior point beats it."""
        total = a1 + a2 + a3
        theta = frac * total
        assert f_hat(theta, (a1, a2, a3)) <= f_hat(total / 5, (a1, a2, a3)) + 1e-12

    def test_peak_value(self):
        total = 0.3 + 0.2 + 0.1
        assert f_hat(total / 5, (0.3, 0.2, 0.1)) == pytest.approx(np.sqrt(5 * total), abs=1e-12)

    def test_boundary_values(self):
        total = 0.2 + 0.2 + 0.2
        assert f_hat(0.0, (0.2, 0.2, 0.2)) == pytest.approx(2 * np.sqrt(total), abs=1e-12)
        assert f_hat(total, (0.2, 0.2, 0.2)) == pytest.approx(np.sqrt(total), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_hat(0.7, (0.2, 0.2, 0.2))
        with pytest.raises(ValueError):
            f_hat(-0.1, (0.2, 0.2, 0.2))
        with pytest.raises(ValueError):
            f_hat(0.1, (-0.2, 0.2, 0.2))
