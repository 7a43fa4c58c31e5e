"""Exact checks of the dense (non-Bell-diagonal) search objectives.

The J and d_A objectives are computed from the Fano vectors (a, b, R) of a
state.  Here they are held, point by point, to their matrix definitions on
full-rank Ginibre states, where no closed form applies, and to their
covariance under local unitaries.
"""

from itertools import combinations

import numpy as np
import pytest

from qcorr.correlations import _measured_term
from qcorr.linalg import ID2, PAULIS, commutator, hs_norm, kron
from qcorr.measurement import conditional_states_general, pvm_from_z
from qcorr.ncm import a_operators, d_a_basis_batch
from qcorr.states import fano_decompose, fano_vectors

N_STATES = 50
N_DIRECTIONS = 20


def ginibre_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return (rho + rho.conj().T) / (2 * np.trace(rho).real)


def unit_rows(rng, n):
    z = rng.standard_normal((n, 3))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def bloch_rotation(u):
    """O with u (z.sigma) u^dag = (O z).sigma, i.e. O_ij = Tr[sigma_i u sigma_j u^dag] / 2."""
    return np.array([[np.trace(si @ u @ sj @ u.conj().T).real / 2 for sj in PAULIS] for si in PAULIS])


def entropy_bits(rho):
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log2(lam)))


def measured_term_reference(rho, z):
    """sum_j p_j S(rho_B|j) from the conditional states of the measurement along z."""
    total = 0.0
    for cond, p in conditional_states_general(rho, pvm_from_z(z)):
        if cond is not None:
            total += p * entropy_bits(cond)
    return total


def d_a_reference(rho, z):
    """Sum of ||[A_ij, A_kl]||_2 over the six pairs of expansion blocks in the basis of z."""
    blocks = [blk for row in a_operators(rho, z) for blk in row]
    return sum(hs_norm(commutator(x, y)) for x, y in combinations(blocks, 2))


def test_fano_decompose_matches_pauli_traces():
    rng = np.random.default_rng(101)
    for _ in range(N_STATES):
        rho = ginibre_state(rng)
        f = fano_decompose(rho)
        a = [np.trace(kron(s, ID2) @ rho).real for s in PAULIS]
        b = [np.trace(kron(ID2, s) @ rho).real for s in PAULIS]
        r = [[np.trace(kron(si, sj) @ rho).real for sj in PAULIS] for si in PAULIS]
        np.testing.assert_allclose(f.a, a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(f.b, b, rtol=0, atol=1e-15)
        np.testing.assert_allclose(f.t, np.array(r) - np.outer(a, b), rtol=0, atol=1e-15)
        np.testing.assert_allclose(fano_vectors(rho)[2], r, rtol=0, atol=1e-15)


def test_d_a_kernel_matches_commutator_norms():
    rng = np.random.default_rng(102)
    for _ in range(N_STATES):
        rho = ginibre_state(rng)
        z = unit_rows(rng, N_DIRECTIONS)
        want = [d_a_reference(rho, zi) for zi in z]
        np.testing.assert_allclose(d_a_basis_batch(rho, z), want, rtol=0, atol=1e-14)


def test_d_a_kernel_at_the_frame_seams():
    """The equator z_3 = +/-0 and the poles, where a tangent-frame kernel would switch its construction."""
    rng = np.random.default_rng(103)
    t = np.linspace(0.0, 2 * np.pi, 9)
    z = np.vstack([
        np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)]),
        np.column_stack([np.cos(t), np.sin(t), np.full_like(t, -0.0)]),
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-9, 0.0, -np.sqrt(1 - 1e-18)]],
    ])
    for _ in range(10):
        rho = ginibre_state(rng)
        want = [d_a_reference(rho, zi) for zi in z]
        np.testing.assert_allclose(d_a_basis_batch(rho, z), want, rtol=0, atol=1e-14)


def test_measured_term_matches_conditional_states():
    rng = np.random.default_rng(104)
    for _ in range(N_STATES):
        rho = ginibre_state(rng)
        z = unit_rows(rng, N_DIRECTIONS)
        want = [measured_term_reference(rho, zi) for zi in z]
        np.testing.assert_allclose(_measured_term(*fano_vectors(rho))(z), want, rtol=0, atol=1e-14)


def test_measured_term_near_an_impossible_outcome():
    """A pure state of A measured at angle theta to its own Bloch vector: one outcome has p = theta^2 / 4."""
    rng = np.random.default_rng(105)
    for _ in range(10):
        n_a, t = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        rho_a = (ID2 + sum(c * s for c, s in zip(n_a, PAULIS))) / 2
        rho_b = ginibre_state(rng)[:2, :2]
        rho = kron(rho_a, rho_b / np.trace(rho_b))
        z = np.array([np.cos(th) * n_a + np.sin(th) * t for th in (0.0, 1e-6, 1e-3, np.pi)])
        want = [measured_term_reference(rho, zi) for zi in z]
        np.testing.assert_allclose(_measured_term(*fano_vectors(rho))(z), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("side", ["A", "B"])
def test_local_unitary_covariance(side):
    """J's term at (U rho U^dag, O_A z) and d_A at (U rho U^dag, O_B z) equal their values at (rho, z)."""
    rng = np.random.default_rng(106)
    for _ in range(N_STATES):
        rho = ginibre_state(rng)
        u_a, u_b = haar_unitary(rng), haar_unitary(rng)
        u = kron(u_a, u_b)
        rotated = u @ rho @ u.conj().T
        z = unit_rows(rng, N_DIRECTIONS)
        if side == "A":
            got = _measured_term(*fano_vectors(rotated))(z @ bloch_rotation(u_a).T)
            want = _measured_term(*fano_vectors(rho))(z)
        else:
            got = d_a_basis_batch(rotated, z @ bloch_rotation(u_b).T)
            want = d_a_basis_batch(rho, z)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
