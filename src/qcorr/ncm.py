"""Non-commutativity measure of quantum correlations.

Expanding a two-qubit state over an orthonormal basis of qubit B gives four
operator blocks A_ij on qubit A; the measure sums the Hilbert-Schmidt norms
of their pairwise commutators.  The value depends on the expansion basis,
so the basis-minimized quantity is the meaningful one.  For Bell-diagonal
states both the fixed-basis value and the minimum have closed forms.

In the Fano form (a, b, R) of any state (states.fano_vectors), with z the
Bloch vector of the first basis ket, A = [a]_x R, C = cof R and F = ||R||_F^2:
d_A(z) = (|Az| + |Cz| + sqrt(q(z)) + sqrt(q(-z))) / sqrt(8),
q(z) = F |a + Rz|^2 - |R^T (a + Rz)|^2 - |Az|^2.
A Bell-diagonal state is a = 0, R = diag(c), where |Cz|^2 = sum_i alpha_i z_i^2
and q(z) = sum_i (1 - z_i^2) alpha_i give the closed form.
"""

from __future__ import annotations

import numpy as np

from .linalg import ID2, kron, partial_trace
from .measurement import basis, unit_z
from .search import SearchConfig, minimize_on_sphere
from .states import bd_coeffs, check_bd, fano_vectors

_SQRT8 = float(np.sqrt(8.0))
_SQRT2 = float(np.sqrt(2.0))
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]  # i + 1 and i + 2, mod 3
# From the squares of [A z, C z, L(a + Rz), L(a - Rz)] to |Az|^2, |Cz|^2, q(z), q(-z), over 8.
_TERMS = (np.repeat(np.eye(4), 3, axis=0) - np.outer(np.arange(12) < 3, [0, 0, 1, 1])) / 8


def alpha_triple(c) -> tuple[float, float, float]:
    """Pairwise products (c2*c3)^2, (c1*c3)^2, (c1*c2)^2."""
    c1, c2, c3 = bd_coeffs(c)
    return float((c2 * c3) ** 2), float((c1 * c3) ** 2), float((c1 * c2) ** 2)


def a_operators(rho, z) -> list[list[np.ndarray]]:
    """Expansion blocks A_ij of rho over the B basis {|0>, |1>} given by the columns of basis(z).

    A_ij = Tr_B[(I x |j><i|) rho], so rho = sum_ij A_ij x |i><j|.
    """
    rho = np.asarray(rho, dtype=complex)
    v = basis(z)
    kets = [v[:, 0], v[:, 1]]
    blocks = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            flip = np.outer(kets[j], kets[i].conj())
            blocks[i][j] = partial_trace(kron(ID2, flip) @ rho, "A")
    return blocks


def _cross_matrix(a: np.ndarray) -> np.ndarray:
    """[a]_x: [a]_x y = a x y."""
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def _d_a_objective(a: np.ndarray, r: np.ndarray):
    """Batched z -> d_A(z) for a state with Fano vector a and correlation matrix R.

    The blocks' Pauli parts are (delta_ij a + R m_ij) / 4 with m_00 = -m_11 = z and
    m_01 = conj(m_10) = u + iv, u, v a tangent pair, and ||[x.sigma, y.sigma]||_2 =
    2 sqrt(2) |x x y|, so the pairs give |a x Rz| = |Az|, |Ru x Rv| = |Cz| and N(a +/- Rz),
    N(x)^2 = |x x Ru|^2 + |x x Rv|^2 = ||[x]_x R||_F^2 - |x x Rz|^2 = |Lx|^2 - |Az|^2
    for x = a +/- Rz, with L = diag(sqrt(s_j^2 + s_k^2)) U^T from R = U diag(s) V^T.
    Squaring the affine map z -> [Az, Cz, L(a + Rz), L(a - Rz)] keeps every digit at
    the cone point Az = 0, where |Az|^2 as a quadratic form in z z^T keeps only half.
    """
    u, s, _ = np.linalg.svd(r)
    s2 = s * s
    l = np.sqrt(s2[_NEXT] + s2[_AFTER])[:, None] * u.T
    lr = l @ r
    r1, r2 = r[_NEXT], r[_AFTER]
    cof = r1[:, _NEXT] * r2[:, _AFTER] - r1[:, _AFTER] * r2[:, _NEXT]
    # z @ k + offset = [A z, C z, L(a + Rz), L(a - Rz)].
    k = np.hstack([(_cross_matrix(a) @ r).T, cof.T, lr.T, -lr.T])
    offset = np.concatenate([np.zeros(6), l @ a, l @ a])

    def d_a(z: np.ndarray) -> np.ndarray:
        y = z @ k + offset
        y *= y
        return np.sqrt(np.maximum(y @ _TERMS, 0.0)).sum(axis=1)

    return d_a


def d_a_basis_batch(rho, z: np.ndarray) -> np.ndarray:
    """d_a_basis for each row of an (n, 3) array of B-basis Bloch vectors z."""
    a, _, r = fano_vectors(rho)
    return _d_a_objective(a, r)(z)


def d_a_basis(rho, z) -> float:
    """Sum of ||[A_ij, A_kl]||_2 over the six unordered block pairs, in the B basis of z."""
    return float(d_a_basis_batch(rho, unit_z(z)[None])[0])


def d_a_bd_closed(c, z) -> float:
    """Closed form of the basis-dependent measure for a Bell-diagonal state, in the B basis of z.

    sqrt(sum_i alpha_i z_i^2) / sqrt(8) + sqrt(sum_i (1 - z_i^2) alpha_i) / sqrt(2).
    """
    a = np.array(alpha_triple(check_bd(c)))
    z2 = unit_z(z) ** 2
    return float(np.sqrt(z2 @ a) / _SQRT8 + np.sqrt(max((1.0 - z2) @ a, 0.0)) / _SQRT2)


def d_a_optimized_rows(c: np.ndarray) -> np.ndarray:
    """d_a_optimized per row of an (n, 3) array of valid coefficients."""
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    p12, p13, p23 = c1 * c2, c1 * c3, c2 * c3
    s12, s13, s23 = p12 * p12, p13 * p13, p23 * p23
    candidates = np.stack([
        np.abs(p12) + 2.0 * np.sqrt(s23 + s13),
        np.abs(p23) + 2.0 * np.sqrt(s12 + s13),
        np.abs(p13) + 2.0 * np.sqrt(s12 + s23),
    ], axis=1)
    return candidates.min(axis=1) / _SQRT8


def d_a_optimized(c) -> float:
    """Basis-minimized measure for a Bell-diagonal state.

    The minimum over bases sits at a coordinate axis of the z sphere; the
    three axis values have closed forms and the smallest wins.
    """
    return float(d_a_optimized_rows(check_bd(c)[None])[0])


def d_a_minimized(a: np.ndarray, r: np.ndarray, config: SearchConfig | None = None) -> float:
    """Basis-minimized d_A of any state with Fano vector a and correlation matrix R, by search.

    The search runs in the frame of R's right singular vectors V, on
    z' -> d_A(V z'), which is the objective of (a, R V).  For a Bell-diagonal
    state under U_A x U_B those vectors are the rotated axes, where the local
    minima sit, so each start cell of the search holds one, as in d_a_numeric.
    In the standard frame two of them can share a cell, and the search can
    then return the higher one.

    |Az| has a cone point at the null vector of A = [a]_x R V, where the search
    stalls about 1e-11 above a minimum; the lower of the two values wins.
    """
    rv = r @ np.linalg.svd(r)[2].T
    objective = _d_a_objective(a, rv)
    value, _ = minimize_on_sphere(objective, config)
    cone = np.linalg.svd(_cross_matrix(a) @ rv)[2][-1]
    return min(value, float(objective(np.array([cone, -cone])).min()))


def d_a_numeric(c, config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Minimize the d_A kernel of the Bell-diagonal state, a = 0 and R = diag(c), over the z sphere.

    Returns (value, z_best), z_best the unit Bloch vector of the best basis found.
    """
    return minimize_on_sphere(_d_a_objective(np.zeros(3), np.diag(check_bd(c))), config)


def f_hat(theta: float, alpha) -> float:
    """Axis profile sqrt(theta) + 2 sqrt(alpha - theta), alpha = sum alpha_i.

    theta ranges over [0, alpha]; the single interior stationary point
    theta = alpha/5 is a maximum (value sqrt(5 alpha)), so minima sit at the
    ends, i.e. at axis points of the z sphere.
    """
    a1, a2, a3 = (float(x) for x in alpha)
    for a in (a1, a2, a3):
        if a < 0:
            raise ValueError(f"alpha components must be nonnegative, got {alpha}")
    total = a1 + a2 + a3
    if theta < -1e-15 or theta > total + 1e-15:
        raise ValueError(f"theta = {theta} outside [0, {total}]")
    theta = min(max(theta, 0.0), total)
    return float(np.sqrt(theta) + 2.0 * np.sqrt(total - theta))
