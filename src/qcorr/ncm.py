"""Non-commutativity measure of quantum correlations.

Expanding a two-qubit state over an orthonormal basis of qubit B gives four
operator blocks A_ij on qubit A; the measure sums the Hilbert-Schmidt norms
of their pairwise commutators.  The value depends on the expansion basis,
so the basis-minimized quantity is the meaningful one.  For Bell-diagonal
states both the fixed-basis value and the minimum have closed forms.

In the Fano form (a, b, R) of any state (states.fano_vectors), with z the
Bloch vector of the first basis ket and u, v any orthonormal tangent pair at z:
d_A(z) = (|Rz x a| + N(a + Rz) + N(a - Rz) + |Ru x Rv|) / sqrt(8), N(x)^2 = |x x Ru|^2 + |x x Rv|^2.
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


def _frames(z: np.ndarray) -> np.ndarray:
    """Rows [z, u, v], u x v = z, of an orthonormal frame per row of an (n, 3) array of unit z.

    The branch-free construction of Duff et al., "Building an orthonormal
    basis, revisited", J. Comput. Graph. Tech. 6(1), 1 (2017).
    """
    x, y, w = z[:, 0], z[:, 1], z[:, 2]
    sign = np.copysign(1.0, w)
    h = -1.0 / (sign + w)
    xyh = x * y * h
    out = np.empty((len(z), 9))
    out[:, :3] = z
    out[:, 3], out[:, 4], out[:, 5] = 1.0 + sign * x * x * h, sign * xyh, -sign * x
    out[:, 6], out[:, 7], out[:, 8] = xyh, sign + y * y * h, -y
    return out


def _d_a_objective(a: np.ndarray, r: np.ndarray):
    """Batched z -> d_A(z) for a state with Fano vector a and correlation matrix R.

    The blocks' Pauli parts are (delta_ij a + R m_ij) / 4 with m_00 = -m_11 = z
    and m_01 = conj(m_10) = u + iv, and ||[x.sigma, y.sigma]||_2 = 2 sqrt(2) |x x y|.
    With A = [a]_x R and C = cof(R), a x Rw = A w and Rz x Rw = C (z x w), so
    on a frame with z x u = v every cross product is linear in [z, u, v]:
    |Rz x a| = |A z|, |Ru x Rv| = |C z| and
    N(a +/- Rz)^2 = |A u +/- C v|^2 + |A v -/+ C u|^2.
    """
    a_x = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    r1, r2 = r[_NEXT], r[_AFTER]
    at, ct = (a_x @ r).T, (r1[:, _NEXT] * r2[:, _AFTER] - r1[:, _AFTER] * r2[:, _NEXT]).T
    zero = np.zeros((3, 3))
    # Frame rows z, u, v to A z, C z, A u + C v, A v - C u, A u - C v, A v + C u.
    m = np.block([[at, ct, zero, zero, zero, zero],
                  [zero, zero, at, -ct, at, ct],
                  [zero, zero, ct, at, -ct, at]])

    def d_a(z: np.ndarray) -> np.ndarray:
        y = _frames(z) @ m
        return np.sqrt(np.add.reduceat(y * y, [0, 3, 6, 12], axis=1)).sum(axis=1) / _SQRT8

    return d_a


def d_a_basis_batch(rho, z: np.ndarray) -> np.ndarray:
    """d_a_basis for each row of an (n, 3) array of B-basis Bloch vectors z."""
    a, _, r = fano_vectors(rho)
    return _d_a_objective(a, r)(z)


def d_a_basis(rho, z) -> float:
    """Sum of ||[A_ij, A_kl]||_2 over the six unordered block pairs, in the B basis of z."""
    return float(d_a_basis_batch(rho, unit_z(z)[None])[0])


def _closed_from_z(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Closed-form d_A for the alpha triple a, per row of an (n, 3) array z."""
    z2 = z * z
    return np.sqrt(z2 @ a) / _SQRT8 + np.sqrt(np.maximum((1.0 - z2) @ a, 0.0)) / _SQRT2


def d_a_bd_closed(c, z) -> float:
    """Closed form of the basis-dependent measure for a Bell-diagonal state, in the B basis of z."""
    a = np.array(alpha_triple(check_bd(c)))
    return float(_closed_from_z(a, unit_z(z)[None])[0])


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
    """
    v = np.linalg.svd(r)[2].T
    value, _ = minimize_on_sphere(_d_a_objective(a, r @ v), config)
    return value


def d_a_numeric(c, config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Minimize the closed form over the z sphere directly.

    Returns (value, z_best), z_best the unit Bloch vector of the best basis found.
    """
    a = np.array(alpha_triple(check_bd(c)))
    return minimize_on_sphere(lambda z: _closed_from_z(a, z), config)


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
