"""Non-commutativity measure of quantum correlations.

Expanding a two-qubit state over an orthonormal basis of qubit B gives four
operator blocks A_ij on qubit A; the measure sums the Hilbert-Schmidt norms
of their pairwise commutators.  The value depends on the expansion basis,
so the basis-minimized quantity is the meaningful one.  For Bell-diagonal
states both the fixed-basis value and the minimum have closed forms.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import ID2, kron, partial_trace
from .measurement import s_from_z, unitary_from_s, z_vector
from .search import SearchConfig, minimize_on_sphere
from .states import bd_coeffs, check_bd

_SQRT8 = float(np.sqrt(8.0))
_SQRT2 = float(np.sqrt(2.0))
# The six unordered pairs of the flattened blocks A_00, A_01, A_10, A_11.
_PAIRS = np.array(list(combinations(range(4), 2))).T


def alpha_triple(c) -> tuple[float, float, float]:
    """Pairwise products (c2*c3)^2, (c1*c3)^2, (c1*c2)^2."""
    c1, c2, c3 = bd_coeffs(c)
    return float((c2 * c3) ** 2), float((c1 * c3) ** 2), float((c1 * c2) ** 2)


def a_operators(rho, s) -> list[list[np.ndarray]]:
    """Expansion blocks A_ij of rho over the rotated B basis {V|0>, V|1>}.

    A_ij = Tr_B[(I x |j><i|) rho], so rho = sum_ij A_ij x |i><j|.
    """
    rho = np.asarray(rho, dtype=complex)
    v = unitary_from_s(s)
    kets = [v[:, 0], v[:, 1]]
    blocks = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            flip = np.outer(kets[j], kets[i].conj())
            blocks[i][j] = partial_trace(kron(ID2, flip) @ rho, "A")
    return blocks


def _b_kets(z: np.ndarray) -> np.ndarray:
    """Kets (e_0, e_1) of a B basis whose e_0 has Bloch vector z, per row of an (n, 3) array.

    The measure does not depend on the phases of the kets.
    """
    half = 0.5 * np.arctan2(np.hypot(z[:, 0], z[:, 1]), z[:, 2])
    up, down = np.cos(half) + 0j, np.sin(half) * np.exp(1j * np.arctan2(z[:, 1], z[:, 0]))
    return np.stack([np.stack([up, down], axis=1), np.stack([-down.conj(), up], axis=1)], axis=1)


def d_a_basis_batch(rho, z: np.ndarray) -> np.ndarray:
    """d_a_basis for each row of an (n, 3) array of B-basis Bloch vectors z."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    kets = _b_kets(z)
    # A_ij[a, c] = sum_{x, y} conj(e_i[x]) rho[a x, c y] e_j[y] = Tr_B[(I x |e_j><e_i|) rho].
    flat = np.einsum("nix,axcy,njy->nijac", kets.conj(), r, kets).reshape(len(z), 4, 2, 2)
    x, y = flat[:, _PAIRS[0]], flat[:, _PAIRS[1]]
    return np.linalg.norm(x @ y - y @ x, axis=(2, 3)).sum(axis=1)


def d_a_basis(rho, s) -> float:
    """Sum of ||[A_ij, A_kl]||_2 over the six unordered block pairs."""
    return float(d_a_basis_batch(rho, z_vector(s)[None])[0])


def _closed_from_z(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Closed-form d_A for the alpha triple a, per row of an (n, 3) array z."""
    z2 = z * z
    return np.sqrt(z2 @ a) / _SQRT8 + np.sqrt(np.maximum((1.0 - z2) @ a, 0.0)) / _SQRT2


def d_a_bd_closed(c, s) -> float:
    """Closed form of the basis-dependent measure for a Bell-diagonal state."""
    a = np.array(alpha_triple(check_bd(c)))
    return float(_closed_from_z(a, z_vector(s)[None])[0])


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


def d_a_numeric(c, config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Minimize the closed form over the z sphere directly.

    Searching over z (two effective angles) removes the gauge redundancy of
    the four-component measurement parameter.  Returns (value, s_best) with
    s_best lifted from the optimal z.
    """
    a = np.array(alpha_triple(check_bd(c)))
    value, z_best = minimize_on_sphere(lambda z: _closed_from_z(a, z), config)
    return value, s_from_z(z_best)


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
