"""Small dense complex-matrix kernel.

Everything in this package lives in dimension 2 or 4, so the routines here
favour robustness and clarity over asymptotic speed.  Eigenvalues of Hermitian
matrices are computed with a cyclic Jacobi sweep, which is exact to rounding
for these sizes and has no convergence surprises.
"""

from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-10
JACOBI_OFF_TOL = 1e-13
_MAX_SWEEPS = 60


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray of dimension 2 or 4."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in (2, 4):
        raise ValueError(f"supported dimensions are 2 and 4, got {m.shape[0]}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 blocks (the only case the package needs)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"kron expects 2x2 operands, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def partial_trace(rho, keep: str) -> np.ndarray:
    """Trace out one qubit of a 4x4 operator.

    keep="A" returns the first-factor reduction Tr_B[rho], keep="B" the second.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hs_norm(a) -> float:
    """Hilbert-Schmidt norm sqrt(Tr[a^dag a])."""
    a = np.asarray(a, dtype=complex)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def commutator(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"commutator needs matching shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def _off_norm(h: np.ndarray) -> float:
    n = h.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(np.sqrt(np.sum(np.abs(h[mask]) ** 2)))


def hermitian_eigenvalues(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending.

    Cyclic Jacobi with complex plane rotations, iterated until the
    off-diagonal Frobenius norm drops below 1e-13.  The input must be
    Hermitian to within 1e-10 in Hilbert-Schmidt norm; it is symmetrized
    before the sweep so the rotations see an exactly Hermitian matrix.
    """
    h = as_matrix(h)
    gap = hs_norm(h - dagger(h))
    if gap > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: ||h - h^dag||_2 = {gap:.3e}")
    h = 0.5 * (h + dagger(h))
    n = h.shape[0]

    for _ in range(_MAX_SWEEPS):
        if _off_norm(h) <= JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = h[p, q]
                if abs(b) < 1e-300:
                    continue
                phase = b / abs(b)
                # One plane rotation annihilating h[p, q].  With
                # tau = (h_qq - h_pp) / (2|b|) the tangent solves
                # t^2 - 2 tau t - 1 = 0; take the smaller-magnitude root.
                tau = (h[q, q].real - h[p, p].real) / (2.0 * abs(b))
                # Smaller-magnitude root in rationalized form; the naive
                # tau - sqrt(1 + tau^2) cancels catastrophically for large tau.
                if tau >= 0:
                    t = -1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # G differs from the identity only in the (p, q) plane:
                # G[pp] = c, G[pq] = -s*phase, G[qp] = s*conj(phase), G[qq] = c.
                rp = c * h[p, :] + s * phase * h[q, :]
                rq = -s * np.conj(phase) * h[p, :] + c * h[q, :]
                h[p, :], h[q, :] = rp, rq
                cp = c * h[:, p] + s * np.conj(phase) * h[:, q]
                cq = -s * phase * h[:, p] + c * h[:, q]
                h[:, p], h[:, q] = cp, cq
    else:
        raise RuntimeError("Jacobi sweep failed to converge")

    w = np.sort(np.real(np.diag(h)))[::-1]
    return w.copy()
