"""Small dense complex-matrix kernel.

Everything in this package lives in dimension 2 or 4, so the routines here
check their inputs and favour clarity over generality.  Eigenvalues of
Hermitian matrices come from LAPACK through numpy's eigvalsh.
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


def hermitian_eigenvalues(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending.

    The input must be finite and Hermitian to within 1e-10 in
    Hilbert-Schmidt norm; the eigenvalues are those of its Hermitian part.
    """
    h = as_matrix(h)
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries")
    gap = hs_norm(h - dagger(h))
    if gap > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: ||h - h^dag||_2 = {gap:.3e}")
    return np.linalg.eigvalsh(0.5 * (h + dagger(h)))[::-1].copy()
