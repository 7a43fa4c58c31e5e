"""Two-qubit density matrices, Bloch/Fano decompositions, and the
Bell-diagonal family.

A Bell-diagonal state is fixed by the three correlation coefficients
(c1, c2, c3): rho = (1/4)(I + sum_i c_i sigma_i x sigma_i).  Its four
eigenvalues are affine in the coefficients, which makes validity checks and
random sampling cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import HERMITICITY_TOL, ID2, PAULIS, dagger, hermitian_eigenvalues, hs_norm, kron
from .linalg import partial_trace

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
BD_FORM_TOL = 1e-10
BD_EIG_TOL = 1e-12

# sigma_k x sigma_l for k, l = 0..3, with sigma_0 = I.
_PAULI_PRODUCTS = np.array([[kron(p, q) for q in (ID2, *PAULIS)] for p in (ID2, *PAULIS)])


class StateError(ValueError):
    """A matrix failed a density-matrix check; .violation holds the measured gap."""

    def __init__(self, message: str, violation: float):
        super().__init__(message)
        self.violation = float(violation)


class NonHermitianError(StateError):
    pass


class TraceNotOneError(StateError):
    pass


class NotPSDError(StateError):
    pass


class NotBellDiagonalError(StateError):
    pass


class NotFiniteError(StateError):
    pass


@dataclass(frozen=True)
class BDState:
    """Bell-diagonal state, identified by its three correlation coefficients."""

    c1: float
    c2: float
    c3: float

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])

    @classmethod
    def from_seq(cls, c) -> "BDState":
        c1, c2, c3 = (float(x) for x in c)
        return cls(c1, c2, c3)


@dataclass(frozen=True)
class FanoDecomposition:
    """Bloch form of a two-qubit state: local vectors a, b and covariance T."""

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray

    @classmethod
    def from_vectors(cls, a, b, r) -> "FanoDecomposition":
        """From the Fano vectors a, b and the correlation matrix R: T = R - a b^T."""
        return cls(a=a, b=b, t=r - np.outer(a, b))


def bd_coeffs(c) -> np.ndarray:
    """Coerce a BDState or length-3 sequence to a coefficient array."""
    if isinstance(c, BDState):
        return c.coeffs
    arr = np.asarray(c, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected three Bell-diagonal coefficients, got shape {arr.shape}")
    return arr


def bd_eigenvalue_rows(c: np.ndarray) -> np.ndarray:
    """The four closed-form eigenvalues, in their defining order, per row of an (n, 3) array."""
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    lo, hi = 1 - c1, 1 + c1
    return np.stack([lo - c2 - c3, lo + c2 + c3, hi - c2 + c3, hi + c2 - c3], axis=1) / 4


def bd_eigenvalues(c) -> np.ndarray:
    """The four closed-form eigenvalues, in their defining order."""
    return bd_eigenvalue_rows(bd_coeffs(c)[None])[0]


def check_bd_rows(c: np.ndarray) -> np.ndarray:
    """Validate each row of an (n, 3) coefficient array; returns its (n, 4) eigenvalues.

    A row is physical iff it is finite and every closed-form eigenvalue
    lies in [0, 1], within 1e-12.  The first failing row is reported.
    """
    lam = bd_eigenvalue_rows(c)
    # NaN fails this test too, and a non-finite row has a NaN or infinite eigenvalue.
    if lam.size and not (lam.min() >= -BD_EIG_TOL and lam.max() <= 1 + BD_EIG_TOL):
        ok = (lam.min(axis=1) >= -BD_EIG_TOL) & (lam.max(axis=1) <= 1 + BD_EIG_TOL)
        row = int(np.argmin(ok))
        arr, lam_row = c[row], lam[row]
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"coefficients must be finite, got {arr.tolist()}")
        raise NotPSDError(
            f"coefficients {arr.tolist()} give eigenvalues outside [0, 1]: {lam_row.tolist()}",
            violation=abs(float(np.min(lam_row))),
        )
    return lam


def check_bd(c) -> np.ndarray:
    """Validate a coefficient triple; returns it as an array.

    The triple is physical iff it is finite and every closed-form
    eigenvalue is nonnegative.
    """
    arr = bd_coeffs(c)
    check_bd_rows(arr[None])
    return arr


def bd_matrix(c) -> np.ndarray:
    """Assemble the 4x4 density matrix for a coefficient triple."""
    c1, c2, c3 = bd_coeffs(c)
    m = np.eye(4, dtype=complex)
    for ci, sigma in zip((c1, c2, c3), PAULIS):
        m += ci * kron(sigma, sigma)
    return m / 4


def validate(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; returns the matrix.

    Raises NotFiniteError, NonHermitianError, TraceNotOneError or
    NotPSDError with the measured violation attached.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    bad = int(np.count_nonzero(~np.isfinite(rho)))
    if bad:
        raise NotFiniteError(f"{bad} of 16 entries are not finite", violation=np.inf)
    herm_gap = hs_norm(rho - dagger(rho))
    if herm_gap > HERMITICITY_TOL:
        raise NonHermitianError(f"||rho - rho^dag||_2 = {herm_gap:.3e}", violation=herm_gap)
    tr_gap = abs(np.trace(rho).real - 1.0)
    if tr_gap > TRACE_TOL:
        raise TraceNotOneError(f"|Tr[rho] - 1| = {tr_gap:.3e}", violation=tr_gap)
    lam = hermitian_eigenvalues(rho)
    low = float(lam[-1])
    if low < -PSD_TOL:
        raise NotPSDError(f"smallest eigenvalue {low:.3e} < 0", violation=abs(low))
    return rho


def fano_vectors(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fano form rho = (1/4)(I x I + a.sigma x I + I x b.sigma + sum_ij R_ij sigma_i x sigma_j).

    Returns (a, b, R) with a_i = Tr[rho sigma_i x I], b_j = Tr[rho I x sigma_j]
    and the correlation matrix R_ij = Tr[rho sigma_i x sigma_j], real parts.
    """
    f = np.einsum("klij,ji->kl", _PAULI_PRODUCTS, np.asarray(rho, dtype=complex)).real
    return f[1:, 0], f[0, 1:], f[1:, 1:]


def fano_decompose(rho) -> FanoDecomposition:
    """Local Bloch vectors and the covariance matrix of a two-qubit state.

    T_ij = <sigma_i x sigma_j> - <sigma_i x I><I x sigma_j> = R - a b^T, so T
    is the genuinely correlated part: it vanishes on product states.
    """
    return FanoDecomposition.from_vectors(*fano_vectors(rho))


def fano_compose(f: FanoDecomposition) -> np.ndarray:
    """Rebuild the density matrix from a Fano decomposition.

    The result is validated; an unphysical (a, b, T) raises NotPSDError.
    """
    a = np.asarray(f.a, dtype=float)
    b = np.asarray(f.b, dtype=float)
    t = np.asarray(f.t, dtype=float)
    rho_a = (ID2 + sum(ai * s for ai, s in zip(a, PAULIS))) / 2
    rho_b = (ID2 + sum(bi * s for bi, s in zip(b, PAULIS))) / 2
    rho = kron(rho_a, rho_b)
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            rho = rho + 0.25 * t[i, j] * kron(si, sj)
    return validate(rho)


def bd_extract(rho) -> BDState:
    """Read the coefficient triple off a Bell-diagonal density matrix.

    Refuses matrices that are not Bell-diagonal: both local Bloch vectors
    must vanish and the covariance must be diagonal, all within 1e-10.
    """
    f = fano_decompose(validate(rho))
    local = max(float(np.max(np.abs(f.a))), float(np.max(np.abs(f.b))))
    if local > BD_FORM_TOL:
        raise NotBellDiagonalError(
            f"local Bloch vectors do not vanish (max |component| = {local:.3e})",
            violation=local,
        )
    off = f.t - np.diag(np.diag(f.t))
    off_max = float(np.max(np.abs(off)))
    if off_max > BD_FORM_TOL:
        raise NotBellDiagonalError(
            f"covariance is not diagonal (max off-diagonal = {off_max:.3e})",
            violation=off_max,
        )
    return BDState(float(f.t[0, 0]), float(f.t[1, 1]), float(f.t[2, 2]))


def sample_bd(n: int, seed: int | np.random.Generator = 42) -> list[BDState]:
    """Draw random valid Bell-diagonal states.

    Eigenvalue 4-tuples are sampled uniformly on the probability simplex and
    inverted to coefficients, so every draw is physical by construction.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out = []
    for lam in rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=int(n)):
        l0, l1, l2, l3 = lam
        out.append(BDState(
            float(-l0 - l1 + l2 + l3),
            float(-l0 + l1 - l2 + l3),
            float(-l0 + l1 + l2 - l3),
        ))
    return out


# --- JSON state format -----------------------------------------------------
#
# {"kind": "bd", "c": [c1, c2, c3]}
# {"kind": "dense", "re": [[...]], "im": [[...]]}   (row-major 4x4)


def state_to_dict(state) -> dict:
    if isinstance(state, BDState):
        return {"kind": "bd", "c": [state.c1, state.c2, state.c3]}
    rho = np.asarray(state, dtype=complex)
    if rho.shape == (3,):
        c = BDState.from_seq(rho.real)
        return {"kind": "bd", "c": [c.c1, c.c2, c.c3]}
    if rho.shape != (4, 4):
        raise ValueError(f"cannot serialize shape {rho.shape}")
    return {"kind": "dense", "re": rho.real.tolist(), "im": rho.imag.tolist()}


def state_from_dict(d: dict):
    """Parse the JSON state format; returns a BDState or a validated ndarray."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("state object needs a 'kind' field")
    kind = d["kind"]
    if kind == "bd":
        c = d.get("c")
        if c is None or len(c) != 3:
            raise ValueError("'bd' state needs a 3-element 'c' field")
        arr = check_bd([float(x) for x in c])
        return BDState.from_seq(arr)
    if kind == "dense":
        re = np.asarray(d.get("re"), dtype=float)
        im = np.asarray(d.get("im"), dtype=float)
        if re.shape != (4, 4) or im.shape != (4, 4):
            raise ValueError("'dense' state needs 4x4 're' and 'im' fields")
        return validate(re + 1j * im)
    raise ValueError(f"unknown state kind {kind!r}")


def load_state(path):
    with open(Path(path), "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def marginal(rho, side: str) -> np.ndarray:
    """Reduced state of one qubit (side 'A' or 'B')."""
    return partial_trace(np.asarray(rho, dtype=complex), side)
