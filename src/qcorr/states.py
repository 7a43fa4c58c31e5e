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


def bd_coeffs(c) -> np.ndarray:
    """Coerce a BDState or length-3 sequence to a coefficient array."""
    if isinstance(c, BDState):
        return c.coeffs
    arr = np.asarray(c, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected three Bell-diagonal coefficients, got shape {arr.shape}")
    return arr


def bd_eigenvalues(c) -> np.ndarray:
    """The four closed-form eigenvalues, in their defining order."""
    c1, c2, c3 = bd_coeffs(c)
    return np.array([
        (1 - c1 - c2 - c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 - c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
    ])


def check_bd(c) -> np.ndarray:
    """Validate a coefficient triple; returns it as an array.

    The triple is physical iff it is finite and every closed-form
    eigenvalue is nonnegative.
    """
    arr = bd_coeffs(c)
    lam = bd_eigenvalues(arr)
    low = float(np.min(lam))
    # NaN fails this test too, and a non-finite triple has a NaN or infinite eigenvalue.
    if not (low >= -BD_EIG_TOL and float(np.max(lam)) <= 1 + BD_EIG_TOL):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"coefficients must be finite, got {arr.tolist()}")
        raise NotPSDError(
            f"coefficients {arr.tolist()} give eigenvalues outside [0, 1]: {lam.tolist()}",
            violation=abs(low),
        )
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

    Raises NonHermitianError, TraceNotOneError or NotPSDError with the
    measured violation attached.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
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


def fano_decompose(rho) -> FanoDecomposition:
    """Local Bloch vectors and the covariance matrix of a two-qubit state.

    T_ij = <sigma_i x sigma_j> - <sigma_i x I><I x sigma_j>, so T is the
    genuinely correlated part: it vanishes on product states.
    """
    rho = np.asarray(rho, dtype=complex)
    a = np.array([np.trace(kron(s, ID2) @ rho).real for s in PAULIS])
    b = np.array([np.trace(kron(ID2, s) @ rho).real for s in PAULIS])
    t = np.empty((3, 3))
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            t[i, j] = np.trace(kron(si, sj) @ rho).real - a[i] * b[j]
    return FanoDecomposition(a=a, b=b, t=t)


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


def is_bell_diagonal(rho) -> bool:
    try:
        bd_extract(rho)
    except StateError:
        return False
    return True


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
