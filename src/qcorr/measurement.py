"""Local projective measurements on qubit A.

A rank-1 measurement on one qubit is given by the unit Bloch vector z of its
first projector: M_0 = (I + z.sigma)/2 and M_1 = (I - z.sigma)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ID2, PAULIS, kron, partial_trace
from .states import bd_coeffs, check_bd

UNIT_TOL = 1e-12
ZERO_PROB = 1e-14

# The optimal measurement for coordinate axis k, in row k - 1.
OPTIMAL_Z = np.eye(3)


@dataclass(frozen=True)
class Pvm:
    """The two rank-1 projectors of a qubit measurement."""

    m0: np.ndarray
    m1: np.ndarray

    def __iter__(self):
        return iter((self.m0, self.m1))


def unit_z(z) -> np.ndarray:
    """z as a float 3-vector, checked to be of unit length within 1e-12."""
    z = np.asarray(z, dtype=float)
    if z.shape != (3,):
        raise ValueError(f"measurement direction must be a 3-vector, got shape {z.shape}")
    norm = float(np.linalg.norm(z))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"measurement direction must be unit length, |z| = {norm:.12f}")
    return z


def pvm_from_z(z) -> Pvm:
    """The projectors (I + z.sigma)/2 and (I - z.sigma)/2."""
    z_sigma = np.einsum("i,ijk->jk", unit_z(z), PAULIS)
    return Pvm(m0=(ID2 + z_sigma) / 2, m1=(ID2 - z_sigma) / 2)


def basis(z) -> np.ndarray:
    """2x2 unitary whose columns are the +1 and -1 eigenkets of z.sigma.

    The +1 eigenket is (1 + z3, z1 + i z2) or (z1 - i z2, 1 - z3), normalized;
    the two differ by a phase, and the one taken has the real entry
    1 + |z3| >= 1, so its norm never cancels.  basis(e3) is exactly I.
    """
    z1, z2, z3 = unit_z(z)
    w = 1.0 + abs(z3)
    ket = np.array([w, complex(z1, z2)]) if z3 >= 0.0 else np.array([complex(z1, -z2), w])
    a, b = ket / np.sqrt(2.0 * w)
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def theta(c, z) -> float:
    """Effective measured correlation sqrt(sum_i (c_i z_i)^2); at most max|c_i|."""
    return float(np.sqrt(np.sum((bd_coeffs(c) * unit_z(z)) ** 2)))


def conditional_states_bd(c, z):
    """Post-measurement conditional states of qubit B for a Bell-diagonal state.

    Both outcomes are equally likely, and the conditionals are the Bloch
    states (I +/- sum_i c_i z_i sigma_i)/2.
    """
    c = check_bd(c)
    z = unit_z(z)
    v = sum(ci * zi * sigma for ci, zi, sigma in zip(c, z, PAULIS))
    rho0 = (ID2 + v) / 2
    rho1 = (ID2 - v) / 2
    return (rho0, 0.5), (rho1, 0.5)


def conditional_states_general(rho, pvm: Pvm):
    """Outcome probabilities and conditional B states for any two-qubit state.

    An outcome with probability below 1e-14 gets (None, 0.0): the conditional
    state is undefined there and must not be used.
    """
    rho = np.asarray(rho, dtype=complex)
    out = []
    for m in pvm:
        km = kron(m, ID2)
        sub = km @ rho @ km
        p = float(np.trace(sub).real)
        if p <= ZERO_PROB:
            out.append((None, 0.0))
            continue
        out.append((partial_trace(sub, "B") / p, p))
    return out


def post_measurement_state(rho, pvm: Pvm) -> np.ndarray:
    """Nonselective measurement: sum_j (M_j x I) rho (M_j x I)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for m in pvm:
        km = kron(m, ID2)
        out += km @ rho @ km
    return out


def t_after_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """t_after_measurement per row: (n, 3) coefficients and (n, 3) directions to (n, 3, 3)."""
    return z[:, :, None] * (c * z)[:, None, :]


def t_after_measurement(c, z) -> np.ndarray:
    """Covariance matrix of the post-measurement Bell-diagonal state.

    Closed form T_ij = c_j z_i z_j; rank one, and diagonal exactly when z is
    a coordinate axis.
    """
    return t_after_rows(bd_coeffs(c)[None], unit_z(z)[None])[0]


def optimal_axis_rows(c: np.ndarray) -> np.ndarray:
    """1-based index of the largest |c_i| per row of an (n, 3) array; ties go to the lowest index."""
    return np.argmax(np.abs(c), axis=1) + 1


def optimal_z(c):
    """Measurement maximizing theta for a Bell-diagonal state.

    Returns (e_axis, c_max, axis) where axis is the index (1-based) of the
    largest |c_i|, ties resolving to the smallest index, and e_axis is that
    coordinate axis.  theta(c, e_axis) == c_max.
    """
    c = bd_coeffs(c)
    axis = int(optimal_axis_rows(c[None])[0])
    return OPTIMAL_Z[axis - 1].copy(), float(np.abs(c)[axis - 1]), axis
