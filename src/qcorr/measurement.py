"""Local projective measurements on qubit A.

Measurements are parametrized by a unit vector s in R^4: the unitary
V = s0*I + i(s1*sx + s2*sy + s3*sz) rotates the computational projectors,
M_j = V |j><j| V^dag.  All physical quantities depend on s only through the
Bloch vector z(s) of M_0, so s and -s (and any phase along the measurement
axis) give the same measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ID2, PAULIS, dagger, kron, partial_trace
from .states import bd_coeffs, check_bd

UNIT_TOL = 1e-12
ZERO_PROB = 1e-14

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)

# Fixed representatives of the optimal measurement for each coordinate axis;
# z(s) for these is e1, e2, e3 respectively.
OPTIMAL_S = {
    1: np.array([1 / np.sqrt(2), 0.0, -1 / np.sqrt(2), 0.0]),
    2: np.array([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0]),
    3: np.array([1.0, 0.0, 0.0, 0.0]),
}


@dataclass(frozen=True)
class Pvm:
    """The two rank-1 projectors of a qubit measurement."""

    m0: np.ndarray
    m1: np.ndarray

    def __iter__(self):
        return iter((self.m0, self.m1))


def _unit_s(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (4,):
        raise ValueError(f"measurement parameter must be a 4-vector, got shape {s.shape}")
    norm = float(np.linalg.norm(s))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"measurement parameter must be unit length, |s| = {norm:.12f}")
    return s


def unitary_from_s(s) -> np.ndarray:
    s0, s1, s2, s3 = _unit_s(s)
    return s0 * ID2 + 1j * (s1 * PAULIS[0] + s2 * PAULIS[1] + s3 * PAULIS[2])


def pvm_from_s(s) -> Pvm:
    v = unitary_from_s(s)
    vd = dagger(v)
    return Pvm(m0=v @ _P0 @ vd, m1=v @ _P1 @ vd)


def z_vector(s) -> np.ndarray:
    """Bloch vector of the first projector; always unit length."""
    s0, s1, s2, s3 = _unit_s(s)
    return np.array([
        2 * (-s0 * s2 + s1 * s3),
        2 * (s0 * s1 + s2 * s3),
        s0 * s0 + s3 * s3 - s1 * s1 - s2 * s2,
    ])


def s_from_z(z) -> np.ndarray:
    """A measurement parameter whose z_vector equals the given unit 3-vector.

    Inverts the (gauge-redundant) z(s) map on the s3 = 0 section.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {z.shape}")
    norm = float(np.linalg.norm(z))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"z must be unit length, |z| = {norm:.12f}")
    z1, z2, z3 = z
    # Transverse magnitude from the components themselves; sqrt(1 - z3^2)
    # cancels catastrophically near the poles.
    sin_two_a = float(np.hypot(z1, z2))
    if sin_two_a < 1e-15:
        if z3 > 0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        return np.array([0.0, 1.0, 0.0, 0.0])
    half = 0.5 * np.arctan2(sin_two_a, z3)
    u1, u2 = z2 / sin_two_a, -z1 / sin_two_a
    return np.array([np.cos(half), np.sin(half) * u1, np.sin(half) * u2, 0.0])


def theta(c, s) -> float:
    """Effective measured correlation sqrt(sum_i (c_i z_i)^2); at most max|c_i|."""
    c = bd_coeffs(c)
    z = z_vector(s)
    return float(np.sqrt(np.sum((c * z) ** 2)))


def conditional_states_bd(c, s):
    """Post-measurement conditional states of qubit B for a Bell-diagonal state.

    Both outcomes are equally likely, and the conditionals are the Bloch
    states (I +/- sum_i c_i z_i sigma_i)/2.
    """
    c = check_bd(c)
    z = z_vector(s)
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


# z_vector(OPTIMAL_S[k]) in row k - 1, as the scalar route computes it.
OPTIMAL_Z = np.array([z_vector(OPTIMAL_S[k]) for k in (1, 2, 3)])


def t_after_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """t_after_measurement per row: (n, 3) coefficients and (n, 3) directions to (n, 3, 3)."""
    return z[:, :, None] * (c * z)[:, None, :]


def t_after_measurement(c, s) -> np.ndarray:
    """Covariance matrix of the post-measurement Bell-diagonal state.

    Closed form T_ij = c_j z_i z_j; rank one, and diagonal exactly when z is
    a coordinate axis.
    """
    return t_after_rows(bd_coeffs(c)[None], z_vector(s)[None])[0]


def optimal_axis_rows(c: np.ndarray) -> np.ndarray:
    """1-based index of the largest |c_i| per row of an (n, 3) array; ties go to the lowest index."""
    return np.argmax(np.abs(c), axis=1) + 1


def optimal_s(c):
    """Measurement maximizing theta for a Bell-diagonal state.

    Returns (s, c_max, axis) where axis is the index (1-based) of the largest
    |c_i|; ties resolve to the smallest index.  theta(c, s) == c_max.
    """
    c = bd_coeffs(c)
    axis = int(optimal_axis_rows(c[None])[0])
    return OPTIMAL_S[axis].copy(), float(np.abs(c)[axis - 1]), axis
