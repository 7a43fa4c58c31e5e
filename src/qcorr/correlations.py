"""Entropic correlation measures: mutual information, classical
correlations under optimal local measurement, and quantum discord.

All entropies are in bits.  For Bell-diagonal states everything has a closed
form; the numeric routines never use those closed forms, so the two paths
cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ID2, PAULIS, hermitian_eigenvalues, partial_trace
from .measurement import optimal_axis_rows, s_from_z
from .search import SearchConfig, maximize_on_sphere
from .states import BDState, NotPSDError, bd_coeffs, bd_matrix, check_bd, check_bd_rows, validate

EIG_CLAMP = 1e-10


def _entropy_of_probs(lam, clamp: float = EIG_CLAMP) -> float:
    lam = np.asarray(lam, dtype=float)
    low = float(np.min(lam))
    if low < -clamp:
        raise NotPSDError(f"negative probability {low:.3e}", violation=abs(low))
    lam = np.clip(lam, 0.0, 1.0)
    pos = lam[lam > 0]
    return float(-np.sum(pos * np.log2(pos)))


def _h2(p):
    """H2 in bits, elementwise, for probabilities already clamped to [0, 1]."""
    inside = (p > 0.0) & (p < 1.0)
    p = np.where(inside, p, 0.5)
    return np.where(inside, -p * np.log2(p) - (1 - p) * np.log2(1 - p), 0.0)


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    if p < -1e-12 or p > 1 + 1e-12:
        raise ValueError(f"probability out of range: {p}")
    return float(_h2(min(max(p, 0.0), 1.0)))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr[rho log2 rho].

    Eigenvalues in [-1e-10, 0) are treated as rounding noise and clamped to
    zero; anything more negative raises NotPSDError.
    """
    rho = np.asarray(rho, dtype=complex)
    tr_gap = abs(np.trace(rho).real - 1.0)
    if tr_gap > 1e-10:
        raise ValueError(f"entropy expects a unit-trace state, |Tr - 1| = {tr_gap:.3e}")
    return _entropy_of_probs(hermitian_eigenvalues(rho))


def mutual_information(rho) -> float:
    """I(rho) = S(A) + S(B) - S(AB)."""
    rho = np.asarray(rho, dtype=complex)
    return (
        von_neumann_entropy(partial_trace(rho, "A"))
        + von_neumann_entropy(partial_trace(rho, "B"))
        - von_neumann_entropy(rho)
    )


def bd_report_rows(c: np.ndarray, lam: np.ndarray):
    """Closed-form I, J, D, optimal axis and theta* per row of an (n, 3) array.

    lam holds the rows' (n, 4) eigenvalues from check_bd_rows.  Both
    marginals are maximally mixed, so I = 2 - S(rho); the optimal
    measurement lies along the axis of the largest |c_i| (ties to the
    lowest index) and yields J = 1 - H2((1 + max|c_i|)/2).
    """
    mi = 2.0 - _entropy_batch(lam)
    cmax = np.abs(c).max(axis=1)
    j = 1.0 - _h2(np.minimum((1.0 + cmax) / 2.0, 1.0))
    return mi, j, mi - j, optimal_axis_rows(c), cmax


def _report_bd_row(c) -> tuple:
    """bd_report_rows for one triple, as Python numbers."""
    c = bd_coeffs(c)[None]
    mi, j, d, axis, cmax = bd_report_rows(c, check_bd_rows(c))
    return float(mi[0]), float(j[0]), float(d[0]), int(axis[0]), float(cmax[0])


def mutual_information_bd(c) -> float:
    """Closed form for Bell-diagonal states: both marginals are maximally mixed."""
    return _report_bd_row(c)[0]


def classical_correlations_bd(c) -> tuple[float, int]:
    """Closed-form classical correlations of a Bell-diagonal state.

    The optimal measurement lies along the axis of the largest |c_i| and
    yields J = 1 - H2((1 + max|c_i|)/2).  Returns (value, axis).
    """
    _, j, _, axis, _ = _report_bd_row(c)
    return j, axis


def _batch_projectors(z: np.ndarray) -> np.ndarray:
    """First projector M0 = (I + z . sigma) / 2 for each row of an (n, 3) array."""
    return (ID2 + np.einsum("ni,ijk->njk", z, PAULIS)) / 2


def _eig2_batch(h: np.ndarray) -> np.ndarray:
    """Eigenvalue pairs of a batch of 2x2 Hermitian matrices."""
    x = h[:, 0, 0].real
    y = h[:, 1, 1].real
    w = h[:, 0, 1]
    mid = (x + y) / 2
    rad = np.sqrt(((x - y) / 2) ** 2 + np.abs(w) ** 2)
    return np.stack([mid - rad, mid + rad], axis=1)


def _entropy_batch(lam: np.ndarray) -> np.ndarray:
    lam = np.clip(lam, 0.0, 1.0)
    terms = np.where(lam > 0, -lam * np.log2(np.where(lam > 0, lam, 1.0)), 0.0)
    return np.sum(terms, axis=1)


def _batch_measured_term(rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_j p_j S(rho_B|j) for each row of an (n, 3) array of measurement directions."""
    r = rho.reshape(2, 2, 2, 2)
    m0 = _batch_projectors(z)
    m1 = ID2[None, :, :] - m0
    out = np.zeros(z.shape[0])
    for m in (m0, m1):
        # Unnormalized conditional: Tr_A[(M x I) rho]; its trace is p.
        sub = np.einsum("nxy,ybxd->nbd", m, r)
        p = np.einsum("nbb->n", sub).real
        lam = _eig2_batch(sub)  # eigenvalues sum to p
        safe_p = np.where(p > 1e-14, p, 1.0)
        ent = _entropy_batch(lam / safe_p[:, None])
        out += np.where(p > 1e-14, p * ent, 0.0)
    return out


def classical_correlations_numeric(rho, config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Classical correlations by direct search over projective measurements.

    Maximizes S(rho_B) - sum_j p_j S(rho_B|j) over the Bloch vector z of
    the measurement on A.  Independent of the Bell-diagonal closed forms.
    Returns (value, s_best), with s_best lifted from the optimal z.
    """
    rho = validate(rho)
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    value, z_best = maximize_on_sphere(lambda z: s_b - _batch_measured_term(rho, z), config)
    return value, s_from_z(z_best)


def _batch_post_mi(rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """I(rho^M) for each row of an (n, 3) array of measurement directions.

    For a rank-1 measurement on A this equals S(rho_B) - sum_j p_j S(rho_B|j),
    as rho^M has eigenvalues p_j * eig(rho_B|j); this route alone takes a 4x4 eigensolve.
    """
    n = z.shape[0]
    m0 = _batch_projectors(z)
    m1 = ID2[None, :, :] - m0
    k0 = np.einsum("nab,cd->nacbd", m0, ID2).reshape(n, 4, 4)
    k1 = np.einsum("nab,cd->nacbd", m1, ID2).reshape(n, 4, 4)
    rho_m = k0 @ rho @ k0 + k1 @ rho @ k1
    lam4 = np.linalg.eigvalsh(rho_m)
    r = rho_m.reshape(n, 2, 2, 2, 2)
    red_a = np.einsum("nabcb->nac", r)
    red_b = np.einsum("nabad->nbd", r)
    return (
        _entropy_batch(_eig2_batch(red_a))
        + _entropy_batch(_eig2_batch(red_b))
        - _entropy_batch(lam4)
    )


def _as_density(state) -> np.ndarray:
    if isinstance(state, BDState):
        return bd_matrix(state)
    arr = np.asarray(state)
    if arr.shape == (3,):
        return bd_matrix(check_bd(arr))
    return np.asarray(arr, dtype=complex)


def discord(state, method: str = "closed_bd", config: SearchConfig | None = None) -> float:
    """Quantum discord D = I - J.

    method="closed_bd": Bell-diagonal closed forms (state must be a
    coefficient triple, BDState, or Bell-diagonal matrix).
    method="numeric": J from the measurement search, I exact.
    method="via_mi": D = I(rho) - max_s I(rho^M(s)), the
    measurement-induced mutual-information route.
    """
    if method == "closed_bd":
        from .states import bd_extract

        if isinstance(state, BDState):
            c = state.coeffs
        else:
            arr = np.asarray(state)
            c = bd_coeffs(arr.real) if arr.shape == (3,) else bd_extract(arr).coeffs
        j, _ = classical_correlations_bd(c)
        return mutual_information_bd(c) - j
    if method == "numeric":
        rho = _as_density(state)
        j, _ = classical_correlations_numeric(rho, config)
        return mutual_information(rho) - j
    if method == "via_mi":
        rho = _as_density(state)
        best, _ = maximize_on_sphere(lambda z: _batch_post_mi(rho, z), config)
        return mutual_information(rho) - best
    raise ValueError(f"unknown discord method {method!r}")


@dataclass(frozen=True)
class CorrelationReport:
    """Summary of the correlation split I = J + D for one state."""

    mutual_info: float
    classical: float
    discord: float
    optimal_axis: int | None
    theta_star: float | None

    def to_dict(self) -> dict:
        return {
            "mutual_info": self.mutual_info,
            "classical": self.classical,
            "discord": self.discord,
            "optimal_axis": self.optimal_axis,
            "theta_star": self.theta_star,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorrelationReport":
        return cls(
            mutual_info=float(d["mutual_info"]),
            classical=float(d["classical"]),
            discord=float(d["discord"]),
            optimal_axis=None if d.get("optimal_axis") is None else int(d["optimal_axis"]),
            theta_star=None if d.get("theta_star") is None else float(d["theta_star"]),
        )


def report_bd(c) -> CorrelationReport:
    """Closed-form correlation report for a Bell-diagonal state."""
    mi, j, d, axis, cmax = _report_bd_row(c)
    return CorrelationReport(mutual_info=mi, classical=j, discord=d, optimal_axis=axis, theta_star=cmax)


def report_numeric(rho, config: SearchConfig | None = None) -> CorrelationReport:
    """Correlation report for an arbitrary state via the measurement search.

    The optimal axis and theta are Bell-diagonal notions, so they are None
    here.
    """
    rho = np.asarray(rho, dtype=complex)
    mi = mutual_information(rho)
    j, _ = classical_correlations_numeric(rho, config)
    return CorrelationReport(
        mutual_info=mi,
        classical=j,
        discord=mi - j,
        optimal_axis=None,
        theta_star=None,
    )
