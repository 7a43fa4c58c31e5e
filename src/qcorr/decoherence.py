"""Non-dissipative local noise on Bell-diagonal states.

The same flip channel (bit, bit-phase or phase flip, picked by axis k) acts
independently on both qubits.  Bell-diagonal form is preserved: the
coefficient along the channel axis is untouched and the other two decay as
exp(-2*gamma*t).  When one decaying coefficient starts at +/-1 and the other
mirrors the protected one, the classical correlations stay constant until
the crossover time t* and the discord stays constant before it: the
sudden-transition / freezing regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlations import CorrelationReport, report_bd
from .linalg import ID2, PAULIS, dagger, kron
from .measurement import optimal_s, t_after_measurement
from .ncm import d_a_optimized
from .states import BDState, bd_coeffs, check_bd

FREEZE_TOL = 1e-12


@dataclass(frozen=True)
class ChannelSpec:
    """Local flip channel: axis k in {1, 2, 3} and a finite rate gamma >= 0."""

    k: int
    gamma: float

    def __post_init__(self):
        if self.k not in (1, 2, 3):
            raise ValueError(f"channel axis must be 1, 2 or 3, got {self.k}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.gamma}")


def kraus_ops(spec: ChannelSpec, t: float) -> list[np.ndarray]:
    """Single-qubit Kraus pair at time t: a flip along axis k and an identity part."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    decay = np.exp(-spec.gamma * t)
    return [
        np.sqrt((1 - decay) / 2) * PAULIS[spec.k - 1],
        np.sqrt((1 + decay) / 2) * ID2,
    ]


def apply_channel(rho, spec: ChannelSpec, t: float) -> np.ndarray:
    """Both-qubit channel: sum_ij (E_i x E_j) rho (E_i x E_j)^dag."""
    rho = np.asarray(rho, dtype=complex)
    ops = kraus_ops(spec, t)
    out = np.zeros((4, 4), dtype=complex)
    for ea in ops:
        for eb in ops:
            big = kron(ea, eb)
            out += big @ rho @ dagger(big)
    return out


def c_trajectory(c0, spec: ChannelSpec, t: float) -> BDState:
    """Coefficients at time t: protected axis constant, others damped."""
    c0 = check_bd(c0)
    decay = np.exp(-2.0 * spec.gamma * t)
    c = c0 * decay
    c[spec.k - 1] = c0[spec.k - 1]
    return BDState.from_seq(c)


def is_freezing_initial(c0, spec: ChannelSpec) -> bool:
    """Whether the initial coefficients satisfy the freezing conditions.

    One decaying coefficient must sit at +/-1 and the other must equal minus
    that sign times the protected coefficient, both within 1e-12.
    """
    c0 = bd_coeffs(c0)
    i, j = [ax for ax in (0, 1, 2) if ax != spec.k - 1]
    ck = c0[spec.k - 1]
    for a, b in ((i, j), (j, i)):
        if abs(abs(c0[a]) - 1.0) <= FREEZE_TOL:
            sign = 1.0 if c0[a] > 0 else -1.0
            if abs(c0[b] + sign * ck) <= FREEZE_TOL:
                return True
    return False


def freezing_time(c0, spec: ChannelSpec) -> float | None:
    """Crossover time t* = -ln(c0_k)/(2 gamma), c0_k = |protected coefficient|.

    None when the freezing conditions do not hold, when the protected
    coefficient vanishes, or when gamma is zero; 0.0 when it starts at 1.
    """
    c0 = bd_coeffs(c0)
    if not is_freezing_initial(c0, spec):
        return None
    c_protected = abs(float(c0[spec.k - 1]))
    if c_protected <= FREEZE_TOL or spec.gamma == 0:
        return None
    if c_protected >= 1.0 - FREEZE_TOL:
        return 0.0
    return float(-np.log(c_protected) / (2.0 * spec.gamma))


@dataclass(frozen=True)
class TrajectoryPoint:
    """All tracked quantities at one time along a decoherence trajectory."""

    t: float
    c: BDState
    report: CorrelationReport
    d_a: float
    t_matrix_after: np.ndarray = field(repr=False)
    optimal_axis: int


def trajectory(c0, spec: ChannelSpec, t_grid) -> list[TrajectoryPoint]:
    """Evaluate the closed-form measures along a time grid.

    Each point carries the correlation report, the basis-minimized
    non-commutativity measure, and the covariance left by the optimal
    measurement.
    """
    c0 = check_bd(c0)
    points = []
    for t in np.asarray(t_grid, dtype=float):
        c_t = c_trajectory(c0, spec, float(t))
        rep = report_bd(c_t)
        s_opt, _, axis = optimal_s(c_t)
        points.append(
            TrajectoryPoint(
                t=float(t),
                c=c_t,
                report=rep,
                d_a=d_a_optimized(c_t),
                t_matrix_after=t_after_measurement(c_t, s_opt),
                optimal_axis=axis,
            )
        )
    return points
