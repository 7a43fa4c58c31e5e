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

from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .correlations import CorrelationReport, bd_report_rows
from .linalg import ID2, PAULIS, dagger, kron
from .measurement import OPTIMAL_Z, t_after_rows
from .ncm import d_a_optimized_rows
from .states import BDState, bd_coeffs, check_bd, check_bd_rows

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


def _c_rows(c0: np.ndarray, spec: ChannelSpec, t: np.ndarray) -> np.ndarray:
    """Coefficients of a valid c0 at each time of a 1-D array, as an (n, 3) array."""
    c = c0 * np.exp(-2.0 * spec.gamma * t)[:, None]
    c[:, spec.k - 1] = c0[spec.k - 1]
    return c


def c_trajectory(c0, spec: ChannelSpec, t: float) -> BDState:
    """Coefficients at time t: protected axis constant, others damped."""
    return BDState.from_seq(_c_rows(check_bd(c0), spec, np.array([float(t)]))[0])


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

    def __eq__(self, other):
        # The generated __eq__ would compare t_matrix_after elementwise, which has no truth value.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.t, self.c, self.report, self.d_a, self.optimal_axis)
                == (other.t, other.c, other.report, other.d_a, other.optimal_axis)
                and np.array_equal(self.t_matrix_after, other.t_matrix_after))


@dataclass(frozen=True, eq=False)
class Trajectory(Sequence):
    """All tracked quantities along a time grid, one read-only column each.

    Row i belongs to t[i]: c is (n, 3), t_matrix_after is (n, 3, 3) and the
    other columns are (n,).  It is also a sequence of TrajectoryPoint, each
    built with Python numbers when accessed.
    """

    t: np.ndarray
    c: np.ndarray
    mutual_info: np.ndarray
    classical: np.ndarray
    discord: np.ndarray
    theta_star: np.ndarray
    d_a: np.ndarray
    optimal_axis: np.ndarray
    t_matrix_after: np.ndarray = field(repr=False)

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        rows = range(len(self.t))[i]
        if isinstance(rows, range):
            return [self._point(r) for r in rows]
        return self._point(rows)

    def _point(self, r: int) -> TrajectoryPoint:
        axis = int(self.optimal_axis[r])
        report = CorrelationReport(
            mutual_info=float(self.mutual_info[r]),
            classical=float(self.classical[r]),
            discord=float(self.discord[r]),
            optimal_axis=axis,
            theta_star=float(self.theta_star[r]),
        )
        return TrajectoryPoint(
            t=float(self.t[r]),
            c=BDState.from_seq(self.c[r]),
            report=report,
            d_a=float(self.d_a[r]),
            t_matrix_after=self.t_matrix_after[r].copy(),
            optimal_axis=axis,
        )


def trajectory(c0, spec: ChannelSpec, t_grid) -> Trajectory:
    """Evaluate the closed-form measures along a 1-D time grid.

    Each row carries the correlation report, the basis-minimized
    non-commutativity measure, and the covariance left by the optimal
    measurement.  c0 is validated once; the coefficients at every time are
    checked together.
    """
    c0 = check_bd(c0)
    t = np.array(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"time grid must be one-dimensional, got shape {t.shape}")
    c = _c_rows(c0, spec, t)
    mi, j, d, axis, theta_star = bd_report_rows(c, check_bd_rows(c))
    return Trajectory(
        t=t,
        c=c,
        mutual_info=mi,
        classical=j,
        discord=d,
        theta_star=theta_star,
        d_a=d_a_optimized_rows(c),
        optimal_axis=axis,
        t_matrix_after=t_after_rows(c, OPTIMAL_Z[axis - 1]),
    )
