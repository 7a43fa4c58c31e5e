"""Deterministic derivative-free search over the unit sphere S^2.

Objectives are batched: they map an (n, 3) array of unit vectors to n
values.  A seeded Gaussian grid gives one start per cell {z : |z_i| is the
largest component}, so an objective with a local optimum at every axis
(d_A) gets a start in each basin.

The starts are refined in lockstep in their tangent planes, one objective
call per round.  A round evaluates, around each start, the stencil
{-1, 0, 1}^2 minus the origin at radius h and at h/2, plus the candidate
that last round's quadratic model proposed.  The model is the least-squares
quadratic through the centre and its h stencil, and its step is a
trust-region step of at most _REACH * h: the Newton step when the model has
a maximum well inside that, otherwise a shifted step out towards the
boundary along the model's ascent direction.  A start moves to its best
candidate if that is strictly better.  The radius then follows the ratio of
the gain the model candidate got to the gain its model predicted (Conn,
Gould & Toint, Trust-Region Methods, 2000; on a sphere, Absil, Mahony &
Sepulchre, 2008, ch. 7):

- agreement within _GOOD on a Newton step: h / 16, so the next model is fitted
  at the scale of the remaining error (but h stays above _STEP_TOL);
- agreement on a boundary step, or a win from the h stencil: 2 h, which
  walks flat valleys in a few long steps;
- otherwise h / 2.

A start stops when h falls to _STEP_TOL, or on a certificate: the models
fitted on the h and the h/2 stencils are both negative definite, both
predict a gain within _CERT_ULPS ulp of the value, and the round gained no
more than that.  Requiring the h/2 model as well keeps the O(h^2) bias of a
single fit from certifying a point short of the maximum.  The h/2 stencil
also stops zig-zags across near-cone tips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], np.ndarray]

_STEP0, _STEP_TOL, _MAX_ROUNDS = 0.1, 1e-9, 400
_REACH, _GOOD, _CERT_ULPS = 8.0, 0.25, 4.0
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b], dtype=float)
_OFFSETS = np.concatenate([_STENCIL, 0.5 * _STENCIL])  # the h stencil, then the h/2 one
# Least-squares fit of c0 + c1 a + c2 b + c3 a^2 + c4 ab + c5 b^2 to a centre and its stencil.
_A, _B = np.vstack([[0.0, 0.0], _STENCIL]).T
_FIT = np.linalg.pinv(np.column_stack([np.ones(9), _A, _B, _A * _A, _A * _B, _B * _B]))
# Columns of [centre, candidate values] that hold the centre and the h, resp. h/2, stencil.
_FIT_COLUMNS = np.array([[0, *range(1, 9)], [0, *range(9, 17)]])
# z x e_k = z[_CROSS_INDEX[k]] * _CROSS_SIGN[k].
_CROSS_INDEX = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
_CROSS_SIGN = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


@dataclass(frozen=True)
class SearchConfig:
    grid_points: int = 1000
    seed: int = 42


DEFAULT_SEARCH = SearchConfig()


@dataclass(frozen=True)
class SearchResult:
    """How a search over the sphere ended.

    value is what the objective returned at point.  nit counts refine
    rounds and nfev objective values, the grid included.  converged is
    False when the round cap ended the search with a start still live.
    """

    value: float
    point: np.ndarray
    nit: int
    nfev: int
    converged: bool


def _normalize(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _tangent_basis(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal u, v spanning the tangent plane at each row of z.

    u = z x e_k for the axis e_k least aligned with z: near a coordinate great
    circle, where Bell-diagonal objectives keep their flat valleys, u runs along it.
    v = z x u = (z_k z - e_k) / |z x e_k| for unit z.
    """
    rows = np.arange(len(z))
    k = np.abs(z).argmin(axis=1)
    u = z[rows[:, None], _CROSS_INDEX[k]] * _CROSS_SIGN[k]
    norm = np.sqrt((u * u).sum(axis=1, keepdims=True))
    v = z * z[rows, k][:, None]
    v[rows, k] -= 1.0
    return u / norm, v / norm


def _model_step(c0, c1, c2, c3, c4, c5):
    """Trust-region step of the quadratics c0 + c1 a + c2 b + c3 a^2 + c4 ab + c5 b^2.

    Returns the offsets a and b in stencil units, the predicted gains
    m(a, b) - c0, whether the step is the Newton step, and whether the model
    is negative definite.  The step maximizes the model minus mu |s|^2 / 2,
    with mu = max(0, lambda_max + |g| / _REACH), so it is at most _REACH
    long; mu = 0 is the Newton step.
    """
    lam = c3 + c5 + np.hypot(c3 - c5, c4)  # larger eigenvalue of the Hessian [[2c3, c4], [c4, 2c5]]
    mu = np.maximum(lam + np.hypot(c1, c2) / _REACH, 0.0)
    p, q = mu - 2 * c3, mu - 2 * c5
    det = p * q - c4 * c4
    ok = det > 0  # False only for a zero gradient on a model with no maximum: no step
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    a, b = (q * c1 + c4 * c2) * inv, (c4 * c1 + p * c2) * inv
    pred = c1 * a + c2 * b + c3 * a * a + c4 * a * b + c5 * b * b
    negdef = (c3 < 0) & (4 * c3 * c5 - c4 * c4 > 0)
    return a, b, pred, (mu == 0) & ok, negdef


def search_sphere(objective: Objective, config: SearchConfig | None = None) -> SearchResult:
    """Maximize a function of a unit vector in R^3 and report how the search ended.

    objective maps an (n, 3) array of unit vectors to n values.
    """
    cfg = config or DEFAULT_SEARCH
    grid = _normalize(np.random.default_rng(cfg.seed).standard_normal((cfg.grid_points, 3)))
    grid_val = np.asarray(objective(grid), dtype=float)
    nfev = grid_val.size
    cell = np.argmax(np.abs(grid), axis=1)
    cells = (np.flatnonzero(cell == i) for i in range(3))
    starts = [members[np.argmax(grid_val[members])] for members in cells if members.size]
    z, val = grid[starts], grid_val[starts]
    h = np.full(len(z), _STEP0)
    # Last round's model candidate, the value at the centre it was fitted
    # around, its predicted gain and whether it is a Newton step.
    quad, quad_base = z.copy(), val.copy()
    quad_pred, quad_newton = np.zeros(len(z)), np.zeros(len(z), dtype=bool)
    active = np.ones(len(z), dtype=bool)
    nit = 0
    while nit < _MAX_ROUNDS and active.any():
        nit += 1
        live = active.nonzero()[0]
        zl, vl, hl = z[live], val[live], h[live]
        u, v = _tangent_basis(zl)
        step = hl[:, None, None] * _OFFSETS
        cand = _normalize(zl[:, None] + step[..., :1] * u[:, None] + step[..., 1:] * v[:, None])
        cand = np.concatenate([cand, quad[live, None]], axis=1)
        cand_val = np.asarray(objective(cand.reshape(-1, 3)), dtype=float).reshape(live.size, -1)
        nfev += cand_val.size

        # Actual over predicted gain of last round's model candidate; 0 when
        # the prediction is within rounding noise and says nothing.
        noise = _CERT_ULPS * np.spacing(np.abs(vl))
        pred0 = quad_pred[live]
        rho = (cand_val[:, -1] - quad_base[live]) / np.where(pred0 > noise, pred0, np.inf)
        good = np.abs(rho - 1) <= _GOOD

        # The models on the h and the h/2 stencil: column 0 and 1 of each output.
        fit_val = np.concatenate([vl[:, None], cand_val], axis=1)[:, _FIT_COLUMNS].reshape(-1, 9)
        a, b, pred, newton, negdef = (x.reshape(-1, 2) for x in _model_step(*(_FIT @ fit_val.T)))
        ta, tb = hl * a[:, 0], hl * b[:, 0]
        quad[live] = _normalize(zl + ta[:, None] * u + tb[:, None] * v)
        quad_base[live], quad_pred[live] = vl, pred[:, 0]

        win = cand_val.argmax(axis=1)
        win_val = cand_val[np.arange(live.size), win]
        moved = win_val > vl
        z[live[moved]] = cand[moved, win[moved]]
        val[live[moved]] = win_val[moved]

        grow = good | (moved & (win < len(_STENCIL)))
        hl = np.where(good & quad_newton[live], np.maximum(hl / 16, 2 * _STEP_TOL),
                      np.where(grow, 2 * hl, hl / 2))
        h[live], quad_newton[live] = hl, newton[:, 0]
        certified = negdef.all(axis=1) & (pred.max(axis=1) <= noise) & (win_val - vl <= noise)
        active[live] = (hl > _STEP_TOL) & ~certified
    best = int(val.argmax())
    return SearchResult(float(val[best]), z[best].copy(), nit, nfev, not active.any())


def maximize_on_sphere(objective: Objective,
                       config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Maximize a function of a unit vector in R^3.

    objective maps an (n, 3) array of unit vectors to n values.  Returns
    (best_value, best_unit_vector); the value is the one the objective
    returned at that vector.
    """
    result = search_sphere(objective, config)
    return result.value, result.point


def minimize_on_sphere(objective: Objective,
                       config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Minimize a function of a unit vector in R^3; see maximize_on_sphere."""
    val, z = maximize_on_sphere(lambda pts: -np.asarray(objective(pts), dtype=float), config)
    return -val, z
