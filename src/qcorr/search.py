"""Deterministic derivative-free search over the unit sphere S^2.

Objectives are batched: they map an (n, 3) array of unit vectors to n
values.  A seeded Gaussian grid gives one start per cell {z : |z_i| is the
largest component}, so an objective with a local optimum at every axis
(d_A) gets a start in each basin.  The starts are refined in lockstep in
their tangent planes; a round evaluates, in one objective call, the
stencil {-1, 0, 1}^2 minus the origin at step h and at h/2 around each
start, plus the maximum of the quadratic fitted to the last round's centre
and h stencil.  A start moves to its best candidate if that is strictly
better; h stays when the winner came from the h stencil and halves
otherwise.  The h/2 stencil stops zig-zags across near-cone tips; the
quadratic walks narrow valleys that cross the stencil at an angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], np.ndarray]

_STEP0, _STEP_TOL, _MAX_ROUNDS = 0.1, 1e-9, 400
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b], dtype=float)
_OFFSETS = np.concatenate([_STENCIL, 0.5 * _STENCIL])  # the h stencil, then the h/2 one
# Least-squares fit of c0 + c1 a + c2 b + c3 a^2 + c4 ab + c5 b^2 to the centre and h stencil.
_A, _B = np.vstack([[0.0, 0.0], _STENCIL]).T
_FIT = np.linalg.pinv(np.column_stack([np.ones(9), _A, _B, _A * _A, _A * _B, _B * _B]))


@dataclass(frozen=True)
class SearchConfig:
    grid_points: int = 1000
    seed: int = 42


DEFAULT_SEARCH = SearchConfig()


def _normalize(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) arrays."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _tangent_basis(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal u, v spanning the tangent plane at each row of z.

    u = z x e_k for the axis e_k least aligned with z: near a coordinate great
    circle, where Bell-diagonal objectives keep their flat valleys, u runs along it.
    """
    u = _normalize(_cross(z, np.eye(3)[np.argmin(np.abs(z), axis=1)]))
    return u, _cross(z, u)


def _quadratic_maximum(centre: np.ndarray, cand_val: np.ndarray) -> np.ndarray:
    """Stencil-unit offset (a, b) of the maximum of the fitted quadratic, per row.

    Takes the centre values and candidate values whose rows start with the
    h stencil.  Rows whose quadratic has no maximum get a zero offset.
    """
    c = np.column_stack([centre, cand_val[:, :len(_STENCIL)]]) @ _FIT.T
    det = 4 * c[:, 3] * c[:, 5] - c[:, 4] ** 2
    ok = (c[:, 3] < 0) & (det > 0)
    offset = np.stack([c[:, 4] * c[:, 2] - 2 * c[:, 5] * c[:, 1],
                       c[:, 4] * c[:, 1] - 2 * c[:, 3] * c[:, 2]], axis=1)
    return np.where(ok[:, None], offset / np.where(ok, det, 1.0)[:, None], 0.0)


def maximize_on_sphere(objective: Objective,
                       config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Maximize a function of a unit vector in R^3.

    objective maps an (n, 3) array of unit vectors to n values.  Returns
    (best_value, best_unit_vector); the value is the one the objective
    returned at that vector.
    """
    cfg = config or DEFAULT_SEARCH
    grid = _normalize(np.random.default_rng(cfg.seed).standard_normal((cfg.grid_points, 3)))
    grid_val = np.asarray(objective(grid), dtype=float)
    cell = np.argmax(np.abs(grid), axis=1)
    cells = (np.flatnonzero(cell == i) for i in range(3))
    starts = [members[np.argmax(grid_val[members])] for members in cells if members.size]
    z, val = grid[starts], grid_val[starts]
    h = np.full(len(z), _STEP0)
    quad = z.copy()
    for _ in range(_MAX_ROUNDS):
        live = np.flatnonzero(h > _STEP_TOL)
        if not live.size:
            break
        u, v = _tangent_basis(z[live])
        step = h[live, None, None] * _OFFSETS
        cand = _normalize(z[live, None] + step[..., :1] * u[:, None] + step[..., 1:] * v[:, None])
        cand = np.concatenate([cand, quad[live, None]], axis=1)
        cand_val = np.asarray(objective(cand.reshape(-1, 3)), dtype=float).reshape(live.size, -1)
        t = h[live, None] * _quadratic_maximum(val[live], cand_val)
        quad[live] = _normalize(z[live] + t[:, :1] * u + t[:, 1:] * v)
        win = np.argmax(cand_val, axis=1)
        win_val = cand_val[np.arange(live.size), win]
        moved = win_val > val[live]
        z[live[moved]] = cand[moved, win[moved]]
        val[live[moved]] = win_val[moved]
        h[live[~(moved & (win < len(_STENCIL)))]] /= 2
    best = int(np.argmax(val))
    return float(val[best]), z[best].copy()


def minimize_on_sphere(objective: Objective,
                       config: SearchConfig | None = None) -> tuple[float, np.ndarray]:
    """Minimize a function of a unit vector in R^3; see maximize_on_sphere."""
    val, z = maximize_on_sphere(lambda pts: -np.asarray(objective(pts), dtype=float), config)
    return -val, z
