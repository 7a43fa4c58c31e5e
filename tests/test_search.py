"""Tests for the batched search over the unit sphere."""

import numpy as np
import pytest

from qcorr.search import SearchConfig, maximize_on_sphere, minimize_on_sphere

TARGET = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])


def alignment(z):
    # Row by row, so a value does not depend on the batch it was computed in.
    return z[:, 0] * TARGET[0] + z[:, 1] * TARGET[1] + z[:, 2] * TARGET[2]


class Recorder:
    """Batched objective that records the shape of every array it is given."""

    def __init__(self, objective):
        self.objective = objective
        self.shapes = []

    def __call__(self, z):
        assert isinstance(z, np.ndarray)
        self.shapes.append(z.shape)
        return self.objective(z)


def test_bit_for_bit_deterministic():
    config = SearchConfig(grid_points=300, seed=7)
    v1, z1 = maximize_on_sphere(alignment, config)
    v2, z2 = maximize_on_sphere(alignment, config)
    assert v1 == v2
    assert z1.tobytes() == z2.tobytes()


@pytest.mark.parametrize("search", [maximize_on_sphere, minimize_on_sphere])
def test_returns_a_unit_vector_and_its_value(search):
    value, z = search(alignment)
    assert z.shape == (3,)
    assert abs(np.linalg.norm(z) - 1.0) <= 1e-15
    assert value == alignment(z[None])[0]
    expected = 1.0 if search is maximize_on_sphere else -1.0
    assert value == pytest.approx(expected, abs=1e-12)


def test_objective_only_receives_n_by_3_arrays():
    recorder = Recorder(lambda z: np.sum(z**4, axis=1))
    minimize_on_sphere(recorder, SearchConfig(grid_points=200))
    assert recorder.shapes[0] == (200, 3)
    assert len(recorder.shapes) > 1
    for shape in recorder.shapes:
        assert len(shape) == 2 and shape[1] == 3 and shape[0] >= 1


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_narrow_valley_at_an_angle_to_the_axes(gap):
    """Maximum of z^T M z with two near-tied eigenvalues and rotated eigenvectors.

    The flat valley between the top two eigenvectors crosses the search
    stencil at an angle; stencil steps alone stalled 1.7e-7 (gap 1e-3) and
    7.7e-6 (gap 1e-4) short of the maximum.
    """
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    m = q @ np.diag([1.0, 1.0 - gap, 0.2]) @ q.T
    value, _ = maximize_on_sphere(lambda z: np.einsum("ni,ij,nj->n", z, m, z))
    assert value == pytest.approx(1.0, abs=1e-12)
