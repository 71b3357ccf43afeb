"""The cosine design-matrix kernel."""

import numpy as np
import pytest

from helpers import cosine_basis_reference
from tribasis import _accel


def test_empty_index_set_design():
    points = np.random.default_rng(0).uniform(size=(5, 2))
    out = _accel.cosine_design(points, np.zeros((0, 2), dtype=np.int64))
    assert out.shape == (5, 0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kmax", [0, 1, 2, 3, 4, 5, 8, 19, 40, 97, 200])
def test_design_matches_direct_cosine(d, kmax):
    # the strided recurrence against cos(pi * k * x) evaluated directly;
    # every axis reaches kmax, so each recurrence step is exercised
    rng = np.random.default_rng(1000 * d + kmax)
    points = rng.uniform(size=(257, d))
    points[:3] = [[0.0] * d, [1.0] * d, [0.5] * d]
    indices = rng.integers(0, kmax + 1, size=(30, d))
    indices[: d + 1] = 0
    for axis in range(d):
        indices[axis + 1, axis] = kmax
    indices[-1] = kmax
    design = _accel.cosine_design(points, indices)
    assert design.shape == (257, 30)
    for col, alpha in enumerate(indices):
        np.testing.assert_allclose(design[:, col], cosine_basis_reference(alpha, points),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,kmax", [(1, 4), (1, 19), (2, 6), (3, 9), (1, 200)])
@pytest.mark.parametrize("batch", [1, 2, 3, 8, 33])
def test_stacked_call_equals_single_calls(d, kmax, batch):
    rng = np.random.default_rng(batch * 10 + d)
    indices = rng.integers(0, kmax + 1, size=(12, d))
    indices[0] = kmax
    stack = rng.uniform(size=(batch, 41, d))
    stacked = _accel.cosine_design(stack, indices)
    assert stacked.shape == (batch, 41, 12)
    for b in range(batch):
        assert np.array_equal(stacked[b], _accel.cosine_design(stack[b], indices))
