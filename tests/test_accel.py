"""The cosine design-matrix kernel."""

import numpy as np

from tribasis import _accel


def test_empty_index_set_design():
    points = np.random.default_rng(0).uniform(size=(5, 2))
    out = _accel.cosine_design(points, np.zeros((0, 2), dtype=np.int64))
    assert out.shape == (5, 0)
