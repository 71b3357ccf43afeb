"""Random cosine feature maps: sampling distribution, determinism, kernel
approximation, boundedness."""

import numpy as np
import pytest

from tribasis import (
    RksFeatureMap,
    compute_features,
    compute_features_batch,
    rbf_kernel,
    sample_feature_map,
)
from tribasis.features import feature_ladder


def test_same_seed_identical_maps():
    a = sample_feature_map(3, 50, 1.5, seed=99)
    b = sample_feature_map(3, 50, 1.5, seed=99)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.phases, b.phases)


def test_different_seed_differs():
    a = sample_feature_map(3, 50, 1.5, seed=1)
    b = sample_feature_map(3, 50, 1.5, seed=2)
    assert not np.array_equal(a.frequencies, b.frequencies)


def test_frequency_moments_unit_bandwidth():
    fmap = sample_feature_map(1, 100_000, 1.0, seed=5)
    freqs = fmap.frequencies.ravel()
    assert abs(freqs.mean()) < 0.02
    assert abs(freqs.var() - 1.0) < 0.05


def test_frequency_variance_scales_with_bandwidth():
    fmap = sample_feature_map(1, 100_000, 2.0, seed=6)
    assert abs(fmap.frequencies.var() - 0.25) < 0.05 * 0.25


def test_phases_in_range():
    fmap = sample_feature_map(2, 10_000, 1.0, seed=7)
    assert np.all(fmap.phases >= 0.0)
    assert np.all(fmap.phases < 2.0 * np.pi)


def test_invalid_map_arguments():
    with pytest.raises(ValueError):
        sample_feature_map(0, 10, 1.0, 0)
    with pytest.raises(ValueError):
        sample_feature_map(2, 0, 1.0, 0)
    with pytest.raises(ValueError):
        sample_feature_map(2, 10, 0.0, 0)


def test_single_feature_closed_form():
    fmap = RksFeatureMap(
        input_dim=1,
        feature_count=1,
        bandwidth=1.0,
        frequencies=np.zeros((1, 1)),
        phases=np.array([np.pi]),
        seed=0,
    )
    z = compute_features(fmap, [0.123])
    assert z[0] == pytest.approx(-np.sqrt(2.0))


def test_feature_vector_norm_bounded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        fmap = sample_feature_map(4, int(rng.integers(1, 300)), 0.7, int(rng.integers(1e6)))
        z = compute_features(fmap, rng.standard_normal(4))
        assert (z * z).sum() <= 2.0
        assert np.all(np.abs(z) <= np.sqrt(2.0 / fmap.feature_count) + 1e-15)


def test_compute_features_pure():
    fmap = sample_feature_map(3, 64, 1.0, seed=8)
    x = np.array([0.3, -0.2, 1.1])
    assert np.array_equal(compute_features(fmap, x), compute_features(fmap, x))


def test_compute_features_length_mismatch():
    fmap = sample_feature_map(3, 64, 1.0, seed=8)
    with pytest.raises(ValueError):
        compute_features(fmap, [0.1, 0.2])


def test_batch_matches_single():
    fmap = sample_feature_map(5, 128, 2.0, seed=10)
    xs = np.random.default_rng(11).standard_normal((13, 5))
    batch = compute_features_batch(fmap, xs)
    # the in-place batch does the plain expression's operations in order
    assert np.array_equal(batch, fmap.scale * np.cos(xs @ fmap.frequencies.T + fmap.phases))
    for i in range(13):
        np.testing.assert_allclose(
            batch[i], compute_features(fmap, xs[i]), rtol=1e-12, atol=1e-14
        )


def test_kernel_approximation_at_5000_features():
    sigma = 1.0
    fmap = sample_feature_map(3, 5000, sigma, seed=123)
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 3)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        y = x + direction * rng.uniform(0.0, 3.0)
        approx = compute_features(fmap, x) @ compute_features(fmap, y)
        exact = rbf_kernel(np.linalg.norm(x - y), sigma)
        worst = max(worst, abs(approx - exact))
    assert worst < 0.05


def test_map_is_frozen():
    fmap = sample_feature_map(2, 16, 1.0, seed=1)
    with pytest.raises(Exception):
        fmap.bandwidth = 2.0
    with pytest.raises(Exception):
        fmap.frequencies[0, 0] = 5.0


def test_map_shape_validation():
    with pytest.raises(ValueError):
        RksFeatureMap(2, 3, 1.0, np.zeros((3, 1)), np.zeros(3), 0)
    with pytest.raises(ValueError):
        RksFeatureMap(2, 3, 1.0, np.zeros((3, 2)), np.zeros(2), 0)
    with pytest.raises(ValueError):
        RksFeatureMap(2, 3, 1.0, np.zeros((3, 2)), np.full(3, 7.0), 0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ladder_matches_batch_on_a_halving_chain(seed):
    # nine bandwidths, each half the previous: eight double-angle steps
    rng = np.random.default_rng(seed)
    s = 1 + seed
    xs = rng.standard_normal((64, s)) * (1 + seed)
    fmaps = [sample_feature_map(s, 300, 2.0 ** (3 - k), seed) for k in range(9)]
    ladder = feature_ladder(fmaps, xs)
    # the first map's angles are computed, each later map's are 2^k times
    # them: the chain's angle error and the reference's rounding of
    # theta + phase both grow like 2^k (1 + |theta|) eps, measured at about
    # a third of that
    head = np.abs(xs @ fmaps[0].frequencies.T).max()
    eps = np.finfo(float).eps
    for k, (z, fmap) in enumerate(zip(ladder, fmaps)):
        err = np.abs(z - compute_features_batch(fmap, xs)).max()
        assert err <= fmap.scale * eps * 2.0 ** (k + 2) * (1.0 + head)


def test_ladder_keeps_caller_order_and_evaluates_unchained_maps_directly():
    xs = np.random.default_rng(12).standard_normal((20, 3))
    grid = (1.0, 4.0, 0.5, 2.0, 3.0)
    fmaps = [sample_feature_map(3, 50, bw, 5) for bw in grid]
    # a halved bandwidth drawn from another seed shares no normals
    fmaps.append(sample_feature_map(3, 50, 0.25, 6))
    ladder = feature_ladder(fmaps, xs)
    assert len(ladder) == len(fmaps)
    for z, fmap in zip(ladder, fmaps):
        direct = compute_features_batch(fmap, xs)
        if fmap.bandwidth in (4.0, 3.0, 0.25):
            # from the largest down: 4 and 3 have no halving neighbour
            # (2 is not adjacent to 4), and the other seed's map none
            assert np.array_equal(z, direct)
        else:
            np.testing.assert_allclose(z, direct, rtol=0, atol=1e-14)
    assert feature_ladder([], xs) == []
