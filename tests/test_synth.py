"""Synthetic problems: ellipsoid membership, mapping oracle behavior,
dataset determinism, uniformity of sample points."""

import numpy as np
import pytest
import scipy.stats

from tribasis import (
    BasisIndexSet,
    CoefficientVector,
    MappingSpec,
    SobolevSpec,
    SyntheticConfig,
    apply_mapping,
    enumerate_kappa_ball,
    generate_dataset,
    make_mapping,
    reconstruct,
    sample_input_function,
)

SPEC_1D = SobolevSpec(np.ones(1), np.ones(1), 2.0)


def test_sampled_functions_stay_in_ellipsoid():
    for seed in range(200):
        cv = sample_input_function(SPEC_1D, seed)
        kap = SPEC_1D.kappa(cv.index_set.indices)
        assert (cv.coefficients**2 * kap**2).sum() <= SPEC_1D.amplitude + 1e-12


def test_sampled_function_deterministic():
    a = sample_input_function(SPEC_1D, 31)
    b = sample_input_function(SPEC_1D, 31)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_sampled_coefficients_centered():
    draws = np.vstack(
        [sample_input_function(SPEC_1D, seed).coefficients for seed in range(10_000)]
    )
    means = draws.mean(axis=0)
    ses = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(means) < 3.0 * ses + 1e-12)


def _manual_mapping(theta, sigma=1.0):
    anchor_set = enumerate_kappa_ball(SPEC_1D, 16.0)
    out_set = enumerate_kappa_ball(SPEC_1D, 16.0)
    kap = SPEC_1D.kappa(out_set.indices)
    bounds = np.abs(theta).sum(axis=1)
    # keep the declared budget inside the ellipsoid by padding zero rows
    assert (bounds**2 * kap**2).sum() <= SPEC_1D.amplitude
    anchors = np.vstack(
        [sample_input_function(SPEC_1D, s).coefficients for s in range(theta.shape[1])]
    )
    return MappingSpec(
        anchor_index_set=anchor_set,
        anchors=anchors,
        output_index_set=out_set,
        output_spec=SPEC_1D,
        weights=theta,
        bounds=np.maximum(bounds, 1e-12),
        sigma=sigma,
    )


def test_apply_mapping_zero_weights():
    out_size = len(enumerate_kappa_ball(SPEC_1D, 16.0))
    mapping = _manual_mapping(np.zeros((out_size, 3)))
    p = sample_input_function(SPEC_1D, 5)
    q = apply_mapping(mapping, p)
    assert np.all(q.coefficients == 0.0)


def test_apply_mapping_anchor_self_similarity():
    out_size = len(enumerate_kappa_ball(SPEC_1D, 16.0))
    theta = np.zeros((out_size, 1))
    theta[0, 0] = 1.0
    mapping = _manual_mapping(theta)
    p = CoefficientVector(mapping.anchor_index_set, mapping.anchors[0])
    q = apply_mapping(mapping, p)
    assert q.coefficients[0] == pytest.approx(1.0)  # kernel at distance zero


def test_apply_mapping_bounded_by_weight_norms():
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=12, sigma=1.0, seed=3)
    for seed in range(50):
        p = sample_input_function(SPEC_1D, 1000 + seed)
        q = apply_mapping(mapping, p)
        assert np.all(np.abs(q.coefficients) <= mapping.bounds + 1e-12)


def test_apply_mapping_index_set_mismatch():
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=4, seed=1)
    wrong = CoefficientVector(BasisIndexSet(1, [[0]]), [1.0])
    with pytest.raises(ValueError):
        apply_mapping(mapping, wrong)


def test_make_mapping_respects_budget():
    spec_out = SobolevSpec(np.ones(1), np.ones(1), 3.0)
    mapping = make_mapping(SPEC_1D, spec_out, n_anchors=25, sigma=0.5, seed=7)
    kap = spec_out.kappa(mapping.output_index_set.indices)
    budget = (mapping.bounds**2 * kap**2).sum()
    assert budget <= spec_out.amplitude
    l1 = np.abs(mapping.weights).sum(axis=1)
    np.testing.assert_allclose(l1, mapping.bounds, rtol=1e-12)


def test_mapping_rejects_non_finite_sigma():
    with pytest.raises(ValueError, match="sigma must be finite"):
        make_mapping(SPEC_1D, SPEC_1D, n_anchors=4, sigma=np.inf, seed=2)


def test_mapping_spec_validation():
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=4, seed=2)
    with pytest.raises(ValueError):
        MappingSpec(
            anchor_index_set=mapping.anchor_index_set,
            anchors=mapping.anchors,
            output_index_set=mapping.output_index_set,
            output_spec=mapping.output_spec,
            weights=mapping.weights * 10.0,  # breaks the l1 bounds
            bounds=mapping.bounds,
            sigma=1.0,
        )
    huge = np.full_like(mapping.bounds, 100.0)
    with pytest.raises(ValueError):
        MappingSpec(
            anchor_index_set=mapping.anchor_index_set,
            anchors=mapping.anchors,
            output_index_set=mapping.output_index_set,
            output_spec=mapping.output_spec,
            weights=mapping.weights,
            bounds=huge,  # blows the ellipsoid budget
            sigma=1.0,
        )


def test_generated_outputs_stay_in_output_ellipsoid():
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=10, seed=4)
    kap = SPEC_1D.kappa(mapping.output_index_set.indices)
    for seed in range(100):
        p = sample_input_function(SPEC_1D, 2000 + seed)
        q = apply_mapping(mapping, p)
        assert (q.coefficients**2 * kap**2).sum() <= SPEC_1D.amplitude + 1e-12


def test_generate_dataset_noiseless_values_exact():
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=5, seed=5)
    config = SyntheticConfig(SPEC_1D, SPEC_1D, 0.0, 40, 6, seed=6)
    pairs, tin, tout = generate_dataset(config, mapping, return_truth=True)
    for (pin, pout), p, q in zip(pairs, tin, tout):
        assert np.array_equal(pin.values, reconstruct(p, pin.points))
        assert np.array_equal(pout.values, reconstruct(q, pout.points))


def test_generate_dataset_deterministic():
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=5, seed=5)
    config = SyntheticConfig(SPEC_1D, SPEC_1D, 0.1, 30, 4, seed=8)
    a = generate_dataset(config, mapping)
    b = generate_dataset(config, mapping)
    for (pa, qa), (pb, qb) in zip(a, b):
        assert np.array_equal(pa.points, pb.points)
        assert np.array_equal(pa.values, pb.values)
        assert np.array_equal(qa.points, qb.points)
        assert np.array_equal(qa.values, qb.values)


def test_sample_points_uniform():
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=5, seed=5)
    config = SyntheticConfig(SPEC_1D, SPEC_1D, 0.1, 100_000, 1, seed=9)
    (pin, pout), = generate_dataset(config, mapping)
    for obs in (pin, pout):
        stat = scipy.stats.kstest(obs.points[:, 0], "uniform")
        assert stat.pvalue > 0.01


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(SPEC_1D, SPEC_1D, -0.1, 10, 10, 0)
    with pytest.raises(ValueError):
        SyntheticConfig(SPEC_1D, SPEC_1D, 0.1, 0, 10, 0)
