"""Linear smoother: weight normalization, support boundaries, convexity,
storage growth."""

import numpy as np
import pytest

from helpers import identity_task, observe
from tribasis import (
    LinearSmootherModel,
    enumerate_ball,
    lse_fit,
    lse_fit_cv,
    lse_predict,
    project,
    sample_input_function,
    SobolevSpec,
)
from tribasis import baseline
from tribasis.baseline import kernel_weight, lse_weights
from tribasis.basis import holdout_split


def _model_from_matrices(tin, tout, bandwidth):
    tin = np.asarray(tin, dtype=float)
    tout = np.asarray(tout, dtype=float)
    return LinearSmootherModel(
        input_index_set=enumerate_ball(1, tin.shape[1] - 1.0),
        output_index_set=enumerate_ball(1, tout.shape[1] - 1.0),
        train_inputs=tin,
        train_outputs=tout,
        bandwidth=bandwidth,
    )


def test_kernel_profile():
    assert kernel_weight(0.0) == 1.0
    assert kernel_weight(1.0) == 0.0
    assert kernel_weight(2.0) == 0.0
    assert kernel_weight(0.5) == pytest.approx(0.75)


def test_fit_single_pair():
    train, _, _ = identity_task(1, 1, 1, 50)
    uset = enumerate_ball(1, 2.0)
    model = lse_fit(train, uset, uset, bandwidth=1.0)
    assert model.training_count == 1


def test_exact_recovery_on_isolated_match():
    rng = np.random.default_rng(2)
    spec = SobolevSpec(np.ones(1), np.ones(1), 2.0)
    uset = enumerate_ball(1, 3.0)
    train, outputs = [], []
    for seed in range(5):
        p = sample_input_function(spec, seed)
        train.append(observe(p, 80, 0.0, rng))
        outputs.append(observe(p, 80, 0.0, rng))
    pairs = list(zip(train, outputs))
    model = lse_fit(pairs, uset, uset, bandwidth=1e-6)  # isolates every input
    pred = lse_predict(model, train[2])
    np.testing.assert_array_equal(pred.coefficients, model.train_outputs[2])


def test_equidistant_pair_averages():
    tin = np.array([[1.0, 0.0], [-1.0, 0.0]])
    tout = np.array([[5.0, 1.0, 0.0], [3.0, -1.0, 2.0]])
    model = _model_from_matrices(tin, tout, bandwidth=2.0)
    w = lse_weights(model, np.array([0.0, 0.0]))
    np.testing.assert_allclose(w, [0.5, 0.5])
    pred = w @ model.train_outputs
    np.testing.assert_allclose(pred, [4.0, 0.0, 1.0])


def test_out_of_support_returns_zero_vector():
    tin = np.array([[0.0, 0.0], [0.5, 0.0]])
    tout = np.array([[5.0], [3.0]])
    model = LinearSmootherModel(
        input_index_set=enumerate_ball(1, 1.0),
        output_index_set=enumerate_ball(1, 0.0),
        train_inputs=tin,
        train_outputs=tout,
        bandwidth=0.1,
    )
    w = lse_weights(model, np.array([10.0, 10.0]))
    assert np.all(w == 0.0)
    # the full prediction path hits the same branch
    rng = np.random.default_rng(3)
    spec = SobolevSpec(np.ones(1), np.ones(1), 2.0)
    far = observe(sample_input_function(spec, 9), 60, 0.0, rng)
    train, _, _ = identity_task(4, 6, 1, 60)
    near_model = lse_fit(
        train, enumerate_ball(1, 3.0), enumerate_ball(1, 3.0), bandwidth=1e-9
    )
    pred = lse_predict(near_model, far)
    assert np.all(pred.coefficients == 0.0)


def test_weights_form_probability_vector():
    rng = np.random.default_rng(5)
    tin = rng.standard_normal((200, 4))
    tout = rng.standard_normal((200, 3))
    model = _model_from_matrices(tin, tout, bandwidth=3.0)
    for _ in range(25):
        w = lse_weights(model, rng.standard_normal(4))
        if np.all(w == 0.0):
            continue
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_prediction_convex_combination():
    rng = np.random.default_rng(6)
    tin = rng.standard_normal((100, 3))
    tout = rng.standard_normal((100, 4))
    model = _model_from_matrices(tin, tout, bandwidth=4.0)
    lo, hi = tout.min(axis=0), tout.max(axis=0)
    for _ in range(20):
        w = lse_weights(model, rng.standard_normal(3))
        if np.all(w == 0.0):
            continue
        pred = w @ tout
        assert np.all(pred >= lo - 1e-12) and np.all(pred <= hi + 1e-12)


def test_permutation_invariant_predictions():
    train, test, _ = identity_task(7, 30, 3, 60)
    uset = enumerate_ball(1, 3.0)
    model = lse_fit(train, uset, uset, bandwidth=1.0)
    order = np.random.default_rng(8).permutation(len(train))
    shuffled = lse_fit([train[i] for i in order], uset, uset, bandwidth=1.0)
    for pin, _ in test:
        a = lse_predict(model, pin).coefficients
        b = lse_predict(shuffled, pin).coefficients
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def test_storage_grows_linearly():
    uset = enumerate_ball(1, 3.0)
    rng = np.random.default_rng(9)

    def storage(n):
        tin = rng.standard_normal((n, len(uset)))
        tout = rng.standard_normal((n, len(uset)))
        model = LinearSmootherModel(
            input_index_set=uset,
            output_index_set=uset,
            train_inputs=tin,
            train_outputs=tout,
            bandwidth=1.0,
        )
        return model.train_inputs.nbytes + model.train_outputs.nbytes

    assert storage(10_000) == 10 * storage(1000)


def _search_grid(monkeypatch, grid):
    """Make ``lse_fit_cv`` search ``grid`` in place of the median-scaled one."""
    monkeypatch.setattr(baseline, "_median_bandwidth_grid", lambda tin, seed: grid)


def test_bandwidth_cv_picks_reasonable_value(monkeypatch):
    train, test, truths = identity_task(10, 120, 10, 80)
    uset = enumerate_ball(1, 3.0)
    _search_grid(monkeypatch, (0.05, 0.5, 1.0, 2.0, 8.0))
    model, mse = lse_fit_cv(train, uset, uset, seed=4)
    assert model.bandwidth in (0.05, 0.5, 1.0, 2.0, 8.0)
    assert mse >= 0.0
    # sanity: predictions correlate with the identity-task truth
    errs, base = [], []
    m = len(uset)
    for (pin, _), p in zip(test, truths):
        pred = lse_predict(model, pin).coefficients
        errs.append(((pred - p.coefficients[:m]) ** 2).sum())
        base.append((p.coefficients[:m] ** 2).sum())
    assert np.mean(errs) < np.mean(base)


def test_bandwidth_cv_matches_per_row_loop(monkeypatch):
    # 140 held-out rows in scoring blocks of 16 (the last one partial), and
    # a bandwidth so small that some held-out rows have no fitting input in
    # the kernel support
    train, _, _ = identity_task(12, 700, 0, 40)
    monkeypatch.setattr(baseline, "_CV_BLOCK_ELEMENTS", 16 * 560)
    uset = enumerate_ball(1, 3.0)
    grid = (0.02, 0.3, 1.0, 4.0)
    _search_grid(monkeypatch, grid)
    model, mse = lse_fit_cv(train, uset, uset, seed=6)

    tin = np.vstack([project(p, uset).coefficients for p, _ in train])
    tout = np.vstack([project(q, uset).coefficients for _, q in train])
    val_idx, fit_idx = holdout_split(len(train), 6)
    n_val = len(val_idx)
    loop_mses, unsupported = [], 0
    for bw in grid:
        sub = _model_from_matrices(tin[fit_idx], tout[fit_idx], bw)
        sse = 0.0
        for i in val_idx:
            w = lse_weights(sub, tin[i])
            unsupported += not w.any()
            resid = w @ sub.train_outputs - tout[i]
            sse += float(resid @ resid)
        loop_mses.append(sse / n_val)
    assert n_val == 140 and unsupported > 0
    best = int(np.argmin(loop_mses))
    assert model.bandwidth == grid[best]
    assert mse == pytest.approx(loop_mses[best], rel=1e-12)


def test_bandwidth_cv_default_grid_is_median_scaled(monkeypatch):
    # 260 training inputs: the median is taken over a seeded subsample of 200
    train, _, _ = identity_task(14, 260, 0, 40)
    uset = enumerate_ball(1, 3.0)
    model, mse = lse_fit_cv(train, uset, uset, seed=8)

    tin = np.vstack([project(p, uset).coefficients for p, _ in train])
    sub = tin[np.random.default_rng(8).choice(len(train), size=200, replace=False)]
    dists = [np.linalg.norm(sub[i] - sub[j])
             for i in range(len(sub)) for j in range(i + 1, len(sub))]
    grid = tuple(np.median(dists) * m for m in (0.25, 0.5, 1.0, 2.0, 4.0))
    _search_grid(monkeypatch, grid)
    explicit, explicit_mse = lse_fit_cv(train, uset, uset, seed=8)
    assert model.bandwidth == pytest.approx(explicit.bandwidth, rel=1e-12)
    assert mse == pytest.approx(explicit_mse, rel=1e-12)


def test_fit_validation():
    uset = enumerate_ball(1, 2.0)
    with pytest.raises(ValueError):
        lse_fit([], uset, uset, 1.0)
    train, _, _ = identity_task(11, 3, 1, 40)
    with pytest.raises(ValueError):
        lse_fit(train, uset, uset, 0.0)
