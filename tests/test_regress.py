"""Regression core: accumulation, the linear solve against an independent
least-squares oracle, fitting, and prediction."""

import numpy as np
import pytest
from scipy import linalg as sla

from helpers import identity_task, select_truncation_reference
from tribasis import (
    FunctionObservation,
    IllConditionedError,
    TrainingSummary,
    accumulate,
    average_truncation_radius,
    compute_features_batch,
    enumerate_ball,
    fit,
    fit_cv,
    predict_coeffs,
    predict_function,
    project,
    reconstruct,
    sample_feature_map,
    solve,
)
from tribasis import basis, features, regress
from tribasis.basis import holdout_split, project_all


def _random_problem(rng, n=50, feature_count=20, targets=3):
    z = rng.standard_normal((n, feature_count))
    a = rng.standard_normal((n, targets))
    return z, a


def _lstsq_oracle(z, a):
    # independent least-squares route: SVD-based lstsq per target column,
    # never touching the normal-equations path under test
    cols = [np.linalg.lstsq(z, a[:, j], rcond=None)[0] for j in range(a.shape[1])]
    return np.stack(cols, axis=1)


# --------------------------------------------------------------------------
# accumulation


def test_accumulate_single_pair():
    rng = np.random.default_rng(0)
    fmap = sample_feature_map(3, 8, 1.0, seed=1)
    u, v = rng.standard_normal((1, 3)), rng.standard_normal((1, 2))
    summary = accumulate(u, v, fmap)
    z = compute_features_batch(fmap, u)[0]
    assert np.array_equal(summary.gram, np.outer(z, z))
    assert np.array_equal(summary.cross, np.outer(z, v[0]))
    assert summary.count == 1


def test_accumulate_zero_output_leaves_cross_unchanged():
    rng = np.random.default_rng(2)
    fmap = sample_feature_map(3, 8, 1.0, seed=1)
    summary = accumulate(rng.standard_normal((1, 3)), np.zeros((1, 2)), fmap)
    assert np.all(summary.cross == 0.0)
    assert np.any(summary.gram != 0.0)


def test_shard_merge_matches_union():
    rng = np.random.default_rng(3)
    fmap = sample_feature_map(4, 10, 1.0, seed=5)
    inputs, outputs = rng.standard_normal((100, 4)), rng.standard_normal((100, 3))
    whole = accumulate(inputs, outputs, fmap)
    first = accumulate(inputs[:37], outputs[:37], fmap)
    second = accumulate(inputs[37:], outputs[37:], fmap)
    merged = first.merge(second)
    np.testing.assert_allclose(merged.gram, whole.gram, rtol=1e-10)
    np.testing.assert_allclose(merged.cross, whole.cross, rtol=1e-10)
    assert merged.count == whole.count == 100
    # an empty shard is the identity of merge
    empty = accumulate(np.empty((0, 4)), np.empty((0, 3)), fmap)
    assert empty.count == 0 and not empty.gram.any() and not empty.cross.any()
    assert np.array_equal(whole.merge(empty).gram, whole.gram)


def test_accumulate_dimension_checks():
    fmap = sample_feature_map(3, 8, 1.0, seed=1)
    with pytest.raises(ValueError):
        accumulate(np.zeros((2, 4)), np.zeros((2, 2)), fmap)  # 4 input columns
    with pytest.raises(ValueError):
        accumulate(np.zeros((2, 3)), np.zeros((3, 2)), fmap)  # 3 output rows
    with pytest.raises(ValueError):
        accumulate(np.zeros((2, 3)), np.zeros(2), fmap)  # outputs not a matrix
    with pytest.raises(ValueError):
        accumulate(np.zeros((2, 3)), np.zeros((2, 2)), fmap).merge(
            accumulate(np.zeros((2, 3)), np.zeros((2, 3)), fmap)
        )


# --------------------------------------------------------------------------
# solve


def test_solve_identity_gram():
    cross = np.random.default_rng(4).standard_normal((6, 2))
    summary = TrainingSummary(np.eye(6), cross, 6)
    np.testing.assert_allclose(solve(summary, 0.0), cross, rtol=1e-14)


def test_solve_huge_ridge_shrinks_to_zero():
    rng = np.random.default_rng(5)
    z, a = _random_problem(rng)
    summary = TrainingSummary(z.T @ z, z.T @ a, 50)
    psi = solve(summary, 1e12)
    assert np.linalg.norm(psi) < 1e-6 * np.linalg.norm(summary.cross)


def test_solve_matches_lstsq_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        z, a = _random_problem(rng)
        summary = TrainingSummary(z.T @ z, z.T @ a, z.shape[0])
        psi = solve(summary, 0.0)
        oracle = _lstsq_oracle(z, a)
        assert np.linalg.norm(psi - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_tiny_ridge_close_to_ols():
    rng = np.random.default_rng(7)
    z, a = _random_problem(rng)
    summary = TrainingSummary(z.T @ z, z.T @ a, 50)
    ols = solve(summary, 0.0)
    ridged = solve(summary, 1e-6)
    assert np.linalg.norm(ridged - ols) <= 1e-4 * np.linalg.norm(ols)


def test_ridge_continuity_and_monotone_shrinkage():
    rng = np.random.default_rng(8)
    z, a = _random_problem(rng)
    summary = TrainingSummary(z.T @ z, z.T @ a, 50)
    ols = solve(summary, 0.0)
    gaps = []
    norms = []
    for lam in (1e-2, 1e-4, 1e-6):
        psi = solve(summary, lam)
        gaps.append(np.abs(psi - ols).max())
        norms.append(np.linalg.norm(psi))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6
    lams = (1e-2, 1e-1, 1.0, 10.0)
    frob = [np.linalg.norm(solve(summary, lam)) for lam in lams]
    assert all(x > y for x, y in zip(frob, frob[1:]))


def test_singular_gram_raises_named_condition(monkeypatch):
    z = np.ones((30, 5))  # rank one
    a = np.ones((30, 2))
    summary = TrainingSummary(z.T @ z, z.T @ a, 30)

    def no_svd(*args, **kwargs):
        raise AssertionError("a failed factorization ran an SVD condition number")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    with pytest.raises(IllConditionedError) as err:
        solve(summary, 0.0)
    assert err.value.condition_estimate > 1e12
    assert "condition estimate" in str(err.value)
    # a positive ridge makes the same summary solvable
    solve(summary, 1e-3)


def test_solve_shifts_diagonal_like_identity_sum_and_keeps_gram():
    # the in-place factorization of the shifted copy must give exactly the
    # psi of the old gram + lambda * eye(D) expression, for C- and
    # Fortran-ordered grams; a shifted gram that Cholesky cannot factor
    # raises IllConditionedError; either way the summary is left as it was
    # for the next penalty
    rng = np.random.default_rng(31)
    z, a = _random_problem(rng)
    definite = TrainingSummary(z.T @ z, z.T @ a, 50)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    indefinite = TrainingSummary((q * np.linspace(-1e-3, 1.0, 20)) @ q.T, z.T @ a, 50)
    paths = set()
    for base, lams in ((definite, (1e-8, 1e-3, 1.0)), (indefinite, (1e-6,))):
        for order in ("C", "F"):
            summary = TrainingSummary(np.array(base.gram, order=order), base.cross,
                                      base.count)
            gram = summary.gram.copy()
            for lam in lams:
                shifted = base.gram + lam * np.eye(len(base.gram))
                try:
                    factor = sla.cho_factor(shifted, lower=True, check_finite=False)
                except sla.LinAlgError:
                    assert base is indefinite
                    with pytest.raises(IllConditionedError) as err:
                        solve(summary, lam)
                    assert err.value.condition_estimate == np.inf
                    paths.add("ill-conditioned")
                else:
                    old = sla.cho_solve(factor, base.cross, check_finite=False)
                    assert np.array_equal(solve(summary, lam), old)
                    paths.add("cholesky")
                assert np.array_equal(summary.gram, gram)
    assert paths == {"cholesky", "ill-conditioned"}


@pytest.mark.parametrize("definite", [True, False])
def test_solve_holds_one_shifted_copy(definite):
    # a penalized solve works on its one shifted copy of the Gram in place,
    # whether it solves or its factorization fails: tracemalloc's peak
    # stays below one and a half D x D arrays
    import tracemalloc

    rng = np.random.default_rng(32)
    features = 400
    z, a = _random_problem(rng, n=features + 10, feature_count=features)
    if definite:
        gram = z.T @ z
    else:
        q, _ = np.linalg.qr(z[:features])
        gram = (q * np.linspace(-1e-3, 1.0, features)) @ q.T
    summary = TrainingSummary(gram, z.T @ a, features + 10)
    del z, gram
    tracemalloc.start()
    try:
        if definite:
            solve(summary, 1e-6)
        else:
            with pytest.raises(IllConditionedError):
                solve(summary, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * summary.gram.nbytes


def test_negative_ridge_rejected():
    summary = TrainingSummary(np.zeros((3, 3)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        solve(summary, -1.0)


@pytest.mark.parametrize("ridge_lambda", [np.nan, np.inf])
def test_non_finite_ridge_rejected(ridge_lambda):
    # NaN fails both "< 0" and "> 0"; it must not be solved as lambda = 0
    summary = TrainingSummary(np.eye(3), np.ones((3, 1)))
    with pytest.raises(ValueError, match="finite"):
        solve(summary, ridge_lambda)


# --------------------------------------------------------------------------
# fit / predict


def _tiny_task(seed, n_train=40, n_points=60):
    train, test, truths = identity_task(seed, n_train, 5, n_points)
    uset = enumerate_ball(1, 3.0)
    fmap = sample_feature_map(len(uset), 50, 2.0, seed=seed + 1)
    return train, test, uset, fmap


def test_fit_zero_outputs_gives_zero_model():
    train, _, uset, fmap = _tiny_task(13)
    zeroed = [
        (p, FunctionObservation("noisy-evaluations", q.points, np.zeros(q.n)))
        for p, q in train
    ]
    model = fit(zeroed, uset, uset, fmap, ridge_lambda=1e-8)
    assert np.all(model.psi == 0.0)
    pred = predict_coeffs(model, train[0][0])
    assert np.all(pred.coefficients == 0.0)
    assert predict_function(model, train[0][0], 0.3) == 0.0


def test_fit_deterministic():
    train, _, uset, fmap = _tiny_task(14)
    m1 = fit(train, uset, uset, fmap, 1e-6)
    m2 = fit(train, uset, uset, fmap, 1e-6)
    assert np.array_equal(m1.psi, m2.psi)


def test_fit_shard_invariance_under_shuffling():
    # well-conditioned regime (more instances than features) so reordering
    # cost is pure summation round-off, not solve amplification
    train, _, uset, _ = _tiny_task(15, n_train=60)
    fmap = sample_feature_map(len(uset), 20, 2.0, seed=16)
    m1 = fit(train, uset, uset, fmap, 1e-6)
    order = np.random.default_rng(0).permutation(len(train))
    m2 = fit([train[i] for i in order], uset, uset, fmap, 1e-6)
    assert np.linalg.norm(m2.psi - m1.psi) <= 1e-9 * np.linalg.norm(m1.psi)


def test_fit_empty_dataset():
    _, _, uset, fmap = _tiny_task(16)
    with pytest.raises(ValueError):
        fit([], uset, uset, fmap, 0.0)


def test_fit_equals_accumulate_solve_composition():
    # keep the instance count above the feature count so the comparison is
    # not dominated by solve-amplified round-off
    train, _, uset, _ = _tiny_task(17, n_train=40)
    fmap = sample_feature_map(len(uset), 12, 2.0, seed=18)
    model = fit(train, uset, uset, fmap, 1e-6)
    inputs = np.vstack([project(p, uset).coefficients for p, _ in train])
    outputs = np.vstack([project(q, uset).coefficients for _, q in train])
    # one shard per pair, merged in order
    summary = accumulate(inputs[:1], outputs[:1], fmap)
    for i in range(1, len(train)):
        summary = summary.merge(accumulate(inputs[i : i + 1], outputs[i : i + 1], fmap))
    batched = accumulate(inputs, outputs, fmap)
    np.testing.assert_allclose(batched.gram, summary.gram, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(batched.cross, summary.cross, rtol=1e-10, atol=1e-14)
    psi = solve(summary, 1e-6)
    np.testing.assert_allclose(model.psi, psi, rtol=1e-6, atol=1e-10)
    # more pairs than features: fit solves these primal normal equations
    assert np.array_equal(model.psi, solve(batched, 1e-6))


def _dual_task(seed, n_train=30, feature_count=80):
    # fewer training pairs than features: the shape the dual solve is for
    train, _, uset, _ = _tiny_task(seed, n_train=n_train)
    fmap = sample_feature_map(len(uset), feature_count, 2.0, seed=seed + 1)
    inputs = project_all([p for p, _ in train], uset)
    outputs = project_all([q for _, q in train], uset)
    return train, uset, fmap, inputs, outputs


def _no_gram(*args):
    # stands in for regress._summaries, which builds every D x D Gram
    raise AssertionError("the D x D Gram was accumulated")


def test_fit_dual_matches_primal_and_augmented_lstsq(monkeypatch):
    train, uset, fmap, inputs, outputs = _dual_task(22)
    z = compute_features_batch(fmap, inputs)
    n, d = z.shape
    primal = TrainingSummary(z.T @ z, z.T @ outputs, n)

    monkeypatch.setattr(regress, "_summaries", _no_gram)
    for lam in (1e-4, 1e-2, 1.0):
        psi = fit(train, uset, uset, fmap, lam).psi
        reference = solve(primal, lam)
        assert np.linalg.norm(psi - reference) <= 1e-10 * np.linalg.norm(reference)
        # [Z; sqrt(lambda) I] psi = [Y; 0] in the least-squares sense
        oracle = _lstsq_oracle(
            np.vstack([z, np.sqrt(lam) * np.eye(d)]),
            np.vstack([outputs, np.zeros((d, outputs.shape[1]))]),
        )
        assert np.linalg.norm(psi - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_fit_ridgeless_with_fewer_pairs_than_features_raises(monkeypatch):
    # the D x D Gram has rank at most N < D: singular without being formed
    train, uset, fmap, _, _ = _dual_task(23)
    monkeypatch.setattr(regress, "_summaries", _no_gram)
    with pytest.raises(IllConditionedError) as err:
        fit(train, uset, uset, fmap, 0.0)
    assert err.value.condition_estimate == np.inf


def test_fit_cv_dual_search_scores_ridgeless_inf_without_a_gram(monkeypatch):
    train, uset, _, _, _ = _dual_task(24, n_train=40)
    monkeypatch.setattr(regress, "_summaries", _no_gram)
    result = fit_cv(train, uset, uset, 80, 3, bandwidth_grid=(1.0, 2.0),
                    lambda_grid=(0.0, 1e-3))
    scores = [g["mse"] for g in result.grid]
    assert scores[0] == scores[2] == np.inf
    assert np.isfinite(scores[1]) and np.isfinite(scores[3])
    assert result.ridge_lambda == 1e-3


def test_fit_cv_dual_search_matches_primal_reference(monkeypatch):
    train, uset, _, inputs, outputs = _dual_task(25, n_train=40)
    feature_count, seed = 80, 7
    sigmas, lams = (0.5, 1.0, 2.0, 4.0), (1e-6, 1e-4, 1e-2, 1.0)
    system_shapes = []

    def recording_solve(summary, ridge_lambda):
        system_shapes.append(summary.gram.shape)
        return solve(summary, ridge_lambda)

    monkeypatch.setattr(regress, "solve", recording_solve)
    result = fit_cv(train, uset, uset, feature_count, seed,
                    bandwidth_grid=sigmas, lambda_grid=lams)
    val_idx, fit_idx = holdout_split(len(train), seed)
    n_fit = len(fit_idx)
    assert n_fit < feature_count
    # every search solve and the refit on all pairs are dual
    assert system_shapes == [(n_fit, n_fit)] * len(result.grid) + [(40, 40)]
    reference = []
    for bw in sigmas:
        fmap = sample_feature_map(len(uset), feature_count, bw, seed)
        z_fit = compute_features_batch(fmap, inputs[fit_idx])
        z_val = compute_features_batch(fmap, inputs[val_idx])
        summary = TrainingSummary(
            z_fit.T @ z_fit, z_fit.T @ outputs[fit_idx], len(fit_idx)
        )
        for lam in lams:
            resid = z_val @ solve(summary, lam) - outputs[val_idx]
            reference.append((float((resid * resid).sum() / len(val_idx)), bw, lam))
    assert [(g["bandwidth"], g["ridge_lambda"]) for g in result.grid] == [
        (bw, lam) for _, bw, lam in reference
    ]
    for entry, (mse, _, _) in zip(result.grid, reference):
        assert entry["mse"] == pytest.approx(mse, rel=1e-6)
    _, best_bw, best_lam = min(reference, key=lambda r: r[0])
    assert (result.bandwidth, result.ridge_lambda) == (best_bw, best_lam)
    refit = fit(train, uset, uset,
                sample_feature_map(len(uset), feature_count, best_bw, seed), best_lam)
    assert np.array_equal(result.model.psi, refit.psi)


def test_fit_cv_dual_search_builds_one_kernel_per_bandwidth(monkeypatch):
    train, uset, _, _, _ = _dual_task(26, n_train=40)
    sigmas, lams, seed = (0.5, 1.0, 2.0, 4.0), (1e-6, 1e-4, 1e-2, 1.0), 7
    systems = []

    def recording_solve(summary, ridge_lambda):
        systems.append(summary)
        return solve(summary, ridge_lambda)

    monkeypatch.setattr(regress, "solve", recording_solve)
    fit_cv(train, uset, uset, 80, seed, bandwidth_grid=sigmas, lambda_grid=lams)
    n_fit = len(holdout_split(len(train), seed)[1])
    search, refit = systems[:-1], systems[-1]
    assert len(search) == len(sigmas) * len(lams)
    # every penalty of a bandwidth is solved in that bandwidth's one kernel
    for k in range(len(sigmas)):
        kernel = search[k * len(lams)]
        assert kernel.gram.shape == (n_fit, n_fit)
        assert all(s is kernel for s in search[k * len(lams):(k + 1) * len(lams)])
    # |sigma| search systems, and one more for the refit on all pairs
    assert len({id(s) for s in systems}) == len(sigmas) + 1
    assert refit.gram.shape == (len(train), len(train))


def test_fit_cv_dual_search_holds_one_kernel_at_a_time():
    # 380 fitting rows against D = 400 features, so each bandwidth's N x N
    # kernel is nearly as large as its (N, D) features. Bandwidths in no
    # halving chain are featurized directly, so no sine and cosine tables
    # set the peak: every bandwidth's features, one kernel and its shifted
    # copy stay below the bound, and every bandwidth's kernel at once not
    import tracemalloc

    train, _, uset, _ = _tiny_task(29, n_train=475)
    sigmas, seed, feature_count = (1.0, 1.5, 2.5, 3.5, 4.5), 8, 400
    n_fit = len(holdout_split(len(train), seed)[1])
    assert n_fit == 380
    fit_cv(train, uset, uset, feature_count, seed, bandwidth_grid=sigmas)
    tracemalloc.start()
    try:
        fit_cv(train, uset, uset, feature_count, seed, bandwidth_grid=sigmas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    features_bytes, kernel_bytes = 8 * n_fit * feature_count, 8 * n_fit * n_fit
    assert peak < len(sigmas) * features_bytes + 4 * kernel_bytes


def test_predict_matches_manual_recomposition():
    from tribasis import compute_features

    train, test, uset, fmap = _tiny_task(18)
    model = fit(train, uset, uset, fmap, 1e-6)
    obs = test[0][0]
    manual = compute_features(fmap, project(obs, uset).coefficients) @ model.psi
    assert np.array_equal(predict_coeffs(model, obs).coefficients, manual)
    x = 0.4
    assert predict_function(model, obs, x) == reconstruct(
        predict_coeffs(model, obs), x
    )


def test_predict_dimension_mismatch():
    train, _, uset, fmap = _tiny_task(19)
    model = fit(train, uset, uset, fmap, 1e-6)
    bad = FunctionObservation("noisy-evaluations", [[0.1, 0.2]], [1.0])
    with pytest.raises(ValueError):
        predict_coeffs(model, bad)


def test_identity_task_beats_projection_floor():
    # q = p: predictions from noisy input observations should carry less
    # coefficient error than projecting equally noisy output observations
    # directly, because regression on many instances shrinks the noise
    train, test, truths = identity_task(42, 2000, 200, 200)
    uset = enumerate_ball(1, 6.0)
    res = fit_cv(train, uset, uset, feature_count=600, seed=9)
    m = len(uset)
    floor = 0.0
    pred_err = 0.0
    for (pin, pout), p in zip(test, truths):
        a_true = p.coefficients[:m]  # shared lexicographic prefix
        floor += ((project(pout, uset).coefficients - a_true) ** 2).sum()
        pred_err += (
            (predict_coeffs(res.model, pin).coefficients - a_true) ** 2
        ).sum()
    assert pred_err < floor


def test_average_truncation_radius():
    train, _, _, _ = _tiny_task(20, n_train=10, n_points=120)
    t = average_truncation_radius(
        [p for p, _ in train], (0.0, 1.0, 2.0, 3.0, 4.0), folds=4
    )
    assert 0.0 <= t <= 4.0
    with pytest.raises(ValueError):
        average_truncation_radius([], (0.0, 1.0), 2)


def test_average_truncation_radius_enumerates_the_ball_once(monkeypatch):
    train, _, _, _ = _tiny_task(29, n_train=12, n_points=120)
    inputs = [p for p, _ in train]
    radii = (0.0, 1.0, 2.0, 3.0, 4.0)
    picks = [select_truncation_reference(p, radii, 4) for p in inputs]
    calls = []
    enumerate_ball_ = basis.enumerate_ball
    monkeypatch.setattr(basis, "enumerate_ball",
                        lambda *args: calls.append(args) or enumerate_ball_(*args))
    basis._radius_ball.cache_clear()
    assert average_truncation_radius(inputs, radii, folds=4) == np.mean(picks)
    assert calls == [(1, 4.0)]


def _search_reference(train, uset, feature_count, seed, sigmas, lams):
    """(mse, bandwidth, penalty) per grid point in the caller's order, each
    bandwidth featurized directly and solved on its whole fitting split."""
    inputs = project_all([p for p, _ in train], uset)
    outputs = project_all([q for _, q in train], uset)
    val_idx, fit_idx = holdout_split(len(train), seed)
    reference = []
    for bw in sigmas:
        fmap = sample_feature_map(len(uset), feature_count, bw, seed)
        z_fit = compute_features_batch(fmap, inputs[fit_idx])
        z_val = compute_features_batch(fmap, inputs[val_idx])
        summary = TrainingSummary(
            z_fit.T @ z_fit, z_fit.T @ outputs[fit_idx], len(fit_idx)
        )
        for lam in lams:
            resid = z_val @ solve(summary, lam) - outputs[val_idx]
            reference.append((float((resid * resid).sum() / len(val_idx)), bw, lam))
    return reference


@pytest.mark.parametrize("sigmas", [regress.SIGMA_GRID, (1.0, 4.0, 0.5, 2.0, 3.0)])
def test_fit_cv_streamed_search_matches_per_bandwidth_reference(sigmas):
    # more fitting rows than features, over several row blocks
    train, _, uset, _ = _tiny_task(26, n_train=700)
    feature_count, seed, lams = 60, 4, (1e-6, 1e-3, 1e-1)
    assert len(holdout_split(len(train), seed)[1]) > 2 * regress._CV_ROWS
    result = fit_cv(train, uset, uset, feature_count, seed,
                    bandwidth_grid=sigmas, lambda_grid=lams)
    reference = _search_reference(train, uset, feature_count, seed, sigmas, lams)
    assert [(g["bandwidth"], g["ridge_lambda"]) for g in result.grid] == [
        (bw, lam) for _, bw, lam in reference
    ]
    for entry, (mse, _, _) in zip(result.grid, reference):
        assert entry["mse"] == pytest.approx(mse, rel=1e-8)
    best_mse, best_bw, best_lam = min(reference, key=lambda r: r[0])
    assert (result.bandwidth, result.ridge_lambda) == (best_bw, best_lam)
    assert result.validation_mse == pytest.approx(best_mse, rel=1e-8)
    # the refit reuses the search's fitting summary; fit() starts afresh
    refit = fit(train, uset, uset,
                sample_feature_map(len(uset), feature_count, best_bw, seed), best_lam)
    assert np.linalg.norm(result.model.psi - refit.psi) <= 1e-10 * np.linalg.norm(refit.psi)
    assert result.model.training_count == len(train)
    assert result.model.feature_map.bandwidth == best_bw


@pytest.mark.parametrize("n_train", [300, 40], ids=["primal", "dual"])
def test_fit_cv_repeated_bandwidth(monkeypatch, n_train):
    train, _, uset, _ = _tiny_task(28, n_train=n_train)
    grid, lams = (1.0, 0.5, 1.0, 2.0), (1e-4, 1e-2, 1.0)
    ladders = []

    def recording_ladder(fmaps, xs):
        ladders.append([f.bandwidth for f in fmaps])
        return features.feature_ladder(fmaps, xs)

    monkeypatch.setattr(regress, "feature_ladder", recording_ladder)
    result = fit_cv(train, uset, uset, 60, 6, bandwidth_grid=grid, lambda_grid=lams)
    # searched once, logged in the caller's order; the one-map ladder calls
    # are accumulate's
    search = [bws for bws in ladders if len(bws) > 1]
    assert search and all(bws == [1.0, 0.5, 2.0] for bws in search)
    assert [g["bandwidth"] for g in result.grid] == [bw for bw in grid for _ in lams]
    scores = [g["mse"] for g in result.grid]
    assert scores[:3] == scores[6:9]
    first = scores.index(min(scores))  # ties keep the first grid point
    assert (result.bandwidth, result.ridge_lambda) == (grid[first // 3], lams[first % 3])
    assert result.validation_mse == scores[first]


class _TrigCounter:
    """NumPy as the features module sees it, counting the elements its
    cosines and sines evaluate."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, *args, **kwargs):
        self.elements += np.size(x)
        return np.cos(x, *args, **kwargs)

    def sin(self, x, *args, **kwargs):
        self.elements += np.size(x)
        return np.sin(x, *args, **kwargs)


def test_default_grid_search_takes_few_sines_and_cosines(monkeypatch):
    # one sine and one cosine per search element serve all five halvings,
    # and the refit adds one cosine per held-out element; a search that
    # featurizes each bandwidth and refits afresh takes six per element
    train, _, uset, _ = _tiny_task(27, n_train=400)
    feature_count = 60
    counter = _TrigCounter()
    monkeypatch.setattr(features, "np", counter)
    fit_cv(train, uset, uset, feature_count, seed=5)
    assert 2 * len(train) * feature_count <= counter.elements
    assert counter.elements <= 3 * len(train) * feature_count


def test_split_and_feature_maps_draw_independent_streams():
    n, seed = 120, 11
    val_idx, fit_idx = holdout_split(n, seed)
    assert (len(val_idx), len(fit_idx)) == (24, 96)
    order = np.concatenate([val_idx, fit_idx])
    assert np.array_equal(np.sort(order), np.arange(n))
    # the feature maps draw from default_rng(seed); the split must not
    assert not np.array_equal(order, np.random.default_rng(seed).permutation(n))
    # a searched fit keeps the map that a fixed-sigma fit draws from the seed
    train, _, uset, _ = _tiny_task(31, n_train=n)
    result = fit_cv(train, uset, uset, 40, seed, bandwidth_grid=(1.0,),
                    lambda_grid=(1e-3,))
    fmap = sample_feature_map(len(uset), 40, 1.0, seed)
    assert np.array_equal(result.model.feature_map.frequencies, fmap.frequencies)
    assert np.array_equal(result.model.feature_map.phases, fmap.phases)


def test_fit_cv_deterministic_and_refits_on_all_data():
    train, _, uset, _ = _tiny_task(21)
    r1 = fit_cv(train, uset, uset, feature_count=40, seed=3)
    r2 = fit_cv(train, uset, uset, feature_count=40, seed=3)
    assert np.array_equal(r1.model.psi, r2.model.psi)
    assert r1.bandwidth == r2.bandwidth and r1.ridge_lambda == r2.ridge_lambda
    assert r1.model.training_count == len(train)


def test_borderline_conditioning_solves_by_cholesky():
    # gram with condition ~1e9 sits below the hard 1e12 refusal: the
    # ridgeless Cholesky solve must still return a usable solution
    rng = np.random.default_rng(30)
    d = 8
    eigenvalues = np.logspace(0, -9, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    gram = (q * eigenvalues) @ q.T
    gram = (gram + gram.T) / 2.0
    cross = rng.standard_normal((d, 2))
    summary = TrainingSummary(gram, cross, d)
    psi = solve(summary, 0.0)
    residual = gram @ psi - cross
    assert np.linalg.norm(residual) < 1e-5 * np.linalg.norm(cross)


@pytest.mark.parametrize(
    "n_train, bandwidths", [(40, regress.SIGMA_GRID), (200, (4.0,))],
    ids=["dual", "primal"],
)
def test_fit_cv_scores_an_ill_conditioned_penalty_inf(n_train, bandwidths):
    # lambda = 0 on a rank-deficient Gram: the dual case has fewer fitting
    # rows than features, the primal case features too smooth to span D = 80
    train, _, uset, _ = _tiny_task(31, n_train=n_train)
    result = fit_cv(train, uset, uset, 80, 3, bandwidth_grid=bandwidths,
                    lambda_grid=(0.0, 1e-3))
    assert result.ridge_lambda == 1e-3
    assert np.isfinite(result.validation_mse)
    assert [g["mse"] for g in result.grid if g["ridge_lambda"] == 0.0] == (
        [np.inf] * len(bandwidths))
    with pytest.raises(IllConditionedError):
        fit_cv(train, uset, uset, 80, 3, bandwidth_grid=bandwidths, lambda_grid=(0.0,))


def _three_input_task(n_pairs=200, n_points=20):
    """``n_pairs`` pairs whose inputs repeat three distinct functions, so the
    Gram of any feature map has rank three; index sets; a D = 40 map."""
    points = (np.arange(n_points) + 0.5) / n_points
    shapes = [np.cos(np.pi * k * points) for k in range(3)]
    rng = np.random.default_rng(41)
    pairs = [(FunctionObservation("noisy-evaluations", points, shapes[i % 3]),
              FunctionObservation("noisy-evaluations", points,
                                  rng.standard_normal(n_points)))
             for i in range(n_pairs)]
    uset = enumerate_ball(1, 2.0)
    return pairs, uset, sample_feature_map(len(uset), 40, 1.0, seed=3)


def test_fit_with_a_penalty_below_round_off_raises_ill_conditioned():
    # 1e-300 shifts a rank-3 Gram exactly as 0 does, so its failed
    # factorization gives the same verdict as lambda = 0
    pairs, uset, fmap = _three_input_task()
    with pytest.raises(IllConditionedError, match="ridge penalty") as err:
        fit(pairs, uset, uset, fmap, ridge_lambda=1e-300)
    assert err.value.condition_estimate == np.inf


def test_fit_cv_scores_a_penalty_below_round_off_inf():
    pairs, uset, fmap = _three_input_task()
    result = fit_cv(pairs, uset, uset, fmap.feature_count, 3,
                    bandwidth_grid=(1.0,), lambda_grid=(1e-300, 1e-3))
    assert result.grid[0]["mse"] == np.inf
    assert np.isfinite(result.grid[1]["mse"])
    assert result.ridge_lambda == 1e-3


@pytest.mark.parametrize("empty", ["bandwidth_grid", "lambda_grid"])
def test_fit_cv_rejects_an_empty_grid_before_any_work(monkeypatch, empty):
    def projected(*args):
        raise AssertionError("fit_cv projected before checking its grids")

    train, _, uset, _ = _tiny_task(31, n_train=40)
    monkeypatch.setattr(regress, "project_all", projected)
    with pytest.raises(ValueError, match=f"^{empty} must be non-empty$"):
        fit_cv(train, uset, uset, 20, 3, **{empty: ()})
