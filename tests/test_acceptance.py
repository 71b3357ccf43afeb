"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are stated inline next to each assertion.
"""

import time

import numpy as np

from helpers import cosine_basis_reference, quadrature_mse
from tribasis import (
    BasisIndexSet,
    CoefficientVector,
    FunctionObservation,
    SobolevSpec,
    SyntheticConfig,
    TrainingSummary,
    coeff_l2_distance,
    enumerate_ball,
    fit,
    fit_cv,
    generate_dataset,
    load_model,
    lse_fit,
    lse_predict,
    make_mapping,
    predict_coeffs,
    project,
    rbf_kernel,
    reconstruct,
    sample_feature_map,
    compute_features,
    solve,
)
from tribasis.cli import (
    BenchmarkConfig,
    default_feature_count,
    run_benchmark,
    write_dataset,
)
from tribasis.regress import average_truncation_radius

SPEC_1D = SobolevSpec(np.ones(1), np.ones(1), 2.0)


def _report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# --------------------------------------------------------------------------


def test_criterion_1_basis_correctness():
    t0 = time.time()
    worst = 0.0
    for dim in (1, 2):
        grid_1d = np.linspace(0.0, 1.0, 10_000 if dim == 1 else 100)
        iset = enumerate_ball(dim, 5.0)
        if dim == 1:
            pts = grid_1d.reshape(-1, 1)
            values = np.stack(
                [cosine_basis_reference(a, pts) for a in iset.indices]
            )
            for i in range(len(iset)):
                for j in range(i, len(iset)):
                    ip = np.trapezoid(values[i] * values[j], grid_1d)
                    expected = 1.0 if i == j else 0.0
                    worst = max(worst, abs(ip - expected))
        else:
            xs, ys = np.meshgrid(grid_1d, grid_1d, indexing="ij")
            pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
            values = [
                cosine_basis_reference(a, pts).reshape(xs.shape)
                for a in iset.indices
            ]
            for i in range(len(iset)):
                for j in range(i, len(iset)):
                    inner = np.trapezoid(
                        np.trapezoid(values[i] * values[j], grid_1d, axis=1),
                        grid_1d,
                    )
                    expected = 1.0 if i == j else 0.0
                    worst = max(worst, abs(inner - expected))

    # Parseval: coefficient distance = quadrature L2 distance of reconstructions
    rng = np.random.default_rng(100)
    iset = enumerate_ball(1, 3.0)
    grid = np.linspace(0.0, 1.0, 10_001)
    parseval_gap = 0.0
    for _ in range(5):
        a = CoefficientVector(iset, rng.standard_normal(len(iset)))
        b = CoefficientVector(iset, rng.standard_normal(len(iset)))
        fa = reconstruct(a, grid.reshape(-1, 1))
        fb = reconstruct(b, grid.reshape(-1, 1))
        quad = np.sqrt(np.trapezoid((fa - fb) ** 2, grid))
        parseval_gap = max(parseval_gap, abs(coeff_l2_distance(a, b) - quad))

    elapsed = time.time() - t0
    ok = worst < 1e-6 and parseval_gap < 1e-6 and elapsed < 10.0
    _report(
        1, "basis correctness", ok,
        f"orthonormality dev {worst:.2e} (<1e-6), Parseval gap "
        f"{parseval_gap:.2e} (<1e-6), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_projection_rate():
    t0 = time.time()
    j = np.arange(201)
    truth = CoefficientVector(
        BasisIndexSet(1, j.reshape(-1, 1)), 1.0 / (1.0 + j.astype(float) ** 2)
    )
    true_a = truth.coefficients
    ns = (100, 1000, 10_000, 100_000)
    errors = {n: [] for n in ns}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for n in ns:
            pts = rng.uniform(size=n)
            y = reconstruct(truth, pts) + 0.1 * rng.standard_normal(n)
            obs = FunctionObservation("noisy-evaluations", pts, y)
            est_set = enumerate_ball(1, n ** (1.0 / 3.0))  # appendix rule, gamma=1
            est = project(obs, est_set).coefficients
            m = est.shape[0]
            sq_err = ((est - true_a[:m]) ** 2).sum() + (true_a[m:] ** 2).sum()
            errors[n].append(sq_err)
    medians = np.array([np.median(errors[n]) for n in ns])
    slope = np.polyfit(np.log10(ns), np.log10(medians), 1)[0]
    elapsed = time.time() - t0
    ok = -0.9 <= slope <= -0.45 and elapsed < 120.0
    _report(
        2, "projection rate", ok,
        f"log-log slope {slope:.3f} (in [-0.9, -0.45], theory -2/3), "
        f"{elapsed:.1f}s (<120s)",
    )


def test_criterion_3_kernel_approximation():
    t0 = time.time()
    sigma = 1.0

    def max_deviation(feature_count, seed):
        fmap = sample_feature_map(3, feature_count, sigma, seed)
        rng = np.random.default_rng(10_000 + seed)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, 3)
            step = rng.standard_normal(3)
            step /= np.linalg.norm(step)
            y = x + step * rng.uniform(0.0, 3.0)
            approx = compute_features(fmap, x) @ compute_features(fmap, y)
            exact = rbf_kernel(np.linalg.norm(x - y), sigma)
            worst = max(worst, abs(approx - exact))
        return worst

    at_5000 = max_deviation(5000, seed=123)
    medians = [
        float(np.median([max_deviation(D, seed) for seed in range(10)]))
        for D in (500, 5000, 50_000)
    ]
    elapsed = time.time() - t0
    decreasing = medians[0] > medians[1] > medians[2]
    ok = at_5000 < 0.05 and decreasing and elapsed < 60.0
    _report(
        3, "kernel approximation", ok,
        f"max dev {at_5000:.4f} at D=5000 (<0.05), medians "
        f"{[round(m, 4) for m in medians]} strictly decreasing={decreasing}, "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_4_solver_oracle():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    worst_ridge_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(60, 200))
        d = int(rng.integers(5, 50))
        r = int(rng.integers(1, 4))
        z = rng.standard_normal((n, d))
        a = rng.standard_normal((n, r))
        summary = TrainingSummary(z.T @ z, z.T @ a, n)
        psi = solve(summary, 0.0)
        oracle = np.stack(
            [np.linalg.lstsq(z, a[:, col], rcond=None)[0] for col in range(r)],
            axis=1,
        )
        worst_rel = max(
            worst_rel, np.linalg.norm(psi - oracle) / np.linalg.norm(oracle)
        )
        ridged = solve(summary, 1e-6)
        worst_ridge_gap = max(
            worst_ridge_gap, np.linalg.norm(ridged - psi) / np.linalg.norm(psi)
        )
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-8 and worst_ridge_gap <= 1e-4 and elapsed < 30.0
    _report(
        4, "solver oracle equivalence", ok,
        f"worst OLS rel err {worst_rel:.2e} (<=1e-8), worst ridge(1e-6) gap "
        f"{worst_ridge_gap:.2e} (<=1e-4), {elapsed:.1f}s (<30s)",
    )


def test_criterion_5_end_to_end_learning():
    t0 = time.time()
    train_sizes = (200, 1000, 5000)
    n_test = 250
    mses = {N: [] for N in train_sizes}
    mean_mses = []
    for seed in range(10):
        seedseq = np.random.SeedSequence((99, seed))
        map_seed, data_seed, cv_seed = (
            s.generate_state(1)[0] for s in seedseq.spawn(3)
        )
        mapping = make_mapping(
            SPEC_1D, SPEC_1D, n_anchors=25, sigma=1.0, seed=int(map_seed)
        )
        config = SyntheticConfig(
            SPEC_1D, SPEC_1D, 0.1, 100, max(train_sizes) + n_test,
            seed=int(data_seed),
        )
        pairs, _, truths_out = generate_dataset(config, mapping, return_truth=True)
        train_all = pairs[: max(train_sizes)]
        test = pairs[max(train_sizes):]
        truth = np.vstack([t.coefficients for t in truths_out[max(train_sizes):]])
        tset = mapping.output_index_set

        radii = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
        t_in = average_truncation_radius([p for p, _ in train_all], radii, 5)
        t_out = average_truncation_radius([q for _, q in train_all], radii, 5)
        uset = enumerate_ball(1, t_in)
        vset = enumerate_ball(1, t_out)
        feature_count = default_feature_count(100)
        for N in train_sizes:
            res = fit_cv(train_all[:N], uset, vset, feature_count, int(cv_seed))
            preds = np.vstack(
                [predict_coeffs(res.model, p).coefficients for p, _ in test]
            )
            mses[N].append(quadrature_mse(preds, vset, truth, tset))
        mean_pred = np.vstack(
            [project(q, vset).coefficients for _, q in train_all]
        ).mean(axis=0)
        mean_mses.append(
            quadrature_mse(np.tile(mean_pred, (len(test), 1)), vset, truth, tset)
        )

    med = [float(np.median(mses[N])) for N in train_sizes]
    med_mean = float(np.median(mean_mses))
    elapsed = time.time() - t0
    decreasing = med[0] > med[1] > med[2]
    ratio = med[2] / med_mean
    ok = decreasing and ratio <= 0.25 and elapsed < 600.0
    _report(
        5, "end-to-end learning", ok,
        f"median MSE {[round(m, 5) for m in med]} over N={list(train_sizes)} "
        f"strictly decreasing={decreasing}; MSE(N=5000)/mean-predictor "
        f"{ratio:.3f} (<=0.25), {elapsed:.0f}s (<600s)",
    )


def test_criterion_6_scaling_claim():
    t0 = time.time()
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=25, sigma=1.0, seed=11)
    config = SyntheticConfig(SPEC_1D, SPEC_1D, 0.1, 100, 11_100, seed=12)
    pairs = generate_dataset(config, mapping)
    test = pairs[11_000:]
    uset = enumerate_ball(1, 19.0)  # s = r = 20
    feature_count = 1000

    predictors = {}
    for n_train in (1000, 10_000):
        fmap = sample_feature_map(len(uset), feature_count, 1.0, 21)
        model = fit(pairs[:n_train], uset, uset, fmap, 1e-4)
        smoother = lse_fit(pairs[:n_train], uset, uset, bandwidth=1.0)
        predictors[("triple-basis", n_train)] = (model, predict_coeffs)
        predictors[("linear-smoother", n_train)] = (smoother, lse_predict)

    # the four predictors take turns over the same inputs, 10 calls each,
    # so a slow host window falls on all of them alike, while each block
    # still runs on its own model's data in cache
    times = {key: [] for key in predictors}
    for model, predict in predictors.values():
        predict(model, test[0][0])  # warm-up
    for start in range(0, len(test), 10):
        for key, (model, predict) in predictors.items():
            for pin, _ in test[start:start + 10]:
                tic = time.perf_counter()
                predict(model, pin)
                times[key].append(time.perf_counter() - tic)
    mpt = {key: float(np.median(t)) for key, t in times.items()}

    tb_ratio = mpt[("triple-basis", 10_000)] / mpt[("triple-basis", 1000)]
    lse_ratio = mpt[("linear-smoother", 10_000)] / mpt[("linear-smoother", 1000)]
    speedup = mpt[("linear-smoother", 10_000)] / mpt[("triple-basis", 10_000)]
    elapsed = time.time() - t0
    ok = tb_ratio <= 1.5 and lse_ratio >= 5.0 and speedup >= 10.0 and elapsed < 300.0
    _report(
        6, "scaling claim", ok,
        f"triple-basis MPT ratio 10k/1k {tb_ratio:.2f} (<=1.5), smoother "
        f"ratio {lse_ratio:.2f} (>=5), smoother/triple-basis at 10k "
        f"{speedup:.1f}x (>=10), {elapsed:.0f}s (<300s)",
    )


def test_criterion_7_smoother_contract():
    t0 = time.time()
    rng = np.random.default_rng(31)
    uset = enumerate_ball(1, 3.0)

    # probability-vector weights
    from tribasis.baseline import LinearSmootherModel, lse_weights

    tin = rng.standard_normal((300, len(uset)))
    tout = rng.standard_normal((300, len(uset)))
    model = LinearSmootherModel(
        input_index_set=uset, output_index_set=uset,
        train_inputs=tin, train_outputs=tout, bandwidth=3.0,
    )
    weight_dev = 0.0
    any_negative = False
    for _ in range(50):
        w = lse_weights(model, rng.standard_normal(len(uset)))
        if np.all(w == 0.0):
            continue
        weight_dev = max(weight_dev, abs(w.sum() - 1.0))
        any_negative = any_negative or bool(np.any(w < 0.0))

    # zero return outside every kernel support
    far = lse_weights(model, np.full(len(uset), 1e6))
    zero_branch = bool(np.all(far == 0.0))

    # exact recovery when the query coincides with an isolated training input
    children = np.random.SeedSequence(32).spawn(5)
    observations = []
    for child in children:
        crng = np.random.default_rng(child)
        from tribasis import sample_input_function

        p = sample_input_function(SPEC_1D, crng)
        pts = crng.uniform(size=(80, 1))
        observations.append(
            FunctionObservation("noisy-evaluations", pts, reconstruct(p, pts))
        )
    pairs = [(o, o) for o in observations]
    isolated = lse_fit(pairs, uset, uset, bandwidth=1e-9)
    recovered = lse_predict(isolated, observations[2]).coefficients
    exact = bool(np.array_equal(recovered, isolated.train_outputs[2]))

    elapsed = time.time() - t0
    ok = (
        weight_dev < 1e-12 and not any_negative and zero_branch and exact
        and elapsed < 5.0
    )
    _report(
        7, "smoother contract", ok,
        f"weight-sum dev {weight_dev:.1e} (<1e-12), nonneg={not any_negative}, "
        f"zero-branch={zero_branch}, exact-recovery={exact}, "
        f"{elapsed:.1f}s (<5s)",
    )


def test_criterion_8_determinism_and_serialization(tmp_path):
    t0 = time.time()
    mapping = make_mapping(SPEC_1D, SPEC_1D, n_anchors=10, sigma=1.0, seed=41)
    config = SyntheticConfig(SPEC_1D, SPEC_1D, 0.1, 60, 80, seed=42)
    pairs = generate_dataset(config, mapping)
    uset = enumerate_ball(1, 3.0)
    fmap = sample_feature_map(len(uset), 120, 1.0, 43)

    m1 = fit(pairs, uset, uset, fmap, 1e-6)
    m2 = fit(pairs, uset, uset, fmap, 1e-6)
    refit_identical = bool(np.array_equal(m1.psi, m2.psi))

    path = tmp_path / "model.json"
    from tribasis import save_model

    save_model(m1, path)
    loaded = load_model(path)
    roundtrip_identical = all(
        np.array_equal(
            predict_coeffs(m1, pin).coefficients,
            predict_coeffs(loaded, pin).coefficients,
        )
        for pin, _ in pairs[:20]
    )

    bench_config = BenchmarkConfig(
        methods=("triple-basis", "linear-smoother", "mean"), seed=44,
        train_count=50, test_count=20, points_per_function=40,
        feature_count=60,
    )
    r1 = run_benchmark(bench_config)
    r2 = run_benchmark(bench_config)
    reports_match = all(
        a["mse"] == b["mse"] and a["hyperparameters"] == b["hyperparameters"]
        for a, b in zip(r1["records"], r2["records"])
    )

    elapsed = time.time() - t0
    ok = refit_identical and roundtrip_identical and reports_match and elapsed < 60.0
    _report(
        8, "determinism and serialization", ok,
        f"refit bitwise={refit_identical}, round-trip bitwise="
        f"{roundtrip_identical}, report MSE reproducible={reports_match}, "
        f"{elapsed:.0f}s (<60s)",
    )


def test_criterion_9_forward_prediction(tmp_path):
    t0 = time.time()
    from tribasis.cli import SeriesWindowing, window_series

    steps = np.arange(4096)
    series = np.sin(2.0 * np.pi * steps / 100.0) + 0.4 * np.sin(
        2.0 * np.pi * 3.0 * steps / 100.0 + 0.5
    )
    pairs, transform = window_series(series, SeriesWindowing(window_length=64))
    data_path = tmp_path / "windows.jsonl"
    write_dataset(pairs, data_path)
    config = BenchmarkConfig(
        methods=("triple-basis", "mean"), seed=51, data_path=str(data_path),
        ordered_split=True, test_fraction=0.2, feature_count=256,
    )
    report = run_benchmark(config)
    by_method = {rec["method"]: rec for rec in report["records"]}
    mse = by_method["triple-basis"]["mse"]
    mean_mse = by_method["mean"]["mse"]
    series_variance = float(np.var(transform.apply(series)))
    elapsed = time.time() - t0
    ok = mse < series_variance and mse < mean_mse and elapsed < 60.0
    _report(
        9, "forward prediction", ok,
        f"MSE {mse:.3g} < series variance {series_variance:.3g} and < "
        f"mean-predictor MSE {mean_mse:.3g}, {elapsed:.0f}s (<60s)",
    )
