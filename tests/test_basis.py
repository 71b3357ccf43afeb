"""Basis: evaluation, enumeration, projection, reconstruction, truncation
selection, and coefficient distances."""

import numpy as np
import pytest

from helpers import cosine_basis_reference, count_designs, select_truncation_reference
from tribasis import (
    BasisIndexSet,
    CoefficientVector,
    FunctionObservation,
    SobolevSpec,
    coeff_l2_distance,
    enumerate_ball,
    enumerate_kappa_ball,
    project,
    reconstruct,
    select_truncation,
)
from tribasis.basis import design_matrix

SQRT2 = np.sqrt(2.0)


# --------------------------------------------------------------------------
# evaluation: one basis function at one point is ``design_matrix`` on a
# one-index set


def basis_value(alpha, x) -> float:
    design = design_matrix(BasisIndexSet(len(alpha), [alpha]), [x])
    assert design.shape == (1, 1)
    return float(design[0, 0])


def test_eval_basis_constant_index():
    assert basis_value((0,), (0.37,)) == pytest.approx(1.0)


def test_eval_basis_first_mode_at_zero():
    assert basis_value((1,), (0.0,)) == pytest.approx(SQRT2)


def test_eval_basis_tensor_product():
    assert basis_value((1, 2), (0.0, 0.5)) == pytest.approx(-2.0)


def test_eval_basis_dimension_mismatch():
    with pytest.raises(ValueError):
        basis_value((1, 2), (0.5,))


def test_eval_basis_out_of_range_point():
    with pytest.raises(ValueError):
        basis_value((1,), (1.5,))


def test_eval_matches_reference_formula():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = rng.integers(1, 4)
        alpha = rng.integers(0, 7, size=d)
        x = rng.uniform(size=d)
        expected = cosine_basis_reference(alpha, x.reshape(1, -1))[0]
        assert basis_value(alpha, x) == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# index-set enumeration


def test_enumerate_ball_1d():
    s = enumerate_ball(1, 2.5)
    assert s.indices.ravel().tolist() == [0, 1, 2]


def test_enumerate_ball_2d_unit_radius():
    s = enumerate_ball(2, 1)
    assert s.indices.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_enumerate_ball_zero_radius():
    s = enumerate_ball(1, 0)
    assert s.indices.tolist() == [[0]]


def test_enumerate_ball_negative_radius():
    with pytest.raises(ValueError):
        enumerate_ball(1, -1.0)


def test_enumerate_kappa_ball_identity_weights():
    spec = SobolevSpec([1.0], [1.0], 1.0)
    s = enumerate_kappa_ball(spec, 3)
    assert s.indices.ravel().tolist() == [0, 1, 2, 3]


def test_enumerate_kappa_ball_2d():
    spec = SobolevSpec([1.0, 1.0], [1.0, 1.0], 1.0)
    s = enumerate_kappa_ball(spec, 1)
    assert s.indices.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_enumerate_kappa_ball_scaled_nu():
    spec = SobolevSpec([2.0], [1.0], 1.0)
    s = enumerate_kappa_ball(spec, 3)
    assert s.indices.ravel().tolist() == [0, 1]


def test_kappa_ball_matches_euclidean_for_unit_spec():
    spec = SobolevSpec(np.ones(2), np.ones(2), 1.0)
    assert enumerate_kappa_ball(spec, 5.0) == enumerate_ball(2, 5.0)


def test_cardinality_growth():
    # counts scale like t^d: ratio between t=32 and t=16 within 30% of 2^d
    for d in (1, 2):
        spec = SobolevSpec(np.ones(d), np.ones(d), 1.0)
        big = len(enumerate_kappa_ball(spec, 32.0))
        small = len(enumerate_kappa_ball(spec, 16.0))
        ratio = big / small
        assert 2**d * 0.7 <= ratio <= 2**d * 1.3


@pytest.mark.parametrize("nu, gamma, amplitude, message", [
    ([], [], 1.0, "non-empty"),
    ([np.nan], [1.0], 1.0, "finite and strictly positive"),
    ([1.0], [np.inf], 1.0, "finite and strictly positive"),
    ([1.0], [1.0], np.nan, "finite and strictly positive"),
    ([1.0], [1.0], np.inf, "finite and strictly positive"),
])
def test_sobolev_spec_rejects_empty_and_non_finite(nu, gamma, amplitude, message):
    with pytest.raises(ValueError, match=message):
        SobolevSpec(nu, gamma, amplitude)


def test_index_set_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError):
        BasisIndexSet(1, [[1], [1]])
    with pytest.raises(ValueError):
        BasisIndexSet(2, [[0, -1]])


def test_index_set_orders_lexicographically():
    s = BasisIndexSet(2, [[2, 0], [0, 1], [0, 0]])
    assert s.indices.tolist() == [[0, 0], [0, 1], [2, 0]]


# --------------------------------------------------------------------------
# observations


def test_observation_rejects_out_of_range_point():
    with pytest.raises(ValueError, match="1.0000001"):
        FunctionObservation(
            "noisy-evaluations", [0.5, 1.0000001], [1.0, 2.0]
        )


def test_observation_rejects_empty():
    with pytest.raises(ValueError):
        FunctionObservation("noisy-evaluations", [], [])


def test_observation_value_length_mismatch():
    with pytest.raises(ValueError):
        FunctionObservation("noisy-evaluations", [0.1, 0.2], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observation_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match=rf"values must be finite \(found {bad}\)"):
        FunctionObservation("noisy-evaluations", [0.1, 0.2, 0.3], [1.0, bad, 2.0])


def test_density_sample_carries_no_values():
    with pytest.raises(ValueError):
        FunctionObservation("density-sample", [0.1], [1.0])


def test_unknown_kind():
    with pytest.raises(ValueError):
        FunctionObservation("histogram", [0.1], [1.0])


# --------------------------------------------------------------------------
# projection


def test_project_constant_function_exact():
    rng = np.random.default_rng(0)
    obs = FunctionObservation(
        "noisy-evaluations", rng.uniform(size=17), np.full(17, 2.0)
    )
    cv = project(obs, enumerate_ball(1, 0))
    assert cv.coefficients[0] == 2.0


def test_project_first_mode_monte_carlo():
    # noiseless observation of phi_1; empirical standard error at n = 1e5 is
    # sqrt(Var[phi_1^2]) / sqrt(n) = sqrt(0.5 / 1e5) ~ 0.0022, so 0.02 is a
    # ~9-sigma margin
    rng = np.random.default_rng(42)
    pts = rng.uniform(size=100_000)
    vals = SQRT2 * np.cos(np.pi * pts)
    obs = FunctionObservation("noisy-evaluations", pts, vals)
    iset = BasisIndexSet(1, [[1]])
    cv = project(obs, iset)
    assert abs(cv.coefficients[0] - 1.0) < 0.02


def test_project_density_sample_zero_index_exact():
    rng = np.random.default_rng(1)
    obs = FunctionObservation("density-sample", rng.uniform(size=100_000))
    cv = project(obs, enumerate_ball(1, 0))
    assert cv.coefficients[0] == 1.0


def test_project_dimension_mismatch():
    obs = FunctionObservation("noisy-evaluations", [[0.1, 0.2]], [1.0])
    with pytest.raises(ValueError):
        project(obs, enumerate_ball(1, 2))


def test_projection_unbiased():
    # mean of projections over 500 noiseless resamples stays within 3 Monte
    # Carlo standard errors of the quadrature-computed true coefficient
    def target(x):
        return np.exp(x) * np.sin(3.0 * x)

    grid = np.linspace(0.0, 1.0, 100_001)
    iset = enumerate_ball(1, 3.0)
    rng = np.random.default_rng(2024)
    n = 400
    estimates = np.empty((500, len(iset)))
    for row in range(500):
        pts = rng.uniform(size=n)
        obs = FunctionObservation("noisy-evaluations", pts, target(pts))
        estimates[row] = project(obs, iset).coefficients
    for col, alpha in enumerate(iset.indices):
        truth = np.trapezoid(
            target(grid) * cosine_basis_reference(alpha, grid.reshape(-1, 1)),
            grid,
        )
        se = estimates[:, col].std(ddof=1) / np.sqrt(500)
        assert abs(estimates[:, col].mean() - truth) < 3.0 * se + 1e-12


# --------------------------------------------------------------------------
# the shared projection design


@pytest.mark.parametrize("w", [8, 37, 256, 500])
def test_window_projection_is_a_dct(w, monkeypatch):
    # on the midpoint grid of ``tribasis window`` the projection is a
    # DCT-II: c_0 = y_0 / (2w), c_k = sqrt(2) * y_k / (2w); checked on the
    # call that builds the design and on a later window that reuses it
    from scipy.fft import dct

    from tribasis.cli import SeriesWindowing, window_series

    built = count_designs(monkeypatch)
    rng = np.random.default_rng(w)
    pairs, _ = window_series(rng.standard_normal(3 * w), SeriesWindowing(window_length=w))
    iset = enumerate_ball(1, min(w - 1, 40))
    for obs in (pairs[0][0], pairs[0][1], pairs[1][1]):
        y = dct(obs.values, type=2)[: len(iset)] / (2 * w)
        y[1:] *= SQRT2
        np.testing.assert_allclose(project(obs, iset).coefficients, y, rtol=1e-12,
                                   atol=1e-12 * np.abs(y).max())
        assert len(built) == 1  # every window shares the first one's design


def test_projection_after_points_mutated_in_place():
    from tribasis._accel import cosine_design

    rng = np.random.default_rng(40)
    iset = enumerate_ball(1, 6.0)
    grid = (np.arange(50) + 0.5) / 50
    obs = FunctionObservation("noisy-evaluations", grid.copy(), rng.standard_normal(50))
    project(obs, iset)
    obs.points[7, 0] = 0.9
    expected = obs.values @ cosine_design(obs.points, iset.indices) / obs.n
    assert np.array_equal(project(obs, iset).coefficients, expected)
    fresh = FunctionObservation("noisy-evaluations", obs.points.copy(), obs.values)
    assert np.array_equal(project(fresh, iset).coefficients, expected)


def test_one_grid_alternating_index_sets():
    from tribasis._accel import cosine_design

    rng = np.random.default_rng(41)
    grid = (np.arange(60) + 0.5) / 60
    sets = (enumerate_ball(1, 4.0), enumerate_ball(1, 9.0))
    for step in range(6):
        iset = sets[step % 2]
        obs = FunctionObservation("noisy-evaluations", grid, rng.standard_normal(60))
        expected = obs.values @ cosine_design(obs.points, iset.indices) / obs.n
        assert np.array_equal(project(obs, iset).coefficients, expected)


def test_shared_design_is_read_only():
    from tribasis import basis
    from tribasis._accel import cosine_design

    grid = ((np.arange(30) + 0.5) / 30).reshape(-1, 1)
    indices = enumerate_ball(1, 5.0).indices
    design = basis._shared_design(grid, indices)
    assert basis._shared_design(grid.copy(), indices.copy()) is design
    assert not design.flags.writeable
    with pytest.raises(ValueError):
        design[0, 0] = 2.0
    with pytest.raises(ValueError):
        design *= 2.0
    assert np.array_equal(design, cosine_design(grid, indices))


def test_random_grid_project_all_matches_fresh_designs():
    from tribasis._accel import cosine_design
    from tribasis.basis import project_all

    rng = np.random.default_rng(42)
    iset = enumerate_ball(2, 3.0)
    observations = [
        FunctionObservation("noisy-evaluations", rng.uniform(size=(40, 2)),
                            rng.standard_normal(40))
        for _ in range(12)
    ]
    expected = np.vstack([
        obs.values @ cosine_design(obs.points, iset.indices) / obs.n
        for obs in observations
    ])
    assert np.array_equal(project_all(observations, iset), expected)


def _mixed_observations(rng, dim):
    """Runs of observations that differ in size, kind and grid: random
    grids, one grid shared by a run, and singletons between runs."""
    grid = rng.uniform(size=(30, dim))
    observations = []
    for n, kind, count, shared in [
        (30, "noisy-evaluations", 7, False), (30, "noisy-evaluations", 6, True),
        (30, "density-sample", 5, False), (30, "density-sample", 4, True),
        (11, "noisy-evaluations", 1, False), (30, "noisy-evaluations", 9, False),
        (1, "noisy-evaluations", 3, False), (30, "noisy-evaluations", 5, True),
    ]:
        for _ in range(count):
            pts = grid.copy() if shared else rng.uniform(size=(n, dim))
            vals = rng.standard_normal(n) if kind == "noisy-evaluations" else None
            observations.append(FunctionObservation(kind, pts, vals))
    return observations


@pytest.mark.parametrize("dim,radius", [(1, 4.0), (1, 19.0), (2, 3.0), (3, 2.0)])
@pytest.mark.parametrize("budget", [None, 1, 200, 1000])
def test_project_all_rows_equal_project(dim, radius, budget, monkeypatch):
    # bit for bit, whether a block holds one observation, splits a run at
    # the element budget, or takes a whole run
    from tribasis import basis

    if budget is not None:
        monkeypatch.setattr(basis, "_BLOCK_ELEMENTS", budget)
    iset = enumerate_ball(dim, radius)
    observations = _mixed_observations(np.random.default_rng(dim), dim)
    rows = basis.project_all(observations, iset)
    assert rows.shape == (len(observations), len(iset))
    for row, obs in zip(rows, observations):
        assert np.array_equal(row, project(obs, iset).coefficients)


def test_project_all_dimension_mismatch_mid_list():
    from tribasis.basis import project_all

    rng = np.random.default_rng(43)
    observations = [FunctionObservation("noisy-evaluations", rng.uniform(size=(20, 1)),
                                        rng.standard_normal(20)) for _ in range(5)]
    observations.insert(3, FunctionObservation("noisy-evaluations", rng.uniform(size=(20, 2)),
                                               rng.standard_normal(20)))
    with pytest.raises(ValueError, match="observation dimension 2 does not match"):
        project_all(observations, enumerate_ball(1, 3.0))


def test_project_all_rejects_non_finite_coefficients():
    from tribasis.basis import project_all

    grid = np.linspace(0.0, 1.0, 4)
    ok = FunctionObservation("noisy-evaluations", grid, np.ones(4))
    huge = FunctionObservation("noisy-evaluations", grid, np.full(4, 1e308))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        project_all([ok, huge, ok], enumerate_ball(1, 2.0))


# --------------------------------------------------------------------------
# reconstruction


def test_reconstruct_constant():
    cv = CoefficientVector(enumerate_ball(1, 0), [3.5])
    for x in (0.0, 0.3, 1.0):
        assert reconstruct(cv, x) == pytest.approx(3.5)


def test_reconstruct_first_mode_at_origin():
    cv = CoefficientVector(BasisIndexSet(1, [[1]]), [1.0])
    assert reconstruct(cv, 0.0) == pytest.approx(SQRT2)


def test_reconstruct_zero_coefficients():
    cv = CoefficientVector(enumerate_ball(2, 2.0), np.zeros(len(enumerate_ball(2, 2.0))))
    pts = np.random.default_rng(5).uniform(size=(20, 2))
    assert np.all(reconstruct(cv, pts) == 0.0)


def test_reconstruct_dimension_mismatch():
    cv = CoefficientVector(enumerate_ball(2, 1.0), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        reconstruct(cv, (0.5,))


def test_project_reconstruct_recovers_smooth_function():
    # dense noiseless sampling of a band-limited function recovers it
    rng = np.random.default_rng(9)
    iset = enumerate_ball(1, 4.0)
    truth = CoefficientVector(iset, rng.standard_normal(len(iset)) / 3.0)
    pts = rng.uniform(size=50_000)
    obs = FunctionObservation("noisy-evaluations", pts, reconstruct(truth, pts))
    est = project(obs, iset)
    grid = rng.uniform(size=200)
    np.testing.assert_allclose(
        reconstruct(est, grid), reconstruct(truth, grid), atol=0.05
    )


# --------------------------------------------------------------------------
# orthonormality and Parseval


def _trapezoid_inner_product(alpha, rho, grid_1d, dim):
    if dim == 1:
        pts = grid_1d.reshape(-1, 1)
        f = cosine_basis_reference(alpha, pts) * cosine_basis_reference(rho, pts)
        return np.trapezoid(f, grid_1d)
    xs, ys = np.meshgrid(grid_1d, grid_1d, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    f = (
        cosine_basis_reference(alpha, pts) * cosine_basis_reference(rho, pts)
    ).reshape(xs.shape)
    return np.trapezoid(np.trapezoid(f, grid_1d, axis=1), grid_1d)


@pytest.mark.parametrize("dim", [1, 2])
def test_orthonormality_under_quadrature(dim):
    grid = np.linspace(0.0, 1.0, 10_000 if dim == 1 else 100)
    iset = enumerate_ball(dim, 5.0)
    for i, alpha in enumerate(iset.indices):
        for rho in iset.indices[i:]:
            ip = _trapezoid_inner_product(alpha, rho, grid, dim)
            expected = 1.0 if np.array_equal(alpha, rho) else 0.0
            assert abs(ip - expected) < 1e-6, (alpha, rho, ip)


def test_coeff_l2_distance_basics():
    iset = enumerate_ball(1, 1.0)
    a = CoefficientVector(iset, [1.0, 0.0])
    b = CoefficientVector(iset, [0.0, 1.0])
    assert coeff_l2_distance(a, a) == 0.0
    assert coeff_l2_distance(a, b) == pytest.approx(np.sqrt(2.0))


def test_coeff_l2_distance_index_set_mismatch():
    a = CoefficientVector(enumerate_ball(1, 1.0), [1.0, 0.0])
    b = CoefficientVector(enumerate_ball(1, 2.0), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        coeff_l2_distance(a, b)


def test_parseval_distance_matches_quadrature():
    # coefficient-space distance equals function-space L2 distance computed
    # by an independent 10k-point quadrature of the reconstructions
    rng = np.random.default_rng(17)
    iset = enumerate_ball(1, 3.0)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(5):
        a = CoefficientVector(iset, rng.standard_normal(len(iset)))
        b = CoefficientVector(iset, rng.standard_normal(len(iset)))
        fa = sum(
            c * cosine_basis_reference(alpha, grid.reshape(-1, 1))
            for c, alpha in zip(a.coefficients, iset.indices)
        )
        fb = sum(
            c * cosine_basis_reference(alpha, grid.reshape(-1, 1))
            for c, alpha in zip(b.coefficients, iset.indices)
        )
        quad = np.sqrt(np.trapezoid((fa - fb) ** 2, grid))
        assert abs(coeff_l2_distance(a, b) - quad) < 1e-6


# --------------------------------------------------------------------------
# truncation selection


def _smooth_observation(n, rng, noise_sd=0.1):
    j = np.arange(61)
    truth = CoefficientVector(
        BasisIndexSet(1, j.reshape(-1, 1)), 1.0 / (1.0 + j.astype(float) ** 2)
    )
    pts = rng.uniform(size=n)
    vals = reconstruct(truth, pts) + noise_sd * rng.standard_normal(n)
    return FunctionObservation("noisy-evaluations", pts, vals)


def test_select_truncation_constant_function():
    rng = np.random.default_rng(8)
    obs = FunctionObservation(
        "noisy-evaluations", rng.uniform(size=200), np.ones(200)
    )
    assert select_truncation(obs, [0.0, 1.0, 2.0], folds=5) == 0.0


def test_select_truncation_prefers_needed_mode():
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=10_000)
    vals = SQRT2 * np.cos(np.pi * pts)
    obs = FunctionObservation("noisy-evaluations", pts, vals)
    assert select_truncation(obs, [0.0, 1.0], folds=5) == 1.0


def test_select_truncation_grows_with_sample_size():
    cands = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    medians = []
    for n in (100, 1000, 10_000):
        picks = []
        for seed in range(20):
            rng = np.random.default_rng((n, seed))
            picks.append(select_truncation(_smooth_observation(n, rng), cands, 5))
        medians.append(np.median(picks))
    assert all(a <= b for a, b in zip(medians, medians[1:]))
    assert medians[0] < medians[-1]


@pytest.mark.parametrize("seed", range(12))
def test_select_truncation_matches_per_radius_loop(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(40, 400))
    obs = _smooth_observation(n, rng)
    cands = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    assert select_truncation(obs, cands, 5) == select_truncation_reference(obs, cands, 5)
    obs2 = FunctionObservation("noisy-evaluations", rng.uniform(size=(n, 2)),
                               rng.standard_normal(n))
    cands2 = [0.0, 1.0, 1.5, 2.5, 4.0]
    assert (select_truncation(obs2, cands2, 4)
            == select_truncation_reference(obs2, cands2, 4))


def test_select_truncation_tie_goes_to_smallest_radius():
    # radii 0, 0.5 and 0.9 keep only the constant, so they score exactly
    # alike; 1.0 adds a mode that a constant function does not need
    rng = np.random.default_rng(9)
    obs = FunctionObservation("noisy-evaluations", rng.uniform(size=120), np.full(120, 2.5))
    cands = [0.0, 0.5, 0.9, 1.0, 2.0]
    assert select_truncation(obs, cands, 5) == 0.0
    assert select_truncation_reference(obs, cands, 5) == 0.0
    assert select_truncation(obs, cands[1:], 5) == 0.5


def test_select_truncation_validation():
    rng = np.random.default_rng(1)
    obs = FunctionObservation(
        "noisy-evaluations", rng.uniform(size=20), np.ones(20)
    )
    with pytest.raises(ValueError):
        select_truncation(obs, [], folds=2)
    with pytest.raises(ValueError):
        select_truncation(obs, [2.0, 1.0], folds=2)
    with pytest.raises(ValueError):
        select_truncation(obs, [0.0, 1.0], folds=1)
    small = FunctionObservation("noisy-evaluations", [0.1, 0.9], [1.0, 1.0])
    with pytest.raises(ValueError):
        select_truncation(small, [0.0, 1.0], folds=3)
    dens = FunctionObservation("density-sample", rng.uniform(size=20))
    with pytest.raises(ValueError):
        select_truncation(dens, [0.0, 1.0], folds=2)


def test_sup_norm_bound():
    # every tensor-product basis function is bounded by 2^(d/2)
    rng = np.random.default_rng(44)
    for dim in (1, 2):
        iset = enumerate_ball(dim, 5.0)
        pts = rng.uniform(size=(2000, dim))
        phi = design_matrix(iset, pts)
        assert np.abs(phi).max() <= 2 ** (dim / 2) + 1e-12


def test_kappa_ball_enumeration_guard():
    # tiny exponents make the per-axis caps explode; refuse rather than
    # attempt an astronomically large enumeration
    spec = SobolevSpec([1.0], [0.2], 1.0)
    with pytest.raises(ValueError, match="radius too large"):
        enumerate_kappa_ball(spec, 100.0)
