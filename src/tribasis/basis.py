"""Tensor-product cosine basis on the unit cube.

The 1-D family is phi_0(u) = 1, phi_j(u) = sqrt(2) * cos(pi * j * u) for
j >= 1, which is orthonormal on [0, 1]. Multivariate basis functions are
products of 1-D ones, indexed by non-negative integer multi-indices. The
module covers index-set enumeration (Euclidean and smoothness-weighted
balls), empirical projection of noisy function observations onto an index
set, reconstruction, cross-validated truncation selection, coefficient
distances, and the seeded held-out split that hyperparameter searches share.

Projection and truncation selection take their cosine design from a
one-entry memo keyed on the exact sample points and multi-indices, so
observations that share a sample grid, such as every window written by
``tribasis window``, share one design instead of rebuilding it per call.
``project_all`` builds the designs of consecutive same-size observations
in blocks, one stacked kernel call per block, and contracts each row as
``project`` does, so its rows are bit-identical to ``project``'s.
Truncation selection scores every candidate radius of a fold with one
product against per-radius column masks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._accel import cosine_design

NOISY_EVALS = "noisy-evaluations"
DENSITY_SAMPLE = "density-sample"

def _as_index_array(indices, dimension=None) -> np.ndarray:
    arr = np.asarray(indices)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if dimension in (None, 1) else arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"multi-index array must be 2-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ValueError("multi-indices must be integers")
    arr = arr.astype(np.int64, copy=False)
    if np.any(arr < 0):
        raise ValueError("multi-indices must be non-negative")
    return arr


@dataclass(frozen=True, eq=False)
class BasisIndexSet:
    """A finite, deterministically ordered set of basis multi-indices.

    ``indices`` is an (size, dimension) integer array, sorted
    lexicographically so that coefficient vectors over the same set are
    always aligned. ``rule`` records how the set was built (metadata only,
    not part of equality).
    """

    dimension: int
    indices: np.ndarray
    rule: str = "explicit"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        arr = _as_index_array(self.indices, self.dimension)
        if arr.shape[1] != self.dimension:
            raise ValueError(
                f"indices have length {arr.shape[1]}, expected {self.dimension}"
            )
        order = np.lexsort(arr.T[::-1])
        arr = arr[order]
        if arr.shape[0] > 1 and np.any(np.all(arr[1:] == arr[:-1], axis=1)):
            raise ValueError("duplicate multi-indices")
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisIndexSet):
            return NotImplemented
        return self.dimension == other.dimension and np.array_equal(
            self.indices, other.indices
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"BasisIndexSet(dimension={self.dimension}, size={len(self)}, "
            f"rule={self.rule!r})"
        )


@dataclass(frozen=True)
class SobolevSpec:
    """Smoothness ellipsoid parameters (per-axis scale, per-axis exponent,
    total amplitude)."""

    nu: np.ndarray
    gamma: np.ndarray
    amplitude: float

    def __post_init__(self):
        nu = np.atleast_1d(np.asarray(self.nu, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if nu.shape != gamma.shape or nu.ndim != 1 or nu.size == 0:
            raise ValueError(
                "nu and gamma must be non-empty 1-D sequences of equal length"
            )
        # both comparisons are false for NaN
        params = np.concatenate([nu, gamma, [self.amplitude]])
        if not ((params > 0) & (params < np.inf)).all():
            raise ValueError(
                "nu, gamma and amplitude must be finite and strictly positive"
            )
        nu.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "amplitude", float(self.amplitude))

    @property
    def dimension(self) -> int:
        return self.nu.shape[0]

    def kappa(self, indices) -> np.ndarray:
        """Frequency weight of each multi-index: low values = smooth modes."""
        arr = _as_index_array(indices, self.dimension)
        if arr.shape[1] != self.dimension:
            raise ValueError("index dimension does not match spec")
        return np.sqrt(
            ((self.nu * np.abs(arr)) ** (2.0 * self.gamma)).sum(axis=1)
        )


@dataclass
class FunctionObservation:
    """The raw view of a function: noisy point evaluations on the unit
    cube, or an i.i.d. sample from a density supported there.

    ``points`` is (n, d); ``values`` is (n,), finite, and present only for
    the noisy-evaluations kind.
    """

    kind: str
    points: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (NOISY_EVALS, DENSITY_SAMPLE):
            raise ValueError(
                f"unknown observation kind {self.kind!r}; expected "
                f"{NOISY_EVALS!r} or {DENSITY_SAMPLE!r}"
            )
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a non-empty (n, d) array")
        # min/max are NaN when any point is, which fails the range test
        if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
            bad = pts[~((pts >= 0.0) & (pts <= 1.0))]
            detail = f" (found {bad.flat[0]!r})" if bad.size else ""
            raise ValueError(
                f"sample points must lie in [0, 1] componentwise{detail}"
            )
        self.points = np.ascontiguousarray(pts)
        if self.kind == NOISY_EVALS:
            if self.values is None:
                raise ValueError("noisy-evaluations observations need values")
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 1:
                raise ValueError(
                    f"values must be a 1-D list of numbers, found {vals.ndim}-D"
                )
            if vals.shape[0] != pts.shape[0]:
                raise ValueError(
                    f"{vals.shape[0]} values for {pts.shape[0]} points"
                )
            if not np.isfinite(vals).all():
                bad = vals[~np.isfinite(vals)]
                raise ValueError(f"values must be finite (found {float(bad[0])})")
            self.values = vals
        elif self.values is not None:
            raise ValueError("density-sample observations carry no values")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass
class CoefficientVector:
    """Projection coefficients of one function onto a BasisIndexSet."""

    index_set: BasisIndexSet
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if coeffs.shape[0] != len(self.index_set):
            raise ValueError(
                f"{coeffs.shape[0]} coefficients for "
                f"{len(self.index_set)} indices"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        self.coefficients = coeffs

    def __len__(self) -> int:
        return self.coefficients.shape[0]


def _point_matrix(x, dimension: int):
    """Normalize a point argument to an (n, d) matrix.

    Returns (points, single) where ``single`` says the caller passed one
    point (so a scalar should come back).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dimension != 1:
            raise ValueError(f"scalar point given for dimension {dimension}")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if dimension == 1:
            return arr.reshape(-1, 1), False
        if arr.shape[0] != dimension:
            raise ValueError(
                f"point has length {arr.shape[0]}, expected {dimension}"
            )
        return arr.reshape(1, -1), True
    if arr.ndim == 2:
        if arr.shape[1] != dimension:
            raise ValueError(
                f"points have dimension {arr.shape[1]}, expected {dimension}"
            )
        return arr, False
    raise ValueError("points must be at most 2-D")


def _check_unit_cube(points: np.ndarray):
    if np.any(points < 0.0) or np.any(points > 1.0):
        raise ValueError("evaluation points must lie in [0, 1] componentwise")


def design_matrix(index_set: BasisIndexSet, points: np.ndarray) -> np.ndarray:
    """Evaluate every basis function of ``index_set`` at every point.

    ``points`` is (n, d) inside the unit cube; returns (n, size).
    """
    pts, _ = _point_matrix(points, index_set.dimension)
    _check_unit_cube(pts)
    return cosine_design(np.ascontiguousarray(pts), index_set.indices)


def enumerate_ball(dimension: int, radius: float) -> BasisIndexSet:
    """All non-negative multi-indices with Euclidean norm <= radius."""
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    kmax = int(np.floor(radius))
    grids = np.meshgrid(*([np.arange(kmax + 1)] * dimension), indexing="ij")
    cand = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
    keep = (cand.astype(float) ** 2).sum(axis=1) <= radius * radius
    return BasisIndexSet(
        dimension, cand[keep], rule=f"euclidean-ball(t={float(radius)!r})"
    )


_MAX_ENUMERATION = 50_000_000


def enumerate_kappa_ball(spec: SobolevSpec, radius: float) -> BasisIndexSet:
    """All non-negative multi-indices whose frequency weight kappa is
    <= radius, for the given smoothness spec."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    d = spec.dimension
    # per-coordinate cap making the enumeration finite: any feasible index
    # satisfies |a_i| <= nu_lam^(-gamma_lam/gamma_i) * t^(1/gamma_i) where
    # lam minimizes nu_i^(2*gamma_i)
    lam = int(np.argmin(spec.nu ** (2.0 * spec.gamma)))
    caps = np.floor(
        spec.nu[lam] ** (-spec.gamma[lam] / spec.gamma)
        * radius ** (1.0 / spec.gamma)
    ).astype(np.int64)
    caps = np.maximum(caps, 0)
    total = float(np.prod(caps + 1.0))
    if total > _MAX_ENUMERATION:
        raise ValueError(
            f"kappa-ball enumeration would visit {total:.3g} candidates; "
            "radius too large for this spec"
        )
    grids = np.meshgrid(*[np.arange(c + 1) for c in caps], indexing="ij")
    cand = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
    keep = spec.kappa(cand) <= radius
    return BasisIndexSet(
        d, cand[keep], rule=f"kappa-ball(nu={spec.nu.tolist()}, "
        f"gamma={spec.gamma.tolist()}, t={float(radius)!r})"
    )


# (key, design) of the last design built by _shared_design; stored and read
# as one tuple, so a reader never pairs one entry's key with another's design
_design_memo = None


def _shared_design(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Read-only ``cosine_design(points, indices)``, reused while consecutive
    calls pass bitwise-equal points and indices.

    The key holds owned byte copies of both arrays, so mutating an array
    after the call cannot make a stale design match; comparing keys stops
    at the first differing byte. Only projection-sized designs go through
    here: the quadrature grids of ``design_matrix`` and ``reconstruct``
    would stay resident.
    """
    global _design_memo
    key = (points.shape, indices.shape, points.dtype, indices.dtype,
           points.tobytes(), indices.tobytes())
    memo = _design_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    design = cosine_design(points, indices)
    design.setflags(write=False)
    _design_memo = (key, design)
    return design


def _check_dimension(obs: FunctionObservation, index_set: BasisIndexSet):
    if obs.dimension != index_set.dimension:
        raise ValueError(
            f"observation dimension {obs.dimension} does not match index "
            f"set dimension {index_set.dimension}"
        )


def project_coefficients(
    obs: FunctionObservation, index_set: BasisIndexSet
) -> np.ndarray:
    """Raw projection-coefficient array; the lean core of ``project`` shared
    by the per-prediction hot paths."""
    _check_dimension(obs, index_set)
    if obs.n < 1:
        raise ValueError("empty observation")
    return _contract(obs, _shared_design(obs.points, index_set.indices))


def _contract(obs: FunctionObservation, phi: np.ndarray) -> np.ndarray:
    """Coefficients of ``obs`` from its (n, m) design ``phi``."""
    if obs.kind == NOISY_EVALS:
        return obs.values @ phi / obs.n
    return phi.sum(axis=0) / obs.n


def project(
    obs: FunctionObservation, index_set: BasisIndexSet
) -> CoefficientVector:
    """Empirical projection coefficients of an observed function.

    For noisy evaluations the coefficient at alpha is the sample mean of
    value * basis(point); for a density sample the values are identically
    one, giving the orthogonal-series density estimate.
    """
    return CoefficientVector(index_set, project_coefficients(obs, index_set))


# largest stacked design project_all builds in one kernel call (8 MiB)
_BLOCK_ELEMENTS = 1 << 20


def project_all(observations, index_set: BasisIndexSet) -> np.ndarray:
    """Projection coefficients of many observations, one row each.

    Consecutive observations with the same number of points and dimension
    form blocks of at most ``_BLOCK_ELEMENTS`` design entries, each built
    by one stacked kernel call, or by one shared design when the block's
    grids are bitwise equal. Each row is contracted with its own design
    exactly as ``project`` contracts it, so it is bit-identical to
    ``project(obs)`` and passes the same checks: a dimension mismatch
    raises, and so do non-finite coefficients.
    """
    observations = list(observations)
    indices = index_set.indices
    m = indices.shape[0]
    rows = np.empty((len(observations), m))
    start = 0
    while start < len(observations):
        first = observations[start]
        _check_dimension(first, index_set)
        stop = start + 1
        limit = min(start + _BLOCK_ELEMENTS // max(1, first.n * m), len(observations))
        while stop < limit and observations[stop].points.shape == first.points.shape:
            stop += 1
        block = observations[start:stop]
        grid = first.points.tobytes()
        if all(obs.points.tobytes() == grid for obs in block[1:]):
            designs = [_shared_design(first.points, indices)] * len(block)
        else:
            designs = cosine_design(np.stack([obs.points for obs in block]), indices)
        for row, obs, phi in zip(range(start, stop), block, designs):
            rows[row] = _contract(obs, phi)
        start = stop
    if not np.isfinite(rows).all():
        raise ValueError("coefficients must be finite")
    return rows


def reconstruct(coeffs: CoefficientVector, x):
    """Evaluate the truncated series sum_alpha c_alpha * phi_alpha at x.

    Accepts a single point (returns float) or an (n, d) batch (returns an
    (n,) array).
    """
    pts, single = _point_matrix(x, coeffs.index_set.dimension)
    _check_unit_cube(pts)
    phi = cosine_design(np.ascontiguousarray(pts), coeffs.index_set.indices)
    out = phi @ coeffs.coefficients
    return float(out[0]) if single else out


def coeff_l2_distance(a: CoefficientVector, b: CoefficientVector) -> float:
    """Euclidean distance between two coefficient vectors on the same
    index set; equals the L2 distance of the reconstructed functions."""
    if a.index_set != b.index_set:
        raise ValueError("coefficient vectors live on different index sets")
    return float(np.linalg.norm(a.coefficients - b.coefficients))


@functools.lru_cache(maxsize=8)
def _radius_ball(dimension: int, radii: tuple):
    """The largest radius's ball and a read-only mask column per radius,
    built once for the 50 calls of ``average_truncation_radius``."""
    indices = enumerate_ball(dimension, radii[-1]).indices
    sq_norm = (indices.astype(float) ** 2).sum(axis=1)
    masks = (sq_norm[:, None] <= np.square(radii)).astype(float)
    masks.setflags(write=False)
    return indices, masks


def select_truncation(
    obs: FunctionObservation, candidate_radii, folds: int
) -> float:
    """Pick a truncation radius by K-fold cross-validation.

    Scores each candidate Euclidean-ball radius by held-out mean squared
    error of the reconstruction fitted on the remaining folds; ties break
    toward the smaller radius.
    """
    if obs.kind != NOISY_EVALS:
        raise ValueError("truncation selection needs a noisy-evaluations observation")
    radii = [float(t) for t in candidate_radii]
    if not radii:
        raise ValueError("candidate_radii must be non-empty")
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("candidate_radii must be sorted ascending")
    if radii[0] < 0:
        raise ValueError("radii must be non-negative")
    if folds < 2:
        raise ValueError("folds must be at least 2")
    n = obs.n
    if n < folds:
        raise ValueError(f"{n} observation points cannot fill {folds} folds")

    indices, masks = _radius_ball(obs.dimension, tuple(radii))
    phi = _shared_design(obs.points, indices)

    fold_id = np.arange(n) % folds
    sse = np.zeros(len(radii))
    y = obs.values
    for k in range(folds):
        test = fold_id == k
        train = ~test
        coeffs = y[train] @ phi[train] / int(train.sum())
        resid = phi[test] @ (coeffs[:, None] * masks) - y[test][:, None]
        sse += (resid * resid).sum(axis=0)
    # argmin returns the first (smallest) radius on ties
    return radii[int(np.argmin(sse))]


def holdout_split(n: int, seed: int):
    """The held-out split of every search: (held_out, fitting) index arrays,
    the first round(0.2 * n) (at least one) of a permutation drawn from the
    first child of ``SeedSequence(seed)``, not the feature maps' root."""
    order = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).permutation(n)
    n_val = max(1, int(round(0.2 * n)))
    return order[:n_val], order[n_val:]
