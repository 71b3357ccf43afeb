"""Random cosine feature maps approximating the RBF kernel.

A feature map freezes D random frequencies drawn from a Gaussian with
standard deviation 1/bandwidth and D phases uniform on [0, 2*pi). Inner
products of feature vectors approximate exp(-||x - y||^2 / (2 * sigma^2)).
The bandwidth convention is easy to get silently wrong, so it is pinned
here once and covered by tests: frequency std = 1 / bandwidth. Features
are computed in NumPy: one BLAS product and one vectorized cosine per
batch, in the product's own buffer.
"""

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RksFeatureMap:
    """Frozen random frequencies and phases defining a feature map.

    Immutable after creation; the seed is stored so the map can be
    reproduced exactly on any machine.
    """

    input_dim: int
    feature_count: int
    bandwidth: float
    frequencies: np.ndarray
    phases: np.ndarray
    seed: int

    def __post_init__(self):
        if self.input_dim < 1 or self.feature_count < 1:
            raise ValueError("input_dim and feature_count must be positive")
        if not 0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be in (0, inf), found {self.bandwidth!r}")
        freqs = np.ascontiguousarray(self.frequencies, dtype=float)
        phases = np.ascontiguousarray(self.phases, dtype=float).reshape(-1)
        if freqs.shape != (self.feature_count, self.input_dim):
            raise ValueError(
                f"frequencies shape {freqs.shape} does not match "
                f"({self.feature_count}, {self.input_dim})"
            )
        if phases.shape[0] != self.feature_count:
            raise ValueError("one phase per feature required")
        if not np.isfinite(freqs).all():
            raise ValueError("frequencies must be finite")
        # a NaN phase fails both comparisons, so test that each one holds
        if not ((phases >= 0.0) & (phases < TWO_PI)).all():
            raise ValueError("phases must lie in [0, 2*pi)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, found {self.seed!r}")
        freqs.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "phases", phases)

    @property
    def scale(self) -> float:
        return float(np.sqrt(2.0 / self.feature_count))


def sample_feature_map(
    input_dim: int, feature_count: int, bandwidth: float, seed: int
) -> RksFeatureMap:
    """Draw a feature map; identical seeds give bitwise-identical maps."""
    if not 0 < bandwidth < np.inf:
        raise ValueError(f"bandwidth must be in (0, inf), found {bandwidth!r}")
    rng = np.random.default_rng(seed)
    freqs = rng.standard_normal((feature_count, input_dim)) / bandwidth
    phases = rng.uniform(0.0, TWO_PI, feature_count)
    phases = np.minimum(phases, np.nextafter(TWO_PI, 0.0))
    return RksFeatureMap(
        input_dim=int(input_dim),
        feature_count=int(feature_count),
        bandwidth=float(bandwidth),
        frequencies=freqs,
        phases=phases,
        seed=int(seed),
    )


def compute_features(fmap: RksFeatureMap, x) -> np.ndarray:
    """Feature vector sqrt(2/D) * cos(freq @ x + phase) for one input."""
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape[0] != fmap.input_dim:
        raise ValueError(
            f"input has length {vec.shape[0]}, expected {fmap.input_dim}"
        )
    return fmap.scale * np.cos(fmap.frequencies @ vec + fmap.phases)


def compute_features_batch(fmap: RksFeatureMap, xs) -> np.ndarray:
    """Feature vectors for an (n, input_dim) batch; returns (n, D)."""
    mat = np.ascontiguousarray(xs, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != fmap.input_dim:
        raise ValueError(
            f"batch shape {mat.shape} does not match input_dim {fmap.input_dim}"
        )
    out = mat @ fmap.frequencies.T
    out += fmap.phases
    np.cos(out, out=out)
    out *= fmap.scale
    return out


def feature_ladder(fmaps, xs) -> list:
    """``compute_features_batch(fmap, xs)`` for each map, in order, up to
    round-off. ``sample_feature_map`` divides the same normals by each
    bandwidth, so halving it doubles every angle theta = freq @ x exactly.
    From the largest bandwidth down, a map with the previous map's phases
    and twice its frequencies steps (c, s) = (cos, sin)(theta) to
    (c^2 - s^2, 2cs), with features scale * (c cos(phase) - s sin(phase)).
    A chain's first map evaluates cos and sin, a map in none is direct;
    round-off doubles per step."""
    order = sorted(range(len(fmaps)), key=lambda i: -fmaps[i].bandwidth)
    doubles = [np.array_equal(fmaps[b].phases, fmaps[a].phases)
               and np.array_equal(fmaps[b].frequencies, 2.0 * fmaps[a].frequencies)
               for a, b in zip(order, order[1:])] + [False]
    out = [None] * len(fmaps)
    for pos, i in enumerate(order):
        fmap = fmaps[i]
        if pos and doubles[pos - 1]:
            c, s = c * c - s * s, 2.0 * c * s
        elif doubles[pos]:
            theta = xs @ fmap.frequencies.T
            c, s = np.cos(theta), np.sin(theta)
        else:
            out[i] = compute_features_batch(fmap, xs)
            continue
        out[i] = c * (fmap.scale * np.cos(fmap.phases))
        out[i] -= s * (fmap.scale * np.sin(fmap.phases))
    return out


def rbf_kernel(distance, bandwidth: float):
    """The kernel the feature map approximates: exp(-r^2 / (2 * sigma^2))."""
    r = np.asarray(distance, dtype=float)
    return np.exp(-(r * r) / (2.0 * bandwidth * bandwidth))
