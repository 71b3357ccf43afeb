"""Command-line entry point and benchmark harness.

Subcommands: fit, predict, eval, bench, synth, window. Datasets travel as
JSON lines (one observation pair per line); raw scalar series are plain
one-number-per-line text. Reports are JSON documents whose non-timing
fields reproduce exactly from the recorded seed and config.

Dataset and prediction files, the bulk of a run's I/O, are parsed and
written with orjson: each line is decoded from bytes (so invalid UTF-8 is
reported with its line number) and NumPy arrays are written straight from
their buffers as compact JSON. orjson rejects ``NaN``, ``Infinity`` and
out-of-range numbers when reading, and would write a non-finite float as
``null``; values are checked finite where they enter (``read_series``,
``FunctionObservation``, ``CoefficientVector``). Model files and reports
stay on the standard ``json`` module: ``modelio`` works on text streams,
model files keep their exact bytes, and they are small enough that parsing
them is not a cost.

`fit` and `bench` share ``resolve_index_sets`` and ``fit_estimator``;
`synth` and `bench` share ``synthetic_task``. All three read their flags
into a ``BenchmarkConfig``, whose field defaults are the flags' defaults.

`eval` and `bench` score function-space MSE exactly, by Parseval: the basis
is orthonormal, so the integrated squared error of two truncated series is
their squared coefficient distance on the union of their index sets. This
costs O(instances x indices) and works in any dimension.

Exit codes: 0 success, 1 user error (bad flags, unreadable or invalid
files), 2 internal error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
import orjson

from . import _accel
from .baseline import LinearSmootherModel, lse_fit, lse_fit_cv, lse_predict
from .basis import (
    NOISY_EVALS,
    BasisIndexSet,
    CoefficientVector,
    FunctionObservation,
    SobolevSpec,
    design_matrix,
    enumerate_ball,
    project_all,
)
from .features import sample_feature_map
from .modelio import load_model, save_model
from .regress import DEFAULT_FOLDS, DEFAULT_RADII, LAMBDA_GRID, SIGMA_GRID
from .regress import TripleBasisModel, average_truncation_radius, fit, fit_cv, predict_coeffs
from .synth import SyntheticConfig, generate_dataset, make_mapping

REPORT_FORMAT_VERSION = 1
KNOWN_METHODS = ("triple-basis", "linear-smoother", "mean")
MAX_FEATURES = 20_000


# one JSON-lines record per dumps call; orjson raises TypeError on arrays
# that are not C-contiguous, so writers pass np.ascontiguousarray copies of
# arrays that may be strided views
_JSONL_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


class DatasetFormatError(ValueError):
    """Invalid dataset file; messages carry 1-based line numbers."""


# --------------------------------------------------------------------------
# dataset ingestion / emission


def _obs_to_json(obs: FunctionObservation) -> dict:
    doc = {"kind": obs.kind, "points": np.ascontiguousarray(obs.points)}
    if obs.values is not None:
        doc["values"] = np.ascontiguousarray(obs.values)
    return doc


def _obs_from_json(doc, line_no: int, kept: list) -> FunctionObservation:
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"line {line_no}: observation must be an object")
    kind = doc.get("kind", NOISY_EVALS)
    points = doc.get("points")
    if points is None:
        raise DatasetFormatError(f"line {line_no}: observation missing 'points'")
    # points equal to the slot's last (list, array) reuse the array: equal
    # lists hold equal bits but for 0.0 == -0.0, and a shared grid is read-only
    grid = points
    if points == kept[0] and kept[1].all():
        grid = kept[1]
        grid.flags.writeable = False
    try:
        obs = FunctionObservation(kind, grid, doc.get("values"))
    except ValueError as exc:
        raise DatasetFormatError(f"line {line_no}: {exc}") from None
    kept[:] = points, obs.points
    return obs


def write_dataset(pairs, path) -> None:
    """Emit observation pairs as compact JSON lines."""
    with open(path, "wb") as fh:
        for pin, pout in pairs:
            doc = {"input": _obs_to_json(pin)}
            if pout is not None:
                doc["output"] = _obs_to_json(pout)
            fh.write(orjson.dumps(doc, option=_JSONL_OPTIONS))


def ingest_dataset(path, require_output: bool = True):
    """Read and validate a JSON-lines dataset; returns (input, output) pairs.

    Blank lines are skipped. All inputs must share one dimension, likewise
    all outputs; offending lines, including invalid UTF-8 and non-finite
    numbers, are named in the error.
    """
    pairs, dims = [], {}
    kept_in, kept_out = [None, None], [None, None]
    # parsed lines hold no cycles, and their nested point lists set off
    # full collections over every live object: pause the collector
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    doc = orjson.loads(line)
                except orjson.JSONDecodeError as exc:
                    raise DatasetFormatError(
                        f"line {line_no}: malformed JSON ({exc.msg})"
                    ) from None
                if not isinstance(doc, dict) or "input" not in doc:
                    raise DatasetFormatError(
                        f"line {line_no}: each line must be an object with an "
                        "'input' observation"
                    )
                pin = _obs_from_json(doc["input"], line_no, kept_in)
                pout = None
                if "output" in doc:
                    pout = _obs_from_json(doc["output"], line_no, kept_out)
                elif require_output:
                    raise DatasetFormatError(
                        f"line {line_no}: missing 'output' observation"
                    )
                for slot, obs in (("input", pin), ("output", pout)):
                    if obs is None:
                        continue
                    first = dims.setdefault(slot, obs.dimension)
                    if obs.dimension != first:
                        raise DatasetFormatError(
                            f"line {line_no}: {slot} dimension {obs.dimension} "
                            f"differs from dimension {first} established earlier"
                        )
                pairs.append((pin, pout))
    finally:
        if gc_enabled:
            gc.enable()
    if not pairs:
        raise DatasetFormatError(f"empty dataset: {path}")
    return pairs


def read_series(path) -> np.ndarray:
    """Read a raw scalar series: one finite number per line, blanks
    skipped.

    The whole file is split and parsed in one pass; any file that pass
    does not take as one finite number per non-blank line is read again
    line by line, which names the offending line.
    """
    tokens = _one_token_per_line(path)
    if tokens:
        try:
            values = np.fromiter(map(float, tokens), float, len(tokens))
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    return _read_series_lines(path)


# the whitespace bytes.split() splits on, other than the newline
_LINE_SPACE = b" \t\r\x0b\x0c"


def _one_token_per_line(path):
    """The whitespace-separated tokens of a file, or None when a line holds
    more than one. Kept apart from the parse so that the file's bytes are
    freed before the numbers are built."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = data.split()
    if any(space in data for space in _LINE_SPACE):
        # a line is non-blank when something is left once its spaces go
        lines = data.translate(None, _LINE_SPACE).split(b"\n")
        if len(tokens) != len(lines) - lines.count(b""):
            return None
    return tokens


def _read_series_lines(path) -> np.ndarray:
    """``read_series`` one line at a time, with the line of the first
    error in its message."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise DatasetFormatError(
                    f"line {line_no}: not a number: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetFormatError(
                    f"line {line_no}: not a finite number: {text!r}"
                )
            values.append(value)
    if not values:
        raise DatasetFormatError(f"empty series: {path}")
    return np.asarray(values, dtype=float)


# --------------------------------------------------------------------------
# series windowing

FORWARD = "forward"
CO_OCCURRING = "co-occurring"


@dataclass(frozen=True)
class SeriesWindowing:
    """How a scalar series is cut into function observations."""

    window_length: int
    mode: str = FORWARD
    stride: int | None = None

    def __post_init__(self):
        if self.window_length < 2:
            raise ValueError("window_length must be at least 2")
        if self.mode not in (FORWARD, CO_OCCURRING):
            raise ValueError(
                f"unknown windowing mode {self.mode!r}; known: "
                f"{FORWARD!r}, {CO_OCCURRING!r}"
            )
        stride = self.window_length if self.stride is None else self.stride
        if stride < 1:
            raise ValueError("stride must be at least 1")
        object.__setattr__(self, "stride", int(stride))


@dataclass(frozen=True)
class SeriesTransform:
    """Affine rescale applied to series values before windowing; a
    windowed value v stands for the series value offset + scale * v."""

    offset: float
    scale: float

    def apply(self, values):
        return (np.asarray(values, dtype=float) - self.offset) / self.scale


def _window_obs(values: np.ndarray, start: int, w: int) -> FunctionObservation:
    pts = (np.arange(w) + 0.5) / w
    return FunctionObservation(NOISY_EVALS, pts, values[start : start + w])


def window_series(values, windowing: SeriesWindowing, co_values=None):
    """Cut a scalar series into observation pairs.

    Each input window is paired with the window of the co-series that
    starts ``offset`` samples later. Forward mode takes the series itself
    as co-series with offset w, so each window is paired with the one that
    follows it; co-occurring mode pairs aligned windows (offset 0) of two
    series. Values are rescaled to [0, 1] by the global min/max over both
    series; the transform comes back for inverse mapping. Returns (pairs,
    transform).
    """
    series = np.asarray(values, dtype=float).reshape(-1)
    w, stride = windowing.window_length, windowing.stride
    if windowing.mode == FORWARD:
        if co_values is not None:
            raise ValueError("forward windowing uses a single series")
        co, offset = series, w
    else:
        if co_values is None:
            raise ValueError("co-occurring windowing needs a second series")
        co, offset = np.asarray(co_values, dtype=float).reshape(-1), 0
        if co.shape[0] != series.shape[0]:
            raise ValueError("co-occurring series must have equal length")
    need = offset + w
    if series.shape[0] < need:
        raise ValueError(
            f"series of length {series.shape[0]} too short for "
            f"{windowing.mode} windows of length {w} (need at least {need})"
        )
    lo = float(min(series.min(), co.min()))
    hi = float(max(series.max(), co.max()))
    transform = SeriesTransform(lo, hi - lo if hi > lo else 1.0)
    scaled = transform.apply(series)
    co_scaled = scaled if co is series else transform.apply(co)
    pairs = [
        (_window_obs(scaled, start, w), _window_obs(co_scaled, start + offset, w))
        for start in range(0, series.shape[0] - need + 1, stride)
    ]
    return pairs, transform


# --------------------------------------------------------------------------
# function-space error


def midpoint_grid(dimension: int, points_per_axis: int) -> np.ndarray:
    """Midpoint-rule nodes on the unit cube, (points_per_axis^d, d)."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be positive")
    if points_per_axis**dimension > 2**24:
        raise ValueError("quadrature grid too large; reduce points_per_axis")
    axis = (np.arange(points_per_axis) + 0.5) / points_per_axis
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def coefficient_mse(
    pred_matrix: np.ndarray,
    pred_set: BasisIndexSet,
    truth_matrix: np.ndarray,
    truth_set: BasisIndexSet,
) -> float:
    """Mean (over instances) integrated squared error between predictions
    and truths, computed exactly in coefficient space.

    Both coefficient matrices (one row per instance) are embedded on the
    union of their index sets; by Parseval the squared row distance there is
    the squared L2 distance of the reconstructed functions.
    """
    pred = np.asarray(pred_matrix, dtype=float)
    truth = np.asarray(truth_matrix, dtype=float)
    if pred_set.dimension != truth_set.dimension:
        raise ValueError(
            f"prediction dimension {pred_set.dimension} does not match truth "
            f"dimension {truth_set.dimension}"
        )
    if (
        pred.ndim != 2
        or pred.shape[1] != len(pred_set)
        or truth.shape != (pred.shape[0], len(truth_set))
    ):
        raise ValueError(
            f"coefficient matrices {pred.shape} and {truth.shape} need one row "
            f"per instance and {len(pred_set)} and {len(truth_set)} columns"
        )
    union, position = np.unique(
        np.vstack([pred_set.indices, truth_set.indices]),
        axis=0, return_inverse=True,
    )
    position = position.reshape(-1)
    diff = np.zeros((pred.shape[0], union.shape[0]))
    diff[:, position[: len(pred_set)]] = pred
    diff[:, position[len(pred_set) :]] -= truth
    return float((diff * diff).sum(axis=1).mean())


# --------------------------------------------------------------------------
# prediction wrappers and evaluation


@dataclass
class MeanPredictorModel:
    """Trivial baseline: always predicts the average training output."""

    output_index_set: BasisIndexSet
    mean_coefficients: np.ndarray

    def __post_init__(self):
        mc = np.asarray(self.mean_coefficients, dtype=float).reshape(-1)
        if mc.shape[0] != len(self.output_index_set):
            raise ValueError("mean coefficients do not match the output index set")
        self.mean_coefficients = mc


def model_predict(model, input_obs: FunctionObservation) -> CoefficientVector:
    """Uniform prediction entry point for all three model kinds."""
    if isinstance(model, TripleBasisModel):
        return predict_coeffs(model, input_obs)
    if isinstance(model, LinearSmootherModel):
        return lse_predict(model, input_obs)
    if isinstance(model, MeanPredictorModel):
        return CoefficientVector(model.output_index_set, model.mean_coefficients)
    raise TypeError(f"cannot predict with {type(model).__name__}")


def evaluate_model(
    model,
    test_pairs,
    truth_matrix: np.ndarray,
    truth_set: BasisIndexSet,
    points_per_axis: int = 1024,
):
    """Predict every test input with per-prediction timing (one unmeasured
    warm-up first) and score against the truth with ``coefficient_mse``.

    ``points_per_axis`` is ignored: scoring is exact in coefficient space
    and needs no quadrature grid. It stays in the signature so that callers
    passing it positionally keep working.

    Returns (mse, median_prediction_seconds, prediction_matrix).
    """
    if not test_pairs:
        raise ValueError("need at least one test pair")
    model_predict(model, test_pairs[0][0])  # warm-up
    preds = []
    times = []
    for pin, _ in test_pairs:
        t0 = time.perf_counter()
        cv = model_predict(model, pin)
        times.append(time.perf_counter() - t0)
        preds.append(cv.coefficients)
    pred_matrix = np.vstack(preds)
    mse = coefficient_mse(pred_matrix, model.output_index_set, truth_matrix, truth_set)
    return mse, float(np.median(times)), pred_matrix


# --------------------------------------------------------------------------
# benchmark harness and the fit pipeline shared with `fit` and `synth`


@dataclass
class BenchmarkConfig:
    """Everything a benchmark run needs; serialized into the report. Its
    defaults are those of the flags of `bench` and `synth`, and of the flags
    `fit` shares with `bench` (``_config``)."""

    methods: tuple = KNOWN_METHODS
    seed: int = 0
    data_path: str | None = None
    ordered_split: bool = False
    test_fraction: float = 0.2
    # synthetic task (used when data_path is None)
    train_count: int = 500
    test_count: int = 100
    points_per_function: int = 100
    noise_sd: float = 0.1
    anchor_count: int = 25
    map_sigma: float = 1.0
    input_dim: int = 1
    output_dim: int = 1
    input_amplitude: float = 2.0
    output_amplitude: float = 2.0
    # estimator knobs
    feature_count: int | None = None
    radius_in: float | None = None
    radius_out: float | None = None
    folds: int = DEFAULT_FOLDS
    fixed_sigma: float | None = None
    fixed_lambda: float | None = None
    report_path: str | None = None
    model_out: str | None = None


def default_feature_count(points_per_function: int) -> int:
    """Feature-count rule of thumb: ceil(n * ln n), capped at 20000."""
    n = max(2, points_per_function)
    return min(MAX_FEATURES, int(math.ceil(n * math.log(n))))


def synthetic_task(config: BenchmarkConfig, instances: int):
    """``instances`` noisy pairs of the config's synthetic task, through a
    random anchor mapping between unit-weight Sobolev ellipsoids, seeded by
    children 0 and 1 of ``SeedSequence(config.seed)``.

    Returns (pairs, truth_matrix, truth_set): one row of exact output
    coefficients over truth_set per pair.
    """
    map_seed, data_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    input_spec = SobolevSpec(
        np.ones(config.input_dim), np.ones(config.input_dim), config.input_amplitude
    )
    output_spec = SobolevSpec(
        np.ones(config.output_dim), np.ones(config.output_dim), config.output_amplitude
    )
    mapping = make_mapping(input_spec, output_spec, n_anchors=config.anchor_count,
                           sigma=config.map_sigma, seed=map_seed)
    pairs, _, truths = generate_dataset(
        SyntheticConfig(input_spec, output_spec, config.noise_sd,
                        config.points_per_function, instances, data_seed),
        mapping, return_truth=True,
    )
    truth_matrix = np.vstack([t.coefficients for t in truths])
    return pairs, truth_matrix, mapping.output_index_set


def resolve_index_sets(pairs, radius_in, radius_out, folds):
    """Input and output index sets of a fit: Euclidean balls of the given
    truncation radii, a radius left None being ``average_truncation_radius``
    of that side's observations over ``DEFAULT_RADII``.

    Returns (input_set, output_set, radius_in, radius_out).
    """
    radii = []
    for side, radius in enumerate((radius_in, radius_out)):
        if radius is None:
            radius = average_truncation_radius([pair[side] for pair in pairs],
                                               DEFAULT_RADII, folds)
        radii.append(float(radius))
    input_set = enumerate_ball(pairs[0][0].dimension, radii[0])
    output_set = enumerate_ball(pairs[0][1].dimension, radii[1])
    return input_set, output_set, radii[0], radii[1]


def fit_estimator(method: str, pairs, input_set: BasisIndexSet,
                  output_set: BasisIndexSet, seed: int, feature_count=None,
                  sigma=None, ridge_lambda=None, bandwidth=None):
    """Fit one of ``KNOWN_METHODS``. A given hyperparameter (``sigma``,
    ``ridge_lambda``; ``bandwidth`` for the smoother) is used as is, one left
    None is searched on the seeded held-out split, over ``SIGMA_GRID`` or
    ``LAMBDA_GRID``; ``feature_count`` None means ``default_feature_count``.

    Returns (model, hyperparameters, validation_mse); validation_mse is None
    when nothing was searched.
    """
    if method == "triple-basis":
        if feature_count is None:
            feature_count = default_feature_count(pairs[0][0].n)
        if sigma is not None and ridge_lambda is not None:
            fmap = sample_feature_map(len(input_set), feature_count, sigma, seed)
            model = fit(pairs, input_set, output_set, fmap, ridge_lambda)
            return model, {"sigma": float(sigma), "lambda": float(ridge_lambda)}, None
        cv = fit_cv(
            pairs, input_set, output_set, feature_count, seed,
            bandwidth_grid=SIGMA_GRID if sigma is None else (sigma,),
            lambda_grid=LAMBDA_GRID if ridge_lambda is None else (ridge_lambda,),
        )
        hyper = {"sigma": cv.bandwidth, "lambda": cv.ridge_lambda}
        return cv.model, hyper, cv.validation_mse
    if method == "linear-smoother":
        if bandwidth is not None:
            model, mse = lse_fit(pairs, input_set, output_set, bandwidth), None
        else:
            model, mse = lse_fit_cv(pairs, input_set, output_set, seed)
        return model, {"bandwidth": model.bandwidth}, mse
    if method == "mean":
        mean = project_all([q for _, q in pairs], output_set).mean(axis=0)
        return MeanPredictorModel(output_set, mean), {}, None
    raise ValueError(f"unknown method {method!r}; known: {list(KNOWN_METHODS)}")


def _split_pairs(pairs, config: BenchmarkConfig):
    n = len(pairs)
    n_test = max(1, int(round(config.test_fraction * n)))
    if n_test >= n:
        raise ValueError("dataset too small to split into train and test")
    if config.ordered_split:
        return pairs[: n - n_test], pairs[n - n_test :]
    # neither the feature maps' root stream nor holdout_split's child 0
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
    order = rng.permutation(n)
    train = [pairs[i] for i in order[: n - n_test]]
    test = [pairs[i] for i in order[n - n_test :]]
    return train, test


def run_benchmark(config: BenchmarkConfig) -> dict:
    """Fit every requested method, score held-out function-space MSE
    exactly in coefficient space (``coefficient_mse``), measure median
    prediction time, and return the report."""
    unknown = [m for m in config.methods if m not in KNOWN_METHODS]
    if unknown:
        raise ValueError(
            f"unknown methods {unknown}; known methods: {list(KNOWN_METHODS)}"
        )
    if not config.methods:
        raise ValueError(f"no methods requested; known: {list(KNOWN_METHODS)}")
    if not 0.0 < config.test_fraction < 1.0:
        raise ValueError(f"test fraction {config.test_fraction!r} is not in (0, 1)")
    if config.train_count < 1 or config.test_count < 1:
        raise ValueError("train and test counts must be at least 1")

    # children 0 and 1 of the seed sequence seed the synthetic task
    cv_seed = int(np.random.SeedSequence(config.seed).spawn(3)[2].generate_state(1)[0])
    if config.data_path is not None:
        train, test = _split_pairs(ingest_dataset(config.data_path), config)
    else:
        pairs, truth_all, truth_set = synthetic_task(
            config, config.train_count + config.test_count)
        train, test = pairs[: config.train_count], pairs[config.train_count :]
        truth_all = truth_all[config.train_count :]

    input_set, output_set, t_in, t_out = resolve_index_sets(
        train, config.radius_in, config.radius_out, config.folds)
    if config.data_path is not None:
        truth_set = output_set
        truth_all = project_all([q for _, q in test], output_set)

    records = []
    for method in config.methods:
        t0 = time.perf_counter()
        model, hyper, _ = fit_estimator(
            method, train, input_set, output_set, cv_seed,
            feature_count=config.feature_count, sigma=config.fixed_sigma,
            ridge_lambda=config.fixed_lambda)
        fit_seconds = time.perf_counter() - t0
        if method == "triple-basis" and config.model_out:
            save_model(model, config.model_out)

        mse, mpt, _ = evaluate_model(model, test, truth_all, truth_set)
        records.append(
            {
                "method": method,
                "mse": mse,
                "mpt_seconds": mpt,
                "fit_seconds": fit_seconds,
                "N": len(train),
                "n": train[0][0].n,
                "s": len(input_set),
                "r": len(output_set),
                "D": model.feature_map.feature_count if method == "triple-basis" else 0,
                "seed": config.seed,
                "hyperparameters": hyper,
            }
        )

    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "seed": config.seed,
        "backend": _accel.backend_name(),
        "radius_in": t_in,
        "radius_out": t_out,
        "config": asdict(config),
        "records": records,
    }
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return report


# --------------------------------------------------------------------------
# CLI plumbing


def _finite(text: str) -> float:
    """argparse type of the real-valued flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, found {text!r}")
    return value


def _feature_count(text: str) -> int:
    """argparse type of --features: an integer from 1 to MAX_FEATURES."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= MAX_FEATURES:
        raise argparse.ArgumentTypeError(
            f"feature_count must be an integer from 1 to {MAX_FEATURES}, "
            f"found {text!r}"
        )
    return value


def _methods(text: str) -> tuple:
    """argparse type of --methods: comma-separated method names."""
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _config(args) -> BenchmarkConfig:
    """The BenchmarkConfig of the flags on ``args``; a field whose flag was
    left out keeps its default."""
    names = {f.name for f in fields(BenchmarkConfig)}
    return BenchmarkConfig(**{k: v for k, v in vars(args).items() if k in names})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tribasis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # fit, bench and synth store their flags under BenchmarkConfig's field
    # names and leave a flag that is not given off the namespace, so that
    # _config takes the field's default
    configured = {"argument_default": argparse.SUPPRESS}

    p_fit = sub.add_parser("fit", help="fit a model and save it", **configured)
    p_fit.add_argument("--data", dest="data_path", required=True,
                       help="JSON-lines dataset")
    p_fit.add_argument("--model", dest="model_out", required=True,
                       help="output model file")
    p_fit.add_argument("--method", default="triple-basis", choices=KNOWN_METHODS[:2])
    p_fit.add_argument("--bandwidth", type=_finite, default=None,
                       help="fix the smoother bandwidth (linear-smoother only)")

    p_pred = sub.add_parser("predict", help="predict output coefficients")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True,
                        help="JSON-lines inputs ('output' fields optional)")
    p_pred.add_argument("--out", required=True, help="output JSON-lines file")
    p_pred.add_argument("--grid", type=int, default=0,
                        help="also emit values on a midpoint grid this fine")

    p_eval = sub.add_parser("eval", help="score a saved model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--report", default=None)

    p_bench = sub.add_parser("bench", help="run the benchmark harness", **configured)
    p_bench.add_argument("--report", dest="report_path", required=True)
    p_bench.add_argument("--methods", type=_methods)
    p_bench.add_argument("--data", dest="data_path", help="JSON-lines dataset; "
                         "omit to run the synthetic task")
    p_bench.add_argument("--ordered-split", action="store_true",
                         help="hold out the tail of the dataset (for series)")
    p_bench.add_argument("--test-fraction", type=_finite)
    p_bench.add_argument("--train-count", type=int)
    p_bench.add_argument("--test-count", type=int)
    p_bench.add_argument("--model", dest="model_out",
                         help="save the fitted triple-basis model here")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset", **configured)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--instances", type=int, default=500)
    p_synth.add_argument("--dim-in", dest="input_dim", type=int)
    p_synth.add_argument("--dim-out", dest="output_dim", type=int)
    p_synth.add_argument("--amplitude-in", dest="input_amplitude", type=_finite)
    p_synth.add_argument("--amplitude-out", dest="output_amplitude", type=_finite)

    for p in (p_fit, p_bench, p_synth):
        p.add_argument("--seed", type=int)
    for p in (p_fit, p_bench):
        p.add_argument("--sigma", dest="fixed_sigma", type=_finite,
                       help="fix the feature bandwidth (skips its grid search)")
        p.add_argument("--lambda", dest="fixed_lambda", type=_finite,
                       help="fix the ridge penalty (skips its grid search)")
        p.add_argument("--features", dest="feature_count", type=_feature_count,
                       metavar="D")
        p.add_argument("--radius-in", type=_finite)
        p.add_argument("--radius-out", type=_finite)
        p.add_argument("--folds", type=int)
    for p in (p_bench, p_synth):
        p.add_argument("--points", dest="points_per_function", type=int)
        p.add_argument("--noise", dest="noise_sd", type=_finite)
        p.add_argument("--anchors", dest="anchor_count", type=int)
        p.add_argument("--map-sigma", type=_finite)

    p_win = sub.add_parser("window", help="cut a scalar series into pairs")
    p_win.add_argument("--series", required=True, help="one value per line")
    p_win.add_argument("--out", required=True)
    p_win.add_argument("--window", type=int, required=True, metavar="W")
    p_win.add_argument("--stride", type=int, default=None)
    p_win.add_argument("--mode", default=FORWARD, choices=[FORWARD, CO_OCCURRING])
    p_win.add_argument("--co-series", default=None,
                       help="second series (co-occurring mode)")
    return parser


def _cmd_fit(args) -> int:
    config = _config(args)
    if args.method == "triple-basis":
        other = {"--bandwidth": args.bandwidth}
    else:
        other = {"--sigma": config.fixed_sigma, "--lambda": config.fixed_lambda,
                 "--features": config.feature_count}
    ignored = [flag for flag, value in other.items() if value is not None]
    if ignored:
        raise ValueError(f"{', '.join(ignored)} not used by --method {args.method}")
    pairs = ingest_dataset(config.data_path)
    input_set, output_set, _, _ = resolve_index_sets(
        pairs, config.radius_in, config.radius_out, config.folds
    )
    model, hyper, validation_mse = fit_estimator(
        args.method, pairs, input_set, output_set, config.seed,
        feature_count=config.feature_count, sigma=config.fixed_sigma,
        ridge_lambda=config.fixed_lambda, bandwidth=args.bandwidth,
    )
    if validation_mse is not None:
        chosen = " ".join(f"{name}={value:g}" for name, value in hyper.items())
        print(f"selected {chosen} (validation mse {validation_mse:.6g})")
    save_model(model, config.model_out)
    print(f"saved {args.method} model to {config.model_out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    pairs = ingest_dataset(args.data, require_output=False)
    grid = midpoint_grid(model.output_index_set.dimension, args.grid) if args.grid else None
    grid_design = design_matrix(model.output_index_set, grid) if args.grid else None
    with open(args.out, "wb") as fh:
        for pin, _ in pairs:
            coefficients = np.ascontiguousarray(model_predict(model, pin).coefficients)
            doc = {"coefficients": coefficients}
            if grid_design is not None:
                doc["values"] = grid_design @ coefficients
            fh.write(orjson.dumps(doc, option=_JSONL_OPTIONS))
    print(f"wrote {len(pairs)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    pairs = ingest_dataset(args.data)
    output_set = model.output_index_set
    truth = project_all([q for _, q in pairs], output_set)
    mse, mpt, _ = evaluate_model(model, pairs, truth, output_set)
    print(f"mse={mse:.8g} mpt_seconds={mpt:.6g} instances={len(pairs)}")
    if args.report:
        doc = {
            "format_version": REPORT_FORMAT_VERSION,
            "model": args.model,
            "data": args.data,
            "mse": mse,
            "mpt_seconds": mpt,
            "instances": len(pairs),
            "backend": _accel.backend_name(),
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def _cmd_bench(args) -> int:
    config = _config(args)
    report = run_benchmark(config)
    for rec in report["records"]:
        print(
            f"{rec['method']}: mse={rec['mse']:.6g} "
            f"mpt={rec['mpt_seconds']:.6g}s fit={rec['fit_seconds']:.3g}s"
        )
    print(f"report written to {config.report_path}")
    return 0


def _cmd_synth(args) -> int:
    pairs, _, _ = synthetic_task(_config(args), args.instances)
    write_dataset(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _cmd_window(args) -> int:
    series = read_series(args.series)
    co = read_series(args.co_series) if args.co_series else None
    windowing = SeriesWindowing(
        window_length=args.window, mode=args.mode, stride=args.stride
    )
    pairs, transform = window_series(series, windowing, co_values=co)
    write_dataset(pairs, args.out)
    sidecar = args.out + ".transform.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({"offset": transform.offset, "scale": transform.scale}, fh)
    print(f"wrote {len(pairs)} pairs to {args.out} (transform in {sidecar})")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
    "window": _cmd_window,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # raised by the parser: 0 after --help, 2 on bad flags (user error)
        return 0 if not exc.code else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - internal errors
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
