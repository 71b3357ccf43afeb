"""Model files: a single self-describing JSON document per fitted model.

Floats are written with Python's shortest round-trip repr, so a load
restores every array bit-for-bit and predictions from a reloaded model are
identical to predictions from the original. Both model types share the
same envelope ({format_version, type, ...}) with distinct type tags.
"""


import json

import numpy as np

from .baseline import LinearSmootherModel
from .basis import BasisIndexSet
from .features import RksFeatureMap
from .regress import TripleBasisModel

FORMAT_VERSION = 1
# both model types expand functions in the tensor-product cosine basis
BASIS_TAG = "cosine"
TYPE_TRIPLE_BASIS = "triple-basis"
TYPE_LINEAR_SMOOTHER = "linear-smoother"


class ModelFormatError(ValueError):
    """Malformed or truncated model file."""


class ModelVersionError(ModelFormatError):
    """Model file written by an unsupported format version."""


class ModelDimensionError(ModelFormatError):
    """Internally inconsistent dimensions in a model file."""


def _array(doc, key, shape, kind=float) -> np.ndarray:
    """``doc[key]`` as an array of ``shape``, where a None axis takes any
    non-zero length, holding finite numbers, or integers when ``kind`` is
    int. Otherwise raises ModelDimensionError naming the field."""
    raw = _require(doc, key)
    try:
        arr = np.array(raw)
    except ValueError:  # ragged nesting, reported as a shape mismatch
        arr = np.array(None)
    expected = "x".join("n" if n is None else str(n) for n in shape)
    if arr.ndim != len(shape) or any(m == 0 if n is None else m != n
                                     for n, m in zip(shape, arr.shape)):
        raise ModelDimensionError(f"field {key!r} must be a {expected} array")
    if arr.dtype.kind not in ("iu" if kind is int else "iuf") or not np.isfinite(arr).all():
        found = "integers" if kind is int else "finite numbers"
        raise ModelDimensionError(f"field {key!r} must hold {found} only")
    return arr.astype(kind, copy=False)


def _require(doc, key, where=""):
    if key not in doc:
        raise ModelFormatError(f"model file is missing field {where + key!r}")
    return doc[key]


def _scalar(doc, key, kind, low, where="", strict=False):
    """``doc[key]`` as ``kind`` (int: a JSON integer; float: a finite JSON
    number), at least ``low`` or, when ``strict``, above it. Otherwise, or
    when missing or null, raises ModelFormatError."""
    value = _require(doc, key, where)
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = "an integer" if kind is int else "a number"
        found = "null" if value is None else type(value).__name__
        raise ModelFormatError(
            f"field {where + key!r} must be {expected}, found {found}")
    value = kind(value)
    if not (value > low if strict else value >= low) or value == float("inf"):
        raise ModelFormatError(f"field {where + key!r} must be finite and "
                               f"{'>' if strict else '>='} {low}, found {value!r}")
    return value


def _index_set(doc, key, dimension, rule_key) -> BasisIndexSet:
    indices = _array(doc, key, (None, dimension), int)
    try:
        return BasisIndexSet(dimension, indices, rule=doc.get(rule_key, "explicit"))
    except ValueError as exc:
        raise ModelDimensionError(f"field {key!r}: {exc}") from None


def _tolist(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


# the dimension that sizes each model type's arrays: features D, or the
# stored training pairs N
_SIZE_KEY = {TYPE_TRIPLE_BASIS: "D", TYPE_LINEAR_SMOOTHER: "N"}


def _header(model, kind, size) -> dict:
    """The fields both model types share, in file order."""
    return {
        "format_version": FORMAT_VERSION,
        "type": kind,
        "basis_tag": BASIS_TAG,
        "dimensions": {
            "l": model.input_index_set.dimension,
            "k": model.output_index_set.dimension,
            "s": len(model.input_index_set),
            "r": len(model.output_index_set),
            _SIZE_KEY[kind]: size,
        },
        "input_indices": model.input_index_set.indices.tolist(),
        "input_rule": model.input_index_set.rule,
        "output_indices": model.output_index_set.indices.tolist(),
        "output_rule": model.output_index_set.rule,
    }


def _read_header(doc):
    """Check the shared fields; returns (type, input index set, output
    index set, size), size being D or N by type."""
    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ModelVersionError(
            f"model file has format version {version!r}; this build reads "
            f"version {FORMAT_VERSION}"
        )
    kind = _require(doc, "type")
    if kind not in (TYPE_TRIPLE_BASIS, TYPE_LINEAR_SMOOTHER):
        raise ModelFormatError(f"unknown model type {kind!r}")
    basis_tag = _require(doc, "basis_tag")
    if basis_tag != BASIS_TAG:
        raise ModelFormatError(
            f"field 'basis_tag' must be {BASIS_TAG!r}, found {basis_tag!r}")
    dims = _require(doc, "dimensions")
    if not isinstance(dims, dict):
        raise ModelFormatError("field 'dimensions' must be an object")
    l, k, s, r, size = (
        _scalar(dims, key, int, 1, "dimensions.")
        for key in ("l", "k", "s", "r", _SIZE_KEY[kind])
    )
    input_set = _index_set(doc, "input_indices", l, "input_rule")
    output_set = _index_set(doc, "output_indices", k, "output_rule")
    if len(input_set) != s or len(output_set) != r:
        raise ModelDimensionError(
            "declared index-set sizes do not match the stored index lists"
        )
    return kind, input_set, output_set, size


def save_model(model, destination) -> None:
    """Write a fitted model (either type) to a JSON model file."""
    if isinstance(model, TripleBasisModel):
        fmap = model.feature_map
        doc = _header(model, TYPE_TRIPLE_BASIS, fmap.feature_count)
        doc.update({
            "sigma": fmap.bandwidth,
            "lambda": model.ridge_lambda,
            "seed": fmap.seed,
            "frequencies": _tolist(fmap.frequencies),
            "phases": _tolist(fmap.phases),
            "psi": _tolist(model.psi),
            "training_count": model.training_count,
        })
    elif isinstance(model, LinearSmootherModel):
        doc = _header(model, TYPE_LINEAR_SMOOTHER, model.training_count)
        doc.update({
            "bandwidth": model.bandwidth,
            "kernel_tag": model.kernel_tag,
            "train_inputs": _tolist(model.train_inputs),
            "train_outputs": _tolist(model.train_outputs),
        })
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    # json.dumps runs the C encoder; json.dump, the Python one, to the same text
    if hasattr(destination, "write"):
        destination.write(json.dumps(doc))
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))


def load_model(source):
    """Read a model file back; returns the same model type that was saved.

    Raises ModelVersionError on unknown format versions, and
    ModelDimensionError / ModelFormatError on corrupt documents.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"truncated or malformed model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must hold a JSON object")

    kind, input_set, output_set, size = _read_header(doc)
    s, r = len(input_set), len(output_set)
    try:
        if kind == TYPE_TRIPLE_BASIS:
            fmap = RksFeatureMap(
                input_dim=s,
                feature_count=size,
                bandwidth=_scalar(doc, "sigma", float, 0.0, strict=True),
                frequencies=_array(doc, "frequencies", (size, s)),
                phases=_array(doc, "phases", (size,)),
                seed=_scalar(doc, "seed", int, 0),
            )
            return TripleBasisModel(
                input_index_set=input_set,
                output_index_set=output_set,
                feature_map=fmap,
                psi=_array(doc, "psi", (size, r)),
                ridge_lambda=_scalar(doc, "lambda", float, 0.0),
                training_count=_scalar(doc, "training_count", int, 0),
            )
        return LinearSmootherModel(
            input_index_set=input_set,
            output_index_set=output_set,
            train_inputs=_array(doc, "train_inputs", (size, s)),
            train_outputs=_array(doc, "train_outputs", (size, r)),
            bandwidth=_scalar(doc, "bandwidth", float, 0.0, strict=True),
            kernel_tag=str(doc.get("kernel_tag", "epanechnikov")),
        )
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelDimensionError(str(exc)) from None
