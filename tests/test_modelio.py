"""Model files: bit-exact round trips and distinct failure modes."""

import dataclasses
import io
import json
import re

import numpy as np
import pytest

from helpers import identity_task, write_json_reference
from tribasis import (
    ModelDimensionError,
    ModelFormatError,
    ModelVersionError,
    enumerate_ball,
    fit,
    load_model,
    lse_fit,
    lse_predict,
    predict_coeffs,
    sample_feature_map,
    save_model,
)
from tribasis.cli import main, write_dataset


@pytest.fixture(scope="module")
def fitted():
    train, test, _ = identity_task(23, 30, 4, 60)
    uset = enumerate_ball(1, 3.0)
    fmap = sample_feature_map(len(uset), 40, 1.5, seed=2)
    model = fit(train, uset, uset, fmap, 1e-6)
    smoother = lse_fit(train, uset, uset, bandwidth=1.0)
    return model, smoother, test


def test_triple_basis_round_trip_bitwise(fitted, tmp_path):
    model, _, test = fitted
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.ridge_lambda == model.ridge_lambda
    assert loaded.training_count == model.training_count
    assert np.array_equal(loaded.psi, model.psi)
    assert np.array_equal(loaded.feature_map.frequencies, model.feature_map.frequencies)
    for pin, _ in test:
        before = predict_coeffs(model, pin).coefficients
        after = predict_coeffs(loaded, pin).coefficients
        assert np.array_equal(before, after)


def test_linear_smoother_round_trip_bitwise(fitted, tmp_path):
    _, smoother, test = fitted
    path = tmp_path / "lse.json"
    save_model(smoother, path)
    loaded = load_model(path)
    assert loaded.bandwidth == smoother.bandwidth
    for pin, _ in test:
        assert np.array_equal(
            lse_predict(smoother, pin).coefficients,
            lse_predict(loaded, pin).coefficients,
        )


def test_type_tags_distinct(fitted, tmp_path):
    model, smoother, _ = fitted
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(smoother, p2)
    assert json.loads(p1.read_text())["type"] == "triple-basis"
    assert json.loads(p2.read_text())["type"] == "linear-smoother"


def test_corrupted_psi_row_length(fitted, tmp_path):
    model, _, _ = fitted
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["psi"][3] = doc["psi"][3][:-1]  # drop one entry
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelDimensionError):
        load_model(path)


def test_unknown_version_names_both(fitted, tmp_path):
    model, _, _ = fitted
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionError, match="99") as err:
        load_model(path)
    assert "1" in str(err.value)


def test_truncated_file(fitted, tmp_path):
    model, _, _ = fitted
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_unknown_type_tag(fitted, tmp_path):
    model, _, _ = fitted
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["type"] = "nearest-neighbor"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("value", ["legendre", "missing"])
@pytest.mark.parametrize("kind", ["triple-basis", "linear-smoother"])
def test_basis_tag_other_than_cosine(fitted, tmp_path, capsys, kind, value):
    model, smoother, test = fitted
    path = tmp_path / "model.json"
    save_model(model if kind == "triple-basis" else smoother, path)
    doc = json.loads(path.read_text())
    if value == "missing":
        del doc["basis_tag"]
    else:
        doc["basis_tag"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="'basis_tag'"):
        load_model(path)
    data = tmp_path / "data.jsonl"
    write_dataset(test, data)
    argv = ["predict", "--model", str(path), "--data", str(data),
            "--out", str(tmp_path / "preds.jsonl")]
    assert main(argv) == 1
    assert "'basis_tag'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["gaussian", "missing"])
def test_kernel_tag_other_than_epanechnikov(fitted, tmp_path, capsys, value):
    _, smoother, test = fitted
    path = tmp_path / "model.json"
    save_model(smoother, path)
    doc = json.loads(path.read_text())
    if value == "missing":
        del doc["kernel_tag"]
    else:
        doc["kernel_tag"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="'kernel_tag'") as caught:
        load_model(path)
    assert caught.type is ModelFormatError
    data = tmp_path / "data.jsonl"
    write_dataset(test, data)
    argv = ["predict", "--model", str(path), "--data", str(data),
            "--out", str(tmp_path / "preds.jsonl")]
    assert main(argv) == 1
    assert "'kernel_tag'" in capsys.readouterr().err


def _first_entry(array, value):
    """A copy of ``array`` whose first entry is ``value``."""
    out = np.array(array, dtype=float)
    out.flat[0] = value
    return out


IN_RANGE = r"must be in (\[|\()0, inf\)"
# models whose files load_model would refuse: each is refused when built,
# with the error it raises
UNLOADABLE = {
    "feature-map-sigma-inf": (lambda model, smoother, test: sample_feature_map(
        len(model.input_index_set), 40, float("inf"), seed=2), IN_RANGE),
    "smoother-bandwidth-inf": (lambda model, smoother, test: lse_fit(
        test, smoother.input_index_set, smoother.output_index_set, float("inf")),
        IN_RANGE),
    "lambda-nan": (lambda model, smoother, test: dataclasses.replace(
        model, ridge_lambda=float("nan")), IN_RANGE),
    "lambda-inf": (lambda model, smoother, test: dataclasses.replace(
        model, ridge_lambda=float("inf")), IN_RANGE),
    "psi-nan": (lambda model, smoother, test: dataclasses.replace(
        model, psi=_first_entry(model.psi, np.nan)), "psi must be finite"),
    "frequencies-inf": (lambda model, smoother, test: dataclasses.replace(
        model.feature_map, frequencies=_first_entry(model.feature_map.frequencies, np.inf)),
        "frequencies must be finite"),
    "phases-nan": (lambda model, smoother, test: dataclasses.replace(
        model.feature_map, phases=_first_entry(model.feature_map.phases, np.nan)),
        r"phases must lie in \[0, 2\*pi\)"),
    "seed-negative": (lambda model, smoother, test: dataclasses.replace(
        model.feature_map, seed=-1), "seed must be non-negative"),
    "training-count-negative": (lambda model, smoother, test: dataclasses.replace(
        model, training_count=-1), "training_count must be non-negative"),
    "smoother-inputs-nan": (lambda model, smoother, test: dataclasses.replace(
        smoother, train_inputs=_first_entry(smoother.train_inputs, np.nan)),
        "training coefficients must be finite"),
}


@pytest.mark.parametrize("build, message", UNLOADABLE.values(), ids=UNLOADABLE.keys())
def test_a_model_its_file_would_not_load_is_refused(fitted, build, message):
    with pytest.raises(ValueError, match=message):
        build(*fitted)


def test_index_size_mismatch(fitted, tmp_path):
    model, _, _ = fitted
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["input_indices"] = doc["input_indices"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelDimensionError):
        load_model(path)


def test_save_unknown_model_type(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "x.json")


# every scalar field of each model type, as a path into the document
SCALAR_FIELDS = [
    ("triple-basis", ("dimensions", "l")),
    ("triple-basis", ("dimensions", "k")),
    ("triple-basis", ("dimensions", "s")),
    ("triple-basis", ("dimensions", "r")),
    ("triple-basis", ("dimensions", "D")),
    ("triple-basis", ("sigma",)),
    ("triple-basis", ("lambda",)),
    ("triple-basis", ("seed",)),
    ("triple-basis", ("training_count",)),
    ("linear-smoother", ("dimensions", "l")),
    ("linear-smoother", ("dimensions", "N")),
    ("linear-smoother", ("bandwidth",)),
]


@pytest.mark.parametrize("value", ["missing", None, "1"])
@pytest.mark.parametrize(
    "kind, field", SCALAR_FIELDS, ids=[f"{k}-{'.'.join(f)}" for k, f in SCALAR_FIELDS]
)
def test_malformed_scalar_field(fitted, tmp_path, capsys, kind, field, value):
    model, smoother, test = fitted
    path = tmp_path / "model.json"
    save_model(model if kind == "triple-basis" else smoother, path)
    doc = json.loads(path.read_text())
    parent = doc[field[0]] if len(field) == 2 else doc
    if value == "missing":
        del parent[field[-1]]
    else:
        parent[field[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=re.escape(repr(".".join(field)))):
        load_model(path)
    data = tmp_path / "data.jsonl"
    write_dataset(test, data)
    argv = ["predict", "--model", str(path), "--data", str(data),
            "--out", str(tmp_path / "preds.jsonl")]
    assert main(argv) == 1
    assert f"'{'.'.join(field)}'" in capsys.readouterr().err


# (kind, field, value) with the value non-finite or below the field's bound
OUT_OF_RANGE = [
    ("triple-basis", ("sigma",), float("nan")),
    ("triple-basis", ("sigma",), float("inf")),
    ("triple-basis", ("sigma",), 0.0),
    ("triple-basis", ("lambda",), float("nan")),
    ("triple-basis", ("lambda",), float("-inf")),
    ("triple-basis", ("lambda",), -1),
    ("triple-basis", ("seed",), -1),
    ("triple-basis", ("training_count",), -5),
    ("triple-basis", ("dimensions", "l"), 0),
    ("triple-basis", ("dimensions", "k"), 0),
    ("triple-basis", ("dimensions", "s"), 0),
    ("triple-basis", ("dimensions", "r"), -2),
    ("triple-basis", ("dimensions", "D"), 0),
    ("linear-smoother", ("bandwidth",), float("inf")),
    ("linear-smoother", ("bandwidth",), -0.5),
    ("linear-smoother", ("dimensions", "N"), 0),
]


@pytest.mark.parametrize(
    "kind, field, value", OUT_OF_RANGE,
    ids=[f"{k}-{'.'.join(f)}={v}" for k, f, v in OUT_OF_RANGE],
)
def test_out_of_range_scalar_field(fitted, tmp_path, capsys, kind, field, value):
    model, smoother, test = fitted
    path = tmp_path / "model.json"
    save_model(model if kind == "triple-basis" else smoother, path)
    doc = json.loads(path.read_text())
    parent = doc[field[0]] if len(field) == 2 else doc
    parent[field[-1]] = value
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    name = repr(".".join(field))
    with pytest.raises(ModelFormatError, match=re.escape(name)) as caught:
        load_model(path)
    assert caught.type is ModelFormatError
    data = tmp_path / "data.jsonl"
    write_dataset(test, data)
    argv = ["predict", "--model", str(path), "--data", str(data),
            "--out", str(tmp_path / "preds.jsonl")]
    assert main(argv) == 1
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("kind, field", [
    ("triple-basis", "sigma"), ("triple-basis", "lambda"), ("linear-smoother", "bandwidth"),
])
def test_an_integer_past_the_float_range_is_refused(fitted, kind, field):
    model, smoother, _ = fitted
    stream = io.StringIO()
    save_model(model if kind == "triple-basis" else smoother, stream)
    doc = json.loads(stream.getvalue())
    doc[field] = 10**400
    with pytest.raises(ModelFormatError, match=f"'{field}' must be finite") as caught:
        load_model(io.StringIO(json.dumps(doc)))
    assert caught.type is ModelFormatError


# (kind, path to one array entry, value): a wrong type, a null or an
# integer too large for an index
BAD_ARRAY_ENTRIES = [
    ("triple-basis", ("psi", 0, 0), {}),
    ("triple-basis", ("psi", 0, 0), None),
    ("triple-basis", ("phases", 0), {}),
    ("triple-basis", ("frequencies", 0, 0), "0.5"),
    ("triple-basis", ("input_indices", 0, 0), None),
    ("triple-basis", ("input_indices", 0, 0), "x"),
    ("triple-basis", ("output_indices", 0, 0), 10**30),
    ("linear-smoother", ("train_outputs", 0, 0), None),
]


@pytest.mark.parametrize(
    "kind, entry, value", BAD_ARRAY_ENTRIES,
    ids=[f"{k}-{'.'.join(map(str, e))}={v!r}" for k, e, v in BAD_ARRAY_ENTRIES],
)
def test_wrong_typed_array_entry(fitted, tmp_path, capsys, kind, entry, value):
    model, smoother, test = fitted
    path = tmp_path / "model.json"
    save_model(model if kind == "triple-basis" else smoother, path)
    doc = json.loads(path.read_text())
    target = doc
    for key in entry[:-1]:
        target = target[key]
    target[entry[-1]] = value
    path.write_text(json.dumps(doc))
    name = repr(entry[0])
    with pytest.raises(ModelDimensionError, match=re.escape(name)):
        load_model(path)
    data = tmp_path / "data.jsonl"
    write_dataset(test, data)
    argv = ["predict", "--model", str(path), "--data", str(data),
            "--out", str(tmp_path / "preds.jsonl")]
    assert main(argv) == 1
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["triple-basis", "linear-smoother"])
def test_saved_bytes_equal_the_stdlib_streaming_writer(fitted, tmp_path, kind):
    model, smoother, _ = fitted
    path, stream = tmp_path / "model.json", io.StringIO()
    save_model(model if kind == "triple-basis" else smoother, path)
    save_model(model if kind == "triple-basis" else smoother, stream)
    # floats are written with their shortest repr, so the file reads back
    # to the document it was written from
    write_json_reference(json.loads(path.read_text()), tmp_path / "reference.json")
    expected = (tmp_path / "reference.json").read_bytes()
    assert path.read_bytes() == expected
    assert stream.getvalue().encode() == expected
