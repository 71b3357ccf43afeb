"""Properties of the input boundaries, checked on generated inputs: dataset
lines, series files and model files either read or fail with the
boundary's own error, and a model that can be built saves and loads bit for
bit. ``derandomize`` draws the same examples on every run; the strategies
stay small (at most 20 points per observation, dimensions 1 to 3, tiny
models) so that the module runs in seconds."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import identity_task
from tribasis import (
    LinearSmootherModel,
    ModelFormatError,
    RksFeatureMap,
    TripleBasisModel,
    enumerate_ball,
    fit,
    load_model,
    lse_fit,
    sample_feature_map,
    save_model,
)
from tribasis.cli import DatasetFormatError, ingest_dataset, read_series
from tribasis.features import TWO_PI

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

# any JSON document; integers past 64 bits or past the float range, and
# non-finite floats, included
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**1100), 2**1100) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)
# mostly numbers a valid observation holds, sometimes anything
ENTRY = st.floats(0.0, 1.0) | st.integers(-1, 2) | JSON
POINTS = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(ENTRY, min_size=d, max_size=d), min_size=1, max_size=20))
OBSERVATION = st.fixed_dictionaries(
    {"points": POINTS | JSON},
    optional={"kind": st.sampled_from(["noisy-evaluations", "density-sample"]) | JSON,
              "values": st.lists(ENTRY, min_size=1, max_size=20) | JSON},
) | JSON
LINE = st.fixed_dictionaries({"input": OBSERVATION},
                             optional={"output": OBSERVATION}) | JSON


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "input"


@PROPERTY
@given(lines=st.lists(LINE, min_size=1, max_size=3), require_output=st.booleans())
def test_any_json_lines_ingest_to_pairs_or_a_dataset_error(scratch, lines,
                                                          require_output):
    scratch.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
    try:
        pairs = ingest_dataset(scratch, require_output=require_output)
    except DatasetFormatError:
        return
    assert len(pairs) == len(lines)
    for pair in pairs:
        for obs in filter(None, pair):
            assert ((obs.points >= 0.0) & (obs.points <= 1.0)).all()


SERIES_TOKENS = [b"0.5", b"-1e3", b"7", b"1_0", b"nan", b"-inf", b"1e400", b"x",
                 b"\xff", b"\xc3\xa9", b" ", b"\t", b"\x0b", b"\n", b"\r", b"\r\n"]


@PROPERTY
@given(data=st.binary(max_size=60)
       | st.lists(st.sampled_from(SERIES_TOKENS), max_size=30).map(b"".join))
def test_any_bytes_read_as_a_finite_series_or_a_value_error(scratch, data):
    scratch.write_bytes(data)
    try:
        values = read_series(scratch)
    except ValueError:
        return
    assert values.dtype == float and values.ndim == 1 and values.size
    assert np.isfinite(values).all()


def _fitted_documents():
    """The saved documents of a tiny model of each type."""
    train, _, _ = identity_task(5, 6, 0, 12)
    uset = enumerate_ball(1, 2.0)
    models = [fit(train, uset, uset, sample_feature_map(len(uset), 4, 1.0, seed=1), 1e-3),
              lse_fit(train, uset, uset, 0.5)]
    docs = []
    for model in models:
        stream = io.StringIO()
        save_model(model, stream)
        docs.append(json.loads(stream.getvalue()))
    return docs


DOCUMENTS = _fitted_documents()
DELETE = object()


def _locations(doc, where=()):
    """Every key of ``doc`` and every entry of its lists, as paths."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in children:
        yield where + (key,)
        if isinstance(value, (dict, list)):
            yield from _locations(value, where + (key,))


def _fields(doc):
    """The document's fields and the entries of ``dimensions``, as paths:
    far fewer than the array entries, so they are drawn on their own too."""
    return [where for where in _locations(doc) if isinstance(where[-1], str)]


@PROPERTY
@given(data=st.data())
def test_any_single_field_edit_loads_or_raises_a_format_error(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(DOCUMENTS))))
    where = data.draw(st.sampled_from(_fields(doc)) | st.sampled_from(list(_locations(doc))))
    value = data.draw(st.just(DELETE) | JSON)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    try:
        load_model(io.StringIO(json.dumps(doc)))
    except ModelFormatError:
        pass


# model scalars of any float value, inf and NaN included, mostly in the
# loader's range; integers, negative ones included; array entries that are
# finite for some models and any float, inf and NaN included, for others
SCALAR = (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
          | st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -1.0]))
INTEGER = st.integers(-2, 2**70)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ENTRIES = st.sampled_from([FINITE, st.floats()])
INDEX_SETS = st.builds(enumerate_ball, st.integers(1, 3), st.sampled_from([0.0, 1.0, 2.0]))


@st.composite
def _triple_basis(draw):
    """A zero-argument builder of a tiny triple-basis model."""
    in_set, out_set = draw(INDEX_SETS), draw(INDEX_SETS)
    d, s = draw(st.integers(1, 5)), len(in_set)
    sigma, seed = draw(SCALAR), draw(INTEGER)
    entries = draw(ENTRIES)
    frequencies = draw(arrays(float, (d, s), elements=entries))
    phase = st.floats(0.0, TWO_PI, exclude_max=True) if entries is FINITE else entries
    phases = draw(arrays(float, d, elements=phase))
    psi = draw(arrays(float, (d, len(out_set)), elements=entries))
    ridge_lambda, count = draw(SCALAR), draw(INTEGER)
    return lambda: TripleBasisModel(
        in_set, out_set, RksFeatureMap(s, d, sigma, frequencies, phases, seed),
        psi, ridge_lambda, count)


@st.composite
def _smoother(draw):
    """A zero-argument builder of a tiny smoother."""
    in_set, out_set, n = draw(INDEX_SETS), draw(INDEX_SETS), draw(st.integers(1, 5))
    entries = draw(ENTRIES)
    inputs = draw(arrays(float, (n, len(in_set)), elements=entries))
    outputs = draw(arrays(float, (n, len(out_set)), elements=entries))
    bandwidth = draw(SCALAR)
    return lambda: LinearSmootherModel(in_set, out_set, inputs, outputs, bandwidth)


def _arrays(model):
    if isinstance(model, TripleBasisModel):
        fmap = model.feature_map
        return [fmap.frequencies, fmap.phases, model.psi]
    return [model.train_inputs, model.train_outputs]


@PROPERTY
@given(build=_triple_basis() | _smoother())
def test_a_model_that_builds_saves_and_loads_bitwise(build):
    try:
        model = build()
    except ValueError:
        return
    stream = io.StringIO()
    save_model(model, stream)
    loaded = load_model(io.StringIO(stream.getvalue()))
    assert type(loaded) is type(model)
    for before, after in zip(_arrays(model), _arrays(loaded)):
        assert before.shape == after.shape and before.tobytes() == after.tobytes()
    again = io.StringIO()
    save_model(loaded, again)
    assert again.getvalue() == stream.getvalue()
