"""Dataset ingestion, series windowing, the benchmark harness, and the
command-line surface."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

from helpers import count_designs, ingest_dataset_reference, quadrature_mse
from tribasis import (
    FunctionObservation,
    SobolevSpec,
    SyntheticConfig,
    enumerate_ball,
    fit,
    fit_cv,
    generate_dataset,
    load_model,
    lse_fit,
    lse_fit_cv,
    make_mapping,
    predict_coeffs,
    project,
    sample_feature_map,
)
from tribasis import cli
from tribasis.basis import holdout_split
from tribasis.cli import (
    BenchmarkConfig,
    DatasetFormatError,
    SeriesTransform,
    SeriesWindowing,
    coefficient_mse,
    evaluate_model,
    fit_estimator,
    ingest_dataset,
    main,
    midpoint_grid,
    read_series,
    run_benchmark,
    synthetic_task,
    window_series,
    write_dataset,
)

SPEC = SobolevSpec(np.ones(1), np.ones(1), 2.0)


def _small_dataset(n_pairs=12, n_points=40, seed=3):
    mapping = make_mapping(SPEC, SPEC, n_anchors=5, seed=seed)
    config = SyntheticConfig(SPEC, SPEC, 0.05, n_points, n_pairs, seed=seed + 1)
    return generate_dataset(config, mapping)


def _one_point_line(in_value="1.0"):
    """A valid one-point dataset line with the input value's literal
    spliced in as given."""
    return (
        '{"input": {"kind": "noisy-evaluations", "points": [[0.1]], '
        f'"values": [{in_value}]}}, '
        '"output": {"kind": "noisy-evaluations", "points": [[0.2]], "values": [2.0]}}'
    )


def _assert_same_bits(expected, actual):
    expected, actual = np.asarray(expected), np.asarray(actual)
    assert expected.dtype == actual.dtype and expected.shape == actual.shape
    assert expected.tobytes() == actual.tobytes()


def _assert_same_pairs(expected, loaded):
    assert len(loaded) == len(expected)
    for pair, loaded_pair in zip(expected, loaded):
        for obs, got in zip(pair, loaded_pair):
            if obs is None:
                assert got is None
                continue
            assert got.kind == obs.kind
            _assert_same_bits(obs.points, got.points)
            if obs.values is None:
                assert got.values is None
            else:
                _assert_same_bits(obs.values, got.values)


# --------------------------------------------------------------------------
# ingestion


def test_round_trip_dataset(tmp_path):
    pairs = _small_dataset()
    path = tmp_path / "data.jsonl"
    write_dataset(pairs, path)
    loaded = ingest_dataset(path)
    assert len(loaded) == len(pairs)
    for (pa, qa), (pb, qb) in zip(pairs, loaded):
        assert np.array_equal(pa.points, pb.points)
        assert np.array_equal(pa.values, pb.values)
        assert np.array_equal(qa.points, qb.points)
        assert np.array_equal(qa.values, qb.values)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty dataset"):
        ingest_dataset(path)


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(
        {"input": {"kind": "noisy-evaluations", "points": [[0.1]], "values": [1.0]},
         "output": {"kind": "noisy-evaluations", "points": [[0.2]], "values": [2.0]}}
    )
    path.write_text(good + "\n{not json\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        ingest_dataset(path)


def test_out_of_range_point_names_line(tmp_path):
    path = tmp_path / "range.jsonl"
    bad = json.dumps(
        {"input": {"kind": "noisy-evaluations", "points": [[1.0000001]],
                   "values": [1.0]},
         "output": {"kind": "noisy-evaluations", "points": [[0.2]], "values": [2.0]}}
    )
    path.write_text(bad + "\n")
    with pytest.raises(DatasetFormatError, match=r"line 1.*1\.0000001"):
        ingest_dataset(path)


def test_dimension_drift_names_line(tmp_path):
    path = tmp_path / "dims.jsonl"
    line1 = {"input": {"kind": "noisy-evaluations", "points": [[0.1]], "values": [1.0]},
             "output": {"kind": "noisy-evaluations", "points": [[0.2]], "values": [2.0]}}
    line2 = {"input": {"kind": "noisy-evaluations", "points": [[0.1, 0.3]],
                       "values": [1.0]},
             "output": {"kind": "noisy-evaluations", "points": [[0.2]], "values": [2.0]}}
    path.write_text(json.dumps(line1) + "\n" + json.dumps(line2) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        ingest_dataset(path)


def test_missing_output_when_required(tmp_path):
    path = tmp_path / "noout.jsonl"
    path.write_text(json.dumps(
        {"input": {"kind": "noisy-evaluations", "points": [[0.1]], "values": [1.0]}}
    ) + "\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        ingest_dataset(path)
    loaded = ingest_dataset(path, require_output=False)
    assert loaded[0][1] is None


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_value_names_line(tmp_path, literal):
    path = tmp_path / "nonfinite.jsonl"
    path.write_text(_one_point_line() + "\n" + _one_point_line(literal) + "\n")
    with pytest.raises(DatasetFormatError, match=r"^line 2: "):
        ingest_dataset(path)


@pytest.mark.parametrize("values", [[[1.0]], 1.0], ids=["nested", "scalar"])
def test_values_that_are_not_a_flat_list_name_the_line(tmp_path, values):
    doc = json.loads(_one_point_line())
    doc["output"]["values"] = values
    path = tmp_path / "nested.jsonl"
    path.write_text(_one_point_line() + "\n" + json.dumps(doc) + "\n")
    with pytest.raises(DatasetFormatError, match=r"^line 2: values must be a 1-D list"):
        ingest_dataset(path)


@pytest.mark.parametrize("field, value", [
    ("points", {}), ("points", [[{}]]), ("values", [{}]),
], ids=["points-object", "point-object", "value-object"])
def test_objects_inside_an_observation_name_the_line(tmp_path, capsys, field, value):
    doc = json.loads(_one_point_line())
    doc["input"][field] = value
    path = tmp_path / "objects.jsonl"
    path.write_text(_one_point_line() + "\n" + json.dumps(doc) + "\n")
    message = f"line 2: {field} must be a nested list of numbers"
    with pytest.raises(DatasetFormatError, match=f"^{message}"):
        ingest_dataset(path)
    assert main(["fit", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("where", ["string", "line start"])
def test_invalid_utf8_names_line(tmp_path, where):
    good = _one_point_line().encode()
    if where == "string":
        bad = good.replace(b"noisy-evaluations", b"noisy-\xffevaluations", 1)
    else:
        bad = b"\xff" + good
    path = tmp_path / "latin.jsonl"
    path.write_bytes(good + b"\n" + bad + b"\n")
    with pytest.raises(DatasetFormatError, match=r"^line 2: malformed JSON"):
        ingest_dataset(path)


def test_write_dataset_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(8)
    edge = [-0.0, 5e-324, 1e-05, 1.7976931348623157e308]
    backing = rng.standard_normal(12)
    strided = FunctionObservation("noisy-evaluations", rng.uniform(size=6), backing[::2])
    assert not strided.values.flags.c_contiguous
    edge_evals = FunctionObservation("noisy-evaluations", [-0.0, 5e-324, 1e-05, 1.0],
                                     edge)
    negated = FunctionObservation("noisy-evaluations", [0.0, 0.5, 0.25, 1.0],
                                  [-x for x in edge])
    density = FunctionObservation("density-sample", rng.uniform(size=(7, 1)))
    plane = FunctionObservation("noisy-evaluations", rng.uniform(size=(9, 2)),
                                rng.standard_normal(9))
    plane_density = FunctionObservation("density-sample", rng.uniform(size=(5, 2)))
    datasets = {
        "line.jsonl": [(strided, edge_evals), (edge_evals, density),
                       (density, negated), (negated, strided)],
        "plane.jsonl": [(plane, plane_density), (plane_density, plane)],
        "inputs.jsonl": [(plane, None), (plane_density, None)],
    }
    for name, pairs in datasets.items():
        path = tmp_path / name
        write_dataset(pairs, path)
        assert b" " not in path.read_bytes()  # compact JSON
        require_output = name != "inputs.jsonl"
        _assert_same_pairs(pairs, ingest_dataset(path, require_output))
        # any JSON reader gets the same numbers
        _assert_same_pairs(pairs, ingest_dataset_reference(path, require_output))


def test_ingest_matches_stdlib_reference(tmp_path):
    synth = tmp_path / "synth.jsonl"
    assert main(["synth", "--out", str(synth), "--instances", "15", "--points", "25",
                 "--dim-in", "2", "--seed", "6"]) == 0
    series = tmp_path / "series.txt"
    np.savetxt(series, np.cos(np.arange(200) / 7.0))
    windows = tmp_path / "win.jsonl"
    assert main(["window", "--series", str(series), "--out", str(windows),
                 "--window", "20", "--stride", "7"]) == 0
    # written by the standard library: spaced separators, CRLF line ends,
    # blank lines and a line without an output
    loose = tmp_path / "loose.jsonl"
    docs = [json.loads(line) for line in synth.read_text().splitlines()[:3]]
    del docs[1]["output"]
    with open(loose, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(["", json.dumps(docs[0]), "  ", json.dumps(docs[1]),
                               json.dumps(docs[2], indent=None), ""]))
    for path, require_output in ((synth, True), (windows, True), (loose, False)):
        _assert_same_pairs(ingest_dataset_reference(path, require_output),
                           ingest_dataset(path, require_output))


def _grid_line(points_in, points_out, kind="noisy-evaluations", values_in=None):
    """One dataset line, written by the standard library, with the given
    grids and arbitrary finite values."""
    def obs(points, values=None):
        doc = {"kind": kind, "points": points}
        if kind == "noisy-evaluations":
            doc["values"] = values if values is not None else [
                0.25 * i - 1.0 for i in range(len(points))]
        return doc
    return json.dumps({"input": obs(points_in, values_in), "output": obs(points_out)})


def _grid_files():
    window = [[(i + 0.5) / 8] for i in range(8)]
    other = [[0.9 - 0.1 * i] for i in range(8)]
    flat = [0.2, 0.4, 0.6, 0.8]
    zero, signed = [[0.0], [0.5], [1.0]], [[-0.0], [0.5], [1.0]]
    rng = np.random.default_rng(17)
    return {
        "window": [_grid_line(window, window) for _ in range(5)],
        "alternating": [_grid_line(*((window, other) if i % 2 else (other, window)))
                        for i in range(6)] + [_grid_line(flat, flat)] * 3,
        # equal as lists, not as bits
        "signed zero": [_grid_line(zero, signed), _grid_line(signed, zero),
                        _grid_line(zero, signed), _grid_line(signed, signed)],
        "density": [_grid_line(*rng.uniform(size=(2, 6, 2)).tolist(),
                               kind="density-sample") for _ in range(3)]
                   + [_grid_line(*[rng.uniform(size=(6, 2)).tolist()] * 2,
                                 kind="density-sample")] * 3,
    }


@pytest.mark.parametrize("name", list(_grid_files()))
def test_ingest_reused_grids_match_stdlib_reference(tmp_path, name):
    path = tmp_path / "grids.jsonl"
    path.write_text("\n".join(_grid_files()[name]) + "\n")
    _assert_same_pairs(ingest_dataset_reference(path), ingest_dataset(path))


def test_window_file_shares_one_read_only_grid(tmp_path):
    series = tmp_path / "series.txt"
    np.savetxt(series, np.cos(np.arange(300) / 9.0))
    windows = tmp_path / "win.jsonl"
    assert main(["window", "--series", str(series), "--out", str(windows),
                 "--window", "25"]) == 0
    pairs = ingest_dataset(windows)
    assert len(pairs) == 11
    for slot in (0, 1):
        grid = pairs[0][slot].points
        assert all(pair[slot].points is grid for pair in pairs)
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0.5


def test_bad_values_on_a_reused_grid_name_the_line(tmp_path):
    grid = [[0.25], [0.5], [0.75]]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([_grid_line(grid, grid), _grid_line(grid, grid),
                               _grid_line(grid, grid, values_in=[1.0, 2.0])]) + "\n")
    with pytest.raises(DatasetFormatError, match=r"^line 3: 2 values for 3 points"):
        ingest_dataset(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_ingest_pauses_and_restores_the_collector(tmp_path, monkeypatch, enabled):
    good = tmp_path / "good.jsonl"
    good.write_text(_one_point_line() + "\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_one_point_line() + "\n{not json\n")
    seen = []
    build = cli.FunctionObservation

    def recording(*args):
        seen.append(gc.isenabled())
        return build(*args)

    monkeypatch.setattr(cli, "FunctionObservation", recording)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(ingest_dataset(good)) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(DatasetFormatError, match="^line 2"):
            ingest_dataset(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False] * 4


def test_bench_split_draws_its_own_stream():
    n, seed = 120, 11
    train, test = cli._split_pairs(list(range(n)), BenchmarkConfig(seed=seed))
    order = np.array(train + test)
    assert (len(train), len(test)) == (96, 24)
    assert np.array_equal(np.sort(order), np.arange(n))
    # neither the feature maps' root stream nor the search split's child 0
    assert not np.array_equal(order, np.random.default_rng(seed).permutation(n))
    assert not np.array_equal(order, np.concatenate(holdout_split(n, seed)))
    child = np.random.SeedSequence(seed).spawn(2)[1]
    assert np.array_equal(order, np.random.default_rng(child).permutation(n))


_IMPORT_PROBE = """
import builtins, json, sys
for name in sys.argv[1:]:
    __import__(name)
preloaded = set(sys.modules)
direct, real_import = set(), builtins.__import__

def spy(name, globals=None, locals=None, fromlist=(), level=0):
    if level == 0 and (globals or {}).get("__name__", "").startswith("tribasis"):
        direct.add(name.partition(".")[0])
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = spy
import tribasis.cli
def tops(names):
    return sorted({m.partition(".")[0] for m in names} - set(sys.stdlib_module_names))
print(json.dumps({"direct": tops(direct), "added": tops(set(sys.modules) - preloaded)}))
"""


def test_cli_import_reaches_outside_the_stdlib_only_for_its_dependencies():
    # import time counts in every command's wall time: tribasis itself
    # imports only numpy, scipy and orjson beyond the standard library, and
    # loads no non-stdlib package that those three do not load themselves
    # (numpy's f2py, which scipy imports, brings charset_normalizer)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def probe(*preload):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *preload],
                             env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    bare, preloaded = probe(), probe("numpy", "scipy.linalg", "orjson")
    assert bare["direct"] == ["numpy", "orjson", "scipy"]
    assert {"numpy", "orjson", "scipy", "tribasis"} <= set(bare["added"])
    assert preloaded["added"] == ["tribasis"]


def test_read_series_errors(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("1.0\n\nnope\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_series(path)
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty series"):
        read_series(path)


@pytest.mark.parametrize("text", ["1.0\n2.0 3.0\n", "1.0\n2.0 3.0\n \t\n", "1.0\n2.0\t3.0"])
def test_read_series_rejects_two_numbers_on_a_line(tmp_path, text):
    # as many numbers as non-blank lines, but one line holds two
    path = tmp_path / "series.txt"
    path.write_bytes(text.encode())
    with pytest.raises(DatasetFormatError, match="^line 2: not a number"):
        read_series(path)


def test_read_series_whitespace_and_line_endings(tmp_path):
    path = tmp_path / "series.txt"
    path.write_bytes(b" 1.5 \r\n\t\n-2\r3e-1\n\x0c\n4")
    assert read_series(path).tolist() == [1.5, -2.0, 0.3, 4.0]


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e999"])
def test_read_series_rejects_non_finite(tmp_path, text):
    path = tmp_path / "series.txt"
    path.write_text(f"1.0\n\n{text}\n2.0\n")
    with pytest.raises(DatasetFormatError, match=r"^line 3: not a finite number"):
        read_series(path)


# --------------------------------------------------------------------------
# windowing


def test_forward_window_minimal_series():
    pairs, transform = window_series(
        [1.0, 2.0, 3.0, 4.0], SeriesWindowing(window_length=2, stride=2)
    )
    assert len(pairs) == 1
    pin, pout = pairs[0]
    np.testing.assert_allclose(pin.points[:, 0], [0.25, 0.75])
    np.testing.assert_allclose(transform.invert(pin.values), [1.0, 2.0])
    np.testing.assert_allclose(transform.invert(pout.values), [3.0, 4.0])


def test_forward_window_counts():
    series = np.arange(10.0)
    pairs, _ = window_series(series, SeriesWindowing(window_length=2, stride=2))
    assert len(pairs) == 4
    pairs, _ = window_series(series, SeriesWindowing(window_length=3, stride=3))
    assert len(pairs) == 2


def test_constant_series_windows():
    pairs, transform = window_series(
        np.full(8, 7.5), SeriesWindowing(window_length=2, stride=2)
    )
    for pin, pout in pairs:
        assert np.all(pin.values == pin.values[0])
        assert np.all(pout.values == pout.values[0])
    np.testing.assert_allclose(transform.invert(pairs[0][0].values), 7.5)


def test_forward_window_too_short():
    with pytest.raises(ValueError, match="too short"):
        window_series([1.0, 2.0, 3.0], SeriesWindowing(window_length=2))


def test_co_occurring_windows():
    a = np.arange(6.0)
    b = np.arange(6.0) * 2.0
    pairs, transform = window_series(
        a, SeriesWindowing(window_length=3, mode="co-occurring"), co_values=b
    )
    assert len(pairs) == 2
    pin, pout = pairs[0]
    np.testing.assert_allclose(transform.invert(pin.values), [0.0, 1.0, 2.0])
    np.testing.assert_allclose(transform.invert(pout.values), [0.0, 2.0, 4.0])


def test_co_occurring_window_too_short():
    with pytest.raises(ValueError, match="too short"):
        window_series(np.arange(2.0), SeriesWindowing(3, mode="co-occurring"),
                      co_values=np.arange(2.0))


@pytest.mark.parametrize("mode, length, w, stride", [
    ("forward", 20, 4, 1),
    ("forward", 23, 5, 3),
    ("co-occurring", 20, 4, 1),
    ("co-occurring", 23, 5, 3),
])
def test_overlapping_strides(mode, length, w, stride):
    series = np.arange(float(length))
    co = 100.0 + series if mode == "co-occurring" else None
    pairs, transform = window_series(
        series, SeriesWindowing(w, mode=mode, stride=stride), co_values=co
    )
    need = 2 * w if mode == "forward" else w
    assert len(pairs) == (length - need) // stride + 1
    offset = w if mode == "forward" else 0
    target = series if co is None else co
    for i, (pin, pout) in enumerate(pairs):
        start = i * stride
        np.testing.assert_allclose(transform.invert(pin.values),
                                   series[start : start + w], rtol=1e-13)
        np.testing.assert_allclose(transform.invert(pout.values),
                                   target[start + offset : start + offset + w],
                                   rtol=1e-13)


def test_co_occurring_transform_spans_both_series():
    # the minimum lies in the co-series and the maximum in the series
    a = np.array([2.0, 5.0, 3.0, 9.0])
    b = np.array([-1.0, 0.0, 4.0, 1.0])
    pairs, transform = window_series(
        a, SeriesWindowing(2, mode="co-occurring"), co_values=b
    )
    assert (transform.offset, transform.scale) == (-1.0, 10.0)
    values = np.concatenate([v.values for pair in pairs for v in pair])
    assert values.min() == 0.0 and values.max() == 1.0
    np.testing.assert_allclose(pairs[1][1].values, [0.5, 0.2])


def test_co_occurring_needs_second_series():
    with pytest.raises(ValueError):
        window_series(np.arange(6.0), SeriesWindowing(3, mode="co-occurring"))
    with pytest.raises(ValueError):
        window_series(
            np.arange(6.0), SeriesWindowing(3, mode="co-occurring"),
            co_values=np.arange(5.0),
        )


def test_windowing_validation():
    with pytest.raises(ValueError):
        SeriesWindowing(window_length=1)
    with pytest.raises(ValueError):
        SeriesWindowing(window_length=4, stride=0)
    with pytest.raises(ValueError):
        SeriesWindowing(window_length=4, mode="backward")


def test_series_transform_round_trip():
    tr = SeriesTransform(offset=-3.0, scale=11.0)
    x = np.linspace(-3.0, 8.0, 13)
    np.testing.assert_allclose(tr.invert(tr.apply(x)), x, rtol=1e-14)


# --------------------------------------------------------------------------
# quadrature


def test_midpoint_grid_shapes():
    g1 = midpoint_grid(1, 8)
    assert g1.shape == (8, 1)
    np.testing.assert_allclose(g1[0, 0], 1 / 16)
    g2 = midpoint_grid(2, 16)
    assert g2.shape == (256, 2)
    with pytest.raises(ValueError):
        midpoint_grid(3, 1024)


def test_quadrature_matches_parseval_on_shared_set():
    rng = np.random.default_rng(12)
    iset = enumerate_ball(1, 4.0)
    a = rng.standard_normal((6, len(iset)))
    b = rng.standard_normal((6, len(iset)))
    quad = quadrature_mse(a, iset, b, iset, points_per_axis=1024)
    parseval = float(((a - b) ** 2).sum(axis=1).mean())
    assert quad == pytest.approx(parseval, rel=1e-10)
    assert coefficient_mse(a, iset, b, iset) == pytest.approx(quad, rel=1e-12)


@pytest.mark.parametrize(
    "dim, pred_radius, truth_radius, points_per_axis",
    [
        (1, 3.0, 9.0, 1024),   # prediction set inside the truth set
        (1, 9.0, 3.0, 1024),   # prediction set around the truth set
        (2, 2.0, 5.0, 64),     # 64 nodes integrate degrees below 128 exactly
        (2, 5.0, 2.5, 64),
    ],
)
def test_coefficient_mse_matches_quadrature_on_different_sets(
    dim, pred_radius, truth_radius, points_per_axis
):
    rng = np.random.default_rng(13)
    pset, tset = enumerate_ball(dim, pred_radius), enumerate_ball(dim, truth_radius)
    a = rng.standard_normal((5, len(pset)))
    b = rng.standard_normal((5, len(tset)))
    quad = quadrature_mse(a, pset, b, tset, points_per_axis=points_per_axis)
    assert coefficient_mse(a, pset, b, tset) == pytest.approx(quad, rel=1e-12)


def test_coefficient_mse_rejects_misaligned_matrices():
    iset = enumerate_ball(1, 3.0)
    with pytest.raises(ValueError):
        coefficient_mse(np.zeros((2, len(iset))), iset, np.zeros((1, len(iset))), iset)
    with pytest.raises(ValueError):
        coefficient_mse(np.zeros((2, len(iset))), iset, np.zeros((2, 6)),
                        enumerate_ball(2, 2.0))


# --------------------------------------------------------------------------
# benchmark harness


def test_mean_only_benchmark_matches_output_variance():
    config = BenchmarkConfig(
        methods=("mean",), seed=12, train_count=60, test_count=30,
        points_per_function=50, radius_in=3.0, radius_out=3.0,
    )
    report = run_benchmark(config)
    (record,) = report["records"]

    # independent recomputation in coefficient space: rebuild the same data,
    # embed the training-mean prediction and the truths into one index set
    seedseq = np.random.SeedSequence(config.seed)
    map_seed, data_seed, _ = (s.generate_state(1)[0] for s in seedseq.spawn(3))
    mapping = make_mapping(SPEC, SPEC, n_anchors=25, sigma=1.0, seed=int(map_seed))
    synth = SyntheticConfig(SPEC, SPEC, 0.1, 50, 90, seed=int(data_seed))
    pairs, _, touts = generate_dataset(synth, mapping, return_truth=True)
    vset = enumerate_ball(1, 3.0)
    train_coeffs = np.vstack(
        [project(q, vset).coefficients for _, q in pairs[:60]]
    )
    mean_pred = train_coeffs.mean(axis=0)
    truth = np.vstack([t.coefficients for t in touts[60:]])
    m = len(vset)  # the prediction set is a prefix of the truth set
    embedded = np.zeros_like(truth)
    embedded[:, :m] = mean_pred
    variance = float(((embedded - truth) ** 2).sum(axis=1).mean())
    assert record["mse"] == pytest.approx(variance, rel=0.01)


def test_benchmark_reproducible_mse_fields():
    config = BenchmarkConfig(
        methods=("triple-basis", "linear-smoother", "mean"), seed=5,
        train_count=50, test_count=20, points_per_function=40,
        feature_count=60,
    )
    r1 = run_benchmark(config)
    r2 = run_benchmark(config)
    for a, b in zip(r1["records"], r2["records"]):
        assert a["method"] == b["method"]
        assert a["mse"] == b["mse"]
        assert a["hyperparameters"] == b["hyperparameters"]
        assert a["N"] == b["N"] and a["s"] == b["s"] and a["r"] == b["r"]


def test_benchmark_rejects_unknown_method():
    config = BenchmarkConfig(methods=("triple-basis", "oracle"))
    with pytest.raises(ValueError, match="oracle") as err:
        run_benchmark(config)
    for known in ("triple-basis", "linear-smoother", "mean"):
        assert known in str(err.value)


def test_benchmark_mse_matches_saved_model_recomputation(tmp_path):
    data_path = tmp_path / "data.jsonl"
    write_dataset(_small_dataset(n_pairs=40, n_points=50, seed=21), data_path)
    model_path = tmp_path / "model.json"
    config = BenchmarkConfig(
        methods=("triple-basis",), seed=9, data_path=str(data_path),
        ordered_split=True, test_fraction=0.25, feature_count=80,
        model_out=str(model_path),
    )
    report = run_benchmark(config)
    (record,) = report["records"]

    pairs = ingest_dataset(data_path)
    n_test = max(1, round(0.25 * len(pairs)))
    test = pairs[len(pairs) - n_test :]
    model = load_model(model_path)
    vset = model.output_index_set
    truth = np.vstack([project(q, vset).coefficients for _, q in test])
    mse, _, _ = evaluate_model(model, test, truth, vset)
    assert abs(mse - record["mse"]) < 1e-12


def test_benchmark_scores_3d_outputs():
    config = BenchmarkConfig(
        seed=3, train_count=40, test_count=10, points_per_function=40,
        output_dim=3, radius_in=2.0, radius_out=2.0, feature_count=50,
    )
    report = run_benchmark(config)
    assert [rec["method"] for rec in report["records"]] == list(config.methods)
    for rec in report["records"]:
        assert np.isfinite(rec["mse"]) and rec["mse"] > 0


def test_benchmark_report_written(tmp_path):
    report_path = tmp_path / "report.json"
    config = BenchmarkConfig(
        methods=("mean",), seed=1, train_count=20, test_count=8,
        points_per_function=30, radius_in=2.0, radius_out=2.0,
        report_path=str(report_path),
    )
    run_benchmark(config)
    doc = json.loads(report_path.read_text())
    assert doc["format_version"] == 1
    assert doc["records"][0]["seed"] == 1
    assert {"method", "mse", "mpt_seconds", "fit_seconds", "N", "n", "s", "r",
            "D", "seed", "hyperparameters"} <= set(doc["records"][0])


# --------------------------------------------------------------------------
# CLI surface


def test_cli_full_pipeline(tmp_path):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"

    assert main(["synth", "--out", str(data), "--instances", "40",
                 "--points", "40", "--seed", "2"]) == 0
    assert main(["fit", "--data", str(data), "--model", str(model),
                 "--seed", "1", "--features", "60", "--sigma", "1.0",
                 "--lambda", "1e-4"]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(preds), "--grid", "16"]) == 0
    lines = preds.read_text().strip().splitlines()
    assert len(lines) == 40
    first = json.loads(lines[0])
    assert len(first["values"]) == 16
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["instances"] == 40


def test_cli_eval_3d_outputs_by_parseval(tmp_path):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    report = tmp_path / "report.json"
    assert main(["synth", "--out", str(data), "--dim-out", "3",
                 "--instances", "60", "--seed", "4"]) == 0
    assert main(["fit", "--data", str(data), "--model", str(model),
                 "--sigma", "1", "--lambda", "0.01"]) == 0
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--report", str(report)]) == 0

    fitted = load_model(model)
    vset = fitted.output_index_set
    assert vset.dimension == 3
    diff = np.vstack([
        predict_coeffs(fitted, p).coefficients - project(q, vset).coefficients
        for p, q in ingest_dataset(data)
    ])
    parseval = float((diff * diff).sum(axis=1).mean())
    assert json.loads(report.read_text())["mse"] == pytest.approx(parseval, rel=1e-12)


def test_cli_bench_and_window(tmp_path):
    series = tmp_path / "series.txt"
    t = np.arange(512)
    np.savetxt(series, np.sin(2 * np.pi * t / 100.0))
    windowed = tmp_path / "win.jsonl"
    assert main(["window", "--series", str(series), "--out", str(windowed),
                 "--window", "32"]) == 0
    assert (tmp_path / "win.jsonl.transform.json").exists()
    report = tmp_path / "rep.json"
    assert main(["bench", "--report", str(report), "--data", str(windowed),
                 "--ordered-split", "--methods", "triple-basis,mean",
                 "--seed", "3", "--features", "40"]) == 0
    doc = json.loads(report.read_text())
    assert len(doc["records"]) == 2


def test_cli_fit_builds_one_design_per_grid_and_index_set(tmp_path, monkeypatch):
    # every window shares the midpoint grid, so a fit builds one design per
    # distinct (grid, index set), not one per observation
    built = count_designs(monkeypatch)
    series = tmp_path / "series.txt"
    np.savetxt(series, np.sin(2 * np.pi * np.arange(1600) / 90.0))
    windowed = tmp_path / "win.jsonl"
    assert main(["window", "--series", str(series), "--out", str(windowed),
                 "--window", "40"]) == 0
    assert main(["fit", "--data", str(windowed), "--model", str(tmp_path / "m.json"),
                 "--sigma", "1", "--lambda", "0.01"]) == 0
    pairs = ingest_dataset(windowed)
    assert len(pairs) == 39
    assert 2 <= len(built) == len(set(built)) <= 3
    assert len({points for points, _ in built}) == 1


def test_cli_predict_file_reads_the_same_with_stdlib_json(tmp_path):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.jsonl"
    assert main(["synth", "--out", str(data), "--instances", "12", "--points", "30",
                 "--dim-out", "2", "--seed", "9"]) == 0
    assert main(["fit", "--data", str(data), "--model", str(model), "--features", "40",
                 "--sigma", "1", "--lambda", "0.01"]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(preds), "--grid", "6"]) == 0
    fitted = load_model(model)
    inputs = [p for p, _ in ingest_dataset(data)]
    lines = preds.read_bytes().splitlines()
    assert len(lines) == len(inputs)
    for line, pin in zip(lines, inputs):
        doc, fast = json.loads(line), orjson.loads(line)
        for key in ("coefficients", "values"):
            _assert_same_bits(np.asarray(fast[key]), np.asarray(doc[key]))
        _assert_same_bits(predict_coeffs(fitted, pin).coefficients,
                          np.asarray(doc["coefficients"]))
        assert len(doc["values"]) == 6 ** 2


def test_cli_window_rejects_non_finite_series(tmp_path, capsys):
    series = tmp_path / "series.txt"
    series.write_text("\n".join(["0.5"] * 7 + ["nan"] + ["0.25"] * 8) + "\n")
    out = tmp_path / "win.jsonl"
    assert main(["window", "--series", str(series), "--out", str(out),
                 "--window", "4"]) == 1
    assert "line 8: not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["fit", "--data", str(tmp_path / "missing.jsonl"),
                 "--model", str(tmp_path / "m.json")]) == 1
    capsys.readouterr()
    # parse errors: the usage line and "<prog>: error: ..." on stderr
    assert main(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tribasis") and "\ntribasis: error: " in err
    assert main(["fit", "--data", "d.jsonl", "--model", "m.json",
                 "--features", "abc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tribasis fit") and "\ntribasis fit: error: " in err
    assert "--features: invalid int value: 'abc'" in err
    assert main(["bench"]) == 1  # missing required --report
    assert main(["bench", "--report", str(tmp_path / "r.json"),
                 "--quadrature", "64"]) == 1  # removed option
    assert main(["--help"]) == 0


def test_cli_rejects_out_of_range_flags(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    write_dataset(_small_dataset(n_pairs=10, n_points=20), data)
    base_fit = ["fit", "--data", str(data), "--model", str(tmp_path / "m.json"),
                "--radius-in", "2", "--radius-out", "2"]
    fit_args = base_fit + ["--features", "0"]
    bench_args = ["bench", "--report", str(tmp_path / "r.json"),
                  "--methods", "triple-basis", "--train-count", "10",
                  "--test-count", "5", "--points", "20",
                  "--radius-in", "2", "--radius-out", "2"]
    rejected = [
        (fit_args + ["--sigma", "1", "--lambda", "0.1"], "feature_count"),
        (fit_args, "feature_count"),
        # flags of the estimator not being fitted
        (base_fit + ["--method", "linear-smoother", "--sigma", "1", "--lambda", "5",
                     "--features", "10", "--bandwidth", "1.5"],
         "--sigma, --lambda, --features not used by --method linear-smoother"),
        (base_fit + ["--bandwidth", "1.5", "--sigma", "1", "--lambda", "0.01"],
         "--bandwidth not used by --method triple-basis"),
        (bench_args + ["--features", "0"], "feature_count"),
        (bench_args + ["--test-fraction", "0"], "test fraction"),
        (bench_args + ["--test-fraction", "-0.5"], "test fraction"),
        (bench_args + ["--test-fraction", "1"], "test fraction"),
        (bench_args + ["--train-count", "0"], "train and test counts"),
    ]
    for argv, message in rejected:
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("command, flags, message", [
    # 10 pairs against D = 60 features: lambda = 0 is singular by construction
    ("fit", ["--sigma", "0.3", "--lambda", "0"], "condition estimate inf"),
    ("fit", ["--lambda", "0"], "condition estimate inf"),
    ("fit", ["--sigma", "0.3", "--lambda", "nan"], "argument --lambda: expected a finite"),
    ("fit", ["--sigma", "0.3", "--lambda", "inf"], "argument --lambda: expected a finite"),
    ("fit", ["--sigma=-inf", "--lambda", "0.1"], "argument --sigma: expected a finite"),
    ("fit", ["--radius-in", "nan"], "argument --radius-in: expected a finite"),
    ("fit", ["--radius-out", "inf"], "argument --radius-out: expected a finite"),
    ("fit", ["--method", "linear-smoother", "--bandwidth", "nan"],
     "argument --bandwidth: expected a finite"),
    ("bench", ["--lambda", "inf"], "argument --lambda: expected a finite"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_rejects_bad_penalties_and_non_finite_flags(tmp_path, capsys, command,
                                                         flags, message):
    data = tmp_path / "data.jsonl"
    write_dataset(_small_dataset(n_pairs=10, n_points=20), data)
    model = tmp_path / "m.json"
    base = {"fit": ["fit", "--data", str(data), "--model", str(model)],
            "bench": ["bench", "--report", str(tmp_path / "r.json"),
                      "--methods", "triple-basis", "--train-count", "10",
                      "--test-count", "5", "--points", "20"]}[command]
    assert main(base + ["--radius-in", "2", "--radius-out", "2"] + flags) == 1
    assert message in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("argv, message", [
    (["fit", "--features", "20001"],
     "argument --features: feature_count must be an integer from 1 to 20000"),
    (["bench", "--features", "20001"],
     "argument --features: feature_count must be an integer from 1 to 20000"),
    (["bench", "--test-fraction", "nan"], "argument --test-fraction: expected a finite"),
    (["bench", "--map-sigma", "inf"], "argument --map-sigma: expected a finite"),
    (["synth", "--amplitude-in", "nan"], "argument --amplitude-in: expected a finite"),
    (["synth", "--amplitude-in", "inf"], "argument --amplitude-in: expected a finite"),
    (["synth", "--amplitude-out=-inf"], "argument --amplitude-out: expected a finite"),
    (["synth", "--map-sigma", "inf"], "argument --map-sigma: expected a finite"),
    (["synth", "--noise", "nan"], "argument --noise: expected a finite"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_rejects_flags_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran past its flags")

    for name in ("ingest_dataset", "run_benchmark", "synthetic_task"):
        monkeypatch.setattr(cli, name, ran)
    required = {"fit": ["--data", str(tmp_path / "d.jsonl"),
                        "--model", str(tmp_path / "m.json")],
                "bench": ["--report", str(tmp_path / "r.json")],
                "synth": ["--out", str(tmp_path / "s.jsonl")]}[argv[0]]
    assert main(argv[:1] + required + argv[1:]) == 1
    assert message in capsys.readouterr().err


def test_fit_refuses_a_ball_too_large_to_enumerate(tmp_path, capsys):
    data, model = tmp_path / "data.jsonl", tmp_path / "m.json"
    assert main(["synth", "--out", str(data), "--instances", "4", "--points", "10",
                 "--dim-in", "2"]) == 0
    assert main(["fit", "--data", str(data), "--model", str(model),
                 "--radius-in", "1e6", "--radius-out", "2"]) == 1
    assert "radius 1000000.0 would visit 1e+12 candidates" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("flag", ["--dim-in", "--dim-out"])
def test_synth_rejects_an_empty_dimension(tmp_path, capsys, flag):
    out = tmp_path / "synth.jsonl"
    assert main(["synth", "--out", str(out), "--instances", "2", flag, "0"]) == 1
    assert "nu and gamma must be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_constant_series_fit_predicts_constant(tmp_path):
    pairs, _ = window_series(np.full(512, 3.25), SeriesWindowing(window_length=32))
    from tribasis import enumerate_ball as _ball, fit as _fit, predict_coeffs
    from tribasis import sample_feature_map

    uset = _ball(1, 2.0)
    fmap = sample_feature_map(len(uset), 32, 1.0, seed=0)
    model = _fit(pairs, uset, uset, fmap, 1e-8)
    pred = predict_coeffs(model, pairs[0][0])
    # constant series rescales to the zero function; predictions must match
    # to projection accuracy
    assert np.abs(pred.coefficients).max() < 1e-10


@pytest.mark.parametrize(
    "method, knobs, direct",
    [
        ("triple-basis", {"sigma": 1.0, "ridge_lambda": 1e-3},
         lambda pairs, u: fit(pairs, u, u, sample_feature_map(len(u), 50, 1.0, 7),
                              1e-3)),
        ("triple-basis", {},
         lambda pairs, u: fit_cv(pairs, u, u, 50, 7).model),
        ("linear-smoother", {"bandwidth": 1.5},
         lambda pairs, u: lse_fit(pairs, u, u, 1.5)),
        ("linear-smoother", {},
         lambda pairs, u: lse_fit_cv(pairs, u, u, 7)[0]),
    ],
    ids=["triple-basis-fixed", "triple-basis-search", "smoother-fixed",
         "smoother-search"],
)
def test_fit_estimator_matches_direct_call(method, knobs, direct):
    pairs = _small_dataset(n_pairs=30, n_points=40, seed=41)
    uset = enumerate_ball(1, 3.0)
    model, _, validation_mse = fit_estimator(
        method, pairs, uset, uset, 7, feature_count=50, **knobs
    )
    expected = direct(pairs, uset)
    assert (validation_mse is None) == bool(knobs)
    if method == "triple-basis":
        assert np.array_equal(model.psi, expected.psi)
    else:
        assert np.array_equal(model.train_inputs, expected.train_inputs)
        assert model.bandwidth == expected.bandwidth


def test_synth_writes_the_shared_builder_pairs(tmp_path):
    out = tmp_path / "synth.jsonl"
    assert main(["synth", "--out", str(out), "--instances", "6", "--points", "20",
                 "--seed", "11"]) == 0
    pairs, truth, truth_set = synthetic_task(
        BenchmarkConfig(seed=11, points_per_function=20), 6)
    assert truth.shape == (6, len(truth_set))

    # the seed derivation the synthetic data has always had
    map_seed, data_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(11).spawn(2)
    )
    mapping = make_mapping(SPEC, SPEC, n_anchors=25, sigma=1.0, seed=map_seed)
    config = SyntheticConfig(SPEC, SPEC, 0.1, 20, 6, data_seed)
    direct = generate_dataset(config, mapping)
    written_pairs = ingest_dataset(out)
    assert len(written_pairs) == len(pairs) == len(direct) == 6
    for written, built, drawn in zip(written_pairs, pairs, direct):
        for a, b, c in zip(written, built, drawn):
            for field in ("points", "values"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
                assert np.array_equal(getattr(b, field), getattr(c, field))


def _config_from_report(doc):
    fields = dict(doc["config"])
    fields["methods"] = tuple(fields["methods"])
    return BenchmarkConfig(**fields)


def test_report_reconstructs_run(tmp_path):
    config = BenchmarkConfig(
        methods=("triple-basis", "mean"), seed=77, train_count=40,
        test_count=15, points_per_function=40, feature_count=50,
    )
    report = run_benchmark(config)
    replayed = run_benchmark(_config_from_report(report))
    for a, b in zip(report["records"], replayed["records"]):
        assert a["mse"] == b["mse"]
        assert a["hyperparameters"] == b["hyperparameters"]


# every flag of fit, bench and synth that sets a BenchmarkConfig field:
# flag -> (field, argument, parsed value), each value off the field's default
CONFIG_FLAGS = {
    "--data": ("data_path", "d.jsonl", "d.jsonl"),
    "--model": ("model_out", "m.json", "m.json"),
    "--report": ("report_path", "r.json", "r.json"),
    "--methods": ("methods", "mean, triple-basis", ("mean", "triple-basis")),
    "--seed": ("seed", "7", 7),
    "--ordered-split": ("ordered_split", None, True),
    "--test-fraction": ("test_fraction", "0.3", 0.3),
    "--train-count": ("train_count", "40", 40),
    "--test-count": ("test_count", "9", 9),
    "--points": ("points_per_function", "30", 30),
    "--noise": ("noise_sd", "0.05", 0.05),
    "--anchors": ("anchor_count", "6", 6),
    "--map-sigma": ("map_sigma", "1.5", 1.5),
    "--dim-in": ("input_dim", "2", 2),
    "--dim-out": ("output_dim", "3", 3),
    "--amplitude-in": ("input_amplitude", "1.5", 1.5),
    "--amplitude-out": ("output_amplitude", "2.5", 2.5),
    "--features": ("feature_count", "80", 80),
    "--sigma": ("fixed_sigma", "0.5", 0.5),
    "--lambda": ("fixed_lambda", "0.01", 0.01),
    "--radius-in": ("radius_in", "2", 2.0),
    "--radius-out": ("radius_out", "3", 3.0),
    "--folds": ("folds", "4", 4),
}
# per command: (required config flags, other config flags, flags of no field)
COMMAND_FLAGS = {
    "fit": (["--data", "--model"],
            ["--seed", "--sigma", "--lambda", "--features", "--radius-in",
             "--radius-out", "--folds"],
            ["--method", "linear-smoother", "--bandwidth", "1.5"]),
    "bench": (["--report"],
              ["--methods", "--seed", "--data", "--ordered-split", "--test-fraction",
               "--train-count", "--test-count", "--points", "--noise", "--anchors",
               "--map-sigma", "--features", "--sigma", "--lambda", "--radius-in",
               "--radius-out", "--folds", "--model"],
              []),
    "synth": ([],
              ["--seed", "--points", "--noise", "--anchors", "--map-sigma", "--dim-in",
               "--dim-out", "--amplitude-in", "--amplitude-out"],
              ["--out", "s.jsonl", "--instances", "3"]),
}


def _parsed_config(command, flags, others):
    argv, expected = [command, *others], {}
    for flag in flags:
        field, text, value = CONFIG_FLAGS[flag]
        argv += [flag] if text is None else [flag, text]
        expected[field] = value
    return cli._config(cli._build_parser().parse_args(argv)), expected


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_config_of_the_required_flags_keeps_every_default(command):
    required = COMMAND_FLAGS[command][0]
    # synth's required --out sets no field
    others = ["--out", "s.jsonl"] if command == "synth" else []
    config, expected = _parsed_config(command, required, others)
    assert config == BenchmarkConfig(**expected)


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_each_flag_sets_the_field_it_names(command):
    required, optional, others = COMMAND_FLAGS[command]
    config, expected = _parsed_config(command, required + optional, others)
    defaults = BenchmarkConfig()
    assert all(getattr(defaults, field) != value for field, value in expected.items())
    assert config == BenchmarkConfig(**expected)


def test_cli_linear_smoother_fit_and_predict(tmp_path):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "lse.json"
    preds = tmp_path / "preds.jsonl"
    write_dataset(_small_dataset(n_pairs=20, n_points=40, seed=31), data)
    assert main(["fit", "--data", str(data), "--model", str(model),
                 "--method", "linear-smoother", "--seed", "4",
                 "--radius-in", "3", "--radius-out", "3",
                 "--bandwidth", "1.5"]) == 0
    assert json.loads(model.read_text())["type"] == "linear-smoother"
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(preds)]) == 0
    assert len(preds.read_text().strip().splitlines()) == 20
