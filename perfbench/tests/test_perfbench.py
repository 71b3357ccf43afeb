"""Tests of the benchmark itself, at a smoke size.

Run from the root of a source checkout:

    python3 -m pytest perfbench/tests -q

Each workload runs once in process at a tenth of its size; every check
must pass on the real outputs and reject a deliberately perturbed copy.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tribasis  # noqa: E402
import tribasis.cli  # noqa: E402,F401

import checks  # noqa: E402
import reference as ref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = 0.1
BUMP = 1e-6  # relative perturbation, far above every tolerance


def _run_workload(name, out_dir):
    work = WORKLOADS[name](tribasis, 3, out_dir, SMOKE)
    work.setup()
    work.fit()
    work.after_fit()
    for op in ("eval", "predict_cmd", "synth"):
        getattr(work, op)()
    tri, smo = work.predictions()
    acc = work.accuracy(tri, smo)
    return work, tri, smo, acc, work.checks(tri, smo, acc)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def done(request, tmp_path_factory):
    return _run_workload(request.param, tmp_path_factory.mktemp(request.param))


def _lines(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def _write(path, docs):
    Path(path).write_text("".join(json.dumps(d) + "\n" for d in docs))


def test_every_check_passes(done):
    _, _, _, acc, results = done
    failed = [f"{c.name}: {c.detail}" for c in results if not c.ok]
    assert not failed
    assert acc["heldout_mse"] > 0 and acc["smoother_mse"] > 0


def test_predictions_reject_perturbation(done):
    work, tri, smo, _, _ = done
    model = ref.read_model(work.model_path)
    smoother = ref.read_model(work.smoother_path)
    assert checks.predictions("p", tri, model, work.test_obs).ok
    bad = tri.copy()
    bad[0, 0] += BUMP * (abs(bad[0, 0]) + 1.0)
    assert not checks.predictions("p", bad, model, work.test_obs).ok
    bad = smo.copy()
    bad[-1, -1] += BUMP * (abs(bad[-1, -1]) + 1.0)
    assert not checks.predictions("s", bad, smoother, work.test_obs).ok
    assert not checks.predictions("p", tri[:-1], model, work.test_obs).ok


def test_predict_file_rejects_perturbation(done, tmp_path):
    work, _, _, _, _ = done
    model = ref.read_model(work.model_path)
    docs = _lines(work.preds_path)
    bad = tmp_path / "preds.jsonl"
    docs[0]["coefficients"][0] += BUMP * (abs(docs[0]["coefficients"][0]) + 1.0)
    _write(bad, docs)
    assert not checks.predict_file("f", bad, model, work.test_obs, work.predict_grid).ok
    _write(bad, _lines(work.preds_path)[:-1])
    assert not checks.predict_file("f", bad, model, work.test_obs, work.predict_grid).ok
    if work.predict_grid:
        docs = _lines(work.preds_path)
        docs[-1]["values"][7] += BUMP * (abs(docs[-1]["values"][7]) + 1.0)
        _write(bad, docs)
        assert not checks.predict_file("f", bad, model, work.test_obs, work.predict_grid).ok


def test_normal_equations_reject_perturbed_psi(done):
    work, _, _, _, _ = done
    model = ref.read_model(work.model_path)
    assert checks.normal_equations("n", model, *work.train_obs).ok
    model["psi"] = model["psi"] * (1.0 + BUMP)
    assert not checks.normal_equations("n", model, *work.train_obs).ok


def test_eval_mse_rejects_perturbation(done):
    work = done[0]
    model = ref.read_model(work.model_path)
    if work.name == "train-1d":
        reported, truth = work.eval_mse, work.truth
    else:
        assert work.eval_check(model).ok
        reported = json.loads(Path(work.report_path).read_text())["mse"]
        truth = (ref.project_all(work.test_outputs[work.eval_rows], model["output_indices"]),
                 model["output_indices"])
    inputs = work.test_obs[work.eval_rows]
    assert checks.eval_mse("e", reported, model, inputs, *truth).ok
    assert not checks.eval_mse("e", reported * (1 + BUMP), model, inputs, *truth).ok


def test_beats_mean_rejects_weak_model():
    assert checks.beats_mean("m", 0.4, 1.0).ok
    assert not checks.beats_mean("m", 0.6, 1.0).ok
    assert not checks.beats_mean("m", float("nan"), 1.0).ok


def test_synth_file_rejects_perturbation(done, tmp_path):
    work, _, _, _, _ = done
    args = (work.synth_instances, work.points, work.dim)
    assert checks.synth_file("s", work.synth_path, *args).ok
    bad = tmp_path / "synth.jsonl"
    docs = _lines(work.synth_path)
    _write(bad, docs[:-1])
    assert not checks.synth_file("s", bad, *args).ok
    docs[3]["output"]["points"][5][0] = 1.5
    _write(bad, docs)
    assert not checks.synth_file("s", bad, *args).ok
    docs = _lines(work.synth_path)
    docs[2]["input"]["values"][0] = 1e3
    _write(bad, docs)
    assert not checks.synth_file("s", bad, *args).ok


def test_window_file_rejects_perturbation(tmp_path):
    work = _run_workload("series-1d", tmp_path / "series")[0]
    transform = json.loads(Path(str(work.windows_path) + ".transform.json").read_text())
    assert checks.window_file("w", work.windows_path, work.windows, transform).ok
    bad = tmp_path / "windows.jsonl"
    docs = _lines(work.windows_path)
    _write(bad, docs[:-1])
    assert not checks.window_file("w", bad, work.windows, transform).ok
    docs[4]["output"]["values"][10] += 1e-9
    _write(bad, docs)
    assert not checks.window_file("w", bad, work.windows, transform).ok


def test_reference_basis_is_orthonormal():
    nodes = ref.midpoint_grid(2, 64)
    phi = ref.design(nodes, ref.ball_indices(2, 5.0))
    gram = phi.T @ phi / len(nodes)
    assert np.abs(gram - np.eye(len(gram))).max() < 1e-12


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# per-layer metrics of calls a workload never makes, and so reads as 0
NOT_CALLED = {
    "train-1d": {
        "fit.cli.ingest_dataset.s", "eval.cli.ingest_dataset.s",
        "setup.cli.read_series.s", "setup.cli.window_series.s", "setup.cli.write_dataset.s",
        "fit.regress.fit.self_s", "fit.modelio.save_model.s", "eval.modelio.load_model.s",
        "predict_cmd.basis.design_matrix.s",
    },
    "series-1d": {"fit.regress.fit_cv.self_s", "predict_cmd.basis.design_matrix.s"},
    "cli-2d": {
        "setup.cli.read_series.s", "setup.cli.window_series.s", "setup.cli.write_dataset.s",
        "fit.regress.fit.self_s",
    },
}


@pytest.mark.parametrize("workload,trace", [
    ("cli-2d", 0), ("train-1d", 1), ("series-1d", 1), ("cli-2d", 1)])
def test_command_prints_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", str(SMOKE)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if trace:
        # a renamed, inlined or unwrappable function would read 0 without error;
        # trace.overhead_s may be negative at the smoke size
        zero = {name for name, m in result["metrics"].items() if m["value"] == 0}
        assert zero <= NOT_CALLED[workload]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
