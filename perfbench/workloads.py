"""The three workloads: inputs, timed operations, and output checks.

Each workload exposes the same operations, so every run reports every
end-to-end metric:

- ``setup``: generate inputs, write files, build observations, fit the
  kernel smoother at a fixed bandwidth (series-1d also runs ``window``);
- ``fit``, ``eval``, ``predict_cmd``, ``synth``: whole operations;
- ``predict_one`` / ``smoother_one``: one prediction on one held-out input.

The program is called through module attributes looked up at call time
(``tb.fit_cv``, ``tb.cli.main``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import checks
import gen
import reference as ref

NOISY = "noisy-evaluations"


class OpFailed(RuntimeError):
    """A program call returned an error."""


def write_pairs(path, in_points, in_values, out_points=None, out_values=None) -> None:
    """Dataset lines in the documented JSON-lines format."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(in_values)):
            doc = {"input": {"kind": NOISY, "points": in_points[i].tolist(),
                             "values": in_values[i].tolist()}}
            if out_points is not None:
                doc["output"] = {"kind": NOISY, "points": out_points[i].tolist(),
                                 "values": out_values[i].tolist()}
            fh.write(json.dumps(doc) + "\n")


class Workload:
    """Shared plumbing; subclasses fill in inputs and operations."""

    name = ""
    points = 100           # points per function
    dim = 1                # input and output dimension
    synth_instances = 0
    smoother_radius = 0.0  # fixed index sets of the smoother
    smoother_bandwidth = 0.0
    predict_grid = 0       # --grid of the predict command
    eval_rows = slice(None)  # held-out pairs in the file that ``eval`` scores

    def __init__(self, tb, seed: int, out_dir: Path, scale: float = 1.0):
        self.tb = tb
        self.seed = int(seed)
        self.out = Path(out_dir)
        self.scale = scale
        self.model = None
        self.model_path = self.out / "model.json"
        self.smoother_path = self.out / "smoother.json"
        self.heldout_path = self.out / "heldout.jsonl"
        self.preds_path = self.out / "preds.jsonl"
        self.synth_path = self.out / "synth.jsonl"
        self.report_path = self.out / "eval.json"
        self.eval_path = self.heldout_path

    def size(self, count: int) -> int:
        return max(2, int(round(count * self.scale)))

    # -- helpers -----------------------------------------------------------

    def cli(self, *args):
        """Run one tribasis command in this process, its messages discarded
        so that the last line of standard output stays the result."""
        argv = [str(a) for a in args]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.tb.cli.main(argv)
        if code != 0:
            raise OpFailed(f"tribasis {argv[0]} exited with {code}")

    def observations(self, points, values) -> list:
        obs = self.tb.FunctionObservation
        return [obs(NOISY, p, v) for p, v in zip(points, values)]

    def fit_smoother(self, train_pairs):
        index_set = self.tb.enumerate_ball(self.dim, self.smoother_radius)
        self.smoother = self.tb.lse_fit(train_pairs, index_set, index_set,
                                        self.smoother_bandwidth)

    def reset(self):
        """Drop the previous set-up's state and files."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    # -- operations shared by every workload -------------------------------

    def predict_one(self, i: int):
        return self.tb.predict_coeffs(self.model, self.test_inputs[i % len(self.test_inputs)])

    def smoother_one(self, i: int):
        return self.tb.lse_predict(self.smoother, self.test_inputs[i % len(self.test_inputs)])

    def predict_cmd(self):
        grid = ("--grid", self.predict_grid) if self.predict_grid else ()
        self.cli("predict", "--model", self.model_path, "--data", self.heldout_path,
                 "--out", self.preds_path, *grid)

    def after_fit(self):
        self.model = self.tb.load_model(self.model_path)

    def eval(self):
        self.cli("eval", "--model", self.model_path, "--data", self.eval_path,
                 "--report", self.report_path)

    def synth(self):
        self.cli("synth", "--out", self.synth_path, "--instances", self.synth_instances,
                 "--points", self.points, "--seed", self.seed,
                 "--dim-in", self.dim, "--dim-out", self.dim)

    # -- results -----------------------------------------------------------

    def predictions(self):
        """One untimed pass of both predictors over the held-out inputs."""
        tri = np.vstack([self.predict_one(i).coefficients for i in range(len(self.test_inputs))])
        smo = np.vstack([self.smoother_one(i).coefficients for i in range(len(self.test_inputs))])
        return tri, smo

    def accuracy(self, tri, smo) -> dict:
        truth, truth_idx = self.truth
        mean = ref.project_all(self.train_obs[1], self.model.output_index_set.indices).mean(axis=0)
        return {
            "heldout_mse": ref.parseval_mse(tri, self.model.output_index_set.indices,
                                            truth, truth_idx),
            "smoother_mse": ref.parseval_mse(smo, self.smoother.output_index_set.indices,
                                             truth, truth_idx),
            "mean_mse": ref.parseval_mse(np.tile(mean, (len(truth), 1)),
                                         self.model.output_index_set.indices, truth, truth_idx),
        }

    def eval_check(self, model):
        """The MSE ``eval`` reported against the benchmark's own projections
        of the held-out outputs it scored."""
        with open(self.report_path, "r", encoding="utf-8") as fh:
            reported = json.load(fh)["mse"]
        outputs = self.test_outputs[self.eval_rows]
        projected = ref.project_all(outputs, model["output_indices"])
        return checks.eval_mse("eval_mse", reported, model, self.test_obs[self.eval_rows],
                               projected, model["output_indices"])

    def common_checks(self, tri, smo, acc) -> list:
        self.tb.save_model(self.smoother, self.smoother_path)
        model = ref.read_model(self.model_path)
        smoother = ref.read_model(self.smoother_path)
        return [
            checks.predictions("predict_coeffs", tri, model, self.test_obs),
            checks.predictions("lse_predict", smo, smoother, self.test_obs),
            checks.predict_file("predict_file", self.preds_path, model, self.test_obs,
                                self.predict_grid),
            checks.normal_equations("normal_equations", model, *self.train_obs),
            checks.beats_mean("beats_mean", acc["heldout_mse"], acc["mean_mse"]),
            checks.synth_file("synth_file", self.synth_path, self.synth_instances,
                              self.points, self.dim),
        ]


class PairWorkload(Workload):
    """Function pairs on [0, 1]^dim drawn by ``gen.function_pairs``."""

    train_count = 0
    test_count = 0
    core = edge = radius = 0.0

    def generate(self):
        total = self.size(self.train_count) + self.size(self.test_count)
        pairs = gen.function_pairs(self.seed, total, self.dim, self.core, self.edge,
                                   self.radius, self.points)
        n_train = self.size(self.train_count)
        train, test = pairs.take(slice(0, n_train)), pairs.take(slice(n_train, None))
        self.train_obs = (train.inputs(), train.outputs())
        self.test_obs = test.inputs()
        self.truth = (test.out_truth, test.out_indices)
        self.test_outputs = test.outputs()
        return train, test

    def build_pairs(self, train):
        return list(zip(self.observations(train.in_points, train.in_values),
                        self.observations(train.out_points, train.out_values)))


class Train1d(PairWorkload):
    name = "train-1d"
    train_count, test_count = 8_000, 2_000
    core, edge, radius = 4.0, 0.1, 5.0
    synth_instances = 500
    smoother_radius, smoother_bandwidth = 4.0, 0.8

    def setup(self):
        self.reset()
        train, test = self.generate()
        self.train_pairs = self.build_pairs(train)
        self.test_pairs = list(zip(self.observations(test.in_points, test.in_values),
                                   self.observations(test.out_points, test.out_values)))
        self.test_inputs = [p for p, _ in self.test_pairs]
        write_pairs(self.heldout_path, test.in_points, test.in_values,
                    test.out_points, test.out_values)
        self.fit_smoother(self.train_pairs)

    def fit(self):
        tb = self.tb
        radii = tb.cli.DEFAULT_RADII
        t_in = tb.average_truncation_radius([p for p, _ in self.train_pairs], radii, 5)
        t_out = tb.average_truncation_radius([q for _, q in self.train_pairs], radii, 5)
        features = math.ceil(self.points * math.log(self.points))
        self.model = tb.fit_cv(self.train_pairs, tb.enumerate_ball(1, t_in),
                               tb.enumerate_ball(1, t_out), features, self.seed).model

    def after_fit(self):
        self.tb.save_model(self.model, self.model_path)

    def eval(self):
        truth, truth_idx = self.truth
        truth_set = self.tb.BasisIndexSet(self.dim, truth_idx)
        self.eval_mse = self.tb.cli.evaluate_model(self.model, self.test_pairs, truth,
                                                   truth_set, 1024)[0]

    def checks(self, tri, smo, acc):
        model = ref.read_model(self.model_path)
        return self.common_checks(tri, smo, acc) + [
            checks.eval_mse("eval_mse", self.eval_mse, model, self.test_obs, *self.truth),
        ]


class Cli2d(PairWorkload):
    name = "cli-2d"
    dim = 2
    train_count, test_count = 2_000, 400
    eval_rows = slice(0, 16)  # eval's 2-D quadrature holds ~33 MB per pair
    core, edge, radius = 2.0, 0.36, 2.5
    synth_instances = 200
    smoother_radius, smoother_bandwidth = 2.5, 2.0
    predict_grid = 32

    def setup(self):
        self.reset()
        train, test = self.generate()
        self.train_path = self.out / "train.jsonl"
        write_pairs(self.train_path, train.in_points, train.in_values,
                    train.out_points, train.out_values)
        write_pairs(self.heldout_path, test.in_points, test.in_values,
                    test.out_points, test.out_values)
        self.eval_path = self.out / "eval.jsonl"
        rows = self.eval_rows
        write_pairs(self.eval_path, test.in_points[rows], test.in_values[rows],
                    test.out_points[rows], test.out_values[rows])
        self.test_inputs = self.observations(test.in_points, test.in_values)
        self.fit_smoother(self.build_pairs(train))

    def fit(self):
        self.cli("fit", "--data", self.train_path, "--model", self.model_path,
                 "--seed", self.seed)

    def checks(self, tri, smo, acc):
        model = ref.read_model(self.model_path)
        return self.common_checks(tri, smo, acc) + [self.eval_check(model)]


class Series1d(Workload):
    name = "series-1d"
    points = 500
    window_count = 800     # forward pairs; the last test_count are held out
    test_count = 300
    sigma, ridge = 0.3, 1e-4
    synth_instances = 200
    smoother_radius, smoother_bandwidth = 5.0, 0.2

    def setup(self):
        self.reset()
        pairs = self.size(self.window_count)
        n_test = self.size(self.test_count)
        w = self.points
        series = gen.window_series(self.seed, pairs + 1, w, 0.1, 0.05)
        self.series_path = self.out / "series.txt"
        self.windows_path = self.out / "windows.jsonl"
        self.train_path = self.out / "train.jsonl"
        with open(self.series_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(repr(float(v)) for v in series.values) + "\n")
        self.cli("window", "--series", self.series_path, "--out", self.windows_path,
                 "--window", w)
        with open(self.windows_path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        n_train = len(lines) - n_test
        self.train_path.write_text("".join(lines[:n_train]), encoding="utf-8")
        self.heldout_path.write_text("".join(lines[n_train:]), encoding="utf-8")

        # the same windows, rescaled by the benchmark itself
        lo, hi = float(series.values.min()), float(series.values.max())
        self.windows = ((series.values - lo) / (hi - lo)).reshape(-1, w)
        truth = series.coefficients / (hi - lo)
        truth[:, 0] -= lo / (hi - lo)
        mid = ((np.arange(w) + 0.5) / w)[:, None]
        obs = [(mid, row) for row in self.windows]
        self.train_obs = (obs[:n_train], obs[1:n_train + 1])
        self.test_obs = obs[n_train:pairs]
        self.truth = (truth[n_train + 1:pairs + 1], series.indices)
        self.test_outputs = obs[n_train + 1:pairs + 1]
        built = self.observations([mid] * (pairs + 1), self.windows)
        self.test_inputs = built[n_train:pairs]
        self.fit_smoother(list(zip(built[:n_train], built[1:n_train + 1])))

    def fit(self):
        self.cli("fit", "--data", self.train_path, "--model", self.model_path,
                 "--sigma", self.sigma, "--lambda", self.ridge, "--seed", self.seed)

    def checks(self, tri, smo, acc):
        model = ref.read_model(self.model_path)
        with open(str(self.windows_path) + ".transform.json", "r", encoding="utf-8") as fh:
            transform = json.load(fh)
        return self.common_checks(tri, smo, acc) + [
            self.eval_check(model),
            checks.window_file("window_file", self.windows_path, self.windows, transform),
        ]


WORKLOADS = {w.name: w for w in (Train1d, Series1d, Cli2d)}
