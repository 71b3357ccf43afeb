#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of tribasis.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train-1d --seed 1 --seconds 20 --trace 0

One workload runs in this one process with BLAS pinned to one thread. The
program is imported from ``src/`` of the checkout. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A run record with the environment,
per-operation counts, every metric and every check goes to
``perfbench/out/``. See perfbench/README.md.
"""

import os
import sys
import time

START = time.perf_counter()
# before NumPy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

SETUP_REPEATS = 3
MIN_OP_S = 1.0        # a whole operation shorter than this repeats until it is reached
MIN_SAMPLE_S = 2e-4   # one per-call sample times enough calls to last this long
CHUNK_SAMPLES = 100    # per-call samples in one chunk
CHUNKS_PER_OP = 2      # chunks of each predictor after each whole operation
CALIBRATION_CALLS = 20

OPS = ("fit", "eval", "predict_cmd", "synth")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input count (smoke tests)")
    return parser.parse_args(argv)


def load_program():
    """Import tribasis from src/ of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tribasis" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'tribasis'} not found; run from the root of a "
                 "tribasis source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tribasis
    import tribasis.cli  # noqa: F401  (not imported by the package itself)

    if Path(tribasis.__file__).resolve().parent != (src / "tribasis").resolve():
        sys.exit(f"error: imported tribasis from {tribasis.__file__}, not {src}")
    return tribasis


class Counter:
    """Operations attempted and failed, per operation."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.current = "setup"  # the operation in progress, charged on failure

    def add(self, op, n=1):
        self.attempted[op] = self.attempted.get(op, 0) + n
        self.failed.setdefault(op, 0)


class Sampler:
    """Per-call timing of one prediction function, in chunks interleaved
    with the other operations of the run.

    One sample times ``batch`` consecutive calls and divides, with the
    batch calibrated once so that a sample lasts at least MIN_SAMPLE_S;
    the median is taken over samples. Each call's own time is kept as
    well, for tail percentiles that do not depend on the batch.
    """

    def __init__(self, fn, counter, op):
        self.fn, self.counter, self.op = fn, counter, op
        self.batch = None
        self.chunks = []
        self.calls = []
        self.next = 0

    def chunk(self, fixed_batch=None):
        if self.batch is None:
            times = []
            for _ in range(CALIBRATION_CALLS):
                t0 = time.perf_counter()
                self.fn(self.next)
                times.append(time.perf_counter() - t0)
                self.next += 1
            self.counter.add(self.op, CALIBRATION_CALLS)
            self.batch = max(1, math.ceil(MIN_SAMPLE_S / statistics.median(times)))
        batch = fixed_batch or self.batch
        fn, clock, calls = self.fn, time.perf_counter, self.calls
        samples = []
        for _ in range(CHUNK_SAMPLES):
            start = last = clock()
            for _ in range(batch):
                fn(self.next)
                self.next += 1
                now = clock()
                calls.append(now - last)
                last = now
            samples.append((last - start) / batch)
        self.chunks.append(samples)
        self.counter.add(self.op, CHUNK_SAMPLES * batch)

    def samples(self):
        return [t for chunk in self.chunks for t in chunk]


def timed_op(fn, counter, op):
    """Seconds per call of a whole operation; repeats up to MIN_OP_S."""
    count = 0
    t0 = time.perf_counter()
    while True:
        counter.current = op
        fn()
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_OP_S:
            counter.add(op, count)
            return elapsed / count


def run_round(work, counter, samplers, times=None, tracer=None):
    """fit, eval, predict_cmd, synth, each followed by chunks of per-call
    samples of both predictors.

    With ``times`` every operation is timed (repeating short ones) and
    appended there. Without, as in traced runs, every operation runs once
    and every per-call sample is one call, so the work is fixed.
    """
    for op in OPS:
        fn = getattr(work, op)
        if times is not None:
            times[op].append(timed_op(fn, counter, op))
        else:
            counter.current = op
            if tracer is not None:
                with tracer.op(op):
                    fn()
            else:
                fn()
            counter.add(op)
        if op == "fit":
            work.after_fit()
        for _ in range(CHUNKS_PER_OP):
            for name, sampler in samplers.items():
                counter.current = name
                if tracer is not None:
                    with tracer.op(name):
                        sampler.chunk(fixed_batch=1)
                else:
                    sampler.chunk(fixed_batch=None if times is not None else 1)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(tb, args):
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": tb.backend_name(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "blas": _blas(numpy),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(numpy):
    """BLAS library name and version from NumPy's build record, and the
    thread count the loaded library reports."""
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def per_layer_names():
    with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def main(argv=None):
    args = parse_args(argv)
    tb = load_program()
    import_s = time.perf_counter() - START
    import layers
    from workloads import WORKLOADS, OpFailed

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    work = WORKLOADS[args.workload](tb, args.seed, out_dir / f"{tag}-files", args.scale)
    env = environment(tb, args)
    counter = Counter()
    record = {"environment": env}

    tracer = layers.Tracer(tb) if args.trace else None
    samplers = {
        "predict": Sampler(work.predict_one, counter, "predict"),
        "smoother": Sampler(work.smoother_one, counter, "smoother"),
    }
    try:
        if tracer is None:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                work.setup()
                setup_times.append(time.perf_counter() - t0)
                counter.add("setup")
            times = {op: [] for op in OPS}
            deadline = time.perf_counter() + args.seconds
            rounds = 0
            while rounds == 0 or time.perf_counter() < deadline:
                run_round(work, counter, samplers, times)
                rounds += 1
        else:
            tracer.install()
            with tracer.op("setup"):
                work.setup()
            counter.add("setup")
            tracer.uninstall()
            # the traced round sits between two untraced ones of the same work
            plain_s = []
            for traced in (False, True, False):
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                run_round(work, counter, samplers, tracer=tracer if traced else None)
                if traced:
                    traced_s = time.perf_counter() - t0
                    tracer.uninstall()
                else:
                    plain_s.append(time.perf_counter() - t0)
    except OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        counter.add(counter.current)
        counter.failed[counter.current] += 1
        print(json.dumps({"correct": False, "attempted": sum(counter.attempted.values()),
                          "failed": sum(counter.failed.values()), "metrics": {}}))
        return 1

    # the program's peak, before the benchmark's own reference computations
    peak_rss_mb = _peak_rss_mb()
    tri, smo = work.predictions()
    acc = work.accuracy(tri, smo)
    results = work.checks(tri, smo, acc)
    correct = all(c.ok for c in results)
    record["peak_rss_after_checks_mb"] = _peak_rss_mb()

    if tracer is None:
        pred = samplers["predict"].samples()
        smooth = samplers["smoother"].samples()
        values = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "fit_s": (statistics.mean(times["fit"]), "s"),
            "predict_p50_us": (1e6 * statistics.median(pred), "us"),
            "predict_p90_us": (1e6 * percentile(samplers["predict"].calls, 0.9), "us"),
            "smoother_p50_us": (1e6 * statistics.median(smooth), "us"),
            "predict_cmd_s": (statistics.mean(times["predict_cmd"]), "s"),
            "eval_s": (statistics.mean(times["eval"]), "s"),
            "synth_s": (statistics.mean(times["synth"]), "s"),
            "heldout_mse": (acc["heldout_mse"], "mse"),
            "smoother_mse": (acc["smoother_mse"], "mse"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        record.update(import_s=import_s, setup_runs_s=setup_times, op_runs_s=times,
                      rounds=rounds, batch={k: s.batch for k, s in samplers.items()},
                      chunks={k: len(s.chunks) for k, s in samplers.items()},
                      chunk_medians_us={k: [1e6 * statistics.median(c) for c in s.chunks]
                                        for k, s in samplers.items()})
    else:
        medians = {
            "predict.project_us": ("predict", "basis.project_coefficients", False),
            "predict.featurize_us": ("predict", "features.compute_features", False),
            "predict.matvec_wrap_us": ("predict", "regress.predict_coeffs", True),
            "smoother.project_us": ("smoother", "basis.project_coefficients", False),
            "smoother.scan_us": ("smoother", "baseline.lse_weights", False),
            "smoother.self_us": ("smoother", "baseline.lse_predict", True),
        }
        values = {}
        for name, unit in per_layer_names():
            if name == "trace.overhead_s":
                value = traced_s - statistics.mean(plain_s)
            elif name in medians:
                value = tracer.median_us(*medians[name])
            else:
                value = tracer.value(name)
            values[name] = (value, unit)
        record.update(plain_round_s=plain_s, traced_round_s=traced_s, spans=tracer.table())

    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
    record.update(
        correct=correct,
        checks=[c.__dict__ for c in results],
        accuracy=acc,
        operations={op: {"attempted": n, "failed": counter.failed[op]}
                    for op, n in counter.attempted.items()},
        metrics=metrics,
    )
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for c in results:
        print(f"[{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": sum(counter.attempted.values()),
                      "failed": sum(counter.failed.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
