"""Layer timing from outside the program.

``Tracer.install`` replaces every binding of every public tribasis
function, in every tribasis module, by one timing wrapper per function.
Modules bind imported names directly (``regress`` binds ``project``,
``cli`` binds ``fit_cv``), so each binding is replaced, not only the
defining one. ``uninstall`` puts the originals back.

Spans nest: a wrapper records its inclusive time and its self time (its
duration minus the time covered by wrapped calls made inside it). Every
span belongs to the benchmark operation open at the time (``op``); calls
made outside any operation are not recorded.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "modelio", "basis", "_accel", "features", "regress", "baseline", "synth")

# entry point of the command line: the operation's own span stands for it
UNWRAPPED = {"cli.main"}


# work counts taken from call shapes: (function, quantity) -> f(bound arguments)
COUNTERS = {
    "features.compute_features_batch": (
        "rows", lambda a: len(a["xs"])),
    "_accel.cosine_design": (
        "elements", lambda a: len(a["points"]) * len(a["indices"])),
    "cli.quadrature_mse": (
        "nodes", lambda a: int(a.get("points_per_axis", 1024)) ** a["pred_set"].dimension),
}


class Stat:
    """Aggregate of the spans of one function within one operation."""

    __slots__ = ("calls", "total", "self_time", "count", "durations", "self_times")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0
        self.durations = []
        self.self_times = []


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.stats = defaultdict(Stat)   # (op, function name) -> Stat
        self._saved = []
        self._stack = []                 # open spans: [start, child time]
        self._op = None

    # -- installation ------------------------------------------------------

    def _functions(self):
        """Canonical name of every public tribasis function, keyed by the
        function object: module.shortest public name bound in the defining
        module (``_accel.cosine_design`` rather than its implementation's
        own name)."""
        names = {}
        for short, mod in self.modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                old = names.get(value)
                if old is None or len(name) < len(old):
                    names[value] = name
        return names

    def install(self):
        names = self._functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for mod in [self.package, *self.modules.values()]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = [time.perf_counter(), 0.0]
            tracer._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - span[0]
                tracer._stack.pop()
                tracer._stack[-1][1] += duration
                stat = tracer.stats[(tracer._op, name)]
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - span[1]
                stat.durations.append(duration)
                stat.self_times.append(duration - span[1])
                if counter is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    stat.count += counter[1](bound)

        return wrapper

    # -- recording ---------------------------------------------------------

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation."""
        root = [time.perf_counter(), 0.0]
        self._stack = [root]
        self._op = name
        try:
            yield
        finally:
            duration = time.perf_counter() - root[0]
            self._op = None
            self._stack = []
            stat = self.stats[(name, "")]
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - root[1]

    def value(self, metric: str) -> float:
        """Value of a per-layer metric named <op>.<module>.<function>.<quantity>
        or <op>.self_s; 0 when the workload never made that call."""
        op, rest = metric.split(".", 1)
        if rest == "self_s":
            return self.stats[(op, "")].self_time if (op, "") in self.stats else 0.0
        func, quantity = rest.rsplit(".", 1)
        stat = self.stats.get((op, func))
        if stat is None:
            return 0.0
        if quantity == "s":
            return stat.total
        if quantity == "self_s":
            return stat.self_time
        if quantity == "calls":
            return stat.calls
        return stat.count

    def median_us(self, op: str, func: str, self_time: bool = False) -> float:
        stat = self.stats.get((op, func))
        if stat is None or not stat.calls:
            return 0.0
        values = sorted(stat.self_times if self_time else stat.durations)
        return 1e6 * values[len(values) // 2]

    def table(self) -> list:
        """Every recorded (operation, function) aggregate, for the run record."""
        rows = []
        for (op, func), stat in sorted(self.stats.items()):
            rows.append({"op": op, "function": func or "(op)", "calls": stat.calls,
                         "s": stat.total, "self_s": stat.self_time, "count": stat.count})
        return rows
