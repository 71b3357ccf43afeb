"""The names the benchmark harness reads from the program.

``perfbench/`` times layers by wrapping public tribasis functions and
reading their spans by ``<module>.<function>`` name; a renamed or moved
function makes its metric read 0 without an error. These checks catch
that without running the harness.
"""

import importlib
import inspect
import json
import re
import types
from pathlib import Path

import pytest

import tribasis
from tribasis.cli import evaluate_model

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# named by a metric, but no longer called by the operation it measures
RETIRED = {"cli.quadrature_mse"}


def _per_layer_functions():
    """``<module>.<function>`` of every per-layer metric named
    <op>.<module>.<function>.<quantity>, and of every per-call median the
    runner reads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set()
    for metric in spec["per_layer"]:
        _, rest = metric["name"].split(".", 1)
        if "." in rest:
            names.add(rest.rsplit(".", 1)[0])
    runner = (PERFBENCH / "run.py").read_text()
    names.update(re.findall(r'\("\w+", "(\w+\.\w+)", (?:True|False)\)', runner))
    return sorted(names - RETIRED)


@pytest.mark.parametrize("name", _per_layer_functions())
def test_per_layer_function_is_public_and_defined_there(name):
    module_name, function = name.split(".")
    module = importlib.import_module(f"tribasis.{module_name}")
    value = getattr(module, function, None)
    assert isinstance(value, types.FunctionType), name
    assert not function.startswith("_")
    # the tracer names a function by the module that defines it
    assert value.__module__ == module.__name__, name


def test_workload_names_exist():
    text = "\n".join(
        (PERFBENCH / name).read_text() for name in ("workloads.py", "run.py")
    )
    names = set(re.findall(r"\btb\.((?:cli\.)?[A-Za-z_]\w*)", text))
    assert "cli.evaluate_model" in names and "fit_cv" in names
    for name in sorted(names):
        owner = tribasis.cli if name.startswith("cli.") else tribasis
        assert hasattr(owner, name.split(".")[-1]), f"tb.{name}"


def test_evaluate_model_takes_five_positional_arguments():
    # perfbench passes the ignored points_per_axis positionally
    inspect.signature(evaluate_model).bind(*range(5))
