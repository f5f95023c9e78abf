"""The benchmark's traced per-layer metrics name functions that still exist.

``perfbench/spans.py`` wraps every public function and method of the
traced layers and looks its per-layer metrics up by qualified name
(``layer.func`` or ``layer.Class.method``); a renamed or deleted name
makes a traced run fail with ``KeyError``.  This test fails first.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
NAMED_STATS = ("calls", "self_s", "s", "failed")


def _per_layer_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = []
    for metric, _, _ in spans.PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat in NAMED_STATS:
            names.append(base)
    assert names
    return sorted(set(names))


def _resolve(qualname):
    """The public function or method ``layer.func`` / ``layer.Class.method``, or None."""
    layer, *path = qualname.split(".")
    module = importlib.import_module(f"framerel.{layer}")
    if not path or any(part.startswith("_") for part in path):
        return None
    owner = vars(module).get(path[0])
    if owner is None or getattr(owner, "__module__", None) != module.__name__:
        return None
    if len(path) == 1:
        return owner if inspect.isfunction(owner) else None
    if len(path) == 2 and inspect.isclass(owner):
        method = vars(owner).get(path[1])
        return method if inspect.isfunction(method) else None
    return None


@pytest.mark.parametrize("qualname", _per_layer_names())
def test_per_layer_metric_names_a_public_function(qualname):
    assert _resolve(qualname) is not None, f"{qualname} is not a public function of framerel"
