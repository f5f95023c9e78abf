"""Span recorder that wraps framerel's public functions from the outside.

``Tracer.install()`` replaces every public function and method (name
without a leading underscore) defined in the traced layers with a
wrapper, at every place framerel binds it: the defining module, every
other framerel module that imported it, and the package namespace.
``uninstall()`` puts the originals back.  The engine's source is not
touched.

Each call becomes one span: name, start, end, parent span and the id of
the benchmark operation that was running.  Spans are kept in compact
arrays in memory and written out once, when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("groups", "linalg", "systems", "frames", "relativize", "scenario", "runner")
SETUP_OP = -1

RELATIVIZE_FNS = (
    "relativization_map",
    "build_relative_subspace",
    "check_channel_axioms",
    "check_ideal_isomorphism",
    "check_naturality",
    "relativize_morphisms",
    "check_equivariant_tensor_form",
    "check_functor_laws",
    "external_frame_transform",
    "predual_relativize",
)

# (metric, unit, better).  ".calls" counts spans, ".self_s" sums self time,
# ".s" sums the time of outermost spans of that name (children included).
PER_LAYER = (
    [
        ("groups.act.calls", "count", "lower"),
        ("groups.act.self_s", "s", "lower"),
        ("groups.unitary_rep.self_s", "s", "lower"),
        ("linalg.MatrixSubspace.contains.calls", "count", "lower"),
        ("linalg.MatrixSubspace.contains.self_s", "s", "lower"),
        ("linalg.contains.full_share", "ratio", "lower"),
        ("linalg.MatrixSubspace.coefficients.calls", "count", "lower"),
        ("linalg.vector_kernel.calls", "count", "lower"),
        ("linalg.vector_kernel.self_s", "s", "lower"),
        ("linalg.vector_kernel.max_u_mib", "MiB", "lower"),
        ("linalg.hermitian_basis.self_s", "s", "lower"),
        ("linalg.tensor_product.calls", "count", "lower"),
        ("linalg.operator_norm.calls", "count", "lower"),
        ("linalg.operator_norm.self_s", "s", "lower"),
        ("linalg.min_eigenvalue.self_s", "s", "lower"),
        ("linalg.orthonormalize.self_s", "s", "lower"),
        ("systems.full_system.self_s", "s", "lower"),
        ("systems.subspace_system.self_s", "s", "lower"),
        ("systems.system_from_subspace.self_s", "s", "lower"),
        ("systems.build_channel.calls", "count", "lower"),
        ("systems.build_channel.self_s", "s", "lower"),
        ("systems.ChannelMap.apply.calls", "count", "lower"),
        ("systems.is_equivariant.calls", "count", "lower"),
        ("systems.is_equivariant.self_s", "s", "lower"),
        ("frames.canonical_ideal_frame.self_s", "s", "lower"),
        ("frames.principal_frame_from_seed.self_s", "s", "lower"),
        ("frames.build_frame_morphism.self_s", "s", "lower"),
    ]
    + [(f"relativize.{fn}.s", "s", "lower") for fn in RELATIVIZE_FNS]
    + [(f"relativize.{fn}.failed", "count", "lower") for fn in RELATIVIZE_FNS]
    + [
        ("scenario.parse_scenario.self_s", "s", "lower"),
        ("scenario.decode_matrix.calls", "count", "lower"),
        ("runner.run_task.self_s", "s", "lower"),
        ("runner.emit_report.s", "s", "lower"),
        ("runner.status.pass", "count", "higher"),
        ("runner.status.fail", "count", "lower"),
        ("runner.status.error", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Values read from arguments and results at chosen boundaries.
        self.max_kernel_rows = 0
        self.full_contains = {"setup": 0, "tasks": 0}
        self.statuses = {"pass": 0, "fail": 0, "error": 0}

    # -------------------------------------------------------- installation

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "framerel" or n.startswith("framerel.")]
        for layer in LAYERS:
            mod = sys.modules[f"framerel.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, name, wrapped)
                elif inspect.isclass(obj):
                    for name, method in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(method):
                            self._patch(obj, name, self._wrap(f"{layer}.{attr}.{name}", method))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, qualname: str, fn):
        if qualname not in self._index:
            self._index[qualname] = len(self.names)
            self.names.append(qualname)
            self._depth.append(0)
        ix = self._index[qualname]
        stack, depth = self._stack, self._depth
        names, parents, ops, outer = self.span_name, self.span_parent, self.span_op, self.span_outer
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        probe = self._probes().get(qualname)
        count_status = qualname == "runner.run_task"

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(ix)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            outer.append(depth[ix] == 0)
            depth[ix] += 1
            stack.append(i)
            ends.append(0.0)
            if probe is not None:
                probe(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[ix] -= 1
            if count_status:
                self.statuses[result.status] += 1
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _probes(self) -> dict:
        def kernel_rows(args):
            rows = np.atleast_2d(np.asarray(args[0])).shape[0]
            self.max_kernel_rows = max(self.max_kernel_rows, rows)

        def contains_full(args):
            space = args[0]
            if space.dim == space.ambient_dim**2:
                self.full_contains["setup" if self.op == SETUP_OP else "tasks"] += 1

        return {"linalg.vector_kernel": kernel_rows, "linalg.MatrixSubspace.contains": contains_full}

    # ------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int64),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "op": np.asarray(self.span_op, dtype=np.int64),
            "outer": np.asarray(self.span_outer, dtype=bool),
            "start": np.asarray(self.span_start, dtype=np.float64),
            "end": np.asarray(self.span_end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def metrics(self, passes: int, failed_ops: list[int], overhead: float) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one pass of tasks.

        Spans of the set-up are counted once; spans of the task passes
        are averaged over ``passes``.  Every pass runs the same tasks,
        so counts stay whole numbers and repeat exactly between runs.
        """
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        setup = a["op"] == SETUP_OP
        scale = np.where(setup, 1.0, 1.0 / passes)
        setup_calls = np.bincount(a["name"][setup], minlength=k)
        task_calls = np.bincount(a["name"][~setup], minlength=k)
        self_s = np.bincount(a["name"], weights=self_t * scale, minlength=k)
        outer = a["outer"]
        incl_s = np.bincount(a["name"][outer], weights=(dur * scale)[outer], minlength=k)

        def ix(name):
            return self._index[name]

        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = int(setup_calls[ix(base)]) + _per_pass(int(task_calls[ix(base)]), passes)
            elif stat == "self_s":
                out[metric] = float(self_s[ix(base)])
            elif stat == "s":
                out[metric] = float(incl_s[ix(base)])
        c = ix("linalg.MatrixSubspace.contains")
        asked = int(setup_calls[c]) * passes + int(task_calls[c])
        full = self.full_contains["setup"] * passes + self.full_contains["tasks"]
        out["linalg.contains.full_share"] = full / asked if asked else 0.0
        out["linalg.vector_kernel.max_u_mib"] = self.max_kernel_rows**2 * 16 / 2**20
        failed = set(failed_ops)
        for fn in RELATIVIZE_FNS:
            ops_with_fn = set(a["op"][a["name"] == ix(f"relativize.{fn}")].tolist())
            out[f"relativize.{fn}.failed"] = _per_pass(len(failed & ops_with_fn), passes)
        for status in ("pass", "fail", "error"):
            out[f"runner.status.{status}"] = _per_pass(self.statuses[status], passes)
        out["trace.overhead"] = overhead
        return {metric: out[metric] for metric, _, _ in PER_LAYER}


def _per_pass(total: int, passes: int) -> int | float:
    """Per-pass count: a whole number when every pass did the same work."""
    return total // passes if total % passes == 0 else total / passes
