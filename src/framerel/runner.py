"""Execute scenario tasks and render deterministic reports.

Tasks run in declared order, fail-soft: a violated law becomes a
``fail`` entry, a structurally impossible request becomes an ``error``
entry, and the run always produces exactly one entry per task.  The
tasks of one run share one ``Workspace``, so a relativization map,
relative subspace or induced map that several tasks ask for is built
once, and its build time is charged to the first task that asks; a
channel's equivariance is decided once per run too.  The machine report
is canonical JSON (sorted keys, floats normalized to 13 significant
digits, witness matrices to 12 decimal places) and is byte-identical across repeat
runs with the same scenario, seed and tolerance on one platform;
wall-clock time is therefore carried as ``null`` there and only the
human table shows it.  Its text comes from ``scenario.canonical_json``,
the bytes of ``json.dumps(payload, indent=2, sort_keys=True)`` without
``json``'s pure-Python encoder, and its witness matrices from
``scenario.encode_matrix``, which rounds a whole matrix at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any

from .errors import DimensionMismatch, FramerelError, LawViolation, UnknownFormat
from .linalg import max_abs
from .relativize import (
    Workspace,
    check_channel_axioms,
    check_equivariant_tensor_form,
    check_functor_laws,
    check_ideal_isomorphism,
    check_naturality,
    external_frame_transform,
    relativize,
    relativize_morphisms,
)
from .scenario import ScenarioSpec, ScenarioTask, canonical_json, encode_matrix

_STATUS_ORDER = {"pass": 0, "fail": 1, "error": 2}


@dataclass(frozen=True)
class TaskResult:
    task_id: str
    kind: str
    status: str
    max_deviation: float | None
    detail: str
    witnesses: dict[str, Any]
    wall_time: float


@dataclass(frozen=True)
class RunReport:
    tolerance: float
    seed: int
    samples: int
    entries: tuple[TaskResult, ...]

    @property
    def pass_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "pass")

    @property
    def fail_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "fail")

    @property
    def error_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "error")

    @property
    def exit_code(self) -> int:
        worst = max((_STATUS_ORDER[e.status] for e in self.entries), default=0)
        return worst


def _canon_float(x) -> float | None:
    if x is None:
        return None
    f = float(x)
    if f == 0.0:
        return 0.0
    return float(f"{f:.12e}")


# ------------------------------------------------------------- task executors


def _deviation_from(result, expected, name: str) -> float:
    """Largest entry of ``result - expected``; the shapes must agree."""
    if expected.shape != result.shape:
        raise DimensionMismatch(
            f"{name} has shape {expected.shape}, the result has shape {result.shape}"
        )
    return max_abs(result - expected)


def _run_relativize(spec: ScenarioSpec, p: dict, ws: Workspace) -> tuple[bool, float, str, dict]:
    frame = spec.frames[p["frame"]]
    system = spec.systems[p["system"]]
    result = relativize(frame, system, p["operator"], spec.tolerance)
    witnesses = {"result": encode_matrix(result)}
    if "expect" in p:
        dev = _deviation_from(result, p["expect"], "expect")
        return dev <= spec.tolerance, dev, "relativized observable compared with expectation", witnesses
    return True, 0.0, "relativized observable computed", witnesses


def _run_relative_subspace(spec: ScenarioSpec, p: dict, ws: Workspace) -> tuple[bool, float, str, dict]:
    rel = ws.relative_subspace(spec.frames[p["frame"]], spec.systems[p["system"]])
    detail = f"image dimension {rel.space.dim}, kernel dimension {rel.kernel.dim}"
    passed, dev = True, 0.0
    if "expect_dim" in p and rel.space.dim != p["expect_dim"]:
        passed = False
        dev = max(dev, float(abs(rel.space.dim - p["expect_dim"])))
    if "expect_kernel_dim" in p and rel.kernel.dim != p["expect_kernel_dim"]:
        passed = False
        dev = max(dev, float(abs(rel.kernel.dim - p["expect_kernel_dim"])))
    return passed, dev, detail, {}


def _run_yen_morphism(spec: ScenarioSpec, p: dict, ws: Workspace) -> tuple[bool, float, str, dict]:
    induced = relativize_morphisms(
        spec.frame_morphisms[p["morphism"]],
        spec.channels[p["channel"]],
        spec.tolerance,
        spec.samples,
        spec.seed,
        ws,
    )
    detail = (
        f"induced map on a {induced.source.space.dim}-dimensional relative "
        f"subspace (kernel image norm {induced.kernel_image_norm:.3e})"
    )
    witnesses = {"matrix": encode_matrix(induced.matrix)}
    if "expect_matrix" in p:
        dev = _deviation_from(induced.matrix, p["expect_matrix"], "expect_matrix")
        return dev <= spec.tolerance, dev, detail, witnesses
    return True, 0.0, detail, witnesses


def _run_external_transform(spec: ScenarioSpec, p: dict, ws: Workspace) -> tuple[bool, float, str, dict]:
    target_side, source_side = external_frame_transform(
        spec.frame_morphisms[p["morphism"]],
        spec.systems[p["system"]],
        p["frame_state"],
        p["system_state"],
        spec.tolerance,
    )
    dev = target_side.deviation(source_side)
    witnesses = {"relative_state": encode_matrix(target_side.canonical)}
    return (
        dev <= spec.tolerance,
        dev,
        "relative states from both ends of the frame morphism compared",
        witnesses,
    )


def _rmap(spec: ScenarioSpec, p: dict, ws: Workspace):
    return ws.relativization_map(spec.frames[p["frame"]], spec.systems[p["system"]])


# check name -> adapter from (spec, params, workspace) to the law check's LawReport
_CHECKS = {
    "channel_axioms": lambda spec, p, ws: check_channel_axioms(
        _rmap(spec, p, ws), spec.tolerance, spec.samples, spec.seed
    ),
    "ideal_isomorphism": lambda spec, p, ws: check_ideal_isomorphism(
        _rmap(spec, p, ws), spec.tolerance
    ),
    "functor_laws": lambda spec, p, ws: check_functor_laws(
        [
            (spec.frame_morphisms[link["morphism"]], spec.channels[link["channel"]])
            for link in p["links"]
        ],
        spec.tolerance,
        spec.samples,
        spec.seed,
        ws,
    ),
    "naturality": lambda spec, p, ws: check_naturality(
        spec.frames[p["frame"]], spec.channels[p["channel"]], spec.tolerance, ws
    ),
    "tensor_form": lambda spec, p, ws: check_equivariant_tensor_form(
        spec.frame_morphisms[p["morphism"]],
        spec.channels[p["channel"]],
        spec.tolerance,
        spec.samples,
        spec.seed,
        ws,
    ),
}


def _run_check(check, spec: ScenarioSpec, p: dict, ws: Workspace) -> tuple[bool, float, str, dict]:
    """A law check passes when its verdict is the one the law predicts
    (and, for ``expect_ideal``, the one the scenario declares)."""
    rep = check(spec, p, ws)
    passed = rep.passed == rep.expected and p.get("expect_ideal", rep.expected) == rep.expected
    return passed, rep.max_deviation, rep.detail, rep.witnesses


_EXECUTORS = {
    "relativize": _run_relativize,
    "relative_subspace": _run_relative_subspace,
    "yen_morphism": _run_yen_morphism,
    "external_transform": _run_external_transform,
    **{f"check:{name}": partial(_run_check, check) for name, check in _CHECKS.items()},
}


def _violation_payload(exc: LawViolation) -> tuple[float | None, dict[str, Any]]:
    witnesses: dict[str, Any] = {}
    deviation = None
    for attr in ("deviation", "image_norm"):
        value = getattr(exc, attr, None)
        if value is not None:
            deviation = float(value)
            break
    kernel_witness = getattr(exc, "kernel_witness", None)
    if kernel_witness is not None:
        witnesses["kernel_witness"] = encode_matrix(kernel_witness)
    witness = getattr(exc, "witness", None)
    if witness is not None:
        witnesses["witness"] = encode_matrix(witness)
    element = getattr(exc, "element", None)
    if element is not None:
        witnesses["group_element"] = int(element)
    return deviation, witnesses


def run_task(spec: ScenarioSpec, task: ScenarioTask, workspace: Workspace | None = None) -> TaskResult:
    """Run one task, fail-soft, on ``workspace`` (a fresh one when None)."""
    if workspace is None:
        workspace = Workspace(spec.tolerance)
    start = time.perf_counter()
    try:
        passed, deviation, detail, witnesses = _EXECUTORS[task.kind](spec, task.params, workspace)
        status = "pass" if passed else "fail"
    except LawViolation as exc:
        status = "fail"
        deviation, witnesses = _violation_payload(exc)
        detail = f"{type(exc).__name__}: {exc}"
    except FramerelError as exc:
        status = "error"
        deviation, witnesses = None, {}
        detail = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return TaskResult(
        task_id=task.task_id,
        kind=task.kind,
        status=status,
        max_deviation=_canon_float(deviation),
        detail=detail,
        witnesses=witnesses,
        wall_time=wall,
    )


def run_scenario(spec: ScenarioSpec) -> RunReport:
    """Run every task in order on one shared workspace; failures never abort the run."""
    workspace = Workspace(spec.tolerance)
    entries = tuple(run_task(spec, task, workspace) for task in spec.tasks)
    return RunReport(
        tolerance=spec.tolerance,
        seed=spec.seed,
        samples=spec.samples,
        entries=entries,
    )


# ------------------------------------------------------------------ rendering


def _machine_text(report: RunReport) -> str:
    payload = {
        "format": "machine/1",
        "tolerance": _canon_float(report.tolerance),
        "seed": report.seed,
        "samples": report.samples,
        "summary": {
            "pass": report.pass_count,
            "fail": report.fail_count,
            "error": report.error_count,
        },
        "tasks": [
            {
                "id": e.task_id,
                "kind": e.kind,
                "status": e.status,
                "max_deviation": _canon_float(e.max_deviation),
                "detail": e.detail,
                "witnesses": e.witnesses,
                "wall_time": None,
            }
            for e in report.entries
        ],
    }
    return canonical_json(payload) + "\n"


def _human_text(report: RunReport) -> str:
    headers = ("id", "kind", "status", "max deviation", "wall", "detail")
    rows = []
    for e in report.entries:
        dev = "-" if e.max_deviation is None else f"{e.max_deviation:.3e}"
        rows.append(
            (
                e.task_id,
                e.kind,
                e.status.upper(),
                dev,
                f"{e.wall_time * 1000.0:.1f} ms",
                e.detail,
            )
        )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [
        f"tolerance {report.tolerance:.3e}, seed {report.seed}, samples {report.samples}",
        "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[c] for c in range(len(headers))),
    ]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(headers))).rstrip())
    lines.append(
        f"summary: {report.pass_count} pass / {report.fail_count} fail / "
        f"{report.error_count} error"
    )
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, format: str = "human") -> str:
    """Render a run report as text (``human`` table or ``machine`` JSON)."""
    if format == "machine":
        return _machine_text(report)
    if format == "human":
        return _human_text(report)
    raise UnknownFormat(f"unknown report format '{format}'")
