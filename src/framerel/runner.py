"""Execute scenario tasks and render deterministic reports.

Tasks run in declared order, fail-soft: a violated law becomes a
``fail`` entry, a structurally impossible request becomes an ``error``
entry, and the run always produces exactly one entry per task.  Every
task yields one ``LawReport`` (its components, detail and witnesses),
and a raised ``LawViolation`` is quoted by its deviation, element and
witnesses.  The tasks of one run share one ``Workspace``, so a
relativization map, relative subspace or induced map that several tasks
ask for is built once, and its build time is charged to the first task
that asks; a channel's equivariance is decided once per run too.  The machine report
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
from typing import Any

from .errors import DimensionMismatch, FramerelError, LawViolation, UnknownFormat
from .linalg import max_abs
from .relativize import (
    LawReport,
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


def _expected(result, p: dict, name: str) -> dict[str, float]:
    """``{name: largest entry of result - p[name]}``, or {} when the task
    gives no ``name``; the shapes must agree."""
    if name not in p:
        return {}
    if p[name].shape != result.shape:
        raise DimensionMismatch(
            f"{name} has shape {p[name].shape}, the result has shape {result.shape}"
        )
    return {name: max_abs(result - p[name])}


def _run_relativize(spec: ScenarioSpec, p: dict, ws: Workspace) -> LawReport:
    frame = spec.frames[p["frame"]]
    system = spec.systems[p["system"]]
    result = relativize(frame, system, p["operator"], spec.tolerance)
    deviations = _expected(result, p, "expect")
    detail = "relativized observable " + ("compared with expectation" if deviations else "computed")
    passed = all(dev <= spec.tolerance for dev in deviations.values())
    return LawReport(deviations, passed, {"result": encode_matrix(result)}, detail)


def _run_relative_subspace(spec: ScenarioSpec, p: dict, ws: Workspace) -> LawReport:
    rel = ws.relative_subspace(spec.frames[p["frame"]], spec.systems[p["system"]])
    dims = {"expect_dim": rel.space.dim, "expect_kernel_dim": rel.kernel.dim}
    deviations = {key: float(abs(dim - p[key])) for key, dim in dims.items() if key in p}
    detail = f"image dimension {rel.space.dim}, kernel dimension {rel.kernel.dim}"
    return LawReport(deviations, not any(deviations.values()), {}, detail)


def _run_yen_morphism(spec: ScenarioSpec, p: dict, ws: Workspace) -> LawReport:
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
    deviations = _expected(induced.matrix, p, "expect_matrix")
    passed = all(dev <= spec.tolerance for dev in deviations.values())
    return LawReport(deviations, passed, {"matrix": encode_matrix(induced.matrix)}, detail)


def _run_external_transform(spec: ScenarioSpec, p: dict, ws: Workspace) -> LawReport:
    target_side, source_side = external_frame_transform(
        spec.frame_morphisms[p["morphism"]],
        spec.systems[p["system"]],
        p["frame_state"],
        p["system_state"],
        spec.tolerance,
    )
    dev = target_side.deviation(source_side)
    return LawReport(
        {"state_classes": dev},
        dev <= spec.tolerance,
        {"relative_state": encode_matrix(target_side.canonical)},
        "relative states from both ends of the frame morphism compared",
    )


def _rmap(spec: ScenarioSpec, p: dict, ws: Workspace):
    return ws.relativization_map(spec.frames[p["frame"]], spec.systems[p["system"]])


# task kind -> executor from (spec, params, workspace) to the task's LawReport
_EXECUTORS = {
    "relativize": _run_relativize,
    "relative_subspace": _run_relative_subspace,
    "yen_morphism": _run_yen_morphism,
    "external_transform": _run_external_transform,
    "check:channel_axioms": lambda spec, p, ws: check_channel_axioms(
        _rmap(spec, p, ws), spec.tolerance, spec.samples, spec.seed
    ),
    "check:ideal_isomorphism": lambda spec, p, ws: check_ideal_isomorphism(
        _rmap(spec, p, ws), spec.tolerance
    ),
    "check:functor_laws": lambda spec, p, ws: check_functor_laws(
        [
            (spec.frame_morphisms[link["morphism"]], spec.channels[link["channel"]])
            for link in p["links"]
        ],
        spec.tolerance,
        spec.samples,
        spec.seed,
        ws,
    ),
    "check:naturality": lambda spec, p, ws: check_naturality(
        spec.frames[p["frame"]], spec.channels[p["channel"]], spec.tolerance, ws
    ),
    "check:tensor_form": lambda spec, p, ws: check_equivariant_tensor_form(
        spec.frame_morphisms[p["morphism"]],
        spec.channels[p["channel"]],
        spec.tolerance,
        spec.samples,
        spec.seed,
        ws,
    ),
}


def _violation_payload(exc: LawViolation) -> tuple[float | None, dict[str, Any]]:
    witnesses: dict[str, Any] = {name: encode_matrix(op) for name, op in exc.witnesses.items()}
    if exc.element is not None:
        witnesses["group_element"] = int(exc.element)
    return exc.deviation, witnesses


def run_task(spec: ScenarioSpec, task: ScenarioTask, workspace: Workspace | None = None) -> TaskResult:
    """Run one task, fail-soft, on ``workspace`` (a fresh one when None)."""
    if workspace is None:
        workspace = Workspace(spec.tolerance)
    start = time.perf_counter()
    try:
        report = _EXECUTORS[task.kind](spec, task.params, workspace)
        # a task passes when its verdict is the one the law predicts (and, for
        # ``expect_ideal``, the one the scenario declares)
        declared = task.params.get("expect_ideal", report.expected)
        status = "pass" if report.passed == report.expected == declared else "fail"
        deviation, detail, witnesses = report.max_deviation, report.detail, report.witnesses
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
