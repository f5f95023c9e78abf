"""Command line front end: validate scenario files and run their tasks.

Exit codes: 0 every task passed, 1 at least one law violation, 2 a
structural error (bad scenario file, or a task that could not be
executed as posed).  Tolerance resolution order: ``--tolerance`` flag,
then the scenario's own ``options.tolerance``, then the
``FRAMEREL_TOLERANCE`` environment variable, then the built-in 1e-9.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import FramerelError
from .linalg import DEFAULT_TOL
from .runner import emit_report, run_scenario
from .scenario import parse_scenario

ENV_TOLERANCE = "FRAMEREL_TOLERANCE"


def _fallback_tolerance() -> float:
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise FramerelError(
            f"environment variable {ENV_TOLERANCE}={raw!r} is not a number"
        ) from None
    if not (math.isfinite(value) and value > 0):
        raise FramerelError(f"environment variable {ENV_TOLERANCE} must be finite and positive")
    return value


def _load(path: str, args) -> "object":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FramerelError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(
        text,
        tolerance=getattr(args, "tolerance", None),
        seed=getattr(args, "seed", None),
        fallback_tolerance=_fallback_tolerance(),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framerel",
        description="Run declarative frame-relativization scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="parse a scenario and build every declared object")
    validate.add_argument("file", help="scenario file (JSON)")

    run = sub.add_parser("run", help="execute a scenario's tasks and print a report")
    run.add_argument("file", help="scenario file (JSON)")
    run.add_argument("--tolerance", type=float, default=None, help="override the tolerance")
    run.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    run.add_argument(
        "--report",
        choices=("human", "machine"),
        default="human",
        help="report format (default: human)",
    )
    run.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _load(args.file, args)
    except FramerelError as exc:
        print(f"framerel: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(
            f"scenario OK: group of order {spec.group.order}, "
            f"{len(spec.representations)} representation(s), "
            f"{len(spec.systems)} system(s), {len(spec.frames)} frame(s), "
            f"{len(spec.channels)} channel(s), "
            f"{len(spec.frame_morphisms)} frame morphism(s), "
            f"{len(spec.tasks)} task(s)"
        )
        return 0

    report = run_scenario(spec)
    text = emit_report(report, args.report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"framerel: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
