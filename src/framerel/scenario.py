"""Scenario files: declarative descriptions of frames, systems and tasks.

A scenario is one JSON document with named sections.  Matrices are
written as row-major lists of rows, every entry a two-element
``[re, im]`` pair of decimal floats — the same literal form the report
writer uses for witnesses.  Parsing is eager: groups, representations,
systems, frames, channels and frame morphisms are constructed and
validated immediately, so a scenario that parses is a scenario whose
declared objects all exist.  Validation failures from the constructors
are wrapped in :class:`~framerel.errors.ScenarioValidationError` with
the section and name attached.  The spec keeps the document as parsed,
and :func:`serialize_scenario` writes it back as sorted, indented JSON
through :func:`canonical_json`, the writer of the machine reports too.

Sections
--------
``options``            tolerance / seed / samples overridable per file
``group``              ``{"type":"cyclic","order":n}`` or
                       ``{"type":"table","mult":[[...]],"labels":[...],
                       "identity":id}`` (labels and identity optional)
``representations``    ``{"dim":d,"matrices":{"<element-label-or-id>":M}}``
``systems``            ``{"rep":name,"basis":"full" | [M, ...]}``
``frames``             ``{"rep":name,"seed":M}`` or
                       ``{"rep":name,"effects":{"<label>":M}}``,
                       optional ``"value_space":"full" | [M, ...]``
``channels``           ``{"source":sys,"target":sys,"kind":
                       "matrix_images"|"kraus"|"conjugate_unitary",
                       "data":...}``
``frame_morphisms``    ``{"source":frame,"target":frame,"channel":ch}``
``tasks``              ordered list; each entry carries exactly one of
                       the task keys ``relativize`` / ``relative_subspace``
                       / ``yen_morphism`` / ``check`` /
                       ``external_transform`` plus an optional ``id``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from .errors import (
    DimensionMismatch,
    FramerelError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownReference,
)
from .frames import (
    FrameMorphism,
    FrameObservable,
    build_frame_morphism,
    frame_from_effects,
    principal_frame_from_seed,
)
from .groups import FiniteGroup, UnitaryRep, build_cyclic_group, build_group_from_table, unitary_rep
from .linalg import DEFAULT_TOL
from .systems import (
    DEFAULT_POSITIVITY_SAMPLES,
    DEFAULT_POSITIVITY_SEED,
    ChannelMap,
    SemiQuantumSystem,
    build_channel,
    conjugation_channel,
    full_system,
    kraus_channel,
    subspace_system,
)

# task kind -> (required, optional) parameters.  A check's kind is
# "check:<name>"; its parameters sit beside "check" in the task object,
# while every other kind nests them under its own key.
_TASK_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "relativize": (("frame", "system", "operator"), ("expect",)),
    "relative_subspace": (("frame", "system"), ("expect_dim", "expect_kernel_dim")),
    "yen_morphism": (("morphism", "channel"), ("expect_matrix",)),
    "check:channel_axioms": (("frame", "system"), ()),
    "check:ideal_isomorphism": (("frame", "system"), ("expect_ideal",)),
    "check:functor_laws": (("links",), ()),
    "check:naturality": (("frame", "channel"), ()),
    "check:tensor_form": (("morphism", "channel"), ()),
    "external_transform": (("morphism", "system", "frame_state", "system_state"), ()),
}
_TASK_KEYS = tuple(dict.fromkeys(kind.partition(":")[0] for kind in _TASK_PARAMS))
_CHECK_NAMES = tuple(kind[len("check:"):] for kind in _TASK_PARAMS if kind.startswith("check:"))
# parameter -> the section its name refers to
_REFERENCES = {
    "frame": "frames",
    "system": "systems",
    "channel": "channels",
    "morphism": "frame_morphisms",
}
_MATRIX_PARAMS = ("operator", "expect", "expect_matrix", "frame_state", "system_state")


# ------------------------------------------------------------ matrix literals


def decode_matrix(obj: Any, where: str) -> np.ndarray:
    """Decode a row-major [re, im]-pair literal of finite JSON numbers into a complex matrix."""
    if not isinstance(obj, list) or not obj:
        raise ScenarioSyntaxError(f"{where}: matrix literal must be a non-empty list of rows")
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ScenarioSyntaxError(f"{where}: row {r} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionMismatch(
                f"{where}: row {r} has {len(row)} entries, previous rows have {width}"
            )
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not {int, float}.issuperset(map(type, entry))  # a JSON boolean is a bool
            ):
                raise ScenarioSyntaxError(
                    f"{where}: entry ({r},{c}) must be a two-element [re, im] pair"
                )
    try:
        m = np.array(obj, dtype=np.float64).view(np.complex128)[..., 0]  # (re, im) pairs as complex
    except OverflowError:
        raise ScenarioSyntaxError(f"{where}: an integer entry is beyond float range") from None
    if not np.isfinite(m).all():
        r, c = np.argwhere(~np.isfinite(m))[0]
        raise ScenarioSyntaxError(f"{where}: entry ({r},{c}) is not a finite number")
    return m


def encode_matrix(m) -> list:
    """Encode a complex matrix as the row-major [re, im] literal.

    Entries are rounded to 12 decimal digits, as ``round(x, 12)`` does,
    bit for bit, and negative zero is normalized away, so the encoding is
    byte-stable across runs.  The whole (re, im) view is rounded at once,
    as rint(y) / 1e12 with y = x 1e12.  Rounding is monotonic and every
    half-integer below 2^52 is a double, so y lies on the same side of
    each half-integer as the exact x 10^12, or on one.  Off them, rint(y)
    is the integer K that round takes, and K / 1e12, both exact, is
    correctly rounded, as round's result is.  The entries whose y is a
    half-integer, reaches 2^52 or is not finite are rounded one at a time,
    as ``float('%.12f' % x)``: the same rounding by another path.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    x = np.ascontiguousarray(a).view(np.float64).reshape(*a.shape, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e12
        k = np.rint(y)
        rounded = k / 1e12 + 0.0  # + 0.0 turns -0.0 into 0.0
        exact = (np.abs(y - k) != 0.5) & (np.abs(y) < 2.0**52)
    at = np.flatnonzero(~exact)
    rounded.reshape(-1)[at] = [float("%.12f" % v) + 0.0 for v in x.reshape(-1)[at].tolist()]
    return rounded.tolist()


# ------------------------------------------------------------ canonical JSON

_encode_string = json.encoder.encode_basestring_ascii
_SEQUENCES = {list, tuple}
_NUMBERS = {int, float}


def canonical_json(obj: Any) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    ``json`` writes indented text with its pure-Python encoder, one
    generator step per token.  This is one recursive walk with the same
    rules: sorted keys, strings through ``encode_basestring_ascii``,
    ``int.__repr__``, ``float.__repr__`` via ``isinstance``, ``NaN`` and
    ``±Infinity``, and ``TypeError`` on what ``json`` rejects.  A matrix
    literal is written with one ``%`` format (``_matrix_text``).
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(o: Any, newline: str, out: list[str]) -> None:
    """Append the text of ``o``, whose closing bracket goes after ``newline``."""
    if isinstance(o, str):
        out.append(_encode_string(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        text = _matrix_text(o, newline)
        if text is not None:
            out.append(text)
            return
        inner = newline + "  "
        opening = "[" + inner
        for value in o:
            out.append(opening)
            _write(value, inner, out)
            opening = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, value in sorted(o.items()):
            out.append(opening + _encode_string(_key_text(key)) + ": ")
            _write(value, inner, out)
            opening = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _matrix_text(rows: list | tuple, newline: str) -> str | None:
    """The text of rows of equal width of [re, im] pairs of finite numbers,
    each exactly an ``int`` or a ``float``; None for anything else.

    One template for the whole matrix takes every number through ``%r``,
    which is ``int.__repr__`` or ``float.__repr__`` on these exact types.
    A non-finite float writes ``inf`` or ``nan``, the only number text
    with an "n", and sends the matrix back to the walk.
    """
    if not set(map(type, rows)) <= _SEQUENCES:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    pairs = tuple(chain.from_iterable(rows))
    if not set(map(type, pairs)) <= _SEQUENCES or set(map(len, pairs)) != {2}:
        return None
    numbers = tuple(chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= _NUMBERS:
        return None
    rows_at, pairs_at, numbers_at = newline + "  ", newline + "    ", newline + "      "
    pair = "[" + numbers_at + "%r," + numbers_at + "%r" + pairs_at + "]"
    row = "[" + pairs_at + ("," + pairs_at).join([pair] * widths.pop()) + rows_at + "]"
    text = ("[" + rows_at + ("," + rows_at).join([row] * len(rows)) + newline + "]") % numbers
    return None if "n" in text else text


# ----------------------------------------------------------------- spec types


@dataclass(frozen=True)
class ScenarioTask:
    """One resolved task: kind, stable id and decoded parameters."""

    task_id: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A parsed scenario: every declared object constructed, and the document as parsed."""

    group: FiniteGroup
    representations: dict[str, UnitaryRep]
    systems: dict[str, SemiQuantumSystem]
    frames: dict[str, FrameObservable]
    channels: dict[str, ChannelMap]
    frame_morphisms: dict[str, FrameMorphism]
    tasks: tuple[ScenarioTask, ...]
    tolerance: float
    seed: int
    samples: int
    document: dict[str, Any]


def serialize_scenario(spec: ScenarioSpec) -> str:
    """The document as parsed, written as sorted, indented JSON.

    Nothing is rounded on the way, so parsing the text back builds the
    same objects bit for bit.
    """
    return canonical_json(spec.document) + "\n"


# -------------------------------------------------------------------- helpers


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioSyntaxError(f"{where}: expected an object")
    return obj


def _require_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for k in required:
        if k not in obj:
            raise ScenarioSyntaxError(f"{where}: missing required key '{k}'")
    for k in obj:
        if k not in required and k not in optional:
            raise ScenarioSyntaxError(f"{where}: unknown key '{k}'")


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _resolve_element(group: FiniteGroup, key: str, section: str) -> int:
    g = group.element_of_label(key)
    if g is None:
        raise UnknownReference(key, section)
    return g


def _lookup(table: dict, name: Any, section: str):
    if not isinstance(name, str) or name not in table:
        raise UnknownReference(str(name), section)
    return table[name]


@contextmanager
def _wrap_build(section: str, name: str):
    """Turn constructor failures into scenario diagnostics."""
    try:
        yield
    except (ScenarioSyntaxError, UnknownReference, DimensionMismatch, ScenarioValidationError):
        raise
    except FramerelError as exc:
        raise ScenarioValidationError(section, name, exc) from exc


# -------------------------------------------------------------------- parsing


def _parse_group(stanza: Any) -> FiniteGroup:
    g = _require_mapping(stanza, "group")
    gtype = g.get("type")
    if gtype == "cyclic":
        _require_keys(g, "group", ("type", "order"))
        order = g["order"]
        if not _is_int(order) or order < 1:
            raise ScenarioSyntaxError("group: 'order' must be a positive integer")
        with _wrap_build("group", f"cyclic-{order}"):
            return build_cyclic_group(order)
    if gtype == "table":
        _require_keys(g, "group", ("type", "mult"), ("labels", "identity"))
        mult = g["mult"]
        if not isinstance(mult, list) or not all(
            isinstance(r, list) and len(r) == len(mult) and all(map(_is_int, r)) for r in mult
        ):
            raise ScenarioSyntaxError("group: 'mult' must be a square list of rows of integer ids")
        labels = g.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise ScenarioSyntaxError("group: 'labels' must be a list of strings")
        identity = g.get("identity")
        if identity is not None and not (_is_int(identity) and 0 <= identity < len(mult)):
            raise ScenarioSyntaxError("group: 'identity' must be an integer element id")
        with _wrap_build("group", "table"):
            return build_group_from_table(mult, identity_element=identity, labels=labels)
    raise ScenarioSyntaxError("group: 'type' must be 'cyclic' or 'table'")


def _parse_element_keyed_matrices(
    group: FiniteGroup, obj: Any, where: str, section: str, dim: int | None
) -> list[np.ndarray]:
    """Decode a {element-label-or-id: matrix} map covering the whole group."""
    mapping = _require_mapping(obj, where)
    out: list[np.ndarray | None] = [None] * group.order
    for key, literal in mapping.items():
        g = _resolve_element(group, key, section)
        if out[g] is not None:
            raise ScenarioSyntaxError(f"{where}: element '{key}' listed twice")
        m = decode_matrix(literal, f"{where}['{key}']")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"{where}['{key}']: matrix must be square")
        if dim is not None and m.shape[0] != dim:
            raise DimensionMismatch(
                f"{where}['{key}']: matrix of dimension {m.shape[0]}, declared dim is {dim}"
            )
        out[g] = m
    missing = [group.label(g) for g in group.elements() if out[g] is None]
    if missing:
        raise ScenarioSyntaxError(f"{where}: no matrix for element(s) {', '.join(missing)}")
    return out  # type: ignore[return-value]


def _parse_representations(group: FiniteGroup, stanza: Any, tol: float):
    reps: dict[str, UnitaryRep] = {}
    for name, entry in _require_mapping(stanza, "representations").items():
        where = f"representations['{name}']"
        e = _require_mapping(entry, where)
        _require_keys(e, where, ("dim", "matrices"))
        dim = e["dim"]
        if not _is_int(dim) or dim < 1:
            raise ScenarioSyntaxError(f"{where}: 'dim' must be a positive integer")
        mats = _parse_element_keyed_matrices(
            group, e["matrices"], f"{where}.matrices", "representations", dim
        )
        with _wrap_build("representations", name):
            reps[name] = unitary_rep(group, mats, tol)
    return reps


def _parse_basis_field(value: Any, where: str) -> str | list[np.ndarray]:
    if value == "full":
        return "full"
    if isinstance(value, list):
        mats = [decode_matrix(m, f"{where}[{i}]") for i, m in enumerate(value)]
        for i, m in enumerate(mats):
            if m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"{where}[{i}]: matrix must be square")
        return mats
    raise ScenarioSyntaxError(f"{where}: expected 'full' or a list of matrix literals")


def _parse_systems(reps: dict[str, UnitaryRep], stanza: Any, tol: float):
    systems: dict[str, SemiQuantumSystem] = {}
    for name, entry in _require_mapping(stanza, "systems").items():
        where = f"systems['{name}']"
        e = _require_mapping(entry, where)
        _require_keys(e, where, ("rep", "basis"))
        rep = _lookup(reps, e["rep"], "representations")
        basis = _parse_basis_field(e["basis"], f"{where}.basis")
        with _wrap_build("systems", name):
            systems[name] = (
                full_system(rep, tol)
                if basis == "full"
                else subspace_system(rep, basis, tol)
            )
    return systems


def _parse_frames(
    group: FiniteGroup, reps: dict[str, UnitaryRep], stanza: Any, tol: float
):
    frames: dict[str, FrameObservable] = {}
    for name, entry in _require_mapping(stanza, "frames").items():
        where = f"frames['{name}']"
        e = _require_mapping(entry, where)
        _require_keys(e, where, ("rep",), ("seed", "effects", "value_space"))
        rep = _lookup(reps, e["rep"], "representations")
        if ("seed" in e) == ("effects" in e):
            raise ScenarioSyntaxError(f"{where}: give exactly one of 'seed' or 'effects'")
        value_system = None
        gens = _parse_basis_field(e.get("value_space", "full"), f"{where}.value_space")
        if gens != "full":
            with _wrap_build("frames", name):
                value_system = subspace_system(rep, gens, tol)
        if "seed" in e:
            seed = decode_matrix(e["seed"], f"{where}.seed")
            if seed.shape != (rep.dim, rep.dim):
                raise DimensionMismatch(
                    f"{where}.seed: matrix of dimension {seed.shape[0]}, "
                    f"representation has {rep.dim}"
                )
            with _wrap_build("frames", name):
                frames[name] = principal_frame_from_seed(rep, seed, value_system, tol)
        else:
            effects = _parse_element_keyed_matrices(
                group, e["effects"], f"{where}.effects", "frames", rep.dim
            )
            with _wrap_build("frames", name):
                frames[name] = frame_from_effects(rep, effects, value_system, tol)
    return frames


def _parse_channels(
    systems: dict[str, SemiQuantumSystem], stanza: Any, tol: float, samples: int, seed: int
):
    channels: dict[str, ChannelMap] = {}
    for name, entry in _require_mapping(stanza, "channels").items():
        where = f"channels['{name}']"
        e = _require_mapping(entry, where)
        _require_keys(e, where, ("source", "target", "kind", "data"))
        source = _lookup(systems, e["source"], "systems")
        target = _lookup(systems, e["target"], "systems")
        kind = e["kind"]
        data = e["data"]
        if kind == "matrix_images":
            if not isinstance(data, list):
                raise ScenarioSyntaxError(f"{where}.data: expected a list of matrix literals")
            images = [decode_matrix(m, f"{where}.data[{i}]") for i, m in enumerate(data)]
            if len(images) != source.space.dim:
                raise DimensionMismatch(
                    f"{where}.data: {len(images)} images for a source basis of "
                    f"dimension {source.space.dim}"
                )
            with _wrap_build("channels", name):
                channels[name] = build_channel(source, target, images, tol, samples, seed)
        elif kind == "kraus":
            if not isinstance(data, list):
                raise ScenarioSyntaxError(f"{where}.data: expected a list of matrix literals")
            ops = [decode_matrix(m, f"{where}.data[{i}]") for i, m in enumerate(data)]
            with _wrap_build("channels", name):
                channels[name] = kraus_channel(source, target, ops, tol, samples, seed)
        elif kind == "conjugate_unitary":
            u = decode_matrix(data, f"{where}.data")
            with _wrap_build("channels", name):
                channels[name] = conjugation_channel(source, u, target, tol, samples, seed)
        else:
            raise ScenarioSyntaxError(
                f"{where}: 'kind' must be matrix_images, kraus or conjugate_unitary"
            )
    return channels


def _parse_frame_morphisms(
    frames: dict[str, FrameObservable],
    channels: dict[str, ChannelMap],
    stanza: Any,
    tol: float,
):
    morphisms: dict[str, FrameMorphism] = {}
    for name, entry in _require_mapping(stanza, "frame_morphisms").items():
        where = f"frame_morphisms['{name}']"
        e = _require_mapping(entry, where)
        _require_keys(e, where, ("source", "target", "channel"))
        source = _lookup(frames, e["source"], "frames")
        target = _lookup(frames, e["target"], "frames")
        channel = _lookup(channels, e["channel"], "channels")
        with _wrap_build("frame_morphisms", name):
            morphisms[name] = build_frame_morphism(source, target, channel, tol)
    return morphisms


def _parse_tasks(stanza: Any, tables: dict[str, dict]) -> tuple[ScenarioTask, ...]:
    if not isinstance(stanza, list) or not stanza:
        raise ScenarioSyntaxError("tasks: expected a non-empty list")
    tasks: list[ScenarioTask] = []
    seen_ids: set[str] = set()
    for idx, raw in enumerate(stanza):
        where = f"tasks[{idx}]"
        t = _require_mapping(raw, where)
        kinds = [k for k in _TASK_KEYS if k in t]
        if len(kinds) != 1:
            raise ScenarioSyntaxError(
                f"{where}: exactly one of {', '.join(_TASK_KEYS)} is required"
            )
        key = kinds[0]
        task_id = t.get("id", f"task-{idx + 1}")
        if not isinstance(task_id, str) or not task_id:
            raise ScenarioSyntaxError(f"{where}: 'id' must be a non-empty string")
        if task_id in seen_ids:
            raise ScenarioSyntaxError(f"{where}: duplicate task id '{task_id}'")
        seen_ids.add(task_id)

        if key == "check":
            check = t["check"]
            if check not in _CHECK_NAMES:
                raise ScenarioSyntaxError(
                    f"{where}: check must be one of {', '.join(_CHECK_NAMES)}"
                )
            kind = f"check:{check}"
            required, optional = _TASK_PARAMS[kind]
            _require_keys(t, where, ("check",) + required, ("id",) + optional)
            params = _parse_params(t, where, kind, tables)
        else:
            kind = key
            body = _require_mapping(t[key], f"{where}.{key}")
            _require_keys(t, where, (key,), ("id",))
            _require_keys(body, f"{where}.{key}", *_TASK_PARAMS[kind])
            params = _parse_params(body, f"{where}.{key}", kind, tables)
        tasks.append(ScenarioTask(task_id=task_id, kind=kind, params=params))
    return tuple(tasks)


def _parse_params(obj: dict, where: str, kind: str, tables: dict[str, dict]) -> dict[str, Any]:
    """Resolve and decode the parameters of one task, keys already checked."""
    required, optional = _TASK_PARAMS[kind]
    params: dict[str, Any] = {}
    for pk in required + optional:
        if pk not in obj:
            continue
        pv = obj[pk]
        if pk in _REFERENCES:
            _lookup(tables[_REFERENCES[pk]], pv, _REFERENCES[pk])
        elif pk in _MATRIX_PARAMS:
            pv = decode_matrix(pv, f"{where}.{pk}")
        elif pk in ("expect_dim", "expect_kernel_dim"):
            if not _is_int(pv) or pv < 0:
                raise ScenarioSyntaxError(f"{where}.{pk}: expected a non-negative integer")
        elif pk == "expect_ideal":
            if not isinstance(pv, bool):
                raise ScenarioSyntaxError(f"{where}.expect_ideal: expected true or false")
        elif pk == "links":
            if not isinstance(pv, list) or not pv:
                raise ScenarioSyntaxError(f"{where}.links: expected a non-empty list")
            for i, link in enumerate(pv):
                lw = f"{where}.links[{i}]"
                link_map = _require_mapping(link, lw)
                _require_keys(link_map, lw, ("morphism", "channel"))
                _lookup(tables["frame_morphisms"], link_map["morphism"], "frame_morphisms")
                _lookup(tables["channels"], link_map["channel"], "channels")
        params[pk] = pv
    return params


def parse_scenario(
    text: str,
    *,
    tolerance: float | None = None,
    seed: int | None = None,
    samples: int | None = None,
    fallback_tolerance: float = DEFAULT_TOL,
) -> ScenarioSpec:
    """Parse and eagerly build a scenario document.

    ``tolerance``/``seed``/``samples`` override the document's own
    ``options`` (the CLI passes its flags through here), while
    ``fallback_tolerance`` is what applies when neither an override nor
    a document option is present.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    root = _require_mapping(doc, "scenario")
    _require_keys(
        root,
        "scenario",
        ("group", "tasks"),
        ("options", "representations", "systems", "frames", "channels", "frame_morphisms"),
    )

    options = _require_mapping(root.get("options", {}), "options")
    _require_keys(options, "options", (), ("tolerance", "seed", "samples"))
    declared = options.get("tolerance", 0.0)
    if isinstance(declared, bool) or not isinstance(declared, (int, float)):
        raise ScenarioSyntaxError("options.tolerance: expected a number")
    for k, override in (("seed", seed), ("samples", samples)):
        if k in options and not (_is_int(options[k]) and options[k] >= 0):
            raise ScenarioSyntaxError(f"options.{k}: expected a non-negative integer")
        if override is not None and not (_is_int(override) and override >= 0):
            raise ScenarioSyntaxError(f"{k}: expected a non-negative integer, got {override!r}")
    tol = float(
        tolerance
        if tolerance is not None
        else options.get("tolerance", fallback_tolerance)
    )
    if not (math.isfinite(tol) and tol > 0):
        raise ScenarioSyntaxError("tolerance must be a finite positive number")
    run_seed = int(seed if seed is not None else options.get("seed", DEFAULT_POSITIVITY_SEED))
    run_samples = int(samples if samples is not None else options.get("samples", DEFAULT_POSITIVITY_SAMPLES))

    group = _parse_group(root["group"])
    reps = _parse_representations(group, root.get("representations", {}), tol)
    systems = _parse_systems(reps, root.get("systems", {}), tol)
    frames = _parse_frames(group, reps, root.get("frames", {}), tol)
    channels = _parse_channels(systems, root.get("channels", {}), tol, run_samples, run_seed)
    morphisms = _parse_frame_morphisms(frames, channels, root.get("frame_morphisms", {}), tol)
    tasks = _parse_tasks(
        root.get("tasks"),
        {"frames": frames, "systems": systems, "channels": channels, "frame_morphisms": morphisms},
    )

    return ScenarioSpec(
        group=group,
        representations=reps,
        systems=systems,
        frames=frames,
        channels=channels,
        frame_morphisms=morphisms,
        tasks=tasks,
        tolerance=tol,
        seed=run_seed,
        samples=run_samples,
        document=root,
    )
