"""Scenario wire format, runner reports, and the command line front end."""

import importlib
import json
import pathlib
from collections import Counter

import numpy as np
import pytest

from framerel.errors import (
    ChannelNotEquivariant,
    DimensionMismatch,
    FramerelError,
    IllDefined,
    NotCentral,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownFormat,
    UnknownReference,
)
from framerel.relativize import LawReport, Workspace
from framerel.runner import emit_report, run_scenario, run_task
from framerel.scenario import decode_matrix, encode_matrix, parse_scenario, serialize_scenario

from .support import run_cli

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

MINIMAL = {
    "group": {"type": "cyclic", "order": 2},
    "representations": {"flip": {"dim": 2, "matrices": {"0": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "1": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}}},
    "systems": {"qubit": {"rep": "flip", "basis": "full"}},
    "frames": {"F": {"rep": "flip", "seed": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}},
    "tasks": [
        {
            "relativize": {
                "frame": "F",
                "system": "qubit",
                "operator": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            }
        }
    ],
}


def minimal(**edits):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(edits)
    return doc


# ------------------------------------------------------------ matrix literals


def test_matrix_literal_round_trip():
    m = np.array([[1.5 + 2j, 0.0], [-3.25j, 1e-3]], dtype=complex)
    assert np.allclose(decode_matrix(encode_matrix(m), "t"), m, atol=1e-12)
    rect = np.arange(6, dtype=float).reshape(2, 3).astype(complex)
    assert decode_matrix(encode_matrix(rect), "t").shape == (2, 3)


def test_matrix_literal_rejects_garbage():
    with pytest.raises(ScenarioSyntaxError):
        decode_matrix([], "t")
    with pytest.raises(ScenarioSyntaxError):
        decode_matrix([[1.0, 2.0]], "t")  # entries must be [re, im] pairs
    with pytest.raises(ScenarioSyntaxError):
        decode_matrix("full", "t")
    with pytest.raises(DimensionMismatch):
        decode_matrix([[[1, 0], [0, 0]], [[0, 0]]], "t")  # ragged rows


def test_encode_kills_negative_zero_and_rounds():
    m = np.array([[-0.0 + 0.0j, 1e-15]], dtype=complex)
    enc = encode_matrix(m)
    assert enc == [[[0.0, 0.0], [0.0, 0.0]]]


# ----------------------------------------------------------------- parsing


def test_minimal_scenario_parses_and_runs():
    spec = parse_scenario(json.dumps(MINIMAL))
    assert spec.group.order == 2
    assert len(spec.tasks) == 1
    assert spec.tasks[0].task_id == "task-1"  # default id
    report = run_scenario(spec)
    assert report.exit_code == 0


def test_bad_json_reports_position():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario("{ not json")
    assert err.value.line == 1
    assert err.value.column is not None


def test_unknown_root_key_rejected():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(minimal(extra={})))


def test_unknown_reference_names_the_missing_entry():
    doc = minimal()
    doc["tasks"][0]["relativize"]["frame"] = "F2"
    with pytest.raises(UnknownReference) as err:
        parse_scenario(json.dumps(doc))
    assert "F2" in str(err.value)


def test_duplicate_task_ids_rejected():
    doc = minimal()
    doc["tasks"] = [dict(doc["tasks"][0], id="t"), dict(doc["tasks"][0], id="t")]
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(doc))


def test_exactly_one_task_kind_required():
    doc = minimal()
    doc["tasks"] = [
        dict(
            doc["tasks"][0],
            relative_subspace={"frame": "F", "system": "qubit"},
        )
    ]
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(doc))
    doc["tasks"] = [{"id": "empty"}]
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(doc))


def test_options_are_typed():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(minimal(options={"tolerance": "tight"})))
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(minimal(options={"tolerance": -1.0})))
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(minimal(options={"seed": 1.5})))
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(minimal(options={"quiet": True})))


def _rep_entry(entry):
    """The minimal scenario with entry (0, 0) of the flip matrix replaced by ``entry``."""
    doc = minimal()
    doc["representations"]["flip"]["matrices"]["1"][0][0] = entry
    return doc


def test_non_finite_numbers_and_negative_counts_are_parse_errors():
    # json reads NaN and Infinity: a matrix entry must be finite, the
    # tolerance finite and positive, seed and samples non-negative integers
    with pytest.raises(ScenarioSyntaxError, match=r"entry \(0,1\)"):
        decode_matrix([[[1, 0], [0, float("inf")]]], "t")
    # a JSON boolean is no number, and an integer beyond float range is not finite
    with pytest.raises(ScenarioSyntaxError, match=r"entry \(0,1\) must be a two-element"):
        decode_matrix([[[1, 0], [True, False]]], "t")
    with pytest.raises(ScenarioSyntaxError, match="beyond float range"):
        decode_matrix([[[1, 0]], [[0, 10**400]]], "t")
    inf, nan = float("inf"), float("nan")
    docs = [
        _rep_entry([float("nan"), 0]),
        minimal(options={"tolerance": inf}),
        minimal(options={"tolerance": nan}),
        minimal(options={"tolerance": True}),
        minimal(options={"seed": -3}),
        minimal(options={"seed": True}),
        minimal(options={"samples": -1}),
    ]
    for doc in docs:
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario(json.dumps(doc))
    for override in ({"tolerance": inf}, {"tolerance": nan}, {"seed": -1}, {"samples": -2}, {"seed": True}):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario(json.dumps(minimal()), **override)
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(json.dumps(minimal()), fallback_tolerance=inf)


def test_unknown_element_keys_are_unknown_references():
    doc = minimal()
    mats = doc["representations"]["flip"]["matrices"]
    mats["2"] = mats.pop("1")
    with pytest.raises(UnknownReference) as err:
        parse_scenario(json.dumps(doc))
    assert "'2'" in str(err.value) and "representations" in str(err.value)
    doc = minimal()
    doc["frames"]["F"] = {
        "rep": "flip",
        "effects": {"0": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "l": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
    }
    with pytest.raises(UnknownReference) as err:
        parse_scenario(json.dumps(doc))
    assert "'l'" in str(err.value) and "frames" in str(err.value)


Z2_TABLE = {"type": "table", "mult": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "key, group",
    [
        ("identity", dict(Z2_TABLE, identity="e")),
        ("identity", dict(Z2_TABLE, identity=[0])),
        ("identity", dict(Z2_TABLE, identity=True)),
        ("identity", dict(Z2_TABLE, identity=2)),
        ("labels", dict(Z2_TABLE, labels=5)),
        ("labels", dict(Z2_TABLE, labels="ex")),
        ("labels", dict(Z2_TABLE, labels=["e", 1])),
        ("mult", dict(Z2_TABLE, mult=[[0, 1.5], [1, 0]])),
        ("mult", dict(Z2_TABLE, mult=[[0, "1"], [1, 0]])),
        ("mult", dict(Z2_TABLE, mult=[[0, True], [1, 0]])),
        ("mult", dict(Z2_TABLE, mult=[[0, 1], [1]])),
        ("order", {"type": "cyclic", "order": True}),
    ],
)
def test_group_stanza_is_typed(key, group):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(json.dumps(minimal(group=group)))
    assert f"'{key}'" in str(err.value)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list) and node:
        for i, v in enumerate(node):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


def _replaced(node, path, value):
    """A copy of ``node`` with the leaf at ``path`` replaced, sharing everything off the path."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def test_single_leaf_mutations_parse_or_raise_scenario_errors():
    escaped = []
    for name, section in (("golden_z2.json", None), ("golden_s3.json", "group")):
        doc = json.loads((FIXTURES / name).read_text())
        for path in _leaf_paths(doc if section is None else {section: doc[section]}):
            for value in ("x", 1.5, True, None, [], {}):
                try:
                    parse_scenario(json.dumps(_replaced(doc, path, value)))
                except FramerelError:
                    pass
                except Exception as exc:
                    escaped.append((name, path, value, type(exc).__name__))
    assert not escaped, escaped[:5]


def test_tolerance_resolution_order():
    doc = minimal(options={"tolerance": 1e-6})
    spec = parse_scenario(json.dumps(doc))
    assert spec.tolerance == 1e-6
    spec = parse_scenario(json.dumps(doc), tolerance=1e-3)
    assert spec.tolerance == 1e-3  # explicit override beats the document
    spec = parse_scenario(json.dumps(minimal()), fallback_tolerance=1e-4)
    assert spec.tolerance == 1e-4  # fallback applies only when nothing is set


def test_kraus_and_conjugation_channels_record_the_scenario_sampling():
    # a proper subspace takes the sampled positivity check, so the
    # scenario's seed and sample count must reach it
    diag = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    doc = minimal(
        options={"seed": 5, "samples": 3},
        systems={"qubit": {"rep": "flip", "basis": "full"}, "diag": {"rep": "flip", "basis": [diag]}},
        channels={
            "K": {"source": "diag", "target": "diag", "kind": "kraus", "data": [eye]},
            "U": {"source": "diag", "target": "diag", "kind": "conjugate_unitary", "data": eye},
        },
    )
    spec = parse_scenario(json.dumps(doc))
    for name in ("K", "U"):
        ch = spec.channels[name]
        assert (ch.positivity_check, ch.positivity_seed, ch.positivity_samples) == ("sampled", 5, 3)


def test_induced_channels_record_the_scenario_sampling(monkeypatch):
    # every induced map of the S3 golden scenario (yen_morphism,
    # functor_laws, tensor_form) is built on a proper relative subspace;
    # one whose frame morphism and system channel are both exact (Choi or
    # structure: the identities and composites of functor_laws) takes the
    # tensor-form certificate, any other one is sampled, and both record
    # the scenario's seed and count
    relativize_module = importlib.import_module("framerel.relativize")
    induced = []
    original_induce = relativize_module.relativize_morphisms

    def recording_induce(*args, **kwargs):
        induced.append(original_induce(*args, **kwargs))
        return induced[-1]

    def factors_of(rel):
        return (rel.frame_morphism.channel.positivity_check, rel.system_channel.positivity_check)

    for name in ("relativize", "runner"):
        monkeypatch.setattr(
            importlib.import_module(f"framerel.{name}"), "relativize_morphisms", recording_induce
        )
    spec = parse_scenario((FIXTURES / "golden_s3.json").read_text(), samples=3)
    assert spec.seed == 11
    report = run_scenario(spec)
    assert {e.task_id for e in report.entries if e.status != "pass"} == set()
    built = list({id(rel.channel): rel.channel for rel in induced}.values())  # each induced map once
    proper = [ch for ch in built if not ch.source.is_full_algebra]
    assert len(proper) >= 3
    for ch in proper:
        assert (ch.positivity_seed, ch.positivity_samples) == (11, 3)
        assert ch.positivity_check in ("tensor", "sampled")
    assert len(induced) >= 3
    for rel in induced:
        exact = all(check in ("choi", "structure") for check in factors_of(rel))
        assert rel.channel.positivity_check == ("tensor" if exact else "sampled")
    assert any(rel.channel.positivity_check == "tensor" for rel in induced)
    structured = [rel for rel in induced if "structure" in factors_of(rel)]
    assert structured and all(rel.channel.positivity_check == "tensor" for rel in structured)
    # the identities record the scenario's settings, a composite those of
    # its first (Choi-certified) factor
    for rel in structured:
        for ch in (rel.frame_morphism.channel, rel.system_channel):
            settings = (ch.positivity_samples, ch.positivity_seed)
            assert settings == ((3, 11) if ch.factors == () else (0, None))
    assert any(rel.system_channel.factors == () for rel in structured)
    assert any(rel.system_channel.factors for rel in structured)
    for ch in built:
        if ch.source.is_full_algebra:
            assert (ch.positivity_check, ch.positivity_seed) == ("choi", None)


def test_declared_objects_are_built_eagerly():
    doc = minimal()
    doc["frames"]["F"]["seed"] = [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert "frames" in str(err.value) and "F" in str(err.value)


def test_golden_fixtures_are_serialization_fixed_points():
    for name in (
        "golden_z2.json",
        "golden_s3.json",
        "fixture_fail.json",
        "fixture_error.json",
        "fixture_illdefined.json",
    ):
        text = (FIXTURES / name).read_text()
        assert serialize_scenario(parse_scenario(text)) == text


def test_serialized_text_parses_back_to_bit_identical_objects():
    doc = minimal()
    # a + XaX = I, so this seed's orbit is a frame; 1/3, 2/3 and 1/7 do not survive rounding to 12 digits
    doc["frames"]["F"]["seed"] = [[[1 / 3, 0], [0, 0.1]], [[0, -0.1], [2 / 3, 0]]]
    doc["tasks"][0]["relativize"]["operator"] = [[[1 / 7, 0], [0, 0]], [[0, 0], [-1 / 7, 0]]]
    spec = parse_scenario(json.dumps(doc))
    assert spec.document == doc
    again = parse_scenario(serialize_scenario(spec))
    assert again.document == doc
    assert np.array_equal(again.frames["F"].effects, spec.frames["F"].effects)
    assert np.array_equal(again.tasks[0].params["operator"], spec.tasks[0].params["operator"])


def test_checked_in_fixtures_are_exactly_what_the_generator_writes(tmp_path, monkeypatch):
    from .fixtures import generate

    monkeypatch.setattr(generate, "HERE", tmp_path)
    generate.write_fixtures()
    written = sorted(path.name for path in tmp_path.iterdir())
    # manifest.json is checked against live runs in test_manifest.py
    assert written == sorted(path.name for path in FIXTURES.glob("*.json") if path.name != "manifest.json")
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_every_task_kind_has_an_executor():
    from framerel import runner, scenario

    assert set(scenario._TASK_PARAMS) == set(runner._EXECUTORS)


def test_every_executor_returns_a_law_report():
    from framerel import runner

    from .fixtures import generate

    returned = Counter()
    for name, text in generate.manifest_scenarios([1]):
        spec = parse_scenario(text)
        workspace = Workspace(spec.tolerance)
        for task in spec.tasks:
            try:
                report = runner._EXECUTORS[task.kind](spec, task.params, workspace)
            except FramerelError:  # the runner quotes these as fail or error entries
                continue
            assert isinstance(report, LawReport), (name, task.task_id)
            assert report.max_deviation == max([0.0, *report.deviations.values()])
            returned[task.kind] += 1
    assert set(returned) == set(runner._EXECUTORS)


def test_law_violations_declare_deviation_element_and_witnesses():
    w = np.eye(2)
    ill = IllDefined(w, 0.5)
    assert (ill.deviation, ill.element, ill.image_norm) == (0.5, None, 0.5)
    assert list(ill.witnesses) == ["kernel_witness"] and ill.witnesses["kernel_witness"] is w
    bad = ChannelNotEquivariant(3, 0.25, w)
    assert (bad.deviation, bad.element) == (0.25, 3)
    assert list(bad.witnesses) == ["witness"] and bad.witnesses["witness"] is w
    assert dict(ChannelNotEquivariant(3, 0.25).witnesses) == {}
    central = NotCentral(2)
    assert (central.deviation, central.element, dict(central.witnesses)) == (None, 2, {})


# ------------------------------------------------------------------ runner


def test_fail_soft_keeps_every_task_in_the_report():
    spec = parse_scenario((FIXTURES / "fixture_fail.json").read_text())
    report = run_scenario(spec)
    assert len(report.entries) == len(spec.tasks) == 2
    by_id = {e.task_id: e for e in report.entries}
    assert by_id["ok-rel"].status == "pass"
    assert by_id["bad-nat"].status == "fail"
    assert "ChannelNotEquivariant" in by_id["bad-nat"].detail
    assert report.exit_code == 1


def test_engine_errors_are_reported_not_raised():
    spec = parse_scenario((FIXTURES / "fixture_error.json").read_text())
    report = run_scenario(spec)
    by_id = {e.task_id: e for e in report.entries}
    assert by_id["outside"].status == "error"
    assert "OperatorOutsideSystem" in by_id["outside"].detail
    assert report.exit_code == 2
    assert report.pass_count == 1 and report.error_count == 1


def test_illdefined_induced_map_reports_witness():
    spec = parse_scenario((FIXTURES / "fixture_illdefined.json").read_text())
    report = run_scenario(spec)
    by_id = {e.task_id: e for e in report.entries}
    entry = by_id["bad-induce"]
    assert entry.status == "fail"
    assert "IllDefined" in entry.detail
    assert entry.max_deviation >= 1e-3
    assert "kernel_witness" in entry.witnesses
    assert report.exit_code == 1


@pytest.mark.parametrize("shape", [(1, 1), (3, 3)])
def test_expected_matrices_of_the_wrong_shape_are_errors(shape):
    # a 1 x 1 expectation would broadcast against the result and a 3 x 3
    # one would not; both are a malformed task, not a law verdict
    literal = [[[1.0, 0.0]] * shape[1]] * shape[0]
    doc = minimal()
    doc["tasks"][0]["relativize"]["expect"] = literal
    golden = json.loads((FIXTURES / "golden_z2.json").read_text())
    (induce,) = [t for t in golden["tasks"] if t["id"] == "induce"]
    induce["yen_morphism"]["expect_matrix"] = literal
    for spec_doc, task_id in ((doc, "task-1"), (golden, "induce")):  # both results are 4 x 4
        report = run_scenario(parse_scenario(json.dumps(spec_doc)))
        (entry,) = [e for e in report.entries if e.task_id == task_id]
        assert entry.status == "error"
        assert entry.detail.startswith("DimensionMismatch:")
        assert f"shape {shape}" in entry.detail and "shape (4, 4)" in entry.detail
        assert entry.max_deviation is None and entry.witnesses == {}


FIXTURE_NAMES = ("golden_z2", "golden_s3", "fixture_fail", "fixture_error", "fixture_illdefined")


def _verdict(entry):
    return entry.status, entry.max_deviation, entry.detail, entry.witnesses


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_tasks_sharing_a_workspace_report_what_they_report_alone(name):
    spec = parse_scenario((FIXTURES / f"{name}.json").read_text())
    shared = run_scenario(spec).entries
    alone = [run_task(spec, task) for task in spec.tasks]
    assert [_verdict(e) for e in shared] == [_verdict(e) for e in alone]


def _pairs_touched(spec):
    """(frame, system) pairs whose map and relative subspace the tasks
    need, and the declared (morphism, channel) pairs they induce."""
    maps, subspaces, induced = set(), set(), set()
    for task in spec.tasks:
        p = task.params
        if task.kind in ("relative_subspace", "check:channel_axioms", "check:ideal_isomorphism"):
            pair = (spec.frames[p["frame"]], spec.systems[p["system"]])
            (subspaces if task.kind == "relative_subspace" else maps).add(pair)
        elif task.kind == "check:naturality":
            maps.add((spec.frames[p["frame"]], spec.channels[p["channel"]].source))
        elif task.kind in ("yen_morphism", "check:tensor_form", "check:functor_laws"):
            links = p.get("links", [p])
            for link in links:
                psi, phi = spec.frame_morphisms[link["morphism"]], spec.channels[link["channel"]]
                induced.add((psi, phi))
                subspaces |= {(psi.source, phi.source), (psi.target, phi.target)}
    return maps | subspaces, subspaces, induced


def test_one_scenario_run_builds_each_relativization_once(monkeypatch):
    relativize_module = importlib.import_module("framerel.relativize")
    built = {"maps": [], "subspaces": [], "induced": []}
    requests = Counter()

    def recording(kind, fn, key):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            built[kind].append(key(args, result))
            return result

        return wrapper

    monkeypatch.setattr(
        relativize_module,
        "relativization_map",
        recording("maps", relativize_module.relativization_map, lambda a, r: (a[0], a[1])),
    )
    monkeypatch.setattr(
        relativize_module,
        "_relative_subspace",
        recording("subspaces", relativize_module._relative_subspace, lambda a, r: (r.frame, r.system)),
    )
    monkeypatch.setattr(
        relativize_module,
        "_induce",
        recording("induced", relativize_module._induce, lambda a, r: (a[0], a[1])),
    )
    induced_by = Workspace.induced

    def counting(self, psi, phi, samples, seed):
        requests[(psi, phi)] += 1
        return induced_by(self, psi, phi, samples, seed)

    monkeypatch.setattr(Workspace, "induced", counting)

    spec = parse_scenario((FIXTURES / "golden_s3.json").read_text())
    report = run_scenario(spec)
    assert report.pass_count == len(spec.tasks)
    maps, subspaces, declared = _pairs_touched(spec)
    assert Counter(built["maps"]) == Counter(maps)
    assert Counter(built["subspaces"]) == Counter(subspaces)
    # functor_laws also induces an identity and a composite on fresh objects
    assert set(Counter(built["induced"]).values()) == {1}
    assert declared <= set(built["induced"])
    assert sum(requests[pair] for pair in declared) > len(declared)  # some pair is asked for again


def test_an_ill_defined_induced_map_fails_every_task_that_asks_for_it():
    doc = json.loads((FIXTURES / "fixture_illdefined.json").read_text())
    (bad,) = [t for t in doc["tasks"] if t["id"] == "bad-induce"]
    doc["tasks"].append(dict(bad, id="bad-induce-again"))
    spec = parse_scenario(json.dumps(doc))
    by_id = {e.task_id: e for e in run_scenario(spec).entries}
    first, again = by_id["bad-induce"], by_id["bad-induce-again"]
    assert first.status == "fail" and "IllDefined" in first.detail
    assert "kernel_witness" in first.witnesses
    assert _verdict(again) == _verdict(first)
    # the failed build is not stored; its relative subspaces are
    ws = Workspace(spec.tolerance)
    for task in spec.tasks:
        run_task(spec, task, ws)
    assert not ws.channels
    assert ws.subspaces


def test_machine_report_shape():
    spec = parse_scenario((FIXTURES / "golden_z2.json").read_text())
    text = emit_report(run_scenario(spec), "machine")
    doc = json.loads(text)
    assert doc["format"] == "machine/1"
    assert doc["tolerance"] == 1e-9
    assert doc["summary"] == {"pass": 6, "fail": 0, "error": 0}
    for task in doc["tasks"]:
        assert task["wall_time"] is None  # never varies between runs
        assert set(task) >= {"id", "kind", "status", "max_deviation", "detail"}
    assert text.endswith("\n")


def test_human_report_shape():
    spec = parse_scenario((FIXTURES / "golden_z2.json").read_text())
    report = run_scenario(spec)
    text = emit_report(report, "human")
    assert "tolerance 1.000e-09" in text
    assert "6 pass / 0 fail / 0 error" in text
    assert "rel-z" in text and "ms" in text
    with pytest.raises(UnknownFormat):
        emit_report(report, "yaml")


def test_machine_reports_are_deterministic_in_process():
    spec_text = (FIXTURES / "golden_s3.json").read_text()
    one = emit_report(run_scenario(parse_scenario(spec_text)), "machine")
    two = emit_report(run_scenario(parse_scenario(spec_text)), "machine")
    assert one == two


# --------------------------------------------------------------------- CLI


def test_cli_validate_golden():
    proc = run_cli("validate", str(FIXTURES / "golden_z2.json"))
    assert proc.returncode == 0
    assert proc.stdout.startswith("scenario OK:")
    assert "6 task(s)" in proc.stdout


def test_cli_validate_is_structural_only():
    # the error fixture declares only valid objects; the failure is task-time
    proc = run_cli("validate", str(FIXTURES / "fixture_error.json"))
    assert proc.returncode == 0


def test_cli_run_matches_pinned_report_byte_for_byte():
    pinned = (FIXTURES / "golden_z2.report.json").read_text()
    first = run_cli("run", str(FIXTURES / "golden_z2.json"), "--report", "machine")
    second = run_cli("run", str(FIXTURES / "golden_z2.json"), "--report", "machine")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout == pinned


def test_cli_run_s3_snapshot():
    pinned = (FIXTURES / "golden_s3.report.json").read_text()
    proc = run_cli("run", str(FIXTURES / "golden_s3.json"), "--report", "machine")
    assert proc.returncode == 0
    assert proc.stdout == pinned


def test_cli_exit_code_trio():
    ok = run_cli("run", str(FIXTURES / "golden_z2.json"), "--report", "machine")
    bad = run_cli("run", str(FIXTURES / "fixture_fail.json"), "--report", "machine")
    broken = run_cli("run", str(FIXTURES / "fixture_error.json"), "--report", "machine")
    assert (ok.returncode, bad.returncode, broken.returncode) == (0, 1, 2)


def test_cli_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("run", str(FIXTURES / "golden_z2.json"), "--report", "machine", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text() == (FIXTURES / "golden_z2.report.json").read_text()


def test_cli_tolerance_flag_overrides_document():
    # the naturality violation in the fail fixture has deviation O(1);
    # an absurdly loose tolerance waves it through, proving the flag
    # reaches both the checks and the report header
    proc = run_cli(
        "run", str(FIXTURES / "fixture_fail.json"), "--tolerance", "10", "--report", "machine"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tolerance"] == 10.0
    assert doc["summary"] == {"pass": 2, "fail": 0, "error": 0}


def test_cli_env_tolerance_must_be_numeric():
    for raw in ("tight", "inf", "nan"):
        proc = run_cli("run", str(FIXTURES / "golden_z2.json"), env={"FRAMEREL_TOLERANCE": raw})
        assert proc.returncode == 2
        assert proc.stderr.startswith("framerel:")
        assert "Traceback" not in proc.stderr


def test_cli_diagnostics_for_unreadable_and_malformed_files(tmp_path):
    proc = run_cli("run", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert "framerel:" in proc.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{ oops")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 2
    assert "ScenarioSyntaxError" in proc.stderr


def test_cli_validate_rejects_a_non_associative_table_of_order_65(tmp_path):
    n = 65
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[2][3], table[2][4] = table[2][4], table[2][3]
    doc = {
        "group": {"type": "table", "mult": table},
        "representations": {"triv": {"dim": 1, "matrices": {str(g): [[[1.0, 0.0]]] for g in range(n)}}},
        "systems": {"s": {"rep": "triv", "basis": "full"}},
        "frames": {"f": {"rep": "triv", "seed": [[[1.0 / n, 0.0]]]}},
        "tasks": [],
    }
    path = tmp_path / "z65.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 2
    assert "multiplication table is not associative at triple" in proc.stderr


def test_cli_reports_scenario_type_errors_without_a_traceback(tmp_path):
    unknown_key = minimal()
    mats = unknown_key["representations"]["flip"]["matrices"]
    mats["2"] = mats.pop("1")
    named_identity = minimal(group={"type": "table", "mult": [[0, 1], [1, 0]], "identity": "e"})
    # non-finite numbers and negative seeds, in the document or as flags
    cases = [
        (named_identity, (), "ScenarioSyntaxError"),
        (unknown_key, (), "UnknownReference"),
        (_rep_entry([float("nan"), 0]), (), "ScenarioSyntaxError"),
        (_rep_entry([True, False]), (), "ScenarioSyntaxError"),
        (_rep_entry([10**400, 0]), (), "ScenarioSyntaxError"),
        (minimal(options={"tolerance": float("inf")}), (), "ScenarioSyntaxError"),
        (minimal(options={"seed": -3}), (), "ScenarioSyntaxError"),
        (minimal(), ("--tolerance", "inf"), "ScenarioSyntaxError"),
        (minimal(), ("--tolerance", "nan"), "ScenarioSyntaxError"),
        (minimal(), ("--seed", "-1"), "ScenarioSyntaxError"),
    ]
    path = tmp_path / "scenario.json"
    for doc, flags, error in cases:
        path.write_text(json.dumps(doc))
        commands = [("run", str(path), *flags)] + ([] if flags else [("validate", str(path))])
        for argv in commands:
            proc = run_cli(*argv)
            assert proc.returncode == 2, argv
            assert proc.stderr.startswith(f"framerel: {error}:"), proc.stderr
            assert "Traceback" not in proc.stderr
