"""The regression manifest: machine reports and induced-channel certificates.

``tests/fixtures/manifest.json`` pins, for the five fixtures and every
``generate_zoo(seed)`` scenario of the manifest's seeds, the SHA-256 of
the machine report, a digest of each task entry and the certificates of
the induced channels the run builds.  It is written only by
``python3 -m tests.fixtures.generate``.  Tier-1 checks the fixtures and
seeds 1-8; ``pytest -m manifest_full`` checks every seed.
"""

import json

import numpy as np
import pytest

from framerel.scenario import canonical_json

from .fixtures import generate

MANIFEST = generate.HERE / "manifest.json"


def _pinned():
    return json.loads(MANIFEST.read_text())


def _check(seeds):
    pinned = _pinned()
    problems = []
    for name, text in generate.manifest_scenarios(seeds):
        record = generate.manifest_record(*generate.run_for_manifest(text))
        problem = generate.manifest_mismatch(name, record, pinned.get(name))
        if problem is not None:
            problems.append(problem)
    assert not problems, "\n".join(problems)


def test_manifest_holds_the_fixtures_and_every_seed():
    names = [name for name, _ in generate.manifest_scenarios(generate.MANIFEST_SEEDS)]
    assert len(names) == 5 + 6 * len(generate.MANIFEST_SEEDS) == 245
    assert sorted(names) == sorted(_pinned())


def test_fixtures_and_seeds_1_to_8_match_the_manifest():
    _check(range(1, 9))


@pytest.mark.manifest_full
def test_every_seed_matches_the_manifest():
    _check(generate.MANIFEST_SEEDS)


def test_a_one_ulp_change_to_a_deviation_names_its_scenario_and_task():
    name, text = generate.manifest_scenarios(())[1]
    assert name == "golden_s3"
    report, certificates = generate.run_for_manifest(text)
    pinned = _pinned()[name]
    assert generate.manifest_mismatch(name, generate.manifest_record(report, certificates), pinned) is None
    payload = json.loads(report)
    task = next(t for t in payload["tasks"] if t["max_deviation"])
    assert task is not payload["tasks"][0]
    task["max_deviation"] = float(np.nextafter(task["max_deviation"], np.inf))
    bumped = canonical_json(payload) + "\n"
    problem = generate.manifest_mismatch(name, generate.manifest_record(bumped, certificates), pinned)
    assert problem == f"{name}: task {task['id']!r} differs from the manifest"


def test_a_changed_certificate_is_named():
    name, text = generate.manifest_scenarios([1])[5]
    report, certificates = generate.run_for_manifest(text)
    assert certificates
    certificates[0] = ["sampled", *certificates[0][1:]]
    problem = generate.manifest_mismatch(name, generate.manifest_record(report, certificates), _pinned()[name])
    assert problem == f"{name}: induced channel certificates differ from the manifest"
