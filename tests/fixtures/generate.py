"""Regenerate the scenario fixtures and their pinned machine reports.

Run from the repository root:

    python3 -m tests.fixtures.generate

Every fixture is parsed, which builds and validates each declared
object, before being written.  The spec keeps the document as parsed and
the serializer writes it as sorted, indented JSON, so the stored files
are byte-stable under a parse/serialize round trip.  The two golden
reports are produced by an actual run and then frozen; the generator
refuses to write anything if a scenario does not produce the statuses it
is supposed to.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from framerel.runner import emit_report, run_scenario
from framerel.scenario import encode_matrix, parse_scenario, serialize_scenario

from ..support import s3, s3_irrep2

HERE = pathlib.Path(__file__).resolve().parent

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = (X + Z) / np.sqrt(2)

UNITS = [
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
    np.array([[0, 0], [1, 0]], dtype=complex),
    np.array([[0, 0], [0, 1]], dtype=complex),
]


def lit(m):
    return encode_matrix(np.asarray(m, dtype=complex))


def mixing_images(dim, lam):
    """Images of the matrix-unit basis under b -> (1-lam) b + lam tr(b) I/d."""
    out = []
    for i in range(dim):
        for j in range(dim):
            b = np.zeros((dim, dim), dtype=complex)
            b[i, j] = 1.0
            out.append((1 - lam) * b + lam * np.trace(b) * np.eye(dim) / dim)
    return out


def parsed(doc):
    return parse_scenario(json.dumps(doc))


def write_fixture(name, doc):
    spec = parsed(doc)
    path = HERE / name
    path.write_text(serialize_scenario(spec))
    # the stored text must be a fixed point of parse -> serialize
    again = parse_scenario(path.read_text())
    assert serialize_scenario(again) == path.read_text(), name
    return spec


def statuses(report):
    return {e.task_id: e.status for e in report.entries}


# --------------------------------------------------------------------- Z2


def z2_base():
    return {
        "group": {"type": "cyclic", "order": 2},
        "options": {"tolerance": 1e-9, "seed": 7, "samples": 16},
        "representations": {
            "flip": {"dim": 2, "matrices": {"0": lit(I2), "1": lit(X)}},
        },
        "systems": {"qubit": {"rep": "flip", "basis": "full"}},
    }


def build_golden_z2():
    doc = z2_base()
    doc["frames"] = {
        "F_ideal": {"rep": "flip", "seed": lit(np.diag([1.0, 0.0]))},
        "F_smear": {"rep": "flip", "seed": lit(np.diag([0.75, 0.25]))},
    }
    doc["channels"] = {
        "conj_x": {
            "source": "qubit",
            "target": "qubit",
            "kind": "conjugate_unitary",
            "data": lit(X),
        },
        "mix": {
            "source": "qubit",
            "target": "qubit",
            "kind": "matrix_images",
            "data": [lit(m) for m in mixing_images(2, 0.5)],
        },
    }
    doc["frame_morphisms"] = {
        "m_smear": {"source": "F_ideal", "target": "F_smear", "channel": "mix"},
    }
    doc["tasks"] = [
        {
            "id": "rel-z",
            "relativize": {
                "frame": "F_ideal",
                "system": "qubit",
                "operator": lit(Z),
                "expect": lit(np.kron(Z, Z)),
            },
        },
        {"id": "axioms-smear", "check": "channel_axioms", "frame": "F_smear", "system": "qubit"},
        {
            "id": "embed-ideal",
            "check": "ideal_isomorphism",
            "frame": "F_ideal",
            "system": "qubit",
            "expect_ideal": True,
        },
        {"id": "nat-xconj", "check": "naturality", "frame": "F_smear", "channel": "conj_x"},
        {"id": "induce", "yen_morphism": {"morphism": "m_smear", "channel": "conj_x"}},
        {
            "id": "ext",
            "external_transform": {
                "morphism": "m_smear",
                "system": "qubit",
                "frame_state": lit(np.diag([1.0, 0.0])),
                "system_state": lit(np.diag([0.9, 0.1])),
            },
        },
    ]
    return doc


# --------------------------------------------------------------------- S3


def s3_base():
    group = s3()
    reg = np.zeros((6, 6, 6))
    for g in group.elements():
        for h in group.elements():
            reg[g, group.multiply(g, h), h] = 1.0
    irr = s3_irrep2()
    doc = {
        "group": {
            "type": "table",
            "mult": [[int(v) for v in row] for row in group.mult],
            "labels": list(group.labels),
            "identity": 0,
        },
        "options": {"tolerance": 1e-9, "seed": 11, "samples": 16},
        "representations": {
            "reg": {
                "dim": 6,
                "matrices": {group.label(g): lit(reg[g]) for g in group.elements()},
            },
            "spin2": {
                "dim": 2,
                "matrices": {group.label(g): lit(irr.matrices[g]) for g in group.elements()},
            },
        },
        "systems": {
            "spin": {"rep": "spin2", "basis": "full"},
            "value6": {"rep": "reg", "basis": "full"},
        },
    }
    return doc, group


def smeared_seed(lam):
    seed = np.zeros((6, 6), dtype=complex)
    seed[0, 0] = 1.0
    return (1 - lam) * seed + lam * np.eye(6) / 6


def twirl_mix_kraus(group, reg_mats, lam):
    ops = [np.sqrt(1 - lam) * np.eye(6, dtype=complex)]
    ops += [np.sqrt(lam / 6) * reg_mats[g] for g in group.elements()]
    return ops


def build_golden_s3():
    doc, group = s3_base()
    reg_mats = []
    for g in group.elements():
        m = np.zeros((6, 6), dtype=complex)
        for h in group.elements():
            m[group.multiply(g, h), h] = 1.0
        reg_mats.append(m)
    doc["frames"] = {
        "F_canon": {"rep": "reg", "seed": lit(smeared_seed(0.0))},
        "F_smear": {"rep": "reg", "seed": lit(smeared_seed(0.5))},
        "F_smear2": {"rep": "reg", "seed": lit(smeared_seed(2 / 3))},
        "F_unloc": {"rep": "reg", "seed": lit(smeared_seed(1.0))},
    }
    doc["channels"] = {
        "dep": {
            "source": "spin",
            "target": "spin",
            "kind": "matrix_images",
            "data": [lit(m) for m in mixing_images(2, 0.6)],
        },
        "dep2": {
            "source": "spin",
            "target": "spin",
            "kind": "matrix_images",
            "data": [lit(m) for m in mixing_images(2, 0.25)],
        },
        "twirl_half": {
            "source": "value6",
            "target": "value6",
            "kind": "kraus",
            "data": [lit(k) for k in twirl_mix_kraus(group, reg_mats, 0.5)],
        },
        "twirl_third": {
            "source": "value6",
            "target": "value6",
            "kind": "kraus",
            "data": [lit(k) for k in twirl_mix_kraus(group, reg_mats, 1 / 3)],
        },
    }
    doc["frame_morphisms"] = {
        "m1": {"source": "F_canon", "target": "F_smear", "channel": "twirl_half"},
        "m2": {"source": "F_smear", "target": "F_smear2", "channel": "twirl_third"},
    }
    doc["tasks"] = [
        {
            "id": "rel-sub",
            "relative_subspace": {
                "frame": "F_canon",
                "system": "spin",
                "expect_dim": 4,
                "expect_kernel_dim": 0,
            },
        },
        {
            "id": "rel-sub-unloc",
            "relative_subspace": {
                "frame": "F_unloc",
                "system": "spin",
                "expect_dim": 1,
                "expect_kernel_dim": 3,
            },
        },
        {"id": "axioms-canon", "check": "channel_axioms", "frame": "F_canon", "system": "spin"},
        {"id": "axioms-smear", "check": "channel_axioms", "frame": "F_smear", "system": "spin"},
        {
            "id": "embed-canon",
            "check": "ideal_isomorphism",
            "frame": "F_canon",
            "system": "spin",
            "expect_ideal": True,
        },
        {
            "id": "embed-smear",
            "check": "ideal_isomorphism",
            "frame": "F_smear",
            "system": "spin",
            "expect_ideal": False,
        },
        {"id": "nat-dep", "check": "naturality", "frame": "F_smear", "channel": "dep"},
        {"id": "induce", "yen_morphism": {"morphism": "m1", "channel": "dep"}},
        {
            "id": "chain",
            "check": "functor_laws",
            "links": [
                {"morphism": "m1", "channel": "dep"},
                {"morphism": "m2", "channel": "dep2"},
            ],
        },
        {"id": "tens", "check": "tensor_form", "morphism": "m1", "channel": "dep"},
    ]
    return doc


# ----------------------------------------------------------- failure modes


def build_fail():
    doc = z2_base()
    doc["frames"] = {"F": {"rep": "flip", "seed": lit(np.diag([1.0, 0.0]))}}
    doc["channels"] = {
        "hconj": {
            "source": "qubit",
            "target": "qubit",
            "kind": "conjugate_unitary",
            "data": lit(H),
        },
    }
    doc["tasks"] = [
        {
            "id": "ok-rel",
            "relativize": {
                "frame": "F",
                "system": "qubit",
                "operator": lit(Z),
                "expect": lit(np.kron(Z, Z)),
            },
        },
        {"id": "bad-nat", "check": "naturality", "frame": "F", "channel": "hconj"},
    ]
    return doc


def build_error():
    doc = z2_base()
    doc["systems"]["diag"] = {"rep": "flip", "basis": [lit(Z)]}
    doc["frames"] = {"F": {"rep": "flip", "seed": lit(np.diag([1.0, 0.0]))}}
    doc["tasks"] = [
        {
            "id": "ok-rel",
            "relativize": {"frame": "F", "system": "diag", "operator": lit(Z)},
        },
        {
            "id": "outside",
            "relativize": {"frame": "F", "system": "diag", "operator": lit(X)},
        },
    ]
    return doc


def build_illdefined():
    doc = z2_base()
    doc["frames"] = {"F_unloc": {"rep": "flip", "seed": lit(I2 / 2)}}
    doc["channels"] = {
        "ident": {
            "source": "qubit",
            "target": "qubit",
            "kind": "conjugate_unitary",
            "data": lit(I2),
        },
        "avg_h": {
            "source": "qubit",
            "target": "qubit",
            "kind": "matrix_images",
            "data": [lit((b + H @ b @ H) / 2) for b in UNITS],
        },
    }
    doc["frame_morphisms"] = {
        "stay": {"source": "F_unloc", "target": "F_unloc", "channel": "ident"},
    }
    doc["tasks"] = [
        {
            "id": "ok-rel",
            "relativize": {
                "frame": "F_unloc",
                "system": "qubit",
                "operator": lit(X),
                "expect": lit(np.kron(I2, X)),
            },
        },
        {"id": "bad-induce", "yen_morphism": {"morphism": "stay", "channel": "avg_h"}},
    ]
    return doc


# ------------------------------------------------------------------ driver


def pin_induced_matrix(doc, task_id):
    """Run once, copy the induced matrix back in as the pinned expectation."""
    spec = parsed(doc)
    report = run_scenario(spec)
    by_id = {e.task_id: e for e in report.entries}
    entry = by_id[task_id]
    assert entry.status == "pass", (task_id, entry.detail)
    matrix_literal = entry.witnesses["matrix"]
    for task in doc["tasks"]:
        if task.get("id") == task_id:
            task["yen_morphism"]["expect_matrix"] = matrix_literal
    return doc


def main():
    golden_z2 = pin_induced_matrix(build_golden_z2(), "induce")
    spec_z2 = write_fixture("golden_z2.json", golden_z2)
    report_z2 = run_scenario(spec_z2)
    assert set(statuses(report_z2).values()) == {"pass"}, statuses(report_z2)
    assert report_z2.exit_code == 0
    (HERE / "golden_z2.report.json").write_text(emit_report(report_z2, "machine"))

    golden_s3 = pin_induced_matrix(build_golden_s3(), "induce")
    spec_s3 = write_fixture("golden_s3.json", golden_s3)
    report_s3 = run_scenario(spec_s3)
    assert set(statuses(report_s3).values()) == {"pass"}, statuses(report_s3)
    assert report_s3.exit_code == 0
    (HERE / "golden_s3.report.json").write_text(emit_report(report_s3, "machine"))

    spec_fail = write_fixture("fixture_fail.json", build_fail())
    report_fail = run_scenario(spec_fail)
    got = statuses(report_fail)
    assert got == {"ok-rel": "pass", "bad-nat": "fail"}, got
    assert report_fail.exit_code == 1

    spec_error = write_fixture("fixture_error.json", build_error())
    report_error = run_scenario(spec_error)
    got = statuses(report_error)
    assert got == {"ok-rel": "pass", "outside": "error"}, got
    assert report_error.exit_code == 2

    spec_ill = write_fixture("fixture_illdefined.json", build_illdefined())
    report_ill = run_scenario(spec_ill)
    got = statuses(report_ill)
    assert got == {"ok-rel": "pass", "bad-induce": "fail"}, got
    assert report_ill.exit_code == 1
    by_id = {e.task_id: e for e in report_ill.entries}
    assert by_id["bad-induce"].max_deviation >= 1e-3

    print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
