"""Seeded scenario generator for the ``scenario-zoo`` workload.

The structure of every generated scenario is fixed (groups, systems,
frames, channels and the task list), so per-task cost does not depend
on the seed; the seed only draws the numbers inside it: smearing
parameters, channel mixing weights, operators and states.

Every task's status is pinned by construction, never by running the
engine:

* a seed ``(1-l)|e><e| + l I/n`` translates to effects that sum to I;
* twirled and depolarizing channels are equivariant for every rep, so
  naturality, tensor form and the functor laws hold;
* conjugation by a Hadamard does not commute with the phase or S3
  action, so naturality fails;
* the embedding question on a proper subspace is a structural error;
* the image of the unlocalized frame is the invariant part of the
  algebra, whose dimension the character formula gives.

This module imports numpy but not the engine.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np

FIXTURES = ("golden_z2", "golden_s3", "fixture_fail", "fixture_illdefined", "fixture_error")
GOLDEN = ("golden_z2", "golden_s3")

# Pinned statuses of the checked-in fixtures (tests/fixtures/generate.py
# asserts the same ones when it writes them).
FIXTURE_STATUSES = {
    "golden_z2": {t: "pass" for t in ("rel-z", "axioms-smear", "embed-ideal", "nat-xconj", "induce", "ext")},
    "golden_s3": {
        t: "pass"
        for t in (
            "rel-sub", "rel-sub-unloc", "axioms-canon", "axioms-smear", "embed-canon",
            "embed-smear", "nat-dep", "induce", "chain", "tens",
        )
    },
    "fixture_fail": {"ok-rel": "pass", "bad-nat": "fail"},
    "fixture_illdefined": {"ok-rel": "pass", "bad-induce": "fail"},
    "fixture_error": {"ok-rel": "pass", "outside": "error"},
}

GROUPS = ("z2", "z3", "z4", "z5", "z6", "s3")

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
)


def lit(m) -> list:
    """Row-major [re, im] literal, rounded to 12 digits, without -0.0."""

    def clean(x: float) -> float:
        v = round(float(x), 12)
        return 0.0 if v == 0 else v

    a = np.asarray(m, dtype=complex)
    return [[[clean(z.real), clean(z.imag)] for z in row] for row in a]


# ------------------------------------------------------------------ groups


class _Group:
    """Multiplication table and the three representations a scenario uses."""

    def __init__(self, name: str):
        if name == "s3":
            perms = sorted(itertools.permutations(range(3)))
            index = {p: i for i, p in enumerate(perms)}
            self.order = 6
            self.mult = [
                [index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
            ]
            self.labels = ["".join(map(str, p)) for p in perms]
            perm_mats = []
            for p in perms:
                m = np.zeros((3, 3), dtype=complex)
                for k in range(3):
                    m[p[k], k] = 1.0
                perm_mats.append(m)
            # 2-dim irrep: the permutation action on the sum-zero plane.
            v = np.array(
                [[1 / np.sqrt(2), 1 / np.sqrt(6)], [-1 / np.sqrt(2), 1 / np.sqrt(6)], [0.0, -2 / np.sqrt(6)]]
            )
            self.qubit = [v.T @ m @ v for m in perm_mats]
            self.qutrit = perm_mats
            self.group_doc = {"type": "table", "mult": self.mult, "labels": self.labels, "identity": 0}
            # A traceless Hermitian generator whose orbit spans a proper subspace.
            self.qubit_gen = PAULIS[2]
            self.qutrit_gen = np.diag([1.0, 0.0, 0.0]).astype(complex)
        else:
            n = int(name[1:])
            self.order = n
            self.mult = [[(a + b) % n for b in range(n)] for a in range(n)]
            self.labels = [str(k) for k in range(n)]
            w = np.exp(2j * np.pi / n)
            self.qubit = [np.diag([1.0, w**k]) for k in range(n)]
            self.qutrit = [np.diag([1.0, w**k, w ** (2 * k)]) for k in range(n)]
            self.group_doc = {"type": "cyclic", "order": n}
            self.qubit_gen = PAULIS[2]
            self.qutrit_gen = np.diag([1.0, -1.0, 0.0]).astype(complex)
        n = self.order
        self.regular = []
        for g in range(n):
            m = np.zeros((n, n), dtype=complex)
            for h in range(n):
                m[self.mult[g][h], h] = 1.0
            self.regular.append(m)

    def rep_doc(self, mats) -> dict:
        return {"dim": mats[0].shape[0], "matrices": {self.labels[g]: lit(m) for g, m in enumerate(mats)}}


def commutant_dim(mats) -> int:
    """Character formula: dim of the operators fixed by conjugation."""
    total = sum(abs(np.trace(m)) ** 2 for m in mats) / len(mats)
    return int(round(total))


# ----------------------------------------------------------------- numbers


def _gaussian(rng: random.Random, d: int) -> np.ndarray:
    return np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)])


def density(rng: random.Random, d: int) -> np.ndarray:
    """Seeded random density matrix of dimension d."""
    a = _gaussian(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _hermitian(rng: random.Random, d: int) -> np.ndarray:
    a = _gaussian(rng, d)
    return (a + a.conj().T) / 2


def _mixing_images(d: int, lam: float) -> list:
    """Images of the matrix units under b -> (1-lam) b + lam tr(b) I/d."""
    out = []
    for i in range(d):
        for j in range(d):
            b = np.zeros((d, d), dtype=complex)
            b[i, j] = 1.0
            out.append(lit((1 - lam) * b + lam * np.trace(b) * np.eye(d) / d))
    return out


def _twirl_kraus(mats, mu: float) -> list:
    """Kraus form of a -> (1-mu) a + mu avg_g U_g a U_g^dag."""
    d = mats[0].shape[0]
    ops = [np.sqrt(1 - mu) * np.eye(d, dtype=complex)]
    ops += [np.sqrt(mu / len(mats)) * m for m in mats]
    return [lit(k) for k in ops]


def _qubit_depolarizing_kraus(p: float) -> list:
    """Kraus form of a -> (1-p) a + p tr(a) I/2."""
    ops = [np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex)]
    ops += [np.sqrt(p / 4) * s for s in PAULIS]
    return [lit(k) for k in ops]


def _smeared_seed(n: int, lam: float) -> np.ndarray:
    seed = np.zeros((n, n), dtype=complex)
    seed[0, 0] = 1.0
    return (1 - lam) * seed + lam * np.eye(n) / n


# --------------------------------------------------------------- scenarios


def generate_scenario(group_name: str, seed: int) -> tuple[str, dict[str, str]]:
    """One scenario text and its pinned task statuses."""
    rng = random.Random(f"{seed}:{group_name}")
    grp = _Group(group_name)
    n = grp.order
    lam1 = rng.uniform(0.2, 0.8)
    lam2 = rng.uniform(0.2, 0.8)
    lam12 = 1 - (1 - lam1) * (1 - lam2)
    nu1, nu2, nu3 = (rng.uniform(0.1, 0.9) for _ in range(3))
    mu_q, mu_t, p_sub = (rng.uniform(0.1, 0.9) for _ in range(3))
    alpha, beta = rng.uniform(-1, 1), rng.uniform(-1, 1)

    a_q = _hermitian(rng, 2)
    a_t = _hermitian(rng, 3)
    omega = density(rng, n)
    rho = density(rng, 2)

    ideal_effects = [grp.regular[g] @ _smeared_seed(n, 0.0) @ grp.regular[g].conj().T for g in range(n)]
    smear_effects = [grp.regular[g] @ _smeared_seed(n, lam1) @ grp.regular[g].conj().T for g in range(n)]
    expect_ideal_q = sum(np.kron(e, u @ a_q @ u.conj().T) for e, u in zip(ideal_effects, grp.qubit))
    expect_smear_t = sum(np.kron(e, u @ a_t @ u.conj().T) for e, u in zip(smear_effects, grp.qutrit))
    unloc_dim_t = commutant_dim(grp.qutrit)

    doc = {
        "group": grp.group_doc,
        "options": {"tolerance": 1e-9, "seed": rng.randrange(1, 10_000), "samples": 16},
        "representations": {
            "reg": grp.rep_doc(grp.regular),
            "q": grp.rep_doc(grp.qubit),
            "t": grp.rep_doc(grp.qutrit),
        },
        "systems": {
            "value": {"rep": "reg", "basis": "full"},
            "qubit": {"rep": "q", "basis": "full"},
            "qutrit": {"rep": "t", "basis": "full"},
            "qubit_sub": {"rep": "q", "basis": [lit(grp.qubit_gen)]},
            "qutrit_sub": {"rep": "t", "basis": [lit(grp.qutrit_gen)]},
        },
        "frames": {
            "ideal": {"rep": "reg", "seed": lit(_smeared_seed(n, 0.0))},
            "smear": {"rep": "reg", "seed": lit(_smeared_seed(n, lam1))},
            "smear2": {"rep": "reg", "seed": lit(_smeared_seed(n, lam12))},
            "unloc": {"rep": "reg", "seed": lit(_smeared_seed(n, 1.0))},
        },
        "channels": {
            "twirl1": {"source": "value", "target": "value", "kind": "kraus", "data": _twirl_kraus(grp.regular, lam1)},
            "dep2": {"source": "value", "target": "value", "kind": "matrix_images", "data": _mixing_images(n, lam2)},
            "dep_q": {"source": "qubit", "target": "qubit", "kind": "matrix_images", "data": _mixing_images(2, nu1)},
            "dep_q2": {"source": "qubit", "target": "qubit", "kind": "matrix_images", "data": _mixing_images(2, nu2)},
            "dep_t": {"source": "qutrit", "target": "qutrit", "kind": "matrix_images", "data": _mixing_images(3, nu3)},
            "twirl_q": {"source": "qubit", "target": "qubit", "kind": "kraus", "data": _twirl_kraus(grp.qubit, mu_q)},
            "dep_sub": {"source": "qubit_sub", "target": "qubit_sub", "kind": "kraus", "data": _qubit_depolarizing_kraus(p_sub)},
            "twirl_tsub": {"source": "qutrit_sub", "target": "qutrit_sub", "kind": "kraus", "data": _twirl_kraus(grp.qutrit, mu_t)},
            "hconj": {"source": "qubit", "target": "qubit", "kind": "conjugate_unitary", "data": lit(HADAMARD)},
        },
        "frame_morphisms": {
            "m1": {"source": "ideal", "target": "smear", "channel": "twirl1"},
            "m2": {"source": "smear", "target": "smear2", "channel": "dep2"},
        },
    }
    tasks = [
        ("rel-ideal-q", "pass", {"relativize": {"frame": "ideal", "system": "qubit", "operator": lit(a_q), "expect": lit(expect_ideal_q)}}),
        ("rel-smear-t", "pass", {"relativize": {"frame": "smear", "system": "qutrit", "operator": lit(a_t), "expect": lit(expect_smear_t)}}),
        ("rel-sub-q", "pass", {"relativize": {"frame": "smear", "system": "qubit_sub", "operator": lit(alpha * np.eye(2) + beta * grp.qubit_gen)}}),
        ("relsub-ideal-q", "pass", {"relative_subspace": {"frame": "ideal", "system": "qubit", "expect_dim": 4, "expect_kernel_dim": 0}}),
        ("relsub-unloc-t", "pass", {"relative_subspace": {"frame": "unloc", "system": "qutrit", "expect_dim": unloc_dim_t, "expect_kernel_dim": 9 - unloc_dim_t}}),
        ("relsub-smear-tsub", "pass", {"relative_subspace": {"frame": "smear", "system": "qutrit_sub", "expect_kernel_dim": 0}}),
        ("axioms-ideal-q", "pass", {"check": "channel_axioms", "frame": "ideal", "system": "qubit"}),
        ("axioms-smear-t", "pass", {"check": "channel_axioms", "frame": "smear", "system": "qutrit"}),
        ("axioms-smear-qsub", "pass", {"check": "channel_axioms", "frame": "smear", "system": "qubit_sub"}),
        ("axioms-unloc-tsub", "pass", {"check": "channel_axioms", "frame": "unloc", "system": "qutrit_sub"}),
        ("embed-ideal-q", "pass", {"check": "ideal_isomorphism", "frame": "ideal", "system": "qubit", "expect_ideal": True}),
        ("embed-smear-t", "pass", {"check": "ideal_isomorphism", "frame": "smear", "system": "qutrit", "expect_ideal": False}),
        ("embed-sub", "error", {"check": "ideal_isomorphism", "frame": "ideal", "system": "qubit_sub"}),
        ("nat-dep-q", "pass", {"check": "naturality", "frame": "smear", "channel": "dep_q"}),
        ("nat-twirl-q", "pass", {"check": "naturality", "frame": "ideal", "channel": "twirl_q"}),
        ("nat-dep-sub", "pass", {"check": "naturality", "frame": "smear", "channel": "dep_sub"}),
        ("nat-twirl-tsub", "pass", {"check": "naturality", "frame": "unloc", "channel": "twirl_tsub"}),
        ("nat-hconj", "fail", {"check": "naturality", "frame": "smear", "channel": "hconj"}),
        ("induce", "pass", {"yen_morphism": {"morphism": "m1", "channel": "dep_q"}}),
        ("tens", "pass", {"check": "tensor_form", "morphism": "m1", "channel": "dep_q"}),
        ("chain", "pass", {"check": "functor_laws", "links": [{"morphism": "m1", "channel": "dep_q"}, {"morphism": "m2", "channel": "dep_q2"}]}),
        ("ext", "pass", {"external_transform": {"morphism": "m1", "system": "qubit", "frame_state": lit(omega), "system_state": lit(rho)}}),
    ]
    doc["tasks"] = [{"id": tid, **body} for tid, _, body in tasks]
    pins = {tid: status for tid, status, _ in tasks}
    return json.dumps(doc, sort_keys=True) + "\n", pins


def generate_zoo(seed: int) -> list[tuple[str, str, dict[str, str]]]:
    """(name, scenario text, pinned statuses) for every generated scenario."""
    return [(f"gen_{g}", *generate_scenario(g, seed)) for g in GROUPS]
