"""The benchmark's three workloads, their inputs and their pinned verdicts.

A workload builds its declared objects in ``setup()`` (timed as set-up)
and returns them; ``run_pass(objects, rec)`` then runs every task once
through the last verdict, reporting each task to the recorder ``rec``
(see ``worker.Recorder``).  The seed only draws numbers (smearing
parameters, mixing weights, states); the shape of the work is fixed.

Every call into the engine goes through the ``framerel`` package
attributes at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import framerel as fr
import zoo

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "tests" / "fixtures"
TOL = fr.DEFAULT_TOL


def _depolarizing_images(system, nu: float) -> list:
    """Images of the published basis under a -> (1-nu) a + nu tr(a) I/d."""
    eye = np.eye(system.dim, dtype=complex)
    return [(1 - nu) * b + nu * np.trace(b) * eye / system.dim for b in system.space.basis]


def _smeared_seed(ideal, lam: float) -> np.ndarray:
    d = ideal.rep.dim
    return (1 - lam) * ideal.effects[ideal.group.identity] + lam * np.eye(d, dtype=complex) / d


def _expect(condition: bool, problem: str) -> str | None:
    return None if condition else problem


# ------------------------------------------------------------ scenario-zoo


class ScenarioZoo:
    """parse_scenario -> run_scenario -> emit_report("machine") in-process."""

    name = "scenario-zoo"
    setup_reps = 9

    def __init__(self, seed: int):
        self.scenarios = [
            (name, (FIXTURE_DIR / f"{name}.json").read_text(), zoo.FIXTURE_STATUSES[name])
            for name in zoo.FIXTURES
        ] + zoo.generate_zoo(seed)
        self.golden = {
            name: (FIXTURE_DIR / f"{name}.report.json").read_text() for name in zoo.GOLDEN
        }

    def setup(self):
        return [(name, fr.parse_scenario(text), pins) for name, text, pins in self.scenarios]

    def run_pass(self, specs, rec) -> None:
        for name, spec, pins in specs:
            rec.begin_op()
            try:
                report = fr.run_scenario(spec)
                text = fr.emit_report(report, "machine")
            except Exception as exc:  # outside the fail-soft contract
                for task_id in pins:
                    rec.add(f"{name}/{task_id}", None, f"{type(exc).__name__}: {exc}")
                continue
            seen = set()
            for entry in report.entries:
                seen.add(entry.task_id)
                pinned = pins.get(entry.task_id)
                rec.add(
                    f"{name}/{entry.task_id}",
                    entry.wall_time,
                    _expect(entry.status == pinned, f"status {entry.status}, pinned {pinned}: {entry.detail}"),
                )
            for task_id in sorted(set(pins) - seen):
                rec.add(f"{name}/{task_id}", None, "task missing from the report")
            if name in self.golden and text != self.golden[name]:
                rec.gate_failure(f"{name}: machine report differs from tests/fixtures/{name}.report.json")


# ----------------------------------------------------------- cyclic-ladder


class CyclicLadder:
    """Library calls on Z_n, n = 8, 12, 16: per-element Python loops."""

    name = "cyclic-ladder"
    setup_reps = 2
    orders = (8, 12, 16)

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:{self.name}")
        self.params = {
            n: SimpleNamespace(
                lam1=rng.uniform(0.2, 0.8),
                lam2=rng.uniform(0.2, 0.8),
                nu1=rng.uniform(0.1, 0.9),
                nu2=rng.uniform(0.1, 0.9),
                omega=zoo.density(rng, n),
                rho=zoo.density(rng, 2),
            )
            for n in self.orders
        }

    def setup(self):
        out = {}
        for n in self.orders:
            p = self.params[n]
            group = fr.build_cyclic_group(n)
            ideal = fr.canonical_ideal_frame(group)
            vs = ideal.value_system
            smear = fr.principal_frame_from_seed(ideal.rep, _smeared_seed(ideal, p.lam1), vs)
            lam12 = 1 - (1 - p.lam1) * (1 - p.lam2)
            smear2 = fr.principal_frame_from_seed(ideal.rep, _smeared_seed(ideal, lam12), vs)
            m1 = fr.build_frame_morphism(
                ideal, smear, fr.build_channel(vs, vs, _depolarizing_images(vs, p.lam1))
            )
            m2 = fr.build_frame_morphism(
                smear, smear2, fr.build_channel(vs, vs, _depolarizing_images(vs, p.lam2))
            )
            w = np.exp(2j * np.pi / n)
            phase = fr.unitary_rep(group, [np.diag([1.0, w**k]) for k in range(n)])
            qubit = fr.full_system(phase)
            out[n] = SimpleNamespace(
                ideal=ideal,
                smear=smear,
                m1=m1,
                m2=m2,
                qubit=qubit,
                dep1=fr.build_channel(qubit, qubit, _depolarizing_images(qubit, p.nu1)),
                dep2=fr.build_channel(qubit, qubit, _depolarizing_images(qubit, p.nu2)),
                omega=p.omega,
                rho=p.rho,
            )
        return out

    def run_pass(self, objects, rec) -> None:
        for n, o in objects.items():
            state = {}

            def rmap():
                state["rmap"] = fr.relativization_map(o.ideal, o.qubit)
                r = state["rmap"]
                return _expect(len(r.images) == 4 and r.joint_dim == 2 * n, "wrong image count")

            def relsub():
                rel = fr.build_relative_subspace(o.ideal, o.qubit)
                return _expect((rel.space.dim, rel.kernel.dim) == (4, 0), f"dims {rel.space.dim}/{rel.kernel.dim}")

            def induced():
                ind = fr.relativize_morphisms(o.m1, o.dep1)
                return _expect(ind.matrix.shape == (4, 4) and ind.kernel_image_norm <= TOL, "bad induced map")

            def predual():
                joint = np.kron(o.omega, o.rho)
                direct = fr.predual_relativize(o.smear, o.qubit, joint)
                closed = fr.product_relative_state(o.smear, o.qubit, o.omega, o.rho)
                return _expect(direct.same_as(closed), f"predual deviation {direct.deviation(closed):.3e}")

            tasks = [
                ("relativization_map", rmap),
                ("build_relative_subspace", relsub),
                ("check_channel_axioms", lambda: _passed(fr.check_channel_axioms(state["rmap"]))),
                (
                    "check_channel_axioms.smear",
                    lambda: _passed(fr.check_channel_axioms(fr.relativization_map(o.smear, o.qubit))),
                ),
                ("check_ideal_isomorphism", lambda: _ideal(fr.check_ideal_isomorphism(state["rmap"]))),
                ("check_naturality", lambda: _passed(fr.check_naturality(o.smear, o.dep1))),
                ("relativize_morphisms", induced),
                ("check_equivariant_tensor_form", lambda: _passed(fr.check_equivariant_tensor_form(o.m1, o.dep1))),
                ("check_functor_laws", lambda: _passed(fr.check_functor_laws([(o.m1, o.dep1), (o.m2, o.dep2)]))),
                ("predual_relativize", predual),
            ]
            for label, fn in tasks:
                rec.call(f"Z{n}/{label}", fn)


def _passed(report) -> str | None:
    return _expect(report.passed, f"law suite did not pass: {report}")


def _ideal(report) -> str | None:
    return _expect(report.passed and report.consistent_with_ideality, f"not consistent with ideality: {report}")


# -------------------------------------------------------------- s4-regular


def _s4_permutation_matrices() -> list:
    """4x4 permutation matrices in the library's S4 element order
    (lexicographic permutations, (p q)(k) = p(q(k)))."""
    mats = []
    for p in sorted(itertools.permutations(range(4))):
        m = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            m[p[k], k] = 1.0
        mats.append(m)
    return mats


class S4Regular:
    """S4 regular frame (dim 24) against the 4-dim permutation rep: dense linalg."""

    name = "s4-regular"
    setup_reps = 2

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:{self.name}")
        self.lam = rng.uniform(0.2, 0.8)
        self.nu = rng.uniform(0.1, 0.9)

    def setup(self):
        group = fr.build_symmetric_group(4)
        ideal = fr.canonical_ideal_frame(group)
        smear = fr.principal_frame_from_seed(ideal.rep, _smeared_seed(ideal, self.lam), ideal.value_system)
        perm = fr.unitary_rep(group, _s4_permutation_matrices())
        system = fr.full_system(perm)
        dep = fr.build_channel(system, system, _depolarizing_images(system, self.nu))
        return SimpleNamespace(ideal=ideal, smear=smear, system=system, dep=dep)

    def run_pass(self, o, rec) -> None:
        state = {}

        def rmap():
            state["rmap"] = fr.relativization_map(o.ideal, o.system)
            r = state["rmap"]
            return _expect(len(r.images) == 16 and r.joint_dim == 96, "wrong image count")

        def relsub():
            rel = fr.build_relative_subspace(o.ideal, o.system)
            return _expect((rel.space.dim, rel.kernel.dim) == (16, 0), f"dims {rel.space.dim}/{rel.kernel.dim}")

        tasks = [
            ("relativization_map", rmap),
            ("build_relative_subspace", relsub),
            ("check_channel_axioms", lambda: _passed(fr.check_channel_axioms(state["rmap"]))),
            (
                "check_channel_axioms.smear",
                lambda: _passed(fr.check_channel_axioms(fr.relativization_map(o.smear, o.system))),
            ),
            ("check_ideal_isomorphism", lambda: _ideal(fr.check_ideal_isomorphism(state["rmap"]))),
            ("check_naturality", lambda: _passed(fr.check_naturality(o.smear, o.dep))),
        ]
        for label, fn in tasks:
            rec.call(f"S4/{label}", fn)


WORKLOADS = {cls.name: cls for cls in (ScenarioZoo, CyclicLadder, S4Regular)}
