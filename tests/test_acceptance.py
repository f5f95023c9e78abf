"""Acceptance gate: one test per contract criterion, each at its stated
tolerance.  Every test prints "[acceptance] criterion N: PASS" once all of
its assertions have gone through (run with -s to see the lines live).

The frame/system zoo below spans the required ground: the one-element
group, cyclic groups of orders 2, 3, 4 with ideal, smeared and fully
unlocalized frames, the symmetric group on three letters acting through
its two-dimensional representation, and one proper-subspace system.
"""

import json
import pathlib

import numpy as np
import pytest

from framerel.errors import IllDefined
from framerel.frames import (
    born_measure,
    build_frame_morphism,
    canonical_ideal_frame,
    identity_frame_morphism,
    reorientation_morphism,
)
from framerel.groups import build_cyclic_group, trivial_rep
from framerel.linalg import max_abs, operator_norm, tensor_product
from framerel.relativize import (
    build_relative_subspace,
    check_channel_axioms,
    check_equivariant_tensor_form,
    check_functor_laws,
    check_ideal_isomorphism,
    check_naturality,
    external_frame_transform,
    predual_relativize,
    relativization_map,
    relativize,
    relativize_morphisms,
)
from framerel.systems import (
    build_channel,
    conjugation_channel,
    full_system,
    identity_channel,
    quotient_dimension,
    subspace_system,
)

from .support import (
    H,
    I2,
    X,
    Z,
    ampliation_channel,
    depolarizing_channel,
    ket,
    proj,
    random_density,
    random_span_element,
    run_cli,
    s3,
    s3_irrep2,
    smeared_canonical_frame,
    smearing_morphism,
    unlocalized_canonical_frame,
    z2_flip_rep,
    z2_ideal_frame,
    z2_smeared_frame,
    z2_smearing_morphism,
    z2_unlocalized_frame,
    zn_phase_rep,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def _line(n):
    print(f"[acceptance] criterion {n}: PASS")


def trivial_scenario():
    c1 = build_cyclic_group(1)
    return canonical_ideal_frame(c1), full_system(trivial_rep(c1, 2))


def zoo():
    """(name, frame, system, frame_is_ideal) across groups and smearings."""
    qubit = full_system(z2_flip_rep())
    diag = subspace_system(z2_flip_rep(), [Z])
    z3 = build_cyclic_group(3)
    z4 = build_cyclic_group(4)
    q3 = full_system(zn_phase_rep(3))
    q4 = full_system(zn_phase_rep(4))
    spin = full_system(s3_irrep2())
    tf, ts = trivial_scenario()
    return [
        ("trivial", tf, ts, True),
        ("z2-ideal", z2_ideal_frame(), qubit, True),
        ("z2-smear-1/4", z2_smeared_frame(0.25), qubit, False),
        ("z2-smear-1/2", z2_smeared_frame(0.5), qubit, False),
        ("z2-unlocalized", z2_unlocalized_frame(), qubit, False),
        ("z2-ideal-diagonal-system", z2_ideal_frame(), diag, True),
        ("z3-ideal", canonical_ideal_frame(z3), q3, True),
        ("z3-unlocalized", unlocalized_canonical_frame(z3), q3, False),
        ("z4-ideal", canonical_ideal_frame(z4), q4, True),
        ("z4-smear-1/2", smeared_canonical_frame(z4, 0.5), q4, False),
        ("s3-ideal", canonical_ideal_frame(s3()), spin, True),
        ("s3-smear-1/2", smeared_canonical_frame(s3(), 0.5), spin, False),
        ("s3-unlocalized", unlocalized_canonical_frame(s3()), spin, False),
    ]


def test_criterion_1_channel_axioms_across_zoo():
    cases = zoo()
    assert len(cases) >= 12
    for name, frame, system, _ in cases:
        report = check_channel_axioms(relativization_map(frame, system))
        dev = report.deviations
        assert report.passed, name
        assert dev["unital"] <= 1e-9, name
        assert dev["invariance"] <= 1e-9, name
        assert dev["linearity"] <= 1e-9, name
        assert dev["contraction"] <= 1e-9, name
        # on a full algebra, the negated smallest Choi eigenvalue
        assert report.detail.startswith("positivity choi; ") == system.is_full_algebra, name
        assert dev["positivity"] <= 1e-9, name
    _line(1)


def test_criterion_2_ideal_iff_multiplicative_isometric():
    ideal_seen = nonideal_seen = 0
    for name, frame, system, ideal in zoo():
        if not system.is_full_algebra:
            continue  # the embedding question needs the full operator algebra
        report = check_ideal_isomorphism(relativization_map(frame, system))
        assert report.expected == ideal == frame.is_ideal, name
        assert report.consistent_with_ideality, name
        if ideal:
            ideal_seen += 1
            assert report.deviations["multiplicativity"] <= 1e-9, name
            assert report.deviations["isometry"] <= 1e-9, name
        else:
            nonideal_seen += 1
            assert report.deviations["multiplicativity"] >= 1e-3, name
            assert "basis_pair" in report.witnesses, name
    assert ideal_seen >= 4 and nonideal_seen >= 6
    _line(2)


def test_criterion_3_closed_form_spot_checks():
    qubit = full_system(z2_flip_rep())
    got = relativize(z2_ideal_frame(), qubit, Z)
    assert max_abs(got - tensor_product(Z, Z)) <= 1e-12
    # smeared seed (I + Z/2)/2 = diag(3/4, 1/4)
    sm = z2_smeared_frame(0.5)
    assert max_abs(sm.effects[0] - (I2 + Z / 2) / 2) <= 1e-12
    got = relativize(sm, qubit, Z)
    assert max_abs(got - 0.5 * tensor_product(Z, Z)) <= 1e-12
    assert abs(operator_norm(got) - 0.5) <= 1e-9
    _line(3)


def _mixing_channel(system, lam):
    images = [
        (1 - lam) * b + lam * np.trace(b) * np.eye(system.dim) / system.dim
        for b in system.space.basis
    ]
    return build_channel(system, system, images)


def _chains():
    """Composable (frame morphism, system channel) chains; >= 6 of them."""
    qubit = full_system(z2_flip_rep())
    chains = []

    # 1: identity on the trivial scenario
    tf, ts = trivial_scenario()
    chains.append([(identity_frame_morphism(tf), identity_channel(ts))])

    # 2: identity link on the Z2 ideal frame
    ideal = z2_ideal_frame()
    chains.append([(identity_frame_morphism(ideal), identity_channel(qubit))])

    # 3: identity then smear, conjugating the system by the flip both times
    m_smear = z2_smearing_morphism(0.25)
    conj_x = conjugation_channel(qubit, X)
    chains.append([(identity_frame_morphism(ideal), conj_x), (m_smear, conj_x)])

    # 4: two smearings whose retentions multiply to exactly 1/2
    first = z2_smearing_morphism(0.25)
    vs = first.channel.source
    second = build_frame_morphism(
        first.target, z2_smeared_frame(0.5), _mixing_channel(vs, 1 / 3)
    )
    chains.append([(first, depolarizing_channel(qubit, 0.25)),
                   (second, depolarizing_channel(qubit, 1 / 3))])

    # 5: three central reorientations of the Z4 canonical frame
    z4 = build_cyclic_group(4)
    q4 = full_system(zn_phase_rep(4))
    fr = canonical_ideal_frame(z4)
    r1 = reorientation_morphism(fr, 1)
    r2 = reorientation_morphism(r1.target, 2)
    r3 = reorientation_morphism(r2.target, 3)
    conj_u = conjugation_channel(q4, q4.rep.matrices[1])
    chains.append([(r1, conj_u), (r2, depolarizing_channel(q4, 0.5)), (r3, conj_u)])

    # 6: smear the S3 canonical frame while depolarizing the spin system
    spin = full_system(s3_irrep2())
    m1 = smearing_morphism(s3(), 0.5)
    m2 = identity_frame_morphism(m1.target)
    chains.append([(m1, depolarizing_channel(spin, 0.6)),
                   (m2, depolarizing_channel(spin, 0.25))])

    # 7: Z3 smearing followed by a phase conjugation link
    z3 = build_cyclic_group(3)
    q3 = full_system(zn_phase_rep(3))
    n1 = smearing_morphism(z3, 0.5)
    n2 = identity_frame_morphism(n1.target)
    chains.append([(n1, conjugation_channel(q3, q3.rep.matrices[1])),
                   (n2, depolarizing_channel(q3, 0.5))])

    return chains


def test_criterion_4_functor_laws_over_chains():
    chains = _chains()
    assert len(chains) >= 6
    for i, links in enumerate(chains):
        report = check_functor_laws(links)
        compositions = [f"composition[{j}]" for j in range(len(links) - 1)]
        full_chain = ["full_chain"] if len(links) > 2 else []
        assert report.passed, f"chain {i}"
        assert list(report.deviations) == ["identity", *compositions, *full_chain], f"chain {i}"
        assert all(d <= 1e-9 for d in report.deviations.values()), f"chain {i}"
    _line(4)


def test_criterion_5_naturality_of_equivariant_channels():
    qubit = full_system(z2_flip_rep())
    q3 = full_system(zn_phase_rep(3))
    q4 = full_system(zn_phase_rep(4))
    spin = full_system(s3_irrep2())
    subjects = [
        (z2_ideal_frame(), identity_channel(qubit)),
        (z2_ideal_frame(), conjugation_channel(qubit, X)),  # rep element
        (z2_smeared_frame(0.5), conjugation_channel(qubit, Z)),
        (z2_smeared_frame(0.25), depolarizing_channel(qubit, 0.5)),
        (z2_unlocalized_frame(), ampliation_channel(qubit, 2)),
        (canonical_ideal_frame(build_cyclic_group(3)), conjugation_channel(q3, q3.rep.matrices[1])),
        (smeared_canonical_frame(build_cyclic_group(4), 0.5), depolarizing_channel(q4, 0.3)),
        (canonical_ideal_frame(s3()), depolarizing_channel(spin, 0.5)),
        (smeared_canonical_frame(s3(), 0.25), ampliation_channel(spin, 3)),
    ]
    assert len(subjects) >= 8
    for i, (frame, phi) in enumerate(subjects):
        report = check_naturality(frame, phi)
        assert report.passed, f"subject {i}"
        assert report.max_deviation <= 1e-9, f"subject {i}"
    _line(5)


def test_criterion_6_tensor_form_of_induced_maps():
    pairs = [link for chain in _chains() for link in chain]
    assert len(pairs) >= 10
    for i, (psi, phi) in enumerate(pairs):
        report = check_equivariant_tensor_form(psi, phi)
        assert report.passed, f"pair {i}"
        assert report.max_deviation <= 1e-9, f"pair {i}"
    _line(6)


def test_criterion_7_duality_pairing_and_quotients():
    rng = np.random.default_rng(101)
    for name, frame, system, _ in zoo():
        joint_dim = frame.rep.dim * system.dim
        for _ in range(100):
            t = random_density(rng, joint_dim)
            a = random_span_element(rng, system.space)
            lhs = predual_relativize(frame, system, t).expectation(a)
            rhs = np.trace(t @ relativize(frame, system, a))
            assert abs(lhs - rhs) <= 1e-9, name
        assert quotient_dimension(system) == system.space.dim, name
        rel = build_relative_subspace(frame, system)
        assert quotient_dimension(rel.as_system) == rel.space.dim, name
    _line(7)


def test_criterion_8_external_transforms_and_kernel_violation():
    qubit = full_system(z2_flip_rep())
    rng = np.random.default_rng(103)

    # identity morphism
    psi = identity_frame_morphism(z2_ideal_frame())
    for _ in range(3):
        t, s = external_frame_transform(psi, qubit, random_density(rng, 2), random_density(rng, 2))
        assert t.deviation(s) <= 1e-9

    # central reorientations (abelian groups: every element is central)
    for group_order, system in ((2, qubit), (4, full_system(zn_phase_rep(4)))):
        fr = canonical_ideal_frame(build_cyclic_group(group_order))
        for h in range(group_order):
            psi = reorientation_morphism(fr, h)
            omega = random_density(rng, group_order)
            rho = random_density(rng, 2)
            t, s = external_frame_transform(psi, system, omega, rho)
            assert t.deviation(s) <= 1e-9

    # smearing morphisms, including the worked (3/4, 1/4) case
    psi = z2_smearing_morphism(0.5)
    omega = proj(ket(0, 2))
    rho = np.diag([0.9, 0.1]).astype(complex)
    target_side, source_side = external_frame_transform(psi, qubit, omega, rho)
    assert target_side.deviation(source_side) <= 1e-9
    assert np.allclose(born_measure(psi.target, omega), [0.75, 0.25], atol=1e-12)
    assert max_abs(target_side.canonical - (0.75 * rho + 0.25 * X @ rho @ X)) <= 1e-9

    psi_s3 = smearing_morphism(s3(), 0.5)
    spin = full_system(s3_irrep2())
    t, s = external_frame_transform(psi_s3, spin, random_density(rng, 6), random_density(rng, 2))
    assert t.deviation(s) <= 1e-9

    # kernel violation: averaging with the Hadamard twin resurrects a
    # direction the unlocalized frame has killed
    fr = z2_unlocalized_frame()
    stay = identity_frame_morphism(fr)
    avg_h = build_channel(qubit, qubit, [(b + H @ b @ H) / 2 for b in qubit.space.basis])
    with pytest.raises(IllDefined) as err:
        relativize_morphisms(stay, avg_h)
    assert err.value.image_norm >= 1e-3
    _line(8)


def test_criterion_9_cli_determinism_and_exit_codes():
    for name in ("golden_z2.json", "golden_s3.json"):
        path = str(FIXTURES / name)
        first = run_cli("run", path, "--report", "machine")
        second = run_cli("run", path, "--report", "machine")
        assert first.returncode == 0 and second.returncode == 0, name
        assert first.stdout == second.stdout, name
        assert json.loads(first.stdout)["format"] == "machine/1"
    codes = tuple(
        run_cli("run", str(FIXTURES / f), "--report", "machine").returncode
        for f in ("golden_z2.json", "fixture_fail.json", "fixture_error.json")
    )
    assert codes == (0, 1, 2)
    _line(9)
