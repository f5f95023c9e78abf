"""Covariant observable frames and the morphisms between them."""

import os
import subprocess
import sys

import numpy as np
import pytest

from framerel.errors import (
    EffectSpanNotEquivariant,
    FactorizationFails,
    FrameInvalid,
    NotAState,
    NotCentral,
    NotUnitary,
    SeedNotNormalizing,
    SeedNotPSD,
)
from framerel.frames import (
    born_measure,
    build_frame_morphism,
    canonical_ideal_frame,
    compose_frame_morphisms,
    frame_from_effects,
    frames_isomorphic_by,
    identity_frame_morphism,
    principal_frame_from_seed,
    reorientation_morphism,
    same_frame,
)
from framerel.groups import UnitaryRep, act, build_cyclic_group, trivial_rep, unitary_rep
from framerel.linalg import is_projection, is_psd, max_abs
from framerel.systems import build_channel, subspace_system

from .support import (
    ROOT,
    I2,
    X,
    Z,
    ket,
    proj,
    s3,
    smeared_canonical_frame,
    z2,
    z2_flip_rep,
    z2_ideal_frame,
    z2_smeared_frame,
    z2_unlocalized_frame,
)

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)


# ------------------------------------------------------------- construction


def test_z2_ideal_frame_effects_and_flags():
    fr = z2_ideal_frame()
    assert fr.is_ideal
    assert max_abs(fr.effects[0] - E00) < 1e-14
    assert max_abs(fr.effects[1] - E11) < 1e-14
    # covariance: U(1) E(0) U(1)^dag = E(1)
    assert max_abs(act(fr.rep, 1, fr.effects[0]) - fr.effects[1]) < 1e-14


def test_canonical_ideal_frame_on_regular_rep():
    group = s3()
    fr = canonical_ideal_frame(group)
    assert fr.is_ideal
    assert fr.rep.dim == group.order
    for g in group.elements():
        want = np.zeros((6, 6), dtype=complex)
        want[g, g] = 1.0
        assert max_abs(fr.effects[g] - want) == 0.0


_S5_FRAME_UNDER_A_CAP = """
import resource
cap = int(4.77 * 2**30)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import framerel as fr
frame = fr.canonical_ideal_frame(fr.build_symmetric_group(5))
assert frame.is_ideal and frame.value_system.is_full_algebra
"""


def test_s5_canonical_frame_builds_under_a_4_77_gib_address_space_cap():
    # The value system B(C^120) would be a 3.3 GB dense matrix-unit stack.
    # The cap is set by the child on itself only; one BLAS thread keeps
    # the thread buffers of a many-core machine out of the budget.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _S5_FRAME_UNDER_A_CAP], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_smeared_frames_are_not_ideal_but_still_covariant():
    for lam in (0.25, 0.5, 1.0):
        fr = z2_smeared_frame(lam)
        assert not fr.is_ideal
        total = sum(fr.effects)
        assert max_abs(total - I2) < 1e-12
        for g in (0, 1):
            assert max_abs(act(fr.rep, 1, fr.effects[g]) - fr.effects[1 - g]) < 1e-12
    fr6 = smeared_canonical_frame(s3(), 0.5)
    assert not fr6.is_ideal
    assert max_abs(sum(fr6.effects) - np.eye(6)) < 1e-12


def test_principal_seed_validation():
    rep = z2_flip_rep()
    with pytest.raises(SeedNotPSD):
        principal_frame_from_seed(rep, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(SeedNotNormalizing):
        # translates sum to (2/3) I, not I
        principal_frame_from_seed(rep, I2 / 3)


def test_frame_from_effects_validation():
    rep = z2_flip_rep()
    with pytest.raises(FrameInvalid):
        frame_from_effects(rep, [E00, E00])  # does not resolve the identity
    with pytest.raises(FrameInvalid):
        frame_from_effects(rep, [2 * E00, I2 - 2 * E00])  # effect not PSD
    triv = trivial_rep(z2(), 2)
    with pytest.raises(FrameInvalid):
        # under the trivial action covariance forces E(0) = E(1)
        frame_from_effects(triv, [E00, E11])


def test_frame_value_space_containment():
    rep = z2_flip_rep()
    diag = subspace_system(rep, [Z])
    fr = frame_from_effects(rep, [E00, E11], value_system=diag)
    assert fr.value_system.space.dim == 2
    assert not fr.value_system.is_full_algebra
    with pytest.raises(FrameInvalid):
        # X/2 +/- ... effects leave the declared diagonal span
        frame_from_effects(rep, [(I2 + X) / 2, (I2 - X) / 2], value_system=diag)


def _validation_loop_oracle(frame, effects, value_system, tol=1e-9):
    """Per-element frame validation: the (type, message) it raises, or is_ideal.

    Positivity, then membership, one element at a time; then the sum to
    the identity, covariance over (g, h), and the projection test.
    """
    label = frame.group.label
    for g, e in enumerate(effects):
        if not is_psd(e, tol):
            return FrameInvalid, f"effect for element {label(g)} is not positive semidefinite"
        if not value_system.space.contains(e, tol):
            return FrameInvalid, f"effect for element {label(g)} leaves the value system span"
    dev = max_abs(sum(effects) - np.eye(frame.rep.dim))
    if dev > tol:
        return FrameInvalid, f"effects do not sum to the identity (deviation {dev:.3e})"
    pair = _first_failing_pair(frame, effects, tol)
    if pair is not None:
        g, h, dev = pair
        return FrameInvalid, f"covariance fails at pair ({label(g)}, {label(h)}) (deviation {dev:.3e})"
    return all(is_projection(e, tol) for e in effects)


def test_batched_frame_validation_matches_the_loop_oracle():
    ideal = _cyclic_ideal(4)
    smeared = smeared_canonical_frame(s3(), 0.3)
    e = ideal.effects
    not_psd = [e[0], e[1], e[2] + 1.5 * e[3], -0.5 * e[3]]  # only E(3) fails
    rep = z2_flip_rep()
    diag = subspace_system(rep, [Z])
    half = z2_ideal_frame()
    failing = [
        (ideal, not_psd, ideal.value_system, "element 3 is not positive"),
        (half, [(I2 + X) / 2, (I2 - X) / 2], diag, "element 0 leaves"),
        (half, [E00 + 0.2 * X, E11 - 0.2 * X], diag, "element 0 is not positive"),
        (ideal, [e[0], e[1], e[3], e[2]], ideal.value_system, "covariance"),
    ]
    for frame, effects, vs, expect in failing:
        want = _validation_loop_oracle(frame, effects, vs)
        assert want[0] is FrameInvalid and expect in want[1]
        with pytest.raises(FrameInvalid) as err:
            frame_from_effects(frame.rep, effects, vs)
        assert str(err.value) == want[1]
    for frame in (ideal, smeared, half, z2_smeared_frame(0.4), z2_unlocalized_frame()):
        want = _validation_loop_oracle(frame, list(frame.effects), frame.value_system)
        again = frame_from_effects(frame.rep, frame.effects, frame.value_system)
        assert frame.is_ideal == again.is_ideal == want


def test_effects_are_one_read_only_stack():
    for frame in (z2_ideal_frame(), smeared_canonical_frame(s3(), 0.3)):
        d = frame.rep.dim
        assert isinstance(frame.effects, np.ndarray)
        assert frame.effects.shape == (frame.group.order, d, d)
        assert not frame.effects.flags.writeable
        with pytest.raises(ValueError):
            frame.effects[0, 0, 0] = 2.0
    given = [E00.copy(), E11.copy()]
    frame = frame_from_effects(z2_flip_rep(), given)
    given[0][0, 0] = 5.0  # the frame holds its own copy
    assert frame.effects[0, 0, 0] == 1.0


def test_same_frame_is_structural():
    a = z2_ideal_frame()
    b = z2_ideal_frame()
    assert same_frame(a, b)  # equal reps, equal effects
    assert not same_frame(a, z2_smeared_frame(0.5))
    assert not same_frame(a, canonical_ideal_frame(s3()))


# ------------------------------------------------------------- born measure


def test_born_measure_oracles():
    fr = z2_ideal_frame()
    mu = born_measure(fr, proj(ket(0, 2)))
    assert np.allclose(mu, [1.0, 0.0], atol=1e-12)
    assert np.allclose(born_measure(fr, I2 / 2), [0.5, 0.5], atol=1e-12)
    # smeared at lambda = 1/2: effects diag(3/4, 1/4) and diag(1/4, 3/4)
    sm = z2_smeared_frame(0.5)
    assert np.allclose(born_measure(sm, proj(ket(0, 2))), [0.75, 0.25], atol=1e-12)
    un = z2_unlocalized_frame()
    assert np.allclose(born_measure(un, proj(ket(0, 2))), [0.5, 0.5], atol=1e-12)
    assert abs(sum(born_measure(sm, I2 / 2)) - 1.0) < 1e-12


def test_born_measure_rejects_non_states():
    with pytest.raises(NotAState):
        born_measure(z2_ideal_frame(), I2)


# ---------------------------------------------------------------- morphisms


def test_smearing_morphism_factorizes_ideal_effects():
    lam = 0.5
    ideal = z2_ideal_frame()
    sm = z2_smeared_frame(lam)
    # the channel mixing with the uniform average carries E(g) to the
    # smeared effect exactly
    noisy = _mixing_channel(ideal.value_system, lam)
    mor = build_frame_morphism(ideal, sm, noisy)
    got = mor.channel.apply(ideal.effects[0])
    assert max_abs(got - np.diag([1 - lam / 2, lam / 2])) < 1e-12
    assert mor.source is ideal and mor.target is sm


def _mixing_channel(system, lam):
    from framerel.systems import build_channel

    images = [(1 - lam) * b + lam * np.trace(b) * np.eye(b.shape[0]) / b.shape[0]
              for b in system.space.basis]
    return build_channel(system, system, images)


def test_factorization_failure_carries_a_witness():
    from framerel.systems import identity_channel

    ideal = z2_ideal_frame()
    sm = z2_smeared_frame(0.5)
    with pytest.raises(FactorizationFails) as err:
        build_frame_morphism(ideal, sm, identity_channel(ideal.value_system))
    assert err.value.deviation > 0.2  # identity misses by lambda/2 = 1/4
    assert err.value.element in (0, 1)


def _cyclic_ideal(n):
    return canonical_ideal_frame(build_cyclic_group(n))


def _conjugation_images(frame, u):
    return [u @ b @ np.conj(u).T for b in frame.value_system.space.basis]


def _first_failing_pair(frame, effects, tol):
    """Strict loop oracle over (g, h): first pair with |E(gh) - g.E(h)| > tol."""
    group = frame.group
    for g in group.elements():
        for h in group.elements():
            dev = max_abs(effects[group.multiply(g, h)] - act(frame.rep, g, effects[h]))
            if dev > tol:
                return g, h, dev
    return None


def test_covariance_failure_names_the_first_pair():
    ideal = _cyclic_ideal(4)
    e = ideal.effects
    effects = [e[0], e[1], e[3], e[2]]  # sums to I, but 1.E(1) = E(2) is not E(3)
    g, h, dev = _first_failing_pair(ideal, effects, 1e-9)
    assert (g, h) == (1, 1)
    with pytest.raises(FrameInvalid) as err:
        frame_from_effects(ideal.rep, effects, ideal.value_system)
    label = ideal.group.label
    assert str(err.value) == f"covariance fails at pair ({label(g)}, {label(h)}) (deviation {dev:.3e})"


def test_covariance_on_the_support_orbit_fails_as_the_dense_check():
    # A smeared S3 frame with a non-covariant off-diagonal bump: the
    # permutation rep compares only on the orbit of the effect support,
    # the same action with signs (a monomial rep with phases) too, and
    # the signed matrices held as a matrix-path rep compare every entry.
    # All three name the first failing pair of the strict loop with the
    # same deviation.
    group = s3()
    ideal = canonical_ideal_frame(group)
    d, lam, eps = group.order, 0.3, 0.01
    effects = [(1 - lam) * e + lam * np.eye(d) / d for e in ideal.effects]
    bump = np.zeros((d, d), dtype=complex)
    bump[0, 1] = bump[1, 0] = eps
    effects[0] = effects[0] + bump
    effects[1] = effects[1] - bump
    sign = [round(np.linalg.det(np.eye(3)[[int(c) for c in group.label(g)]])) for g in group.elements()]
    signed = unitary_rep(group, [s * m for s, m in zip(sign, ideal.rep.matrices)])
    dense = UnitaryRep(group=group, dim=d, _matrices=signed.matrices)
    assert ideal.rep.phases is None and signed.phases is not None and dense.perms is None
    g, h, dev = _first_failing_pair(ideal, effects, 1e-9)
    label = group.label
    want = f"covariance fails at pair ({label(g)}, {label(h)}) (deviation {dev:.3e})"
    for rep, vs in ((ideal.rep, ideal.value_system), (signed, None), (dense, None)):
        with pytest.raises(FrameInvalid) as err:
            frame_from_effects(rep, effects, vs)
        assert str(err.value) == want


def test_factorization_failure_names_the_first_element():
    ideal = _cyclic_ideal(4)
    swap = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # fixes E(0), E(1); swaps E(2), E(3)
    channel = build_channel(ideal.value_system, ideal.value_system, _conjugation_images(ideal, swap))
    first = next(
        g for g in ideal.group.elements()
        if max_abs(channel.apply(ideal.effects[g]) - ideal.effects[g]) > 1e-9
    )
    assert first == 2
    with pytest.raises(FactorizationFails) as err:
        build_frame_morphism(ideal, ideal, channel)
    assert err.value.element == first
    assert err.value.deviation == max_abs(channel.apply(ideal.effects[2]) - ideal.effects[2])


def test_effect_span_failure_names_the_first_element():
    # (1 - eps) id + eps Ad(V) on Z6, V a Hadamard on basis vectors 0, 3
    # and one on 1, 4: every effect maps within eps/2 of itself, but the
    # effect-span equivariance deviation is eps/2 at g = 1 and eps at
    # g = 2, 3, 4
    ideal = _cyclic_ideal(6)
    v = np.eye(6, dtype=complex)
    for pair in ([0, 3], [1, 4]):
        v[np.ix_(pair, pair)] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    eps, tol = 1e-3, 7.5e-4
    vs = ideal.value_system
    images = [(1 - eps) * b + eps * img for b, img in zip(vs.space.basis, _conjugation_images(ideal, v))]
    channel = build_channel(vs, vs, images, tol)
    fact = max(max_abs(channel.apply(e) - e) for e in ideal.effects)
    images_of_effects = [channel.apply(e) for e in ideal.effects]
    first = None
    for g in ideal.group.elements():
        for h in ideal.group.elements():
            lhs = channel.apply(act(ideal.rep, g, ideal.effects[h]))
            dev = max_abs(lhs - act(ideal.rep, g, images_of_effects[h]))
            if first is None and dev > tol:
                first = g
    assert fact < tol and first == 2
    with pytest.raises(EffectSpanNotEquivariant) as err:
        build_frame_morphism(ideal, ideal, channel, tol)
    assert err.value.element == first
    assert err.value.deviation > tol


def test_identity_and_composition_of_morphisms():
    ideal = z2_ideal_frame()
    ident = identity_frame_morphism(ideal)
    assert max_abs(ident.channel.apply(Z) - Z) < 1e-14

    # smear by 1/4 then by 1/3 on top: retention (3/4)(2/3) = 1/2 exactly
    lam1, lam2 = 0.25, 1 / 3
    mid = z2_smeared_frame(lam1)
    final = z2_smeared_frame(0.5)
    first = build_frame_morphism(ideal, mid, _mixing_channel(ideal.value_system, lam1))
    second = build_frame_morphism(mid, final, _mixing_channel(ideal.value_system, lam2))
    both = compose_frame_morphisms(first, second)
    assert both.source is ideal and both.target is final
    direct = build_frame_morphism(ideal, final, _mixing_channel(ideal.value_system, 0.5))
    for b in ideal.value_system.space.basis:
        assert max_abs(both.channel.apply(b) - direct.channel.apply(b)) < 1e-12


def test_reorientation_by_central_element():
    ideal = z2_ideal_frame()
    mor = reorientation_morphism(ideal, 1)
    # the reoriented frame swaps the two effects
    assert max_abs(mor.target.effects[0] - E11) < 1e-12
    assert max_abs(mor.target.effects[1] - E00) < 1e-12
    # Z2 is abelian so every element reorients; S3 transpositions do not
    with pytest.raises(NotCentral):
        reorientation_morphism(canonical_ideal_frame(s3()), 1)
    trivial_turn = reorientation_morphism(canonical_ideal_frame(s3()), 0)
    assert same_frame(trivial_turn.source, trivial_turn.target)


def test_reorientation_of_cyclic_canonical_frame():
    group = build_cyclic_group(4)
    fr = canonical_ideal_frame(group)
    mor = reorientation_morphism(fr, 1)
    for g in group.elements():
        assert max_abs(mor.target.effects[g] - fr.effects[group.multiply(1, g)]) < 1e-12


# ------------------------------------------------------------- isomorphisms


def test_frames_isomorphic_by_unitary():
    ideal = z2_ideal_frame()
    swapped = reorientation_morphism(ideal, 1).target
    report = frames_isomorphic_by(ideal, swapped, X)
    assert report.isomorphic
    assert report.forward_deviation < 1e-12
    assert report.inverse_deviation < 1e-12
    # the identity does not intertwine the swapped frame
    report_bad = frames_isomorphic_by(ideal, swapped, I2)
    assert not report_bad.isomorphic
    assert report_bad.forward_deviation > 0.9
    with pytest.raises(NotUnitary):
        frames_isomorphic_by(ideal, swapped, np.diag([1.0, 2.0]).astype(complex))


def test_smeared_frame_not_unitarily_equivalent_to_ideal():
    ideal = z2_ideal_frame()
    sm = z2_smeared_frame(0.5)
    for t in (I2, X, Z, (X + Z) / np.sqrt(2)):
        assert not frames_isomorphic_by(ideal, sm, t).isomorphic
