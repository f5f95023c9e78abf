"""Group laws decided on generators agree with the loops over every element.

Span closure, frame covariance and frame-morphism equivariance are
decided on the group's generators first, and run their
element loops only when the generators' bound exceeds the tolerance.
These tests run each check twice, once as the engine does and once with
the generator test switched off, so the element loop decides alone, and
require the same verdict, exception type and message (which names the
witness).  The perturbations sit near tol / L and near tol, either on
the data, which every generator then sees, or on the representation at
one element outside the generating set, where the loop alone sees them.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framerel.frames as frames_module
import framerel.systems as systems_module
from framerel.frames import (
    build_frame_morphism,
    canonical_ideal_frame,
    frame_from_effects,
    identity_frame_morphism,
    principal_frame_from_seed,
)
from framerel.groups import (
    build_cyclic_group,
    build_symmetric_group,
    regular_representation,
    trivial_rep,
    unitary_rep,
)
from framerel.linalg import span_subspace
from framerel.relativize import build_relative_subspace
from framerel.systems import (
    build_channel,
    conjugation_channel,
    full_system,
    identity_channel,
    is_invariant,
    system_from_subspace,
)

from .strategies import group_reps, permutation_matrices
from .support import smeared_canonical_frame, smearing_morphism, zn_phase_rep

TOL = 1e-9
LOOSE = 1e-6  # validates the perturbed reps and the frames a morphism joins


@contextmanager
def element_loops():
    """Switch the generator tests off: every check runs its element loop."""
    with mock.patch.object(
        systems_module, "_generator_closure", lambda rep, space: math.inf
    ), mock.patch.object(
        frames_module, "_covariance_on_generators", lambda rep, entries, values: (math.inf, 1.0)
    ), mock.patch.object(frames_module, "_equivariant_on_generators", lambda *args: False):
        yield


@contextmanager
def no_element_loops():
    """Fail on any entry into an element loop."""

    def refuse(*args, **kwargs):
        raise AssertionError("element loop entered")

    with mock.patch.object(systems_module, "_closure_loop", refuse), mock.patch.object(
        frames_module, "_covariance_loop", refuse
    ), mock.patch.object(frames_module, "_equivariance_table", refuse):
        yield


def outcome(build, summary):
    try:
        return ("ok", summary(build()))
    except Exception as exc:  # the type and message are what is compared
        return (type(exc).__name__, str(exc))


def same_outcome(build, summary):
    fast = outcome(build, summary)
    with element_loops():
        loop = outcome(build, summary)
    assert fast == loop
    return fast


def hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def unitary_exp(h):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def twirl(mats, a):
    return sum(u @ a @ u.conj().T for u in mats)


@st.composite
def perturbed_cases(draw):
    """A group rep, its rep perturbed at one element outside the generating
    set, a data perturbation size, and a seeded generator for the data.

    Each perturbation is off, near tol / L or near tol (a factor 0.3-3),
    the rep's also near 10 tol.  The rep's perturbation is exp(i delta H)
    at g0, a diagonal H keeping a monomial rep monomial; the perturbed rep
    is validated at LOOSE.
    """
    kind, n, mats = draw(group_reps())
    group = build_cyclic_group(n) if kind == "cyclic" else build_symmetric_group(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = max(group.word_length, 1)

    def size(*scales):
        scale = draw(st.sampled_from([0.0, TOL / length, TOL, *scales]))
        return scale * draw(st.floats(0.3, 3.0))

    outside = [g for g in group.elements() if g not in group.generators]
    g0 = draw(st.sampled_from(outside))
    d = len(mats[0])
    h = np.diag(rng.standard_normal(d)) if draw(st.booleans()) else hermitian(rng, d)
    perturbed = list(mats)
    # the checks see this through operators whose entries are often ~1 / |G|
    perturbed[g0] = mats[g0] @ unitary_exp(size(10 * TOL) * h / np.abs(h).max())
    rep = unitary_rep(group, perturbed, tol=LOOSE)
    return group, mats, rep, size(), rng


def summary_of_system(system):
    return system.is_full_algebra, is_invariant(system, TOL)


@settings(max_examples=60, deadline=None)
@given(case=perturbed_cases())
def test_span_closure_and_invariance_agree_with_the_element_loop(case):
    group, mats, rep, delta, rng = case
    d = rep.dim
    # under the unperturbed rep: the orbit span of one operator (closed,
    # rarely invariant), the span of two twirled operators (invariant) or
    # of one operator alone; the operators are sometimes sparse, so a
    # monomial rep can carry their support off itself.  One spanning
    # operator is moved by delta along a random direction.
    a, b = hermitian(rng, d), hermitian(rng, d)
    if rng.random() < 0.5:
        mask = rng.random((d, d)) < 0.3
        a, b = a * (mask | mask.T), b * (mask | mask.T)
    spanning = [
        [u @ a @ u.conj().T for u in mats],
        [twirl(mats, a) / len(mats), twirl(mats, b) / len(mats)],
        [a],
    ][int(rng.integers(3))]
    spanning.append(np.eye(d, dtype=complex))
    k = int(rng.integers(len(spanning)))
    spanning[k] = spanning[k] + delta * hermitian(rng, d)
    space = span_subspace(spanning, ambient_dim=d, tol=TOL)
    same_outcome(lambda: system_from_subspace(rep, space, TOL), summary_of_system)


def covariant_effects(mats, rng):
    """E(h) = U(h) E0 U(h)^dag, E0 = S^(-1/2) A S^(-1/2) for a positive
    definite A and its twirl S, so the effects sum to I."""
    d = len(mats[0])
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = b @ b.conj().T + 0.1 * np.eye(d)
    vals, vecs = np.linalg.eigh(twirl(mats, a))
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    seed = root @ a @ root
    return [u @ seed @ u.conj().T for u in mats]


@settings(max_examples=60, deadline=None)
@given(case=perturbed_cases())
def test_frame_covariance_agrees_with_the_element_loop(case):
    group, mats, rep, delta, rng = case
    effects = covariant_effects(mats, rng)
    if group.order > 1:
        # move delta X from one effect to another: the sum stays I
        k, j = rng.choice(group.order, size=2, replace=False)
        x = hermitian(rng, rep.dim)
        effects[k] = effects[k] + delta * x
        effects[j] = effects[j] - delta * x

    def summary(frame):
        return frame.is_ideal, frame.effects.tobytes()

    same_outcome(lambda: frame_from_effects(rep, effects, tol=TOL), summary)


@settings(max_examples=40, deadline=None)
@given(case=perturbed_cases())
def test_frame_morphism_equivariance_agrees_with_the_element_loop(case):
    group, mats, rep, delta, rng = case
    d = rep.dim
    effects = covariant_effects(mats, rng)
    if rng.random() < 0.5:
        # the identity on the span of the effects, invariant under the
        # unperturbed rep: a translate by g0 can leave it, which the loop's
        # ``apply`` reports
        span = span_subspace(effects + [np.eye(d)], ambient_dim=d, tol=TOL)
        source = frame_from_effects(rep, effects, system_from_subspace(rep, span, LOOSE), LOOSE)
        target, channel = source, identity_channel(source.value_system, LOOSE)
    else:
        # V commutes with the unperturbed rep; the data perturbation moves it off
        source = frame_from_effects(rep, effects, tol=LOOSE)
        v = unitary_exp(twirl(mats, hermitian(rng, d)) / len(mats) + delta * hermitian(rng, d))
        channel = conjugation_channel(source.value_system, v, tol=LOOSE)
        target = frame_from_effects(rep, [v @ e @ v.conj().T for e in effects], tol=LOOSE)
    same_outcome(lambda: build_frame_morphism(source, target, channel, TOL), lambda m: "built")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 16), factor=st.floats(0.5, 2.0), dense=st.booleans())
def test_a_deviation_that_grows_along_words_is_judged_by_the_loop(n, factor, dense):
    # Z_n on C^2 by diag(1, e^(i k delta)), a rep within n delta of a
    # homomorphism and equal to its words: element k turns span{I, X} by
    # k delta, the generator least and element n - 1 most, so the loop
    # fails near (n - 1) delta / sqrt(2) = tol while the generator passes
    delta = factor * np.sqrt(2) * TOL / (n - 1)
    turn = unitary_exp(np.array([[0.0, 0.3], [0.3, 0.0]])) if dense else np.eye(2)
    mats = [turn @ np.diag([1.0, np.exp(1j * k * delta)]) @ turn.conj().T for k in range(n)]
    rep = unitary_rep(build_cyclic_group(n), mats, tol=LOOSE)
    x = turn @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ turn.conj().T
    space = span_subspace([np.eye(2), x], ambient_dim=2, tol=TOL)
    same_outcome(lambda: system_from_subspace(rep, space, TOL), summary_of_system)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 16), factor=st.floats(0.5, 2.0))
def test_an_equivariance_defect_that_grows_along_words_is_judged_by_the_loop(n, factor):
    # the identity map from Z_n on C^2 by diag(1, w^k) to the same action
    # turned by e^(i k delta): it carries a covariant frame with
    # off-diagonal c onto one the drifting rep accepts at LOOSE, and its
    # equivariance defect at element k is about |c| k delta
    c = 0.5 / n  # keeps the seed PSD
    delta = factor * TOL / ((n - 1) * c)
    w = np.exp(2j * np.pi / n)
    group = build_cyclic_group(n)
    source_rep = unitary_rep(group, [np.diag([1.0, w**k]) for k in range(n)])
    drift = [np.diag([1.0, w**k * np.exp(1j * k * delta)]) for k in range(n)]
    target_rep = unitary_rep(group, drift, tol=LOOSE)
    seed = np.array([[1 / n, c], [c, 1 / n]], dtype=complex)  # the phases sum to 0 off the diagonal
    source = principal_frame_from_seed(source_rep, seed)
    target = frame_from_effects(target_rep, source.effects, tol=LOOSE)
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    channel = build_channel(source.value_system, target.value_system, units)
    same_outcome(lambda: build_frame_morphism(source, target, channel, TOL), lambda m: "built")


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("element", [1, 2])
def test_a_value_action_off_the_frame_action_is_judged_by_the_table(side, element):
    # Z3 frames with off-diagonal effects, covariant under the regular rep A;
    # one value system carries A with an extra phase of 50 tol on a basis
    # vector, at element 2 outside the generating set (the rep is off its
    # words there), or on the generator 1 and its powers (a rep equal to
    # its words, whose covariance moves).  The identity images factor the
    # frame exactly, but g.E(h) under the perturbed action differs from
    # A(g).E(h): only the covariance bound of the perturbed side, measured
    # under its own action (C for the source, C' for the target), sends
    # the morphism to the table, which names that element.
    group = build_cyclic_group(3)
    exact = regular_representation(group)
    mats = list(exact.matrices)
    phase = np.diag([1.0, np.exp(50j * TOL), 1.0])
    if element == 2:
        mats[2] = mats[2] @ phase
    else:
        mats = [np.linalg.matrix_power(mats[1] @ phase, k) for k in range(3)]
    moved = full_system(unitary_rep(group, mats, tol=LOOSE))
    effects = covariant_effects(exact.matrices, np.random.default_rng(5))
    frames = [frame_from_effects(exact, effects, moved if side == s else None, LOOSE) for s in ("source", "target")]
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    channel = build_channel(frames[0].value_system, frames[1].value_system, units, LOOSE)
    loop = same_outcome(lambda: build_frame_morphism(*frames, channel, TOL), lambda m: "built")
    assert loop[0] == "EffectSpanNotEquivariant" and f"element {element}" in loop[1]


# ---------------------------------------------------------------- fast path


def s4_on_four_points():
    group = build_symmetric_group(4)
    return canonical_ideal_frame(group), full_system(unitary_rep(group, permutation_matrices(4)))


def test_valid_objects_never_enter_the_element_loops():
    ideal, system = s4_on_four_points()
    with no_element_loops():
        frame = canonical_ideal_frame(ideal.group)
        smeared = smeared_canonical_frame(ideal.group, 0.3)
        rel = build_relative_subspace(frame, system)
        identity_frame_morphism(smeared)
        smearing_morphism(ideal.group, 0.4, frame)
        seed = np.array([[1 / 6, 0.1], [0.1, 1 / 6]], dtype=complex)  # phases sum to 0 off the diagonal
        qubit = principal_frame_from_seed(zn_phase_rep(6), seed)
        identity_frame_morphism(qubit)
    assert (rel.space.dim, rel.kernel.dim) == (16, 0) and is_invariant(rel.as_system)


def test_a_failure_beyond_the_generators_is_found_by_the_loop():
    # Z4 acts on C^4 by its regular rep, but element 2 (not the generator 1)
    # carries an extra phase of 50 tol on one basis vector: only pairs (2, h)
    # see it, and the loop names the first of them
    group = build_cyclic_group(4)
    mats = list(regular_representation(group).matrices)
    phase = np.ones(4, dtype=complex)
    phase[1] = np.exp(50j * TOL)
    mats[2] = mats[2] * phase[:, None]
    rep = unitary_rep(group, mats, tol=LOOSE)
    effects = covariant_effects(regular_representation(group).matrices, np.random.default_rng(3))
    loop = same_outcome(lambda: frame_from_effects(rep, effects, tol=TOL), lambda f: "built")
    assert loop[0] == "FrameInvalid" and "covariance fails at pair (2, " in loop[1]


def test_a_support_carried_off_itself_runs_the_loop():
    # the Z3 shift carries the entries (0, 1) and (1, 0) of X01 off the
    # span's support; on the support its translate is 0, inside the span
    group = build_cyclic_group(3)
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = x[1, 0] = 1.0
    space = span_subspace([np.eye(3), x], ambient_dim=3)
    rep = regular_representation(group)
    loop = same_outcome(lambda: system_from_subspace(rep, space, TOL), summary_of_system)
    assert loop == ("FramerelError", "system span is not closed under the group action")


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_small_cyclic_groups_decide_on_generators(order):
    # a frame morphism is decided by its factorization and the frames'
    # covariance at every order, so nothing loops, Z1 and Z2 included
    group = build_cyclic_group(order)
    calls = {
        name: mock.Mock(wraps=getattr(module, name))
        for module, name in (
            (systems_module, "_closure_loop"),
            (frames_module, "_covariance_loop"),
            (frames_module, "_equivariance_table"),
        )
    }
    with (
        mock.patch.object(systems_module, "_closure_loop", calls["_closure_loop"]),
        mock.patch.object(frames_module, "_covariance_loop", calls["_covariance_loop"]),
        mock.patch.object(frames_module, "_equivariance_table", calls["_equivariance_table"]),
    ):
        frame = canonical_ideal_frame(group)
        identity_frame_morphism(frame)
    counts = {name: call.call_count for name, call in calls.items()}
    assert counts == {"_closure_loop": 0, "_covariance_loop": 0, "_equivariance_table": 0}


@pytest.mark.parametrize("order", [1, 2])
def test_groups_generated_by_every_other_element_take_the_element_table(order):
    # The generators of Z1 and Z2 are every element but the identity, so
    # their test would do the element loop's work: a proper span goes
    # straight to the element loop, with the verdicts of the generator
    # path.  A frame morphism needs no element table at any order.
    group = build_cyclic_group(order)
    frame = canonical_ideal_frame(group)
    # Z1 acts trivially on C^2, Z2 flips it: span{I, X} is invariant under
    # both, span{I, Z} only under Z1 (Z2 keeps it closed)
    rep = trivial_rep(group, 2) if order == 1 else frame.rep
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    spans = [span_subspace([np.eye(2), a], ambient_dim=2) for a in (x, z)]
    expect = [is_invariant(system_from_subspace(rep, space, TOL)) for space in spans]
    assert expect == [True, order == 1]
    table = mock.Mock(wraps=frames_module._equivariance_table)
    loop = mock.Mock(wraps=systems_module._closure_loop)

    def refuse(*args, **kwargs):
        raise AssertionError("generator test entered")

    with (
        mock.patch.object(systems_module, "_generator_closure", refuse),
        mock.patch.object(frames_module, "_equivariance_table", table),
        mock.patch.object(systems_module, "_closure_loop", loop),
    ):
        identity_frame_morphism(frame)
        assert [is_invariant(system_from_subspace(rep, space, TOL)) for space in spans] == expect
    assert table.call_count == 0 and loop.call_count == len(spans)
