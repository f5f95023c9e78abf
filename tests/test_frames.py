"""Covariant observable frames and the morphisms between them."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framerel.frames as frames_module
import framerel.groups as groups_module
import framerel.linalg
import framerel.systems as systems_module
from framerel.errors import (
    EffectSpanNotEquivariant,
    FactorizationFails,
    FrameInvalid,
    NotAState,
    NotCentral,
    OperatorOutsideSystem,
    SeedNotNormalizing,
    SeedNotPSD,
)
from framerel.frames import (
    FrameObservable,
    born_measure,
    build_frame_morphism,
    canonical_ideal_frame,
    compose_frame_morphisms,
    frame_from_effects,
    identity_frame_morphism,
    principal_frame_from_seed,
    reorientation_morphism,
    same_frame,
)
from framerel.groups import (
    UnitaryRep,
    act,
    build_cyclic_group,
    build_symmetric_group,
    regular_representation,
    translates,
    trivial_rep,
    unitary_rep,
)
from framerel.linalg import block_partition, chunks, is_psd, matrix_units, max_abs, span_subspace
from framerel.relativize import (
    build_relative_subspace,
    check_channel_axioms,
    check_ideal_isomorphism,
    relativization_map,
)
from framerel.systems import (
    ChannelMap,
    build_channel,
    compose_channels,
    full_system,
    identity_channel,
    subspace_system,
    system_from_subspace,
)

from .strategies import cyclic_monomial_reps, permutation_matrices, standard_matrices
from .support import (
    I2,
    X,
    Y,
    Z,
    depolarizing_channel,
    effect_stack,
    ket,
    proj,
    random_density,
    refusing_chain_images,
    run_under_cap,
    s3,
    s3_irrep2,
    smeared_canonical_frame,
    traced_peak,
    z2,
    z2_flip_rep,
    z2_ideal_frame,
    z2_smeared_frame,
    z2_unlocalized_frame,
    zn_phase_rep,
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
import framerel as fr
frame = fr.canonical_ideal_frame(fr.build_symmetric_group(5))
assert frame.is_ideal and frame.value_system.is_full_algebra
"""


def test_s5_canonical_frame_builds_under_a_4_77_gib_address_space_cap():
    # The value system B(C^120) would be a 3.3 GB dense matrix-unit stack.
    done = run_under_cap(_S5_FRAME_UNDER_A_CAP)
    assert done.returncode == 0, done.stderr[-2000:]


_PERMUTATION_SYSTEM = """
import itertools
import numpy as np
import framerel as fr
def permutation_system(group, n):
    mats = []
    for p in sorted(itertools.permutations(range(n))):
        m = np.zeros((n, n))
        m[list(p), range(n)] = 1.0
        mats.append(m)
    return fr.full_system(fr.unitary_rep(group, mats))
"""

_S5_LAWS_ON_GENERATORS = _PERMUTATION_SYSTEM + """
group = fr.build_symmetric_group(5)
frame = fr.canonical_ideal_frame(group)
rel = fr.build_relative_subspace(frame, permutation_system(group, 5))
assert (rel.space.dim, rel.kernel.dim) == (25, 0) and fr.is_invariant(rel.as_system)
assert fr.identity_frame_morphism(frame).channel.positivity_check == "structure"
"""


def test_s5_relative_subspace_and_identity_morphism_under_the_cap():
    # Both validations are decided on two generators of S5: the loops over
    # its 120 elements took 0.3 s and 6 s.  No timing is asserted here.
    done = run_under_cap(_S5_LAWS_ON_GENERATORS)
    assert done.returncode == 0, done.stderr[-2000:]


_S6_LAWS_UNDER_THE_CAP = _PERMUTATION_SYSTEM + """
group = fr.build_symmetric_group(6)
frame = fr.canonical_ideal_frame(group)
system = permutation_system(group, 6)
rel = fr.build_relative_subspace(frame, system)
assert (rel.space.dim, rel.kernel.dim) == (36, 0)
rmap = fr.relativization_map(frame, system)
assert fr.check_channel_axioms(rmap).passed
embedding = fr.check_ideal_isomorphism(rmap)
assert embedding.passed and embedding.consistent_with_ideality
assert fr.identity_frame_morphism(frame).channel.positivity_check == "structure"
"""


def test_s6_relativization_laws_under_the_cap():
    # The effect stack of the S6 canonical frame alone would be 720^3
    # complex entries, 5.97 GB; the frame holds its seed and the entries
    # relativization reads.  The identity morphism holds by construction
    # and is not validated over the 720 effects.
    done = run_under_cap(_S6_LAWS_UNDER_THE_CAP)
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
    with pytest.raises(FrameInvalid, match="^effect for element 0 leaves the value system span$"):
        # X Y X = -Y, so the translates sum to I, but Y is off the diagonal span
        principal_frame_from_seed(rep, I2 / 2 + 0.1 * Y, subspace_system(rep, [Z]))


def test_non_finite_seeds_and_effects_are_rejected():
    # a NaN at (0, 0) passed ``is_psd`` and the normalization test, and the
    # frame came back with covariance (nan, nan); elsewhere eigvalsh raised
    rep = regular_representation(build_cyclic_group(3))
    for entry in ((0, 0), (1, 1), (0, 1)):
        seed = np.diag([1.0, 0.0, 0.0]).astype(complex)
        seed[entry] = np.nan
        with pytest.raises(FrameInvalid, match="^seed effect has a non-finite entry$"):
            principal_frame_from_seed(rep, seed)
    effects = [E00.copy(), E11.copy()]
    effects[1][0, 0] = np.inf
    with pytest.raises(FrameInvalid, match="^effect for element 1 has a non-finite entry$"):
        frame_from_effects(z2_flip_rep(), effects)


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
    return all(max_abs(e - np.conj(e).T) <= tol and max_abs(e @ e - e) <= tol for e in effects)


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


# ---------------------------------------------------------- seed-held frames


def twirled_seed(mats, a):
    """S^(-1/2) A S^(-1/2) for a positive definite A and its twirl S = sum_g U(g) A U(g)^dag:
    a seed whose translates sum to I.  Entries of A that are zero stay
    zero in the seed wherever the twirl is block-diagonal around them."""
    twirl = sum(u @ a @ u.conj().T for u in mats)
    vals, vecs = np.linalg.eigh(twirl)
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return root @ a @ root


def sparse_positive(rng, d, density):
    """I + a random Hermitian matrix on a random sparse pattern, positive definite."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mask = rng.random((d, d)) < density
    h = h * (mask | mask.T)
    h = (h + h.conj().T) / 2
    return h + (np.abs(np.linalg.eigvalsh(h)).max() + 1.0) * np.eye(d)


def assert_matches_the_translated_stack(frame, exact):
    """The frame against the stack of its seed's translates, as a frame that
    held that stack measured it: effects, components, ideality and the
    generators' covariance, and the effect blocks relativization reads against the
    stack's blocks; ``exact`` asks for equal arrays, else a few ulps."""
    group, rep = frame.group, frame.rep
    stack = translates(rep, frame.seed)
    tol = 1e-9
    want = block_partition(np.any(stack != 0, axis=0))
    assert len(frame.components) == len(want) == len(frame.effect_blocks)
    assert all(np.array_equal(a, b) for a, b in zip(frame.components, want))
    assert np.array_equal(frame.effects, stack)
    for c, w in zip(want, frame.effect_blocks):
        gathered = stack[:, c[:, :, None], c[:, None, :]].reshape(group.order, -1)
        if exact:
            assert np.array_equal(w, gathered)
        else:
            assert np.allclose(w, gathered, rtol=0, atol=8 * 2.0**-52 * np.abs(stack).max())
    assert frame.is_ideal == bool(np.all(np.abs(stack @ stack - stack) <= tol))
    mats = [np.asarray(u) for u in rep.matrices]
    gaps = [
        np.linalg.norm(stack[group.mult[s]] - mats[s] @ stack @ mats[s].conj().T, axis=(1, 2)).max()
        for s in group.generators
    ]
    gap, size = frame.covariance
    assert np.isclose(gap, max(gaps, default=0.0), rtol=0, atol=1e-14)
    assert np.isclose(size, np.linalg.norm(stack, axis=(1, 2)).max(), rtol=1e-14, atol=0)
    assert not frame.seed.flags.writeable


@settings(max_examples=40, deadline=None)
@given(case=cyclic_monomial_reps(), seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.2, 1.0]))
def test_seed_held_frames_of_monomial_cyclic_reps_match_their_translates(case, seed, density):
    n, mats = case
    rep = unitary_rep(build_cyclic_group(n), mats)
    a = sparse_positive(np.random.default_rng(seed), rep.dim, density)
    frame = principal_frame_from_seed(rep, twirled_seed(mats, a))
    assert_matches_the_translated_stack(frame, exact=rep.phases is None)


@pytest.mark.parametrize("n", [3, 4])
def test_seed_held_frames_of_symmetric_groups_match_their_translates(n):
    group = build_symmetric_group(n)
    rng = np.random.default_rng(n)
    regular = regular_representation(group)
    frames = [canonical_ideal_frame(group), smeared_canonical_frame(group, 0.3)]
    for rep in (regular, unitary_rep(group, permutation_matrices(n)), unitary_rep(group, standard_matrices(n))):
        mats = [np.asarray(u) for u in rep.matrices]
        for density in (0.1, 1.0):
            seed = twirled_seed(mats, sparse_positive(rng, rep.dim, density))
            frames.append(principal_frame_from_seed(rep, seed))
    for frame in frames:
        assert_matches_the_translated_stack(frame, exact=frame.rep.perms is not None)
    assert frames[0].is_ideal and not frames[1].is_ideal


def test_frames_from_effects_keep_the_seed_of_their_family():
    smeared = smeared_canonical_frame(s3(), 0.3)
    again = frame_from_effects(smeared.rep, list(smeared.effects), smeared.value_system)
    assert np.array_equal(again.seed, smeared.seed)
    assert np.array_equal(again.effects, smeared.effects)
    assert again.covariance == smeared.covariance and not again.is_ideal


def test_s5_canonical_frame_peaks_under_8_mib():
    # its effect stack alone is 120^3 complex entries, 26.4 MiB
    frame, peak = traced_peak(lambda: canonical_ideal_frame(build_symmetric_group(5)))
    assert frame.is_ideal and len(frame.components) == 1 and frame.components[0].shape == (120, 1)
    assert peak < 8 * 2**20


def test_relativization_never_builds_the_effect_stack():
    def refuse(self):
        raise AssertionError("effect stack requested")

    group = s3()
    system = full_system(unitary_rep(group, permutation_matrices(3)))
    with mock.patch.object(FrameObservable, "effects", property(refuse)):
        for frame in (canonical_ideal_frame(group), smeared_canonical_frame(group, 0.3)):
            rel = build_relative_subspace(frame, system)
            rmap = relativization_map(frame, system)
            assert check_channel_axioms(rmap).passed
            assert check_ideal_isomorphism(rmap).consistent_with_ideality
            assert rel.space.dim + rel.kernel.dim == 9
            assert (rel.space.dim, rel.kernel.dim) == (9, 0) or not frame.is_ideal


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


def test_covariance_failure_names_the_first_pair(monkeypatch):
    ideal = _cyclic_ideal(4)
    e = ideal.effects
    effects = [e[0], e[1], e[3], e[2]]  # sums to I, but 1.E(1) = E(2) is not E(3)
    g, h, dev = _first_failing_pair(ideal, effects, 1e-9)
    assert (g, h) == (1, 1)
    label = ideal.group.label
    # the elements g come in one run, then one element per run
    for working_set in (None, 1):
        if working_set is not None:
            monkeypatch.setattr(framerel.linalg, "WORKING_SET", working_set)
        with pytest.raises(FrameInvalid) as err:
            frame_from_effects(ideal.rep, effects, ideal.value_system)
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


def test_seed_covariance_failure_names_the_first_pair():
    # Z4 on C^4 by its regular rep, with element 2 (not the generator 1)
    # carrying an extra phase e^(i theta) on basis vector 3.  The seed's
    # off-diagonal entries, c at offset 1 and -c at offset -1, miss row 3,
    # so its translates still sum to I exactly; but 2.(1.E0) has -c in row
    # 3, and the phase moves it by about c theta > tol, so the loop over
    # the pairs names the first one, as the strict loop finds it.
    group, tol, c, theta = build_cyclic_group(4), 1e-9, 0.1, 1e-7
    mats = [np.asarray(u) for u in regular_representation(group).matrices]
    mats[2] = mats[2] @ np.diag([1, 1, 1, np.exp(1j * theta)])
    rep = unitary_rep(group, mats, tol=1e-6)
    seed = np.eye(4, dtype=complex) / 4
    seed[0, 1] = seed[1, 0] = c
    seed[1, 2] = seed[2, 1] = -c
    effects = [u @ seed @ u.conj().T for u in mats]
    assert max_abs(sum(effects) - np.eye(4)) == 0.0
    g, h, dev = _first_failing_pair(SimpleNamespace(group=group, rep=rep), effects, tol)
    with pytest.raises(FrameInvalid) as err:
        principal_frame_from_seed(rep, seed, tol=tol)
    label = group.label
    assert str(err.value) == f"covariance fails at pair ({label(g)}, {label(h)}) (deviation {dev:.3e})"


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
    # the same channel behind the identity, as a chain, fails the same way
    chain = compose_channels(channel, identity_channel(vs, tol))
    assert chain.factors == (channel,)
    with pytest.raises(EffectSpanNotEquivariant) as chained:
        build_frame_morphism(ideal, ideal, chain, tol)
    assert chained.value.element == first
    assert abs(chained.value.deviation - err.value.deviation) < 1e-15


def test_chains_are_checked_for_factorization():
    ideal = _cyclic_ideal(4)
    vs = ideal.value_system
    swap = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    channel = build_channel(vs, vs, _conjugation_images(ideal, swap))
    chain = compose_channels(identity_channel(vs), channel)
    assert chain.factors == (channel,) and chain.positivity_check == "structure"
    with pytest.raises(FactorizationFails) as explicit:
        build_frame_morphism(ideal, ideal, channel)
    with pytest.raises(FactorizationFails) as chained:
        build_frame_morphism(ideal, ideal, chain)
    assert chained.value.element == explicit.value.element == 2
    assert chained.value.deviation == explicit.value.deviation


# Each term of the frame-morphism bound (1 + r^2) max ||f|| + Phi C + C',
# and the proper-source guard, is the one that lifts the bound over tol
# in one Z2 case; without it the element table would be skipped.


def test_the_channel_gain_term_sends_a_morphism_to_the_element_table():
    # U(1) = [[0, 1.05], [1, 0]] is a rep within tol = 0.2 whose square is
    # 1.05 I, so the source frame's covariance bound is C = 0.113.  The
    # explicit identity to the Z2 canonical frame has Phi = 2 and f = 0:
    # Phi C > tol >= C, so only Phi sends it to the table, which finds
    # the defect 0.1025 within tol
    tol, z2 = 0.2, build_cyclic_group(2)
    source = principal_frame_from_seed(unitary_rep(z2, [I2, np.array([[0, 1.05], [1, 0]])], tol), E00, tol=tol)
    target = canonical_ideal_frame(z2, tol)
    channel = build_channel(source.value_system, target.value_system, matrix_units(2), tol)
    assert channel.hs_gain() == 2.0
    table = mock.Mock(wraps=frames_module._equivariance_table)
    with mock.patch.object(frames_module, "_equivariance_table", table):
        morphism = build_frame_morphism(source, target, channel, tol)
    assert morphism.channel is channel and table.call_count == 1


def test_the_target_norm_term_sends_a_morphism_to_the_element_table():
    # U(1) = [[0, 1.1], [1/1.1, 0]] is a homomorphism, unitary within
    # tol = 0.25, with nu = r = 1.1.  Between its frames of seeds E00 and
    # diag(0.918, 0.082) the identity leaves residuals of HS norm at most
    # F = 0.120: 2 F <= tol < (1 + r^2) F, so only r sends the identity to
    # the table, which finds nothing
    tol, z2 = 0.25, build_cyclic_group(2)
    rep = unitary_rep(z2, [I2, np.array([[0, 1.1], [1 / 1.1, 0]])], tol)
    vs = full_system(rep, tol)
    source = principal_frame_from_seed(rep, E00, vs, tol)
    target = principal_frame_from_seed(rep, np.diag([0.918, 0.082]), vs, tol)
    table = mock.Mock(wraps=frames_module._equivariance_table)
    with mock.patch.object(frames_module, "_equivariance_table", table):
        morphism = build_frame_morphism(source, target, identity_channel(vs, tol), tol)
    assert morphism.target is target and table.call_count == 1


def test_the_proper_source_guard_sends_a_morphism_to_the_element_table():
    # U(1) = exp(-i theta X) X is a rep within tol = 1e-3 that keeps
    # span{I, Z} within tol.  The seed's Y part puts its translate 0.97 tol
    # off the span, and the covariance defect carries 1.E(1) 1.09 tol off:
    # the bound 2 C = 0.68 tol passes, the guard (0.97 + 0.34) tol does
    # not, and the table's ``apply`` finds the translate outside the span
    tol, theta, phi = 1e-3, -1.2e-4, 1.7e-3
    rep = unitary_rep(build_cyclic_group(2), [I2, (np.cos(theta) * I2 - 1j * np.sin(theta) * X) @ X], tol)
    vs = system_from_subspace(rep, span_subspace([I2, Z]), tol)
    frame = principal_frame_from_seed(rep, (I2 + np.cos(phi) * Z + np.sin(phi) * Y) / 2, vs, tol)
    with pytest.raises(OperatorOutsideSystem) as err:
        build_frame_morphism(frame, frame, identity_channel(vs, tol), tol)
    assert err.value.residual > tol


def _morphism_cases(group):
    """``(source, target, channel)`` of the identity, smearing and composite
    morphisms of a group's canonical frame, the channels built beforehand."""
    ideal = canonical_ideal_frame(group)
    vs, d = ideal.value_system, group.order

    def smeared(lam):
        return principal_frame_from_seed(ideal.rep, (1 - lam) * ideal.seed + lam * np.eye(d) / d)

    first, second = depolarizing_channel(vs, 0.3), depolarizing_channel(vs, 0.5)
    return [
        (ideal, ideal, identity_channel(vs)),
        (ideal, smeared(0.3), first),
        (ideal, smeared(1 - 0.7 * 0.5), compose_channels(second, first)),
    ]


@pytest.mark.parametrize(
    "group",
    [*map(build_cyclic_group, (1, 2, 3, 4)), build_symmetric_group(3), build_symmetric_group(4)],
    ids=["Z1", "Z2", "Z3", "Z4", "S3", "S4"],
)
def test_frame_morphisms_are_decided_by_one_apply(group):
    # factorization and covariance decide equivariance: one ``apply`` of the
    # seeds' translates per working set of elements, no ``act`` and no
    # element table.  Up to S3 the group is one run; S4's 24 effects of
    # 24 x 24 entries take two
    def refuse(*args, **kwargs):
        raise AssertionError("act or element table entered")

    runs = []

    def counted(*args, **kwargs):
        for run in chunks(*args, **kwargs):
            runs.append(run)
            yield run

    for source, target, channel in _morphism_cases(group):
        runs.clear()
        with (
            mock.patch.object(ChannelMap, "apply", autospec=True, side_effect=ChannelMap.apply) as apply,
            mock.patch.object(frames_module, "chunks", counted),
            mock.patch.object(frames_module, "act", refuse),
            mock.patch.object(groups_module, "act", refuse),
            mock.patch.object(frames_module, "_equivariance_table", refuse),
        ):
            morphism = build_frame_morphism(source, target, channel)
        assert morphism.channel is channel
        assert apply.call_count == len(runs) == (2 if group.order == 24 else 1)


def test_identity_morphism_on_z16_peaks_under_one_mib():
    # the matrix units of the full Z16 value system alone take 1 MiB; the
    # identity is the empty chain and builds neither them nor a Choi matrix
    frame = _cyclic_ideal(16)
    with refusing_chain_images():
        ident, peak = traced_peak(lambda: identity_frame_morphism(frame))
    assert ident.channel.factors == ()
    assert peak < 2**20


def test_identity_morphism_keeps_the_sampling_settings():
    # the identity is the empty chain, certified "structure" on a proper
    # value system too; it records samples/seed, and a composite starting
    # on it with a sampled factor samples with them
    vs = subspace_system(z2_flip_rep(), [Z])
    frame = frame_from_effects(z2_flip_rep(), [E00, E11], vs)
    assert not vs.is_full_algebra
    sampled = build_channel(vs, vs, list(vs.space.basis), samples=2, seed=1)
    for samples, seed in ((3, 7), (5, 11)):
        channel = identity_frame_morphism(frame, samples=samples, seed=seed).channel
        assert channel.positivity_check == "structure" and channel.factors == ()
        assert (channel.positivity_samples, channel.positivity_seed) == (samples, seed)
        both = compose_channels(sampled, channel)
        assert (both.positivity_check, both.positivity_samples, both.positivity_seed) == (
            "sampled",
            samples,
            seed,
        )


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


# ------------------------------------------------------ read through the seed


def _mixed_permutation_frame(n, b):
    """A frame on the n-dim permutation rep of S_n: (1 - lam) E_00 / (n-1)! +
    lam I / n!, lam = 0.3, plus i b (E_01 - E_10).  The twirl of an
    off-diagonal entry (i, j) is (n-2)! (J - I), so entries that sum to
    zero leave the translates summing to I."""
    group = build_symmetric_group(n)
    rep = unitary_rep(group, permutation_matrices(n))
    seed = 0.7 * proj(ket(0, n)) / (group.order // n) + 0.3 * np.eye(n) / group.order
    seed[0, 1], seed[1, 0] = 1j * b, -1j * b
    return principal_frame_from_seed(rep, seed)


def _seed_read_frames():
    """Frames on every storage a frame is read through: phased Z_n reps, the
    dense S3 irrep, and S3/S4 permutation and regular reps."""
    irrep = s3_irrep2()
    frames = [principal_frame_from_seed(zn_phase_rep(n), (I2 + 0.5 * X) / n) for n in (3, 4, 6)]
    frames.append(principal_frame_from_seed(irrep, (0.7 * proj(ket(0, 2)) + 0.15 * I2) / 3))
    frames += [_mixed_permutation_frame(3, 0.1), _mixed_permutation_frame(4, 0.03)]
    frames += [canonical_ideal_frame(s3()), smeared_canonical_frame(build_symmetric_group(4), 0.3)]
    return frames


SEED_READ_IDS = ["Z3-phases", "Z4-phases", "Z6-phases", "S3-irrep", "S3-perm", "S4-perm", "S3-regular", "S4-regular"]


def _smeared_twin(frame, nu):
    """The frame of (1 - nu) E(e) + nu I/|G|, whose effects are the depolarized
    (1 - nu) E(g) + nu tr(E(g)) I/d of ``frame``'s: tr(E(g)) = d/|G|."""
    d, order = frame.rep.dim, frame.group.order
    return principal_frame_from_seed(frame.rep, (1 - nu) * frame.seed + nu * np.eye(d) / order)


@pytest.mark.parametrize("index", range(8), ids=SEED_READ_IDS)
def test_born_weights_match_the_stack_oracle(index):
    frame = _seed_read_frames()[index]
    stack = effect_stack(frame)
    rng = np.random.default_rng(index)
    for rho in (random_density(rng, frame.rep.dim), np.eye(frame.rep.dim) / frame.rep.dim):
        want = np.einsum("gij,ji->g", stack, rho)
        assert max_abs(want.imag) < 1e-14
        assert max_abs(born_measure(frame, rho) - want.real) < 1e-14


@pytest.mark.parametrize("index", range(8), ids=SEED_READ_IDS)
def test_frame_equality_matches_the_stack_oracle(index):
    frame, tol = _seed_read_frames()[index], 1e-9
    again = principal_frame_from_seed(frame.rep, frame.seed.copy(), frame.value_system)
    assert again is not frame and same_frame(frame, again, tol)
    # 2 tol on one diagonal entry: a frame within 1e-6, and E(g) - E'(g)
    # reaches 2 tol at g = e at least
    seed = frame.seed.copy()
    seed[1, 1] += 2 * tol
    moved = principal_frame_from_seed(frame.rep, seed, tol=1e-6)
    gap = max_abs(effect_stack(frame) - effect_stack(moved))
    assert 2 * tol * (1 - 1e-6) < gap < 2 * tol * (1 + 1e-6)
    assert not same_frame(frame, moved, tol) and not same_frame(moved, frame, tol)
    assert same_frame(frame, moved, 2 * gap)
    assert not same_frame(frame, _smeared_twin(frame, 0.4), tol)


@pytest.mark.parametrize("index", range(8), ids=SEED_READ_IDS)
def test_reorientation_targets_match_the_stack_oracle(index):
    frame, tol = _seed_read_frames()[index], 1e-9
    group, stack = frame.group, effect_stack(frame)
    mats = np.stack(frame.rep.matrices)
    for h in range(group.order) if group.order <= 6 else (0, 1):
        family = stack[group.mult[h]]  # E(h g) at row g
        moved = mats[:, None] @ family[None] @ np.conj(mats[:, None]).swapaxes(-1, -2)
        covariant = max_abs(moved - family[group.mult]) <= tol  # g.F(k) against F(g k)
        assert covariant == group.is_central(h)  # each of these frames tells the elements apart
        if not covariant:
            with pytest.raises(NotCentral):
                reorientation_morphism(frame, h)
            continue
        target = reorientation_morphism(frame, h).target
        assert max_abs(effect_stack(target) - family) < 1e-14
        # the principal frame of h.E(e) is the frame validated from the
        # whole family, bit for bit
        translated = translates(frame.rep, frame.seed, group.mult[h])
        oracle = frame_from_effects(frame.rep, translated, frame.value_system)
        assert np.array_equal(target.seed, oracle.seed) and target.covariance == oracle.covariance
        assert len(target.effect_blocks) == len(oracle.effect_blocks)
        assert all(np.array_equal(a, b) for a, b in zip(target.effect_blocks, oracle.effect_blocks))


def test_reorientation_raises_not_central_exactly_off_the_centre(monkeypatch):
    # the target comes from the seed alone: no family is validated, and a
    # non-central h fails the factorization, raised as NotCentral
    def refuse(*args, **kwargs):
        raise AssertionError("a translated family was validated")

    monkeypatch.setattr(frames_module, "frame_from_effects", refuse)
    s4 = build_symmetric_group(4)
    frames = [canonical_ideal_frame(s3()), canonical_ideal_frame(s4), smeared_canonical_frame(s4, 0.3)]
    frames.append(_mixed_permutation_frame(4, 0.03))
    for frame in frames:
        group = frame.group
        for h in range(group.order):
            if group.is_central(h):
                assert same_frame(reorientation_morphism(frame, h).target, frame)
                continue
            with pytest.raises(NotCentral) as err:
                reorientation_morphism(frame, h)
            assert err.value.element == h and isinstance(err.value.__cause__, FactorizationFails)


def test_identity_morphism_is_built_without_validation(monkeypatch):
    # the identity factors every frame through itself by construction, on
    # cyclic and symmetric groups and on a proper value system alike
    def refuse(*args, **kwargs):
        raise AssertionError("the identity morphism was validated")

    monkeypatch.setattr(frames_module, "build_frame_morphism", refuse)
    vs = subspace_system(z2_flip_rep(), [Z])
    s4 = build_symmetric_group(4)
    frames = [_cyclic_ideal(n) for n in (2, 5, 8)]
    frames += [canonical_ideal_frame(s3()), canonical_ideal_frame(s4), smeared_canonical_frame(s4, 0.3)]
    frames.append(frame_from_effects(z2_flip_rep(), [E00, E11], vs))
    for frame in frames:
        ident = identity_frame_morphism(frame, samples=3, seed=5)
        assert ident.source is frame and ident.target is frame
        channel = ident.channel
        assert channel.factors == () and channel.source is frame.value_system
        assert (channel.positivity_check, channel.positivity_samples, channel.positivity_seed) == ("structure", 3, 5)
    # S5: the identity chain's unital check alone, two 120 x 120 operators
    frame = canonical_ideal_frame(build_symmetric_group(5))
    ident, peak = traced_peak(lambda: identity_frame_morphism(frame))
    assert ident.target is frame and peak < 2**20


@pytest.mark.parametrize("index", range(8), ids=SEED_READ_IDS)
def test_factorization_deviations_match_the_stack_oracle(index):
    frame, tol = _seed_read_frames()[index], 1e-9
    stack, d = effect_stack(frame), frame.rep.dim
    channel = depolarizing_channel(frame.value_system, 0.4)
    mapped = 0.6 * stack + 0.4 * np.einsum("gii->g", stack)[:, None, None] * np.eye(d) / d
    morphism = build_frame_morphism(frame, _smeared_twin(frame, 0.4), channel, tol)
    assert max_abs(mapped - effect_stack(morphism.target)) <= tol
    devs = np.abs(mapped - effect_stack(_smeared_twin(frame, 0.5))).max(axis=(1, 2))
    first = int(np.flatnonzero(devs > tol)[0])
    with pytest.raises(FactorizationFails) as err:
        build_frame_morphism(frame, _smeared_twin(frame, 0.5), channel, tol)
    assert err.value.element == first
    assert abs(err.value.deviation - devs[first]) < 1e-14


def test_factorization_witness_in_a_later_run_matches_the_stack_oracle():
    # S4's 24 effects of 24 x 24 entries take two runs of ``chunks``; a
    # swap of basis vectors 20 and 21 first fails in the second
    ideal = canonical_ideal_frame(build_symmetric_group(4))
    swap = np.eye(24, dtype=complex)[[*range(20), 21, 20, 22, 23]]
    channel = build_channel(ideal.value_system, ideal.value_system, _conjugation_images(ideal, swap))
    stack = effect_stack(ideal)
    devs = np.abs(swap @ stack @ swap.T - stack).max(axis=(1, 2))
    assert len(list(chunks(24, 24 * 24))) == 2 and np.flatnonzero(devs > 1e-9).tolist() == [20, 21]
    with pytest.raises(FactorizationFails) as err:
        build_frame_morphism(ideal, ideal, channel)
    assert (err.value.element, err.value.deviation) == (20, 1.0)


def test_s5_frame_reads_peak_under_a_few_mib():
    # the S5 effect stack alone is 120^3 complex entries, 26.4 MiB; each
    # read holds a working set of translates, or none
    group = build_symmetric_group(5)
    frame, twin = canonical_ideal_frame(group), canonical_ideal_frame(group)
    rho = np.eye(120, dtype=complex) / 120
    ident, peak = traced_peak(lambda: identity_frame_morphism(frame))
    assert ident.target is frame and peak < 4 * 2**20
    weights, peak = traced_peak(lambda: born_measure(frame, rho))
    assert max_abs(weights - 1 / 120) < 1e-15 and peak < 2 * 2**20
    same, peak = traced_peak(lambda: same_frame(frame, twin))
    assert same and twin.rep is not frame.rep and peak < 2 * 2**20
