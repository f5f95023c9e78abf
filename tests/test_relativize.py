"""The relativization map, its laws, and induced maps between frames."""

import importlib
import itertools
import pathlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framerel.linalg
import framerel.systems
from framerel.errors import (
    ChannelNotEquivariant,
    GroupMismatch,
    IllDefined,
    NotAState,
    ObjectMismatch,
    OperatorOutsideSystem,
    RequiresFullAlgebra,
)
from framerel.frames import (
    born_measure,
    build_frame_morphism,
    canonical_ideal_frame,
    compose_frame_morphisms,
    frame_from_effects,
    identity_frame_morphism,
    principal_frame_from_seed,
    reorientation_morphism,
)
from framerel.groups import (
    act,
    build_cyclic_group,
    build_symmetric_group,
    regular_representation,
    translates,
    trivial_rep,
    unitary_rep,
)
from framerel.linalg import (
    MatrixSubspace,
    block_min_eigenvalues,
    diagonal_blocks,
    matrix_units,
    max_abs,
    operator_norm,
    psd_span_samples,
    tensor_product,
    widen_partition,
)
from framerel.relativize import (
    build_relative_subspace,
    check_channel_axioms,
    check_equivariant_tensor_form,
    check_functor_laws,
    check_ideal_isomorphism,
    check_naturality,
    external_frame_transform,
    predual_relativize,
    product_relative_state,
    relativization_map,
    relativize,
    relativize_morphisms,
    Workspace,
    _pair_products,
    _pair_right,
    _relativize_stack,
    _tensor_images,
)
from framerel.scenario import parse_scenario
from framerel.systems import (
    DEFAULT_POSITIVITY_SAMPLES,
    DEFAULT_POSITIVITY_SEED,
    _choi_matrix,
    build_channel,
    compose_channels,
    conjugation_channel,
    full_system,
    identity_channel,
    is_invariant,
    is_vn_algebra,
    predual_channel,
    state_class,
    subspace_system,
)

from .test_acceptance import _chains as acceptance_chains
from .support import (
    H,
    I2,
    X,
    Y,
    Z,
    ampliation_channel,
    commutation_deviation,
    dense_induced_matrix,
    dense_law_values,
    dense_relativize,
    depolarizing_channel,
    kernel_bound,
    ket,
    predual_loop,
    proj,
    psd_span_samples_loop,
    random_density,
    random_span_element,
    relativized_dense,
    s3,
    s3_irrep2,
    smeared_canonical_frame,
    smearing_morphism,
    traced_peak,
    unlocalized_canonical_frame,
    z2,
    z2_flip_rep,
    z2_ideal_frame,
    z2_smeared_frame,
    z2_smearing_morphism,
    zn_phase_rep,
    z2_unlocalized_frame,
    zn_phase_rep,
)
from .strategies import cyclic_monomial_reps, group_reps, permutation_matrices


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
RELATIVIZE = importlib.import_module("framerel.relativize")  # the attribute is the function


# ------------------------------------------------------------------ oracles


def relative_state_oracle(frame, system, mu, rho):
    """Weighted average of inverse-rotated copies of rho."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for g in frame.rep.group.elements():
        ginv = int(frame.rep.group.inverse[g])
        u = system.rep.matrices[ginv]
        out += mu[g] * (u @ rho @ np.conj(u).T)
    return out


def qubit():
    return full_system(z2_flip_rep())


# ------------------------------------------------------------- closed forms


def rotated_frame(frame, v):
    """The frame carried through the fixed unitary v: rep v U(g) v^dag,
    effects v E(g) v^dag.  Still covariant, with dense effect support."""
    rep = unitary_rep(frame.group, [v @ u @ np.conj(v).T for u in frame.rep.matrices])
    return frame_from_effects(rep, [v @ e @ np.conj(v).T for e in frame.effects])


def test_relativize_stack_matches_the_kron_loop():
    # one matrix product over the group per block size: exact where every
    # sum has one nonzero term (the canonical ideal frame), within the
    # rounding bound of a sum over |G| terms elsewhere
    rep = s3_irrep2()
    rng = np.random.default_rng(3)
    full, plane = full_system(rep), subspace_system(rep, [proj(ket(0, 2))])
    assert plane.space.dim < full.space.dim
    perm = full_system(regular_representation(s3()))
    assert perm.rep.perms is not None
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    dense = rotated_frame(smeared_canonical_frame(s3(), 0.3), v)
    assert np.all(np.any(np.stack(dense.effects) != 0, axis=0))  # support is every block
    ideal = canonical_ideal_frame(s3())
    for frame in (ideal, smeared_canonical_frame(s3(), 0.3), dense):
        for system in (full, plane, perm):
            n = system.space.dim
            coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ops = np.stack(list(system.space.basis) + [system.space.combine(coeff)])
            got = relativized_dense(frame, system, ops)
            assert got.shape == (n + 1, 6 * system.dim, 6 * system.dim)
            bound = kernel_bound(frame, ops)
            for a, out in zip(ops, got):
                if frame is ideal:
                    assert np.array_equal(out, dense_relativize(frame, system, a))
                else:
                    assert max_abs(out - dense_relativize(frame, system, a)) <= bound


@settings(max_examples=30, deadline=None)
@given(cyclic_monomial_reps(), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_relativize_stack_matches_the_kron_loop_on_generated_reps(rep, lam, seed):
    # a monomial system rep of Z_n with root-of-unity phases against the
    # canonical ideal frame (exact), a smeared one and the smeared one
    # carried through a random unitary, whose effects are dense; the loop
    # adds E(g) (x) g.a for the same translates g.a
    n, mats = rep
    group = build_cyclic_group(n)
    system = full_system(unitary_rep(group, mats))
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    ideal, smeared = canonical_ideal_frame(group), smeared_canonical_frame(group, lam)
    shape = (2, system.space.dim)
    ops = system.space.combine(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    moved = translates(system.rep, ops)
    for frame in (ideal, smeared, rotated_frame(smeared, v)):
        got = relativized_dense(frame, system, ops)
        for k, out in enumerate(got):
            expected = sum(np.kron(e, m) for e, m in zip(frame.effects, moved[:, k]))
            if frame is ideal:
                assert np.array_equal(out, expected)
            else:
                assert max_abs(out - expected) <= kernel_bound(frame, ops)


def test_relativize_stack_takes_translates_a_few_elements_at_a_time(monkeypatch):
    # a qubit-valued Z8 frame has one 2 x 2 support block, 4 entries for 8
    # elements; with no working set beyond the product held the
    # translates come in runs of 4 elements, and the accumulated sum is
    # the loop over act within the rounding bound, on a phased and on a
    # permutation system
    monkeypatch.setattr(framerel.linalg, "WORKING_SET", 1)
    runs = []

    def recorded(rep, a, elements=slice(None)):
        runs.append(elements)
        return translates(rep, a, elements)

    monkeypatch.setattr(RELATIVIZE, "translates", recorded)
    value = zn_phase_rep(8)
    frame = principal_frame_from_seed(value, np.full((2, 2), 1 / 8, dtype=complex))
    for system in (full_system(zn_phase_rep(8)), full_system(regular_representation(value.group))):
        ops = system.space.basis_stack
        runs.clear()
        got = relativized_dense(frame, system, ops)
        assert runs == [slice(0, 4), slice(4, 8)]
        for a, out in zip(ops, got):
            expected = np.zeros_like(out)
            for g in value.group.elements():
                expected += np.kron(frame.effects[g], act(system.rep, g, a))
            assert max_abs(out - expected) <= kernel_bound(frame, ops)


def test_relativize_stack_holds_no_more_translates_than_blocks():
    # Z16 qubit frame against the 16-dim regular system: 4 blocks of the
    # 256 basis operators take 4 MiB, the output 4 MiB, and all 16
    # translates at once would take 16 MiB more
    value = zn_phase_rep(16)
    frame = principal_frame_from_seed(value, np.full((2, 2), 1 / 16, dtype=complex))
    system = full_system(regular_representation(value.group))
    ops = system.space.basis_stack
    _, peak = traced_peak(lambda: _relativize_stack(frame, system, ops))
    assert peak < 16 * 2**20


def test_map_images_are_assembled_on_each_request_and_never_kept():
    # the dense stack is the blocks scattered along the partition, read-only,
    # a fresh array on every request, and the map keeps no copy of it
    system = full_system(s3_irrep2())
    rmap = relativization_map(smeared_canonical_frame(s3(), 0.3), system)
    first, second = rmap.images, rmap.images
    assert first is not second and np.array_equal(first, second)
    assert not first.flags.writeable
    assert np.array_equal(first, relativized_dense(rmap.frame, system, system.space.basis_stack))
    assert not hasattr(rmap, "_images")


def test_ideal_frame_closed_forms():
    fr = z2_ideal_frame()
    sq = qubit()
    assert max_abs(relativize(fr, sq, Z) - tensor_product(Z, Z)) < 1e-12
    assert max_abs(relativize(fr, sq, X) - tensor_product(I2, X)) < 1e-12
    assert max_abs(relativize(fr, sq, I2) - np.eye(4)) < 1e-12
    for a in (Z, X, Y, proj(ket(0, 2))):
        assert max_abs(relativize(fr, sq, a) - dense_relativize(fr, sq, a)) < 1e-13


def test_smeared_frame_shrinks_the_z_component():
    sq = qubit()
    # seed diag(1 - lam/2, lam/2): E(0) - E(1) = (1 - lam) Z
    for lam, factor in ((0.25, 0.75), (0.5, 0.5), (1.0, 0.0)):
        fr = z2_smeared_frame(lam)
        got = relativize(fr, sq, Z)
        assert max_abs(got - factor * tensor_product(Z, Z)) < 1e-12
        assert abs(operator_norm(got) - factor) < 1e-9
        # the X direction is untouched regardless of smearing
        assert max_abs(relativize(fr, sq, X) - tensor_product(I2, X)) < 1e-12


def test_unlocalized_frame_kills_the_odd_directions():
    fr = z2_unlocalized_frame()
    sq = qubit()
    assert max_abs(relativize(fr, sq, Z)) < 1e-12
    assert max_abs(relativize(fr, sq, Y)) < 1e-12
    assert max_abs(relativize(fr, sq, X) - tensor_product(I2, X)) < 1e-12


def test_relativize_validates_inputs():
    fr = z2_ideal_frame()
    with pytest.raises(OperatorOutsideSystem):
        relativize(fr, subspace_system(z2_flip_rep(), [Z]), X)
    with pytest.raises(GroupMismatch):
        relativization_map(fr, full_system(s3_irrep2()))


# -------------------------------------------------------- relative subspace


def test_relative_subspace_dimensions_rank_nullity():
    cases = [
        (z2_ideal_frame(), qubit(), 4, 0),
        (z2_smeared_frame(0.5), qubit(), 4, 0),
        (z2_unlocalized_frame(), qubit(), 2, 2),
        (unlocalized_canonical_frame(s3()), full_system(s3_irrep2()), 1, 3),
    ]
    for fr, sq, want_dim, want_kernel in cases:
        rel = build_relative_subspace(fr, sq)
        assert rel.space.dim == want_dim
        assert rel.kernel.dim == want_kernel
        assert rel.space.dim + rel.kernel.dim == sq.space.dim


def test_unlocalized_kernel_content():
    rel = build_relative_subspace(z2_unlocalized_frame(), qubit())
    assert rel.kernel.contains(Z)
    assert rel.kernel.contains(Y)
    assert not rel.kernel.contains(X)
    # image is spanned by I (x) I and I (x) X
    assert rel.space.contains(np.eye(4, dtype=complex))
    assert rel.space.contains(tensor_product(I2, X))


def test_relative_subspace_as_system_is_invariant():
    rel = build_relative_subspace(z2_smeared_frame(0.5), qubit())
    joint = rel.as_system
    assert joint.space.dim == 4
    for b in joint.space.basis:
        for g in joint.group.elements():
            assert max_abs(act(joint.rep, g, b) - b) < 1e-11


# ------------------------------------------------------------ channel axioms


def test_channel_axioms_hold_across_frames():
    sq = qubit()
    frames = [
        z2_ideal_frame(),
        z2_smeared_frame(0.25),
        z2_unlocalized_frame(),
    ]
    for fr in frames:
        rep = check_channel_axioms(relativization_map(fr, sq))
        assert rep.passed
        assert rep.max_deviation < 1e-9
        assert rep.detail.startswith("positivity choi; ")
        assert rep.deviations["positivity"] < 1e-9  # the negated smallest Choi eigenvalue
        assert rep.deviations["contraction"] <= 1e-9


def test_channel_axioms_on_proper_subspace_samples_only():
    fr = z2_ideal_frame()
    diag = subspace_system(z2_flip_rep(), [Z])
    rep = check_channel_axioms(relativization_map(fr, diag))
    assert rep.passed
    samples_used = re.match(r"positivity sampled over (\d+) inputs;", rep.detail)
    assert samples_used is not None
    assert int(samples_used.group(1)) == len(psd_span_samples(diag.space, 12, 7))


def test_stacked_psd_samples_equal_the_per_candidate_loop_bit_for_bit():
    # the loop draws count normal rows of n one at a time, the stack one
    # (count, n) array: with count > 0 this also pins that they are one stream
    z4 = build_cyclic_group(4)
    perm3 = _permutation_system(s3(), 3).rep
    e01 = np.zeros((3, 3), dtype=complex)
    e01[0, 1] = e01[1, 0] = 1.0
    spaces = [
        subspace_system(z2_flip_rep(), [Z]).space,
        subspace_system(perm3, [np.diag([1.0, 0.0, 0.0]), e01]).space,
        build_relative_subspace(
            smeared_canonical_frame(z4, 0.5), full_system(zn_phase_rep(4))
        ).space,
    ]
    assert [space.is_full for space in spaces] == [False] * 3
    for space in spaces:
        for count, seed in [(0, 7), (3, 0), (16, 7), (12, 11)]:
            stack = psd_span_samples(space, count, seed)
            loop = psd_span_samples_loop(space, count, seed)
            assert stack.shape == (len(loop), space.ambient_dim, space.ambient_dim)
            assert all(np.array_equal(a, b) for a, b in zip(stack, loop))


def test_choi_certificate_of_relativization_on_a_full_span_with_another_basis():
    # span{I, X, Y, Z} is the full qubit algebra; its published basis is
    # Gram-Schmidt, so the Choi matrix must come from the units
    pauli = subspace_system(z2_flip_rep(), [X, Y, Z])
    assert pauli.is_full_algebra and not pauli.space.is_unit_span
    for fr in (z2_ideal_frame(), z2_smeared_frame(0.25)):
        rep = check_channel_axioms(relativization_map(fr, pauli))
        on_units = check_channel_axioms(relativization_map(fr, qubit()))
        assert rep.passed and rep.detail.startswith("positivity choi; ")
        assert abs(rep.deviations["positivity"] - on_units.deviations["positivity"]) < 1e-12


def test_channel_axioms_nonabelian():
    fr = smeared_canonical_frame(s3(), 0.5)
    rep = check_channel_axioms(relativization_map(fr, full_system(s3_irrep2())))
    assert rep.passed
    assert rep.deviations["invariance"] < 1e-12


# ------------------------------------------------------- ideal isomorphism


def test_ideal_frame_gives_multiplicative_embedding():
    rep = check_ideal_isomorphism(relativization_map(z2_ideal_frame(), qubit()))
    assert rep.expected and rep.passed
    assert rep.consistent_with_ideality
    assert rep.deviations["multiplicativity"] < 1e-12
    assert rep.deviations["isometry"] < 1e-12
    assert rep.deviations["adjoint"] < 1e-12


def test_smeared_frame_breaks_multiplicativity_with_witness():
    rep = check_ideal_isomorphism(relativization_map(z2_smeared_frame(0.5), qubit()))
    assert not rep.expected and not rep.passed
    assert rep.consistent_with_ideality  # fails exactly because not ideal
    assert rep.deviations["multiplicativity"] >= 1e-3
    # |0><0| squared: deviation operator (E(0) - E(0)^2) (x) |0><0| has
    # operator norm 3/16 at lambda = 1/2
    assert abs(rep.deviations["multiplicativity"] - 0.1875) < 1e-9
    assert "basis_pair" in rep.witnesses


def test_canonical_s3_frame_embedding_is_isometric():
    rep = check_ideal_isomorphism(
        relativization_map(canonical_ideal_frame(s3()), full_system(s3_irrep2()))
    )
    assert rep.expected and rep.passed and rep.consistent_with_ideality


def _embedding_cases():
    """Ideal and smeared frames against full algebras: S3 on the qubit irrep, S4 on its permutation rep."""
    s4_ideal, s4_smear, s4_system = _s4_frames_and_system()
    s3_system = full_system(s3_irrep2())
    return [
        (canonical_ideal_frame(s3()), s3_system),
        (smeared_canonical_frame(s3(), 0.3), s3_system),
        (s4_ideal, s4_system),
        (s4_smear, s4_system),
    ]


def _same_report(a, b):
    return a == b and repr(a.deviations) == repr(b.deviations)


def test_unit_span_gathers_the_images_the_coefficients_combine():
    # the matrix units held as an explicit basis take the coefficient
    # path; the unit span gathers one image per product and adjoint,
    # and the report is the same bit for bit
    for frame, system in _embedding_cases():
        units = subspace_system(system.rep, list(matrix_units(system.dim)))
        assert system.space.is_unit_span and not units.space.is_unit_span
        assert np.array_equal(units.space.basis_stack, system.space.basis_stack)
        gathered = check_ideal_isomorphism(relativization_map(frame, system))
        combined = check_ideal_isomorphism(relativization_map(frame, units))
        assert _same_report(gathered, combined)


def test_embedding_check_decomposes_every_block_that_matters(monkeypatch):
    # blocks under the largest deviation of the earlier rows less tol are
    # not decomposed, and the report is the one that decomposes them all
    cases = _embedding_cases()
    want = [check_ideal_isomorphism(relativization_map(f, s)) for f, s in cases]
    norms = RELATIVIZE.block_operator_norms
    monkeypatch.setattr(RELATIVIZE, "block_operator_norms", lambda blocks, floor=0.0: norms(blocks))
    for (frame, system), report in zip(cases, want):
        assert _same_report(check_ideal_isomorphism(relativization_map(frame, system)), report)
    assert not want[1].passed and want[1].witnesses and not want[3].passed


def test_ideal_isomorphism_requires_full_algebra():
    fr = z2_ideal_frame()
    with pytest.raises(RequiresFullAlgebra):
        check_ideal_isomorphism(relativization_map(fr, subspace_system(z2_flip_rep(), [Z])))


def test_pair_products_match_the_products_pair_by_pair():
    # one (r k, k) @ (k, n k) product per block against one small product
    # per pair and block; each entry is a k-term sum either way, so they
    # agree within that sum's rounding, on runs of one row, a few rows
    # and all rows, for one and for many blocks
    rng = np.random.default_rng(23)
    for n, m, k in ((16, 24, 4), (5, 1, 6), (3, 7, 2)):
        q = rng.standard_normal((n, m, k, k)) + 1j * rng.standard_normal((n, m, k, k))
        right = _pair_right(q)
        for run in (slice(0, 1), slice(1, 3), slice(0, n)):
            got = _pair_products(q, right, run)
            want = q[run, None] @ q[None]
            assert got.shape == want.shape
            assert max_abs(got - want) <= 4 * k * 2.0**-52 * np.abs(q).max() ** 2


@pytest.mark.parametrize("budget", [1, 2**30])
def test_ideal_isomorphism_reports_alike_at_any_working_set(monkeypatch, budget):
    # one row of pair products per step, or every row at once: the same
    # verdicts and witnesses, and deviations within rounding
    system = full_system(s3_irrep2())
    maps = [relativization_map(f, system) for f in (canonical_ideal_frame(s3()), smeared_canonical_frame(s3(), 0.3))]
    default = [check_ideal_isomorphism(r) for r in maps]
    monkeypatch.setattr(framerel.linalg, "WORKING_SET", budget)
    for rmap, want in zip(maps, default):
        got = check_ideal_isomorphism(rmap)
        assert (got.passed, got.witnesses) == (want.passed, want.witnesses)
        for key, value in want.deviations.items():
            assert abs(got.deviations[key] - value) <= 1e-14
    assert not default[1].passed and default[1].witnesses


# ---------------------------------------------------- block-diagonal spectra


def _off_blocks(stack, partition):
    """A copy of the stack with every diagonal block of the partition zeroed."""
    rest = np.array(stack)
    for idx in partition:
        for rows in idx:
            rest[:, rows[:, None], rows[None, :]] = 0
    return rest


def _dense_support_frames():
    rng = np.random.default_rng(29)
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    return [
        rotated_frame(canonical_ideal_frame(s3()), v),
        rotated_frame(smeared_canonical_frame(s3(), 0.3), v),
    ]


def test_relativized_operators_and_choi_matrices_vanish_off_the_support_blocks():
    system = full_system(s3_irrep2())
    d = system.dim
    frames = [
        canonical_ideal_frame(s3()),
        smeared_canonical_frame(s3(), 0.3),
        unlocalized_canonical_frame(s3()),
        *_dense_support_frames(),
    ]
    for frame in frames:
        images = relativization_map(frame, system).images
        joint = widen_partition(frame.components, d)
        assert max_abs(_off_blocks(images, joint)) == 0.0
        choi = _choi_matrix(images, d)[None]
        # the blocks of C^d (x) joint space that check_channel_axioms lays out:
        # index (k, j) at k D + j, one block of every k with the j of a joint block
        D = frame.rep.dim * d
        choi_parts = tuple(
            (np.arange(d)[:, None] * D + idx[:, None, :]).reshape(len(idx), -1) for idx in joint
        )
        assert max_abs(_off_blocks(choi, choi_parts)) == 0.0
        # the spectrum of the Choi matrix is the union of its block spectra
        spectrum = np.sort(np.concatenate([
            np.linalg.eigvalsh(b).reshape(-1) for b in diagonal_blocks(choi, choi_parts)
        ]))
        dense = np.linalg.eigvalsh(choi[0])
        assert np.max(np.abs(spectrum - dense)) <= 1e-12 * np.max(np.abs(dense))
        low = block_min_eigenvalues(diagonal_blocks(choi, choi_parts))[0]
        assert abs(low - dense[0]) <= 1e-12 * np.max(np.abs(dense))
    # the canonical S3 frame is diagonal: six blocks of d joint indices
    (idx,) = widen_partition(canonical_ideal_frame(s3()).components, d)
    assert idx.shape == (6, d)


def test_dense_support_reports_agree_with_the_dense_calls():
    # a connected effect support is one block: the gather is the identity
    # and every value is the one a dense call per operator gives, up to
    # the kernel's rounding: the images lie within kernel_bound of the
    # Kronecker loop, and an eigenvalue or operator norm moves by at most
    # N times the largest entry of the change on an N x N matrix, the
    # d D Choi matrix being the largest
    system = full_system(s3_irrep2())
    for frame in _dense_support_frames():
        rmap = relativization_map(frame, system)
        assert len(rmap.partition) == 1
        axioms = check_channel_axioms(rmap, samples=5, seed=3)
        embed = check_ideal_isomorphism(rmap)
        dense = dense_law_values(frame, system, samples=5, seed=3)
        bound = system.dim * rmap.joint_dim * kernel_bound(frame, system.space.basis_stack)
        assert axioms.detail.startswith("positivity choi; ")
        for name in ("positivity", "contraction"):
            assert abs(axioms.deviations[name] - dense[name]) <= bound
        for name, value in embed.deviations.items():
            assert abs(value - dense[name]) <= bound
        if not embed.passed:
            assert embed.witnesses == {"basis_pair": list(dense["basis_pair"])}


def _permutation_system(group, n):
    """The full algebra of the n-dim permutation rep of S_n."""
    perm = [np.zeros((n, n), dtype=complex) for _ in group.elements()]
    for g, m in enumerate(perm):
        for k, pk in enumerate(int(c) for c in group.label(g)):
            m[pk, k] = 1.0
    return full_system(unitary_rep(group, perm))


def _s4_frames_and_system():
    """The S4 regular ideal frame, a smearing of it, and the 4-dim permutation algebra."""
    group = build_symmetric_group(4)
    ideal = canonical_ideal_frame(group)
    seed = 0.6 * ideal.effects[group.identity] + 0.4 * np.eye(24) / 24
    smear = frame_from_effects(ideal.rep, [act(ideal.rep, g, seed) for g in group.elements()])
    return ideal, smear, _permutation_system(group, 4)


def test_s4_law_checks_take_no_dense_joint_spectrum(monkeypatch):
    # The S4 regular frame against the 4-dim permutation rep has a 96-dim
    # joint space split into 24 blocks of 4 (Choi blocks of 16).  Every
    # eigenvalue and singular-value call must stay within one block.  The
    # system is a full algebra, so positivity is the Choi certificate
    # alone: no PSD samples, so no Hermitian basis and no SVD with vectors.
    ideal, smear, system = _s4_frames_and_system()
    maps = [relativization_map(f, system) for f in (ideal, smear)]

    spectra, kernels = [], []
    impl = importlib.import_module(np.linalg.norm.__module__)
    eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd

    def recording_eigvalsh(a, *args, **kwargs):
        spectra.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def recording_svd(a, *args, **kwargs):
        (kernels if kwargs.get("compute_uv", True) else spectra).append(np.shape(a))
        return svd(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("Hermitian basis of a full system")

    for module in {np.linalg, impl}:
        monkeypatch.setattr(module, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(module, "svd", recording_svd)
    monkeypatch.setattr(framerel.linalg, "hermitian_basis", refuse)
    for rmap in maps:
        assert check_channel_axioms(rmap).passed
    embed = check_ideal_isomorphism(maps[0])
    assert embed.passed and embed.consistent_with_ideality
    assert spectra and max(shape[-1] for shape in spectra) <= 16
    assert kernels == []


def test_s4_relative_subspace_forms_no_dense_joint_stack(monkeypatch):
    # The 16-dim S4 relative span vanishes off 24 diagonal blocks of 4 in
    # the 96-dim joint space (384 of 9216 entries).  Its validation moves
    # and projects those entries alone: no dense translates, no
    # residual of a dense (k, 96, 96) stack, every product formed on
    # blocks of 4 and every projection at most 384 entries wide.
    ideal, _, system = _s4_frames_and_system()
    widths, block_sizes = [], []
    project, blocks = framerel.linalg.projection_errors, framerel.systems.diagonal_blocks

    def recording_projection(rows, basis):
        widths.append(np.shape(rows)[-1])
        return project(rows, basis)

    def recording_blocks(stack, partition):
        block_sizes.extend(idx.shape[-1] for idx in partition)
        return blocks(stack, partition)

    def refuse(*args, **kwargs):
        raise AssertionError("dense joint stack")

    for module in (framerel.linalg, framerel.systems):
        monkeypatch.setattr(module, "projection_errors", recording_projection)
    monkeypatch.setattr(framerel.systems, "diagonal_blocks", recording_blocks)
    monkeypatch.setattr(framerel.systems, "translates", refuse)
    monkeypatch.setattr(MatrixSubspace, "residuals", refuse)
    rel = build_relative_subspace(ideal, system)
    assert (rel.space.dim, rel.kernel.dim) == (16, 0)
    assert not block_sizes  # the product check runs on request only
    assert is_vn_algebra(rel.as_system) and is_invariant(rel.as_system)
    assert len(rel.space.support) == 384
    assert widths and max(widths) == 384
    assert set(block_sizes) == {4}


def test_build_relative_subspace_leaves_the_product_check_to_is_vn_algebra(monkeypatch):
    # Nothing in the engine reads whether a relative subspace is an
    # algebra, so building one forms no product blocks; is_vn_algebra
    # forms them when asked.
    calls = []
    blocks = framerel.systems.diagonal_blocks

    def recording_blocks(stack, partition):
        calls.append(len(partition))
        return blocks(stack, partition)

    monkeypatch.setattr(framerel.systems, "diagonal_blocks", recording_blocks)
    cases = [
        (canonical_ideal_frame(s3()), full_system(s3_irrep2())),
        (smeared_canonical_frame(s3(), 0.3), full_system(s3_irrep2())),
        (z2_ideal_frame(), subspace_system(z2_flip_rep(), [Z])),
    ]
    for frame, system in cases:
        rel = build_relative_subspace(frame, system)
        assert not calls
        algebra = is_vn_algebra(rel.as_system)
        assert calls
        assert algebra or not frame.is_ideal  # an ideal frame relativizes multiplicatively
        calls.clear()


def _dense_support_permutation_frame():
    """An S3 frame on the regular (permutation) rep whose effects have dense support.

    The seed is a smeared ideal seed plus a small Hermitian perturbation
    with zero twirl, so the effects still sum to the identity.
    """
    group = s3()
    rep = regular_representation(group)
    rng = np.random.default_rng(41)
    k = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    k = k + np.conj(k).T
    k -= sum(act(rep, g, k) for g in group.elements()) / group.order
    seed = 0.5 * proj(ket(group.identity, 6)) + 0.5 * np.eye(6) / 6 + 0.01 * k / np.abs(k).max()
    return frame_from_effects(rep, [act(rep, g, seed) for g in group.elements()])


def test_invariance_is_the_dense_commutation_maximum_bit_for_bit():
    ideal, smear, system = _s4_frames_and_system()
    dense = _dense_support_permutation_frame()
    assert np.all(np.stack(dense.effects) != 0)
    cases = [(ideal, system), (smear, system), (dense, _permutation_system(s3(), 3))]
    cases += [(f, full_system(s3_irrep2())) for f in _dense_support_frames()]
    for frame, sys_ in cases:
        rmap = relativization_map(frame, sys_)
        expected = max(
            commutation_deviation(rmap.joint_rep, g, rmap.images) for g in frame.group.elements()
        )
        assert check_channel_axioms(rmap, samples=2).deviations["invariance"] == expected


def test_embedding_witness_is_the_first_pair_near_the_largest_deviation():
    # The smeared S3 frame and the qutrit permutation algebra of the
    # generated S3 zoo scenario of seed 17 (task embed-smear-t): six pairs
    # tie with the worst one, and dense and block norms order them
    # differently by rounding.  Both must name the first of them.
    group = s3()
    lam = random.Random("17:s3").uniform(0.2, 0.8)
    seed = np.diag([round(1 - lam + lam / 6, 12)] + [round(lam / 6, 12)] * 5).astype(complex)
    frame = principal_frame_from_seed(regular_representation(group), seed)
    system = _permutation_system(group, 3)
    dense = dense_law_values(frame, system)
    devs = dense["pairs"]
    assert len(np.argwhere(devs >= devs.max() - 1e-12)) == 6
    report = check_ideal_isomorphism(relativization_map(frame, system))
    assert report.witnesses == {"basis_pair": [1, 3]}
    assert report.witnesses == {"basis_pair": list(dense["basis_pair"])}


def test_block_checks_agree_with_the_dense_oracle():
    # every deviation of the axiom, embedding and naturality checks, and
    # the witness of a failing embedding, against Kronecker sums and dense
    # norms and spectra: diagonal supports (Z4, S3, S4) and a connected one
    z4 = build_cyclic_group(4)
    s3_system = full_system(s3_irrep2())
    s4_ideal, s4_smear, s4_system = _s4_frames_and_system()
    cases = [
        (canonical_ideal_frame(z4), full_system(zn_phase_rep(4))),
        (smeared_canonical_frame(s3(), 0.3), s3_system),
        (_dense_support_frames()[1], s3_system),
        (s4_ideal, s4_system),
        (s4_smear, s4_system),
    ]
    assert len(widen_partition(cases[2][0].components, 2)) == 1
    for frame, system in cases:
        phi = depolarizing_channel(system, 0.4)
        dense = dense_law_values(frame, system, phi, samples=4, seed=5)
        rmap = relativization_map(frame, system)
        reports = [
            check_channel_axioms(rmap, samples=4, seed=5),
            check_ideal_isomorphism(rmap),
            check_naturality(frame, phi),
        ]
        for report in reports:
            for name, value in report.deviations.items():
                assert abs(value - dense[name]) <= 1e-12, (name, value, dense[name])
        embed = reports[1]
        assert embed.passed == frame.is_ideal
        if not embed.passed:
            assert embed.witnesses == {"basis_pair": list(dense["basis_pair"])}


def test_s4_law_checks_peak_under_one_mib(monkeypatch):
    # the dense (16, 96, 96) image stack alone is 2.25 MiB; every check
    # works on the 24 support blocks of 4 x 4 and the 384 entries of them
    # and assembles no dense stack
    def refuse(*args, **kwargs):
        raise AssertionError("dense relativized stack assembled")

    monkeypatch.setattr(RELATIVIZE, "block_diagonal", refuse)
    ideal, smear, system = _s4_frames_and_system()
    maps = [relativization_map(f, system) for f in (ideal, smear)]
    phi = depolarizing_channel(system, 0.4)
    calls = [
        lambda: build_relative_subspace(ideal, system),
        lambda: check_channel_axioms(maps[0]),
        lambda: check_channel_axioms(maps[1]),
        lambda: check_ideal_isomorphism(maps[0]),
        lambda: check_ideal_isomorphism(maps[1]),
        lambda: check_naturality(smear, phi),
    ]
    for call in calls:
        _, peak = traced_peak(call)
        assert peak < 2**20


def test_s5_relative_subspace_peaks_under_16_mib():
    # the relative span lives on 25 of the 600 x 600 joint entries' blocks;
    # a dense 600 x 600 identity, projected to test I in the span, took the
    # peak to 20.5 MiB
    group = build_symmetric_group(5)
    frame, system = canonical_ideal_frame(group), _permutation_system(group, 5)
    rel, peak = traced_peak(lambda: build_relative_subspace(frame, system))
    assert (rel.space.dim, rel.kernel.dim) == (25, 0)
    assert peak < 16 * 2**20


# ------------------------------------------------------------------ preduals


def test_predual_pairing_for_relativization():
    sq = qubit()
    rng = np.random.default_rng(23)
    for fr in (z2_ideal_frame(), z2_smeared_frame(0.5)):
        rmap = relativization_map(fr, sq)
        for _ in range(20):
            t = random_density(rng, 4)
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            cls = predual_relativize(fr, sq, t)
            lhs = cls.expectation(a)
            rhs = np.trace(t @ relativize(fr, sq, a))
            assert abs(lhs - rhs) < 1e-10


def test_predual_is_the_adjoint_of_the_kernel():
    # tr[sigma a] = tr[T yen(a)] on random joint states and span elements,
    # and sigma is the old per-element loop within 1e-13, on a diagonal,
    # a connected and a 16-element support and on a proper span
    rng = np.random.default_rng(31)
    z16 = build_cyclic_group(16)
    s3_full = full_system(s3_irrep2())
    cases = [
        (z2_smeared_frame(0.5), qubit()),
        (smeared_canonical_frame(s3(), 0.3), s3_full),
        (_dense_support_frames()[1], s3_full),
        (canonical_ideal_frame(s3()), full_system(regular_representation(s3()))),
        (smeared_canonical_frame(z16, 0.4), full_system(zn_phase_rep(16))),
        (smeared_canonical_frame(s3(), 0.3), subspace_system(s3_irrep2(), [proj(ket(0, 2))])),
    ]
    for frame, system in cases:
        for _ in range(3):
            t = random_density(rng, frame.rep.dim * system.dim)
            cls = predual_relativize(frame, system, t)
            a = random_span_element(rng, system.space)
            assert abs(cls.expectation(a) - np.trace(t @ relativize(frame, system, a))) <= 1e-13
            loop = state_class(system, predual_loop(frame, system, t))
            assert max_abs(cls.canonical - loop.canonical) <= 1e-13


def test_predual_relativize_validates_joint_state():
    fr = z2_ideal_frame()
    with pytest.raises(NotAState):
        predual_relativize(fr, qubit(), np.eye(4, dtype=complex))  # trace 4


def test_product_relative_state_worked_case():
    fr = z2_smeared_frame(0.5)
    sq = qubit()
    omega = proj(ket(0, 2))
    rho = np.diag([0.9, 0.1]).astype(complex)
    cls = product_relative_state(fr, sq, omega, rho)
    # weights (3/4, 1/4); flip swaps the diagonal
    want = 0.75 * rho + 0.25 * (X @ rho @ X)
    assert max_abs(cls.canonical - want) < 1e-12
    assert max_abs(cls.canonical - np.diag([0.7, 0.3])) < 1e-12
    assert max_abs(cls.canonical - relative_state_oracle(fr, sq, [0.75, 0.25], rho)) < 1e-12
    # same state through the joint predual route
    joint = tensor_product(omega, rho)
    assert cls.same_as(predual_relativize(fr, sq, joint))


def test_product_relative_state_matches_oracle_nonabelian():
    group = s3()
    fr = smeared_canonical_frame(group, 0.5)
    sq = full_system(s3_irrep2())
    rng = np.random.default_rng(29)
    omega = random_density(rng, 6)
    rho = random_density(rng, 2)
    from framerel.frames import born_measure

    mu = born_measure(fr, omega)
    cls = product_relative_state(fr, sq, omega, rho)
    assert max_abs(cls.canonical - relative_state_oracle(fr, sq, mu, rho)) < 1e-11
    assert cls.same_as(predual_relativize(fr, sq, tensor_product(omega, rho)))


def test_product_relative_state_is_the_element_loop_bit_for_bit():
    # one batched translate and one reduction over the elements add the terms in the loop's order
    rng = np.random.default_rng(31)
    cases = [(canonical_ideal_frame(build_cyclic_group(n)), full_system(zn_phase_rep(n))) for n in (8, 12, 16)]
    cases.append((smeared_canonical_frame(s3(), 0.3), full_system(s3_irrep2())))
    for frame, system in cases:
        omega, rho = random_density(rng, frame.rep.dim), random_density(rng, system.dim)
        weights = born_measure(frame, omega)
        sigma = np.zeros((system.dim, system.dim), dtype=complex)
        for g in frame.group.elements():
            sigma += weights[g] * act(system.rep, frame.group.inv(g), rho)
        got = product_relative_state(frame, system, omega, rho)
        assert np.array_equal(got.canonical, state_class(system, sigma).canonical)


# -------------------------------------------------------------- induced maps


def test_induced_map_intertwines_relativizations():
    psi = z2_smearing_morphism(0.5)
    sq = qubit()
    phi = conjugation_channel(sq, X)
    induced = relativize_morphisms(psi, phi)
    assert induced.kernel_image_norm < 1e-12
    src_fr, tgt_fr = psi.source, psi.target
    for a in (I2, X, Y, Z):
        lhs = induced.apply(relativize(src_fr, sq, a))
        rhs = relativize(tgt_fr, sq, phi.apply(a))
        assert max_abs(lhs - rhs) < 1e-11


def test_workspace_decides_each_channel_once(monkeypatch):
    # naturality and the tensor form share the workspace's verdict, and a
    # refused channel raises the same ChannelNotEquivariant every time
    decided = []
    real = RELATIVIZE.is_equivariant
    monkeypatch.setattr(RELATIVIZE, "is_equivariant", lambda phi, tol: decided.append(phi) or real(phi, tol))
    psi, sq = z2_smearing_morphism(0.5), qubit()
    good, bad = conjugation_channel(sq, X), conjugation_channel(sq, H)
    ws = Workspace()
    assert check_naturality(psi.source, good, workspace=ws).passed
    assert check_equivariant_tensor_form(psi, good, workspace=ws).passed
    raised = []
    for _ in range(2):
        with pytest.raises(ChannelNotEquivariant) as info:
            check_naturality(psi.source, bad, workspace=ws)
        raised.append(info.value)
    with pytest.raises(ChannelNotEquivariant) as info:
        check_equivariant_tensor_form(psi, bad, workspace=ws)
    raised.append(info.value)
    assert decided == [good, bad]
    verdict = real(bad, ws.tol)
    for exc in raised:
        assert (exc.element, exc.deviation) == (verdict.witness_element, verdict.deviation)
        assert np.array_equal(exc.witness, bad.source.space.basis[verdict.witness_index])


def test_workspace_builds_each_relativization_once():
    psi = z2_smearing_morphism(0.5)
    sq = qubit()
    phi = conjugation_channel(sq, X)
    ws = Workspace()
    induced = relativize_morphisms(psi, phi, workspace=ws)
    assert relativize_morphisms(psi, phi, workspace=ws) is induced
    assert check_equivariant_tensor_form(psi, phi, workspace=ws).passed
    assert list(ws.channels) == [(psi, phi, DEFAULT_POSITIVITY_SAMPLES, DEFAULT_POSITIVITY_SEED)]
    # the relative subspaces are the workspace's, built on its maps
    assert induced.source is ws.relative_subspace(psi.source, sq)
    assert induced.target is ws.relative_subspace(psi.target, sq)
    assert induced.source.base is ws.relativization_map(psi.source, sq)
    assert all(not b.flags.writeable for b in induced.source.base.blocks)
    # other positivity settings are another induced map on the same subspaces
    other = relativize_morphisms(psi, phi, samples=3, seed=1, workspace=ws)
    assert other is not induced and other.source is induced.source
    assert len(ws.channels) == 2 and len(ws.subspaces) == 2
    # a private workspace builds the same map again
    fresh = relativize_morphisms(psi, phi)
    assert fresh is not induced
    assert np.array_equal(fresh.matrix, induced.matrix)
    with pytest.raises(ObjectMismatch):
        relativize_morphisms(psi, phi, tol=1e-6, workspace=ws)


def test_induced_map_rejects_kernel_violations():
    # the unlocalized frame kills Z, but averaging with the Hadamard twin
    # resurrects an X component that survives relativization
    fr = z2_unlocalized_frame()
    sq = qubit()
    psi = identity_frame_morphism(fr)
    images = [(b + H @ b @ H) / 2 for b in sq.space.basis]
    phi = build_channel(sq, sq, images)
    with pytest.raises(IllDefined) as err:
        relativize_morphisms(psi, phi)
    assert err.value.image_norm >= 1e-3
    assert err.value.kernel_witness is not None
    # the witness is a unit-norm kernel element with nonzero induced image
    w = err.value.kernel_witness
    assert max_abs(relativize(fr, sq, w)) < 1e-12
    # and it is the first kernel basis element whose image is over tolerance
    kernel = build_relative_subspace(fr, sq).kernel.basis
    norms = [operator_norm(relativize(fr, sq, phi.apply(k))) for k in kernel]
    first = next(i for i, nrm in enumerate(norms) if nrm > 1e-9)
    assert np.array_equal(w, kernel[first])
    assert err.value.image_norm == norms[first]


def test_induced_maps_match_the_dense_pinv_oracle():
    # the coefficients come from the (K, n) support values; a pseudo-inverse
    # of the dense (D^2, n) images gives the same matrices
    z8, s4 = build_cyclic_group(8), build_symmetric_group(4)
    s4_ideal, _, s4_system = _s4_frames_and_system()
    pairs = [
        _scenario_pair("golden_z2.json", "m_smear", "conj_x"),
        _scenario_pair("golden_s3.json", "m1", "dep"),
        _scenario_pair("golden_s3.json", "m2", "dep2"),
        (smearing_morphism(z8, 0.4), depolarizing_channel(full_system(zn_phase_rep(8)), 0.3)),
        (smearing_morphism(s4, 0.4, s4_ideal), depolarizing_channel(s4_system, 0.3)),
    ]
    for psi, phi in pairs:
        induced = relativize_morphisms(psi, phi)
        assert max_abs(induced.matrix - dense_induced_matrix(induced)) <= 1e-12


def _relativized_by_induce(monkeypatch, psi, phi):
    """``(calls, result)``: the ``(frame, system, count)`` of every stack that
    ``relativize_morphisms`` relativizes for (psi, phi) on a workspace that
    already holds both relative subspaces, with dense operator norms
    refused, and the induced map or the IllDefined it raised."""
    ws = Workspace()
    ws.relative_subspace(psi.source, phi.source)
    ws.relative_subspace(psi.target, phi.target)
    calls = []

    def recorded(frame, system, mats):
        calls.append((frame, system, len(mats)))
        return _relativize_stack(frame, system, mats)

    def refuse(a):
        raise AssertionError("a dense operator norm was taken")

    monkeypatch.setattr(RELATIVIZE, "_relativize_stack", recorded)
    monkeypatch.setattr(RELATIVIZE, "operator_norm", refuse)
    try:
        return calls, relativize_morphisms(psi, phi, workspace=ws)
    except IllDefined as exc:
        return calls, exc


def test_induced_map_with_no_source_kernel_relativizes_no_kernel(monkeypatch):
    # the ideal Z2 frame has kernel dimension 0: the only stack relativized
    # is the image of the system basis, against the target, and no kernel
    # norm is taken
    def refuse(blocks):
        raise AssertionError("kernel norms taken")

    monkeypatch.setattr(RELATIVIZE, "block_operator_norms", refuse)
    psi, phi = z2_smearing_morphism(0.5), conjugation_channel(qubit(), X)
    calls, induced = _relativized_by_induce(monkeypatch, psi, phi)
    assert induced.source.kernel.dim == 0
    assert calls == [(psi.target, phi.target, 4)]
    assert induced.kernel_image_norm == 0.0


def test_induced_map_relativizes_once_against_the_target_frame(monkeypatch):
    # the unlocalized Z2 frame of the ill-defined fixture has a kernel: its
    # images are combinations of the one relativized stack, measured on
    # blocks, whether the map is well defined (the identity) or not (the
    # Hadamard average, whose witness norm is 1/sqrt(8))
    spec = parse_scenario((FIXTURES / "fixture_illdefined.json").read_text())
    psi = spec.frame_morphisms["stay"]
    calls, induced = _relativized_by_induce(monkeypatch, psi, spec.channels["ident"])
    assert induced.source.kernel.dim == 2
    assert calls == [(psi.target, spec.channels["ident"].target, 4)]
    assert induced.kernel_image_norm <= 1e-12
    calls, err = _relativized_by_induce(monkeypatch, psi, spec.channels["avg_h"])
    assert isinstance(err, IllDefined)
    assert calls == [(psi.target, spec.channels["avg_h"].target, 4)]
    assert abs(err.image_norm - 0.5 / np.sqrt(2)) <= 1e-12


def test_functor_laws_two_link_chain():
    sq = qubit()
    psi1 = z2_smearing_morphism(0.25)
    phi1 = conjugation_channel(sq, X)
    mid = psi1.target
    # smear further: retention (3/4)(2/3) = 1/2
    lam2 = 1 / 3
    images = [(1 - lam2) * b + lam2 * np.trace(b) * I2 / 2 for b in psi1.channel.source.space.basis]
    noisy = build_channel(psi1.channel.source, psi1.channel.source, images)
    psi2 = build_frame_morphism(mid, z2_smeared_frame(0.5), noisy)
    phi2 = depolarizing_channel(sq, 0.5)
    report = check_functor_laws([(psi1, phi1), (psi2, phi2)])
    assert report.passed
    assert report.deviations["identity"] < 1e-12
    assert report.deviations["composition[0]"] < 1e-10
    # with two links the one composition is the whole chain
    assert list(report.deviations) == ["identity", "composition[0]"]


def _composition_oracle(links):
    """The composition deviations, pairs and full chain composed separately."""
    ws = Workspace()
    induced = [relativize_morphisms(psi, phi, workspace=ws) for psi, phi in links]
    devs = {}
    for i in range(len(links) - 1):
        (psi_a, phi_a), (psi_b, phi_b) = links[i], links[i + 1]
        direct = relativize_morphisms(
            compose_frame_morphisms(psi_a, psi_b), compose_channels(phi_b, phi_a), workspace=ws
        )
        devs[f"composition[{i}]"] = max_abs(direct.matrix - induced[i + 1].matrix @ induced[i].matrix)
    if len(links) > 2:
        morphism, channel = links[0]
        for psi, phi in links[1:]:
            morphism = compose_frame_morphisms(morphism, psi)
            channel = compose_channels(phi, channel)
        product = induced[0].matrix
        for step in induced[1:]:
            product = step.matrix @ product
        direct = relativize_morphisms(morphism, channel, workspace=ws)
        devs["full_chain"] = max_abs(direct.matrix - product)
    return devs


def test_functor_composition_deviations_match_the_oracle_bit_for_bit():
    # on the acceptance chains of 1, 2 and 3 links, composition[i] and
    # full_chain are the same deviations, to the bit, as when the pairs
    # and the whole chain are composed and multiplied separately
    chains = acceptance_chains()
    assert {len(links) for links in chains} == {1, 2, 3}
    for links in chains:
        report = check_functor_laws(links)
        expected = _composition_oracle(links)
        assert {k: v for k, v in report.deviations.items() if k != "identity"} == expected


def test_functor_laws_take_the_sampling_settings_everywhere(monkeypatch):
    # frame value system and system are both span{I, Z}: the two
    # identities at the first node are "structure" chains and the
    # composites of the sampled links are sampled chains; the induced map
    # of the identities is "tensor" and every other one is sampled; each
    # records the given count and seed
    values = subspace_system(z2_flip_rep(), [Z])
    frame = principal_frame_from_seed(z2_flip_rep(), np.diag([1.0, 0.0]), value_system=values)
    system = subspace_system(z2_flip_rep(), [Z])
    psi = build_frame_morphism(
        frame, frame, build_channel(values, values, values.space.basis, samples=3, seed=0)
    )
    images = [0.5 * b + 0.5 * np.trace(b) * I2 / 2 for b in system.space.basis]
    phi = build_channel(system, system, images, samples=3, seed=0)

    # every channel made on the way reaches the certificate step: the
    # induced maps as explicit channels, the identities and composites as chains
    certified = []
    original = framerel.systems._certified

    def recording(channel, tol):
        certified.append(original(channel, tol))
        return certified[-1]

    monkeypatch.setattr(framerel.systems, "_certified", recording)
    report = check_functor_laws([(psi, phi), (psi, phi)], samples=3, seed=0)
    assert report.passed
    built = [ch for ch in certified if ch.factors is None]
    chains = [ch for ch in certified if ch.factors is not None]

    def settings(channels):
        return {(ch.positivity_check, ch.positivity_samples, ch.positivity_seed) for ch in channels}

    assert settings(built) == {("sampled", 3, 0), ("tensor", 3, 0)}
    assert settings(chains) == {("structure", 3, 0), ("sampled", 3, 0)}
    identities = [ch for ch in chains if ch.factors == ()]
    assert len(identities) == 2 and {id(ch.source) for ch in identities} == {id(values), id(system)}
    assert all(ch.positivity_check == "structure" for ch in identities)
    assert all(ch.positivity_check == "sampled" for ch in chains if ch.factors)
    (tensor,) = [ch for ch in built if ch.positivity_check == "tensor"]
    assert max_abs(tensor.matrix() - np.eye(tensor.source.space.dim)) < 1e-12


def _smearing_links(group, system, lams, nus):
    """Links ideal -> smeared -> smeared of a canonical frame, with depolarizing system channels.

    Each frame is smeared by lams[k] further, so the frame retention
    multiplies along the chain.
    """
    frame = canonical_ideal_frame(group)
    links, kept = [], 1.0
    for lam, nu in zip(lams, nus):
        kept *= 1 - lam
        target = smeared_canonical_frame(group, 1 - kept)
        channel = depolarizing_channel(frame.value_system, lam)
        links.append((build_frame_morphism(frame, target, channel), depolarizing_channel(system, nu)))
        frame = target
    return links


def test_functor_laws_structure_chains_have_a_psd_choi_matrix(monkeypatch):
    # every identity and composite the check builds on these full value
    # systems and systems is a "structure" chain; its dense Choi matrix,
    # formed here and nowhere in the check, is PSD
    tol = 1e-9
    cases = [
        (build_cyclic_group(4), full_system(zn_phase_rep(4))),
        (build_cyclic_group(8), full_system(zn_phase_rep(8))),
        (s3(), full_system(s3_irrep2())),
        (z2(), full_system(z2_flip_rep())),
    ]
    chains = []
    original = framerel.systems._chain

    def recording(*args, **kwargs):
        chains.append(original(*args, **kwargs))
        return chains[-1]

    monkeypatch.setattr(framerel.systems, "_chain", recording)
    for group, system in cases:
        del chains[:]
        links = _smearing_links(group, system, (0.2, 0.3, 0.25), (0.1, 0.4, 0.2))
        assert check_functor_laws(links, tol).passed
        # two identities, two pair composites and two full-chain steps, on both sides
        assert len(chains) == 10
        for chain in chains:
            assert chain.positivity_check == "structure" and chain.source.is_full_algebra
            choi = _choi_matrix(chain.images, chain.source.dim)
            assert np.linalg.eigvalsh(choi)[0] >= -tol * choi.shape[0]


def test_functor_laws_on_z16_peak_under_two_mib():
    # each Z16 value channel holds a 1 MiB image stack; the identity and
    # the composite at the first node were a 1 MiB stack of units and a
    # dense 256^3 product, and are now chains that build no images
    group = build_cyclic_group(16)
    w = np.exp(2j * np.pi / 16)
    qubit_16 = full_system(unitary_rep(group, [np.diag([1.0, w**k]) for k in range(16)]))
    links = _smearing_links(group, qubit_16, (0.35, 0.5), (0.25, 0.6))
    report, peak = traced_peak(lambda: check_functor_laws(links))
    assert report.passed
    assert peak < 2 * 2**20


def test_functor_laws_rejects_broken_chains():
    sq = qubit()
    psi = z2_smearing_morphism(0.5)
    phi = identity_channel(sq)
    other = identity_frame_morphism(z2_ideal_frame())
    with pytest.raises(ObjectMismatch):
        # second link starts at the ideal frame, not at psi's target
        check_functor_laws([(psi, phi), (other, phi)])


# ------------------------------------------------------------- tensor form


def test_equivariant_pair_acts_as_tensor_product():
    psi = z2_smearing_morphism(0.5)
    sq = qubit()
    for phi in (conjugation_channel(sq, X), depolarizing_channel(sq, 0.3)):
        report = check_equivariant_tensor_form(psi, phi)
        assert report.passed
        assert report.max_deviation < 1e-10


def tensor_form_oracle(psi, phi, xs):
    """psi (x) phi on each x, as the sum over the product basis r_i (x) s_j
    of <r_i (x) s_j, x> psi(r_i) (x) phi(s_j), one Kronecker pair at a time
    from the images the two channels record."""
    r_basis, s_basis = psi.channel.source.space.basis, phi.source.space.basis
    out = []
    for x in xs:
        total = 0
        for r, psi_r in zip(r_basis, psi.channel.images):
            for s, phi_s in zip(s_basis, phi.images):
                total = total + np.vdot(np.kron(r, s), x) * np.kron(psi_r, phi_s)
        out.append(total)
    return np.array(out)


def _scenario_pair(fixture, morphism, channel):
    spec = parse_scenario((FIXTURES / fixture).read_text())
    return spec.frame_morphisms[morphism], spec.channels[channel]


def test_tensor_form_agrees_with_the_kronecker_oracle():
    z8 = build_cyclic_group(8)
    pairs = [
        _scenario_pair("golden_z2.json", "m_smear", "conj_x"),
        _scenario_pair("golden_s3.json", "m1", "dep"),
        _scenario_pair("golden_s3.json", "m2", "dep2"),
        (smearing_morphism(z8, 0.4), depolarizing_channel(full_system(zn_phase_rep(8)), 0.3)),
        (z2_smearing_morphism(0.5), ampliation_channel(qubit(), 2)),
        # the full qubit span through its Gram-Schmidt basis of X, Y, Z: complex entries
        (
            z2_smearing_morphism(0.25),
            depolarizing_channel(subspace_system(z2_flip_rep(), [X, Y, Z]), 0.3),
        ),
    ]
    for psi, phi in pairs:
        report = check_equivariant_tensor_form(psi, phi)
        induced = relativize_morphisms(psi, phi)
        xs = induced.source.space.basis_stack
        images = induced.channel.apply(xs)
        oracle = tensor_form_oracle(psi, phi, xs)
        assert oracle.shape == images.shape
        assert report.passed
        assert report.deviations["tensor_form"] == induced.tensor_deviation
        assert abs(induced.tensor_deviation - max_abs(oracle - images)) <= 1e-12


def test_tensor_form_requires_equivariance():
    psi = z2_smearing_morphism(0.5)
    sq = qubit()
    with pytest.raises(ChannelNotEquivariant):
        check_equivariant_tensor_form(psi, conjugation_channel(sq, H))


def test_induced_map_of_a_non_equivariant_channel_is_not_the_tensor_form():
    # H X H = Z: conjugation by H does not commute with the flip, so the
    # induced map exists (the ideal source frame has no kernel) but is
    # not psi (x) phi, and the tensor-form check refuses the channel
    psi, phi = z2_smearing_morphism(0.5), conjugation_channel(qubit(), H)
    induced = relativize_morphisms(psi, phi)
    assert induced.tensor_deviation > 1e-9
    xs = induced.source.space.basis_stack
    oracle = tensor_form_oracle(psi, phi, xs)
    assert abs(induced.tensor_deviation - max_abs(oracle - induced.channel.apply(xs))) <= 1e-12
    with pytest.raises(ChannelNotEquivariant):
        check_equivariant_tensor_form(psi, phi)


def _kron_unit_oracle(psi, phi, xs):
    """(psi (x) phi)(x) for each x of a stack, summed over the joint matrix
    units E_ac (x) E_bd: x[(a, b), (c, d)] psi(E_ac) (x) phi(E_bd), one
    Kronecker product of the two channels' unit images at a time."""
    d_r, d_s = psi.channel.source.dim, phi.source.dim
    psi_units = psi.channel.apply(np.eye(d_r * d_r).reshape(-1, d_r, d_r))
    phi_units = phi.apply(np.eye(d_s * d_s).reshape(-1, d_s, d_s))
    out = []
    for x in xs:
        blocks = x.reshape(d_r, d_s, d_r, d_s)
        total = 0
        for a, b, c, d in np.ndindex(d_r, d_s, d_r, d_s):
            if blocks[a, b, c, d] != 0:
                term = np.kron(psi_units[a * d_r + c], phi_units[b * d_s + d])
                total = total + blocks[a, b, c, d] * term
        out.append(total)
    return np.array(out)


def test_tensor_images_match_the_kronecker_unit_oracle():
    # the generator formula sum_g psi(E(g)) (x) phi(g.s_j) is psi (x) phi
    # on the relativized basis, equivariant phi or not; the rotated frame
    # has complex effects, so a transposed frame factor would show
    rng = np.random.default_rng(13)
    cases = [
        (build_cyclic_group(3), full_system(zn_phase_rep(3))),
        (s3(), full_system(s3_irrep2())),
    ]
    for group, system in cases:
        n = group.order
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        rotated = rotated_frame(canonical_ideal_frame(group), v)
        for psi, phi in itertools.product(
            (smearing_morphism(group, 0.3), smearing_morphism(group, 0.3, rotated)),
            (depolarizing_channel(system, 0.4), conjugation_channel(system, H)),
        ):
            xs = relativized_dense(psi.source, system, system.space.basis_stack)
            tensor = _tensor_images(psi, phi, np.eye(len(xs)), 1e-9)
            assert tensor.shape == xs.shape[:1] + (psi.target.rep.dim * system.dim,) * 2
            assert max_abs(tensor - _kron_unit_oracle(psi, phi, xs)) <= 1e-12


def test_tensor_certified_channels_pass_the_sampled_check():
    for group, system in (
        (build_cyclic_group(4), full_system(zn_phase_rep(4))),
        (s3(), full_system(s3_irrep2())),
    ):
        ideal = canonical_ideal_frame(group)
        smear = smearing_morphism(group, 0.35, ideal)
        pairs = [
            (identity_frame_morphism(ideal), identity_channel(system)),
            (identity_frame_morphism(ideal), depolarizing_channel(system, 0.4)),
            (smear, identity_channel(system)),
            (smear, depolarizing_channel(system, 0.6)),
            (identity_frame_morphism(smear.target), depolarizing_channel(system, 0.2)),
        ]
        for psi, phi in pairs:
            channel = relativize_morphisms(psi, phi).channel
            assert channel.positivity_check == "tensor"
            d = channel.target.dim
            psd = psd_span_samples(channel.source.space, count=16, seed=7)
            lows = np.linalg.eigvalsh(channel.apply(psd))[:, 0]
            assert lows.min() >= -1e-9 * d


def test_non_equivariant_channel_falls_back_to_sampling():
    # conjugation by H is Choi-certified on the full qubit but does not
    # commute with the Z4 phase action, so the induced map is not psi (x) phi
    group = build_cyclic_group(4)
    system = full_system(zn_phase_rep(4))
    phi = conjugation_channel(system, H)
    assert phi.positivity_check == "choi"
    psi = identity_frame_morphism(canonical_ideal_frame(group))
    induced = relativize_morphisms(psi, phi, samples=5, seed=3)
    channel = induced.channel
    assert (channel.positivity_check, channel.positivity_samples, channel.positivity_seed) == (
        "sampled", 5, 3,
    )


def test_composites_of_tensor_channels_sample_deterministically(monkeypatch):
    system = full_system(zn_phase_rep(4))
    psi = identity_frame_morphism(canonical_ideal_frame(build_cyclic_group(4)))
    first, second = (
        relativize_morphisms(psi, depolarizing_channel(system, nu), samples=5, seed=2).channel
        for nu in (0.3, 0.5)
    )
    assert first.positivity_check == second.positivity_check == "tensor"
    seeds = []
    original = framerel.systems.psd_span_samples

    def recording(subspace, count, seed, tol):
        seeds.append((count, seed))
        return original(subspace, count=count, seed=seed, tol=tol)

    monkeypatch.setattr(framerel.systems, "psd_span_samples", recording)
    runs = [compose_channels(second, first) for _ in range(2)]
    assert seeds == [(5, 2), (5, 2)]
    for ch in runs:
        assert (ch.positivity_check, ch.positivity_samples, ch.positivity_seed) == ("sampled", 5, 2)
    assert np.array_equal(runs[0].images, runs[1].images)


# -------------------------------------------------------------- naturality


def test_naturality_for_equivariant_channels():
    sq = qubit()
    fr = z2_smeared_frame(0.5)
    channels = [
        identity_channel(sq),
        conjugation_channel(sq, X),
        conjugation_channel(sq, Z),  # Ad(Z) commutes with the flip action
        depolarizing_channel(sq, 0.5),
        ampliation_channel(sq, 2),
    ]
    for phi in channels:
        report = check_naturality(fr, phi)
        assert report.passed
        assert report.max_deviation < 1e-10


def test_naturality_rejects_non_equivariant_channel():
    sq = qubit()
    with pytest.raises(ChannelNotEquivariant):
        check_naturality(z2_ideal_frame(), conjugation_channel(sq, H))


def test_naturality_nonabelian_with_ampliation():
    full = full_system(s3_irrep2())
    fr = smeared_canonical_frame(s3(), 0.25)
    for phi in (depolarizing_channel(full, 0.6), ampliation_channel(full, 3)):
        report = check_naturality(fr, phi)
        assert report.passed
        assert report.max_deviation < 1e-10


# --------------------------------------------------------------- law reports


def test_law_report_max_deviation_is_the_worst_component():
    spec = parse_scenario((FIXTURES / "golden_s3.json").read_text())
    spin, dep, dep2 = spec.systems["spin"], spec.channels["dep"], spec.channels["dep2"]
    m1, m2 = spec.frame_morphisms["m1"], spec.frame_morphisms["m2"]
    reports = [
        check_functor_laws([(m1, dep), (m2, dep2)]),
        check_naturality(spec.frames["F_smear"], dep),
        check_equivariant_tensor_form(m1, dep),
    ]
    for name in ("F_canon", "F_smear"):
        rmap = relativization_map(spec.frames[name], spin)
        reports += [check_channel_axioms(rmap), check_ideal_isomorphism(rmap)]
    assert {tuple(rep.deviations)[0] for rep in reports} == {
        "identity", "naturality", "tensor_form", "linearity", "multiplicativity",
    }
    for rep in reports:
        assert rep.max_deviation == max(0.0, *rep.deviations.values())
    # the smeared frame's embedding check fails, as its law predicts
    smeared = reports[-1]
    assert not smeared.passed and not smeared.expected and smeared.consistent_with_ideality
    assert smeared.max_deviation >= smeared.deviations["multiplicativity"] >= 1e-3


# ------------------------------------------------------ external transforms


def test_external_transform_identity_morphism():
    fr = z2_ideal_frame()
    sq = qubit()
    psi = identity_frame_morphism(fr)
    omega = proj(ket(0, 2))
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    target_side, source_side = external_frame_transform(psi, sq, omega, rho)
    assert target_side.same_as(source_side)


def test_external_transform_smearing_worked_case():
    psi = z2_smearing_morphism(0.5)
    sq = qubit()
    omega = proj(ket(0, 2))
    rho = np.diag([0.9, 0.1]).astype(complex)
    target_side, source_side = external_frame_transform(psi, sq, omega, rho)
    assert target_side.same_as(source_side)
    assert max_abs(target_side.canonical - np.diag([0.7, 0.3])) < 1e-11
    # the transported description lives on the source (ideal) frame with
    # the smeared weights (3/4, 1/4)
    transported = predual_channel(psi.channel, omega)
    from framerel.frames import born_measure

    assert np.allclose(born_measure(psi.source, transported), [0.75, 0.25], atol=1e-12)


def test_external_transform_reorientation():
    fr = z2_ideal_frame()
    sq = qubit()
    psi = reorientation_morphism(fr, 1)
    rng = np.random.default_rng(31)
    for _ in range(5):
        omega = random_density(rng, 2)
        rho = random_density(rng, 2)
        target_side, source_side = external_frame_transform(psi, sq, omega, rho)
        assert target_side.same_as(source_side)


def test_external_transform_requires_full_value_algebra():
    rep = z2_flip_rep()
    diag = subspace_system(rep, [Z])
    e00 = np.diag([1.0, 0.0]).astype(complex)
    fr = frame_from_effects(rep, [e00, I2 - e00], value_system=diag)
    psi = identity_frame_morphism(fr)
    with pytest.raises(RequiresFullAlgebra):
        external_frame_transform(psi, qubit(), proj(ket(0, 2)), I2 / 2)


# ------------------------------------------------- built as what they are


def _relative_cases():
    """(frame, system) pairs: the ideal and smeared Z_n frames against the
    phase qubit, the S3 frames against a proper span of its 2-dim irrep
    (the real symmetric matrices), and the S4 regular frame against the
    permutation rep of S4."""
    cases = []
    for n in (2, 5, 8):
        group, phase_qubit = build_cyclic_group(n), full_system(zn_phase_rep(n))
        cases += [(canonical_ideal_frame(group), phase_qubit), (smeared_canonical_frame(group, 0.3), phase_qubit)]
    span = subspace_system(s3_irrep2(), [np.diag([1.0, 0.0])])
    assert not span.is_full_algebra
    cases += [(canonical_ideal_frame(s3()), span), (smeared_canonical_frame(s3(), 0.3), span)]
    s4 = build_symmetric_group(4)
    cases.append((canonical_ideal_frame(s4), full_system(unitary_rep(s4, permutation_matrices(4)))))
    return cases


def _induced_pairs(frame, system):
    """The identity morphism of ``frame``, and for a canonical ideal frame its
    smearing, each with the identity and a depolarizing system channel."""
    morphisms = [identity_frame_morphism(frame)]
    if frame.is_ideal:
        morphisms.append(smearing_morphism(frame.group, 0.3, frame))
    return list(itertools.product(morphisms, (identity_channel(system), depolarizing_channel(system, 0.4))))


def _assert_skipped_checks_hold(pairs, tol=1e-9):
    """What relativization no longer checks, checked: each relative subspace
    validates as a system and is fixed by the joint action, and each induced
    map's images lie in its target and send I to I."""
    for psi, phi in pairs:
        induced = relativize_morphisms(psi, phi, tol)
        for rel in (induced.source, induced.target):
            framerel.systems._assemble_system(rel.base.joint_rep, rel.space, tol)
            assert is_invariant(rel.as_system, tol)
        assert induced.target.space.residuals(induced.channel.images).max() <= tol
        d_in, d_out = induced.source.base.joint_dim, induced.target.base.joint_dim
        assert max_abs(induced.apply(np.eye(d_in)) - np.eye(d_out)) <= tol


def test_relative_subspaces_are_built_without_validation(monkeypatch):
    # a relative subspace holds yen(I) = I and the joint action fixes it,
    # by construction, so it is never validated as a system again
    cases = _relative_cases()

    def refuse(*args):
        raise AssertionError("relative subspace validated as a system")

    monkeypatch.setattr(framerel.systems, "_assemble_system", refuse)
    for frame, system in cases:
        rel = build_relative_subspace(frame, system)
        assert rel.as_system.rep is rel.base.joint_rep
        assert rel.space.dim + rel.kernel.dim == system.space.dim


def test_relative_subspaces_and_induced_maps_pass_the_checks_they_skip():
    for frame, system in _relative_cases():
        _assert_skipped_checks_hold(_induced_pairs(frame, system))


@settings(max_examples=25, deadline=None)
@given(case=group_reps(), seed=st.integers(0, 2**32 - 1))
def test_relative_subspaces_and_induced_maps_pass_the_checks_they_skip_on_generated_reps(case, seed):
    # a proper span (one hermitian orbit and I) of every generated rep, and
    # the full algebra of the small ones, against the canonical frames
    kind, n, mats = case
    group = build_cyclic_group(n) if kind == "cyclic" else build_symmetric_group(n)
    rep = unitary_rep(group, mats)
    a = np.random.default_rng(seed).standard_normal((rep.dim, rep.dim, 2)) @ [1, 1j]
    systems = [subspace_system(rep, [a + a.conj().T])] + ([full_system(rep)] if rep.dim <= 3 else [])
    for system in systems:
        for frame in (canonical_ideal_frame(group), smeared_canonical_frame(group, 0.3)):
            _assert_skipped_checks_hold(_induced_pairs(frame, system))


def test_induced_maps_are_certified_without_validation(monkeypatch):
    # an induced map lies in its target relative subspace and sends I to I
    # by construction: only its certificate runs, "tensor" for an exact pair
    # that agrees with psi (x) phi and "sampled" for one that does not, and
    # the ill-defined pair of the fixture raises with the same witness
    group = build_cyclic_group(4)
    system, ideal = full_system(zn_phase_rep(4)), canonical_ideal_frame(group)
    cases = [
        ((smearing_morphism(group, 0.35, ideal), depolarizing_channel(system, 0.6)), "tensor"),
        ((identity_frame_morphism(ideal), conjugation_channel(system, H)), "sampled"),
    ]
    spec = parse_scenario((FIXTURES / "fixture_illdefined.json").read_text())
    ill = (spec.frame_morphisms["stay"], spec.channels["avg_h"])
    with pytest.raises(IllDefined) as expected:
        relativize_morphisms(*ill)

    def refuse(*args, **kwargs):
        raise AssertionError("induced map validated")

    for name in ("build_channel", "_validated"):
        monkeypatch.setattr(framerel.systems, name, refuse)
    for (psi, phi), check in cases:
        channel = relativize_morphisms(psi, phi, samples=5, seed=3).channel
        assert (channel.positivity_check, channel.positivity_samples, channel.positivity_seed) == (check, 5, 3)
    with pytest.raises(IllDefined) as err:
        relativize_morphisms(*ill)
    assert np.array_equal(err.value.kernel_witness, expected.value.kernel_witness)
    assert err.value.image_norm == expected.value.image_norm


@pytest.mark.parametrize("order", [1, 3])
def test_induced_maps_on_full_relative_subspaces_keep_the_choi_certificate(order):
    # the canonical frame of Z1, and Z3 with seed I/3 on its 1-dim trivial
    # rep, relativize a trivially acted-on qubit onto the full joint algebra:
    # the induced map of an exact pair agrees with psi (x) phi but is
    # certified by its Choi matrix
    group = build_cyclic_group(order)
    frame = (
        canonical_ideal_frame(group)
        if order == 1
        else principal_frame_from_seed(trivial_rep(group), np.eye(1) / 3)
    )
    system = full_system(trivial_rep(group, 2))
    induced = relativize_morphisms(identity_frame_morphism(frame), depolarizing_channel(system, 0.3))
    assert induced.source.as_system.is_full_algebra and induced.tensor_deviation <= 1e-12
    channel = induced.channel
    assert (channel.positivity_check, channel.positivity_seed, channel.positivity_samples) == ("choi", None, 0)


def test_linearity_coefficients_are_the_stream_of_the_per_sample_loop(monkeypatch):
    # one (samples, 2, n) draw gives the coefficients that 2 samples calls of
    # standard_normal(n) gave, real then imaginary part, bit for bit
    first = []

    def recorded(frame, system, mats):
        first.append(np.array(mats))
        return _relativize_stack(frame, system, mats)

    monkeypatch.setattr(RELATIVIZE, "_relativize_stack", recorded)
    cyclic4, s3_group = build_cyclic_group(4), s3()
    cases = [
        (cyclic4, subspace_system(zn_phase_rep(4), [])),  # n = 1: the span of I
        (cyclic4, full_system(zn_phase_rep(4))),
        (s3_group, full_system(unitary_rep(s3_group, permutation_matrices(3)))),
        (cyclic4, full_system(regular_representation(cyclic4))),
    ]
    for group, system in cases:
        n = system.space.dim
        rmap = relativization_map(canonical_ideal_frame(group), system)
        for seed, samples in itertools.product((0, 7, 123), (0, 1, 12, 16)):
            first.clear()
            check_channel_axioms(rmap, samples=samples, seed=seed)
            loop = np.random.default_rng(seed)
            coeffs = [loop.standard_normal(n) + 1j * loop.standard_normal(n) for _ in range(samples)]
            assert np.array_equal(first[0], system.space.combine(np.reshape(coeffs, (-1, n))))
    assert {system.space.dim for _, system in cases} == {1, 4, 9, 16}
