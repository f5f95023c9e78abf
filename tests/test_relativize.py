"""The relativization map, its laws, and induced maps between frames."""

import importlib
import itertools
import pathlib
import random
import re
import tracemalloc

import numpy as np
import pytest

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
    build_frame_morphism,
    canonical_ideal_frame,
    frame_from_effects,
    identity_frame_morphism,
    principal_frame_from_seed,
    reorientation_morphism,
)
from framerel.groups import (
    act,
    build_cyclic_group,
    build_symmetric_group,
    commutation_deviation,
    regular_representation,
    unitary_rep,
)
from framerel.linalg import (
    MatrixSubspace,
    block_min_eigenvalues,
    diagonal_blocks,
    max_abs,
    min_eigenvalue,
    operator_norm,
    psd_span_samples,
    tensor_product,
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
    _joint_partition,
    _relativize_stack,
    _tensor_images,
)
from framerel.scenario import parse_scenario
from framerel.systems import (
    _choi_matrix,
    build_channel,
    compose_channels,
    conjugation_channel,
    full_system,
    identity_channel,
    is_vn_algebra,
    predual_channel,
    subspace_system,
)

from .support import (
    H,
    I2,
    X,
    Y,
    Z,
    ampliation_channel,
    depolarizing_channel,
    ket,
    proj,
    psd_span_samples_loop,
    random_density,
    s3,
    s3_irrep2,
    smeared_canonical_frame,
    smearing_morphism,
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


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


# ------------------------------------------------------------------ oracles


def relativize_oracle(frame, system, a):
    """Direct loop: sum over group of effect tensor conjugated operator."""
    out = np.zeros((frame.rep.dim * system.dim,) * 2, dtype=complex)
    for g in frame.rep.group.elements():
        u = system.rep.matrices[g]
        out += np.kron(frame.effects[g], u @ a @ np.conj(u).T)
    return out


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


def test_relativize_stack_matches_the_kron_loop_bit_for_bit():
    rep = s3_irrep2()
    rng = np.random.default_rng(3)
    full, plane = full_system(rep), subspace_system(rep, [proj(ket(0, 2))])
    assert plane.space.dim < full.space.dim
    perm = full_system(regular_representation(s3()))
    assert perm.rep.perms is not None
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    dense = rotated_frame(smeared_canonical_frame(s3(), 0.3), v)
    assert np.all(np.any(np.stack(dense.effects) != 0, axis=0))  # support is every block
    frames = (canonical_ideal_frame(s3()), smeared_canonical_frame(s3(), 0.3), dense)
    for frame in frames:
        for system in (full, plane, perm):
            n = system.space.dim
            coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ops = list(system.space.basis) + [system.space.combine(coeff)]
            got = _relativize_stack(frame, system, ops)
            assert got.shape == (n + 1, 6 * system.dim, 6 * system.dim)
            for a, out in zip(ops, got):
                assert np.array_equal(out, relativize_oracle(frame, system, a))


def test_relativize_stack_takes_translates_a_few_elements_at_a_time():
    # a qubit-valued Z8 frame has 4 support blocks, fewer than its 8
    # elements, so the translates come in two chunks of 4 elements; each
    # slice is still the loop over act bit for bit, on a phased and on a
    # permutation system
    value = zn_phase_rep(8)
    frame = principal_frame_from_seed(value, np.full((2, 2), 1 / 8, dtype=complex))
    for system in (full_system(zn_phase_rep(8)), full_system(regular_representation(value.group))):
        ops = system.space.basis_stack
        got = _relativize_stack(frame, system, ops)
        for a, out in zip(ops, got):
            expected = np.zeros_like(out)
            for g in value.group.elements():
                expected += np.kron(frame.effects[g], act(system.rep, g, a))
            assert np.array_equal(out, expected)


def test_relativize_stack_holds_no_more_translates_than_blocks():
    # Z16 qubit frame against the 16-dim regular system: 4 blocks of the
    # 256 basis operators take 4 MiB, the output 4 MiB, and all 16
    # translates at once would take 16 MiB more
    value = zn_phase_rep(16)
    frame = principal_frame_from_seed(value, np.full((2, 2), 1 / 16, dtype=complex))
    system = full_system(regular_representation(value.group))
    ops = system.space.basis_stack
    tracemalloc.start()
    try:
        _relativize_stack(frame, system, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ideal_frame_closed_forms():
    fr = z2_ideal_frame()
    sq = qubit()
    assert max_abs(relativize(fr, sq, Z) - tensor_product(Z, Z)) < 1e-12
    assert max_abs(relativize(fr, sq, X) - tensor_product(I2, X)) < 1e-12
    assert max_abs(relativize(fr, sq, I2) - np.eye(4)) < 1e-12
    for a in (Z, X, Y, proj(ket(0, 2))):
        assert max_abs(relativize(fr, sq, a) - relativize_oracle(fr, sq, a)) < 1e-13


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


def test_ideal_isomorphism_requires_full_algebra():
    fr = z2_ideal_frame()
    with pytest.raises(RequiresFullAlgebra):
        check_ideal_isomorphism(relativization_map(fr, subspace_system(z2_flip_rep(), [Z])))


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
        joint = _joint_partition(frame, d)
        assert max_abs(_off_blocks(images, joint)) == 0.0
        choi = _choi_matrix(images, d)[None]
        choi_parts = _joint_partition(frame, d, outer=d)
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
    (idx,) = _joint_partition(canonical_ideal_frame(s3()), d)
    assert idx.shape == (6, d)


def _dense_multiplicativity(rmap):
    """devs[i, j]: dense operator norm of rel(b_i b_j) - rel(b_i) rel(b_j)."""
    frame, system, images = rmap.frame, rmap.system, rmap.images
    basis = system.space.basis_stack
    return np.array([
        [operator_norm(relativize(frame, system, a @ b) - images[i] @ images[j])
         for j, b in enumerate(basis)]
        for i, a in enumerate(basis)
    ])


def _first_pair_near_max(devs, tol):
    """First (i, j) in row-major order whose deviation is within tol of the largest."""
    for i, j in np.ndindex(*devs.shape):
        if devs[i, j] >= devs.max() - tol:
            return (i, j)


def _dense_law_values(rmap):
    """The axiom and embedding deviations from one dense call per operator.

    On a full algebra positivity is the negated smallest eigenvalue of the
    dense Choi matrix, and contraction is read from the basis alone.
    """
    frame, system, images = rmap.frame, rmap.system, rmap.images
    positivity = -min_eigenvalue(_choi_matrix(images, system.dim))
    ins = [operator_norm(m) for m in system.space.basis]
    outs = [operator_norm(m) for m in images]
    excess = max([0.0] + [o / i - 1.0 for o, i in zip(outs, ins) if i > 1e-9])
    mult_devs = _dense_multiplicativity(rmap)
    mult = float(mult_devs.max())
    witness = None if mult == 0.0 else _first_pair_near_max(mult_devs, 1e-9)
    basis = system.space.basis_stack
    iso = max(abs(operator_norm(m) - operator_norm(b)) for m, b in zip(images, basis))
    adj = max(
        operator_norm(relativize(frame, system, np.conj(b).T) - np.conj(m).T)
        for m, b in zip(images, basis)
    )
    return positivity, excess, mult, witness, iso, adj


def test_dense_support_reports_equal_the_dense_calls_bit_for_bit():
    # a connected effect support is one block: the gather is the identity
    # and every value is the one a dense call per operator gives
    system = full_system(s3_irrep2())
    for frame in _dense_support_frames():
        rmap = relativization_map(frame, system)
        assert len(_joint_partition(frame, system.dim)) == 1
        axioms = check_channel_axioms(rmap, samples=5, seed=3)
        embed = check_ideal_isomorphism(rmap)
        positivity, excess, mult, witness, iso, adj = _dense_law_values(rmap)
        assert axioms.detail.startswith("positivity choi; ")
        assert axioms.deviations["positivity"] == positivity
        assert axioms.deviations["contraction"] == excess
        assert embed.deviations == {"multiplicativity": mult, "isometry": iso, "adjoint": adj}
        if not embed.passed:
            assert embed.witnesses == {"basis_pair": list(witness)}


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
    # and projects those entries alone: no translate through act, no
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
    monkeypatch.setattr(framerel.systems, "act", refuse)
    monkeypatch.setattr(MatrixSubspace, "residuals", refuse)
    rel = build_relative_subspace(ideal, system)
    assert (rel.space.dim, rel.kernel.dim) == (16, 0)
    assert not block_sizes  # the product check runs on request only
    assert is_vn_algebra(rel.as_system) and rel.as_system.is_invariant
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
    rmap = relativization_map(frame, _permutation_system(group, 3))
    devs = _dense_multiplicativity(rmap)
    assert len(np.argwhere(devs >= devs.max() - 1e-12)) == 6
    report = check_ideal_isomorphism(rmap)
    assert report.witnesses == {"basis_pair": [1, 3]}
    assert report.witnesses == {"basis_pair": list(_first_pair_near_max(devs, 1e-9))}


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


def test_functor_laws_take_the_sampling_settings_everywhere(monkeypatch):
    # frame value system and system are both span{I, Z}: every channel of
    # the check, the two identities included, is sampled with the given
    # count and seed
    values = subspace_system(z2_flip_rep(), [Z])
    frame = principal_frame_from_seed(z2_flip_rep(), np.diag([1.0, 0.0]), value_system=values)
    system = subspace_system(z2_flip_rep(), [Z])
    psi = build_frame_morphism(
        frame, frame, build_channel(values, values, values.space.basis, samples=3, seed=0)
    )
    images = [0.5 * b + 0.5 * np.trace(b) * I2 / 2 for b in system.space.basis]
    phi = build_channel(system, system, images, samples=3, seed=0)

    built = []
    original = framerel.systems.build_channel

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    for name in ("systems", "frames", "relativize"):
        monkeypatch.setattr(importlib.import_module(f"framerel.{name}"), "build_channel", recording)
    report = check_functor_laws([(psi, phi), (psi, phi)], samples=3, seed=0)
    assert report.passed
    assert {(ch.positivity_check, ch.positivity_samples, ch.positivity_seed) for ch in built} == {
        ("sampled", 3, 0)
    }
    identities = [
        ch.source
        for ch in built
        if ch.source is ch.target
        and np.array_equal(np.stack(ch.images), ch.source.space.basis_stack)
    ]
    assert any(source is values for source in identities)
    assert any(source is system for source in identities)


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
        assert abs(report.deviations["tensor_form"] - max_abs(oracle - images)) <= 1e-12


def test_tensor_form_requires_equivariance():
    psi = z2_smearing_morphism(0.5)
    sq = qubit()
    with pytest.raises(ChannelNotEquivariant):
        check_equivariant_tensor_form(psi, conjugation_channel(sq, H))


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
            xs = _relativize_stack(psi.source, system, system.space.basis_stack)
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
