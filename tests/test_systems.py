"""Semi-quantum systems, channels, states: conventions pinned by oracles."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framerel.linalg
import framerel.systems

from framerel.errors import (
    DimensionError,
    FramerelError,
    ImageOutsideTarget,
    InvalidRepresentation,
    NotAState,
    NotPositive,
    NotUnital,
    ObjectMismatch,
    OperatorOutsideSystem,
    RequiresFullAlgebra,
)
from framerel.frames import canonical_ideal_frame, principal_frame_from_seed
from framerel.groups import (
    UnitaryRep,
    act,
    build_cyclic_group,
    build_symmetric_group,
    moved_on_support,
    regular_representation,
    tensor_rep,
    translates,
    trivial_rep,
    unitary_rep,
)
from framerel.linalg import block_partition, matrix_unit_span, max_abs, span_subspace
from framerel.relativize import relativization_map
from framerel.systems import (
    DEFAULT_POSITIVITY_SAMPLES,
    DEFAULT_POSITIVITY_SEED,
    _NOT_CLOSED,
    ChannelMap,
    _choi_matrix,
    _equivariance_table,
    build_channel,
    same_system,
    channel_superop,
    compose_channels,
    conjugation_channel,
    full_system,
    identity_channel,
    invariant_subalgebra,
    is_equivariant,
    is_invariant,
    is_vn_algebra,
    kraus_channel,
    predual_channel,
    quotient_dimension,
    state_class,
    subspace_system,
    system_from_subspace,
)

from .strategies import group_reps, permutation_matrices
from .support import (
    H,
    I2,
    X,
    Y,
    Z,
    ampliation_channel,
    commutant_svd_oracle,
    commutator_invariant,
    depolarizing_channel,
    image_stack_apply,
    random_density,
    refusing_chain_images,
    s3,
    s3_irrep2,
    smeared_canonical_frame,
    traced_peak,
    z2_flip_rep,
    zn_phase_rep,
)


# ------------------------------------------------------------------ oracles


def commutant_dim_oracle(rep):
    """dim of the commutant = (1/|G|) sum_g |tr U(g)|^2 (trace of the twirl)."""
    total = sum(abs(np.trace(u)) ** 2 for u in rep.matrices)
    value = total / rep.group.order
    assert abs(value - round(value)) < 1e-9
    return int(round(value))


E00 = np.diag([1.0, 0.0]).astype(complex)
E01 = np.array([[0, 1], [0, 0]], dtype=complex)
E10 = E01.T.copy()
E11 = np.diag([0.0, 1.0]).astype(complex)


# ------------------------------------------------------------------ systems


def test_full_system_basis_is_matrix_units_row_major():
    sq = full_system(z2_flip_rep())
    assert sq.is_full_algebra and is_vn_algebra(sq) and not is_invariant(sq)
    assert sq.space.dim == 4
    for got, want in zip(sq.space.basis, [E00, E01, E10, E11]):
        assert max_abs(got - want) == 0.0


def test_subspace_system_without_saturation():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    assert sys_iz.space.dim == 2
    assert is_vn_algebra(sys_iz)  # diagonal algebra is closed under products
    assert not is_invariant(sys_iz)  # X Z X = -Z moves elements, span is fixed
    assert sys_iz.space.contains(np.diag([2.0, -1.0]).astype(complex))
    assert not sys_iz.space.contains(X)


def test_subspace_system_saturates_group_translates():
    sys_e01 = subspace_system(z2_flip_rep(), [E01])
    # X E01 X = E10 had to be added
    assert span_subspace([E01, I2]).dim == 2
    assert sys_e01.space.dim == 3
    assert sys_e01.space.contains(E10)
    assert not is_vn_algebra(sys_e01)  # E01 E10 = E00 is outside the span
    # the span is closed under adjoints (E01^dag = E10), so a state's
    # canonical representative is its projection onto span{E01, E10, I}:
    # the off-diagonal entries kept, the diagonal averaged
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    canonical = state_class(sys_e01, rho).canonical
    assert max_abs(canonical - np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, 0.5]])) < 1e-15


def test_invariant_subalgebra_dims_match_twirl_trace_oracle():
    rep = z2_flip_rep()
    assert invariant_subalgebra(rep).space.dim == commutant_dim_oracle(rep) == 2
    joint = tensor_rep(rep, rep)
    assert invariant_subalgebra(joint).space.dim == commutant_dim_oracle(joint) == 8
    irr = s3_irrep2()
    assert invariant_subalgebra(irr).space.dim == commutant_dim_oracle(irr) == 1
    inv = invariant_subalgebra(joint)
    assert is_invariant(inv) and is_vn_algebra(inv)
    for b in inv.space.basis:
        for g in joint.group.elements():
            assert max_abs(act(joint, g, b) - b) < 1e-12


def test_invariant_subalgebra_spans_what_the_svd_oracle_spans():
    # orbitals on monomial reps (phased Z_n, S3 permutation and regular), the twirl on the dense irrep
    s3_perm = unitary_rep(s3(), permutation_matrices(3))
    s3_regular = regular_representation(s3())
    phased = [zn_phase_rep(n) for n in (2, 3, 6)] + [tensor_rep(zn_phase_rep(4), zn_phase_rep(4))]
    for rep in phased + [s3_perm, s3_regular, tensor_rep(s3_regular, s3_perm), s3_irrep2()]:
        system = invariant_subalgebra(rep)
        basis = system.space.basis_stack.reshape(system.space.dim, -1)
        oracle = commutant_svd_oracle(rep)
        assert len(basis) == len(oracle) == commutant_dim_oracle(rep)
        assert max_abs(basis.T @ np.conj(basis) - oracle.T @ np.conj(oracle)) < 1e-12
        assert is_invariant(system)


def test_s4_commutants_are_counted_by_orbitals():
    # the (|G| d^2, d^2) constraint matrix of the joint rep would take 32.6 GB
    group = build_symmetric_group(4)
    regular = regular_representation(group)
    assert invariant_subalgebra(regular).space.dim == commutant_dim_oracle(regular) == 24
    joint = tensor_rep(regular, unitary_rep(group, permutation_matrices(4)))
    assert invariant_subalgebra(joint).space.dim == commutant_dim_oracle(joint) == 384


def test_invariant_subalgebra_passes_the_validation_it_skips():
    # orbit path on monomial reps, twirl path on dense ones (the S3 irrep,
    # and a phased Z4 rep held by its matrices): the span that is returned
    # without validation passes it, and it is fixed and closed
    phased = tensor_rep(regular_representation(build_cyclic_group(4)), zn_phase_rep(4))
    dense = UnitaryRep(group=phased.group, dim=phased.dim, _matrices=phased.matrices)
    s3_perm = unitary_rep(s3(), permutation_matrices(3))
    reps = {
        "orbit": [zn_phase_rep(6), phased, tensor_rep(regular_representation(s3()), s3_perm)],
        "twirl": [s3_irrep2(), dense],
    }
    for path, path_reps in reps.items():
        for rep in path_reps:
            assert (rep.perms is None) == (path == "twirl")
            system = invariant_subalgebra(rep)
            checked = framerel.systems._assemble_system(rep, system.space, 1e-9)
            assert checked.space is system.space and system.space.dim == commutant_dim_oracle(rep)
            assert is_invariant(system) and commutator_invariant(system) and is_vn_algebra(system)


def test_s4_commutant_is_built_without_validation_in_little_memory(monkeypatch):
    # 384 orbit indicators on 9216 entries: the basis is 54 MiB of complex values
    group = build_symmetric_group(4)
    joint = tensor_rep(regular_representation(group), unitary_rep(group, permutation_matrices(4)))

    def refuse(*args, **kwargs):
        raise AssertionError("the commutant was validated")

    monkeypatch.setattr(framerel.systems, "_assemble_system", refuse)
    system, peak = traced_peak(lambda: invariant_subalgebra(joint))
    assert system.space.dim == 384
    assert peak < 128 * 2**20


def _spans_for_invariance(rep, rng):
    """Spans holding I and closed under ``rep``: twirled (invariant), orbit
    spans of random, sparse and diagonal operators (mostly not), and the full
    algebra."""
    d = rep.dim
    mats = rep.matrices
    a, b = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    mask = rng.random((d, d)) < 0.3
    twirls = [sum(u @ m @ np.conj(u).T for u in mats) / len(mats) for m in (a, b)]
    return [
        system_from_subspace(rep, span_subspace([np.eye(d), *twirls])),
        subspace_system(rep, [a]),
        subspace_system(rep, [a * (mask | mask.T)]),
        subspace_system(rep, [np.diag(rng.standard_normal(d))]),
        full_system(rep),
    ]


@settings(max_examples=40, deadline=None)
@given(case=group_reps(), seed=st.integers(0, 2**32 - 1))
def test_is_invariant_agrees_with_the_commutator_loop(case, seed):
    kind, n, mats = case
    group = build_cyclic_group(n) if kind == "cyclic" else build_symmetric_group(n)
    rep = unitary_rep(group, mats)
    systems = _spans_for_invariance(rep, np.random.default_rng(seed))
    verdicts = [is_invariant(system) for system in systems]
    assert verdicts == [commutator_invariant(system) for system in systems]
    assert verdicts[0]


def test_is_invariant_agrees_with_the_commutator_loop_on_dense_and_phased_reps():
    rng = np.random.default_rng(83)
    phased = [zn_phase_rep(n) for n in (3, 5)] + [tensor_rep(zn_phase_rep(4), zn_phase_rep(4))]
    dense = [UnitaryRep(group=r.group, dim=r.dim, _matrices=r.matrices) for r in phased]
    seen = set()
    for rep in [s3_irrep2(), *phased, *dense]:
        for system in _spans_for_invariance(rep, rng):
            verdict = is_invariant(system)
            assert verdict == commutator_invariant(system)
            seen.add(verdict)
    assert seen == {True, False}


# ----------------------------------------------------------------- channels


def test_system_flags_hold_across_translate_chunks():
    # 81 basis elements: the translates are formed in more than one chunk
    group = build_cyclic_group(9)
    assert is_invariant(full_system(trivial_rep(group, 9)))
    shift = regular_representation(group)
    assert not is_invariant(full_system(shift))
    rng = np.random.default_rng(23)
    gens = [rng.standard_normal((9, 9)) for _ in range(70)]
    fixed = subspace_system(trivial_rep(group, 9), gens)
    assert fixed.space.dim == 71 and is_invariant(fixed) and not is_vn_algebra(fixed)
    diagonal = subspace_system(shift, [np.diag(rng.standard_normal(9))])
    assert diagonal.space.dim == 9 and is_vn_algebra(diagonal) and not is_invariant(diagonal)
    with pytest.raises(FramerelError, match="not closed under the group action"):
        system_from_subspace(shift, span_subspace(gens[:3] + [np.eye(9)]))


def _unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def _dense_residual(space, m):
    """Entrywise distance from m to the span, from the dense basis."""
    flat = space.basis_stack.reshape(space.dim, -1)
    v = np.asarray(m, dtype=complex).reshape(-1)
    return np.abs((np.conj(flat) @ v) @ flat - v).max()


def _dense_flags_oracle(rep, space, tol=1e-9):
    """(closed, invariant, *-algebra) from dense translates, adjoints and products."""
    basis = space.basis_stack
    translates = [(b, u @ b @ np.conj(u).T) for u in rep.matrices for b in basis]
    closed = all(_dense_residual(space, t) <= tol for _, t in translates)
    invariant = all(max_abs(t - b) <= tol for b, t in translates)
    algebra = all(_dense_residual(space, np.conj(b).T) <= tol for b in basis) and all(
        _dense_residual(space, a @ b) <= tol for a in basis for b in basis
    )
    return closed, invariant, algebra


def test_permutation_translates_agree_with_the_dense_oracle():
    # Spans on the Z3 regular (permutation) rep whose supports the action
    # keeps, moves within, or carries off.  Entries below the tolerance
    # may leave the support without leaving the span.
    rep = regular_representation(build_cyclic_group(3))
    eye, shift, eps = np.eye(3, dtype=complex), rep.matrices[1], 1e-12
    spans = {
        "diagonal": ([_unit(3, k, k) for k in range(3)], (True, False, True)),
        "circulant": ([eye, shift, shift @ shift], (True, True, True)),
        "shift-eps": ([eye, shift + eps * _unit(3, 0, 1)], (True, True, False)),
        "diagonal-eps": (
            [_unit(3, 0, 0) + eps * _unit(3, 0, 1), _unit(3, 1, 1), _unit(3, 2, 2)],
            (True, False, True),
        ),
        "one-unit": ([eye, _unit(3, 0, 0)], (False, False, True)),
        "off-diagonal": ([eye, _unit(3, 0, 1) + _unit(3, 1, 0)], (False, False, False)),
    }
    for name, (mats, flags) in spans.items():
        space = span_subspace(mats)
        assert _dense_flags_oracle(rep, space) == flags, name
        outside = moved_on_support(rep, space.support_basis, space.support)[1]
        assert outside.any() == (name in ("shift-eps", "diagonal-eps", "off-diagonal")), name
        closed, invariant, algebra = flags
        if closed:
            system = system_from_subspace(rep, space)
            assert (is_invariant(system), is_vn_algebra(system)) == (invariant, algebra), name
        else:
            with pytest.raises(FramerelError, match="not closed under the group action"):
                system_from_subspace(rep, space)


def test_system_flags_agree_with_the_dense_oracle_on_generated_spans():
    rng = np.random.default_rng(37)
    reps = [s3_irrep2(), zn_phase_rep(4), regular_representation(s3()), regular_representation(build_cyclic_group(4))]
    for rep in reps:
        d = rep.dim
        for gens in (
            [rng.standard_normal((d, d))],
            [np.diag(rng.standard_normal(d))],
            [_unit(d, 0, 0)],
            [_unit(d, 0, 1) + _unit(d, 1, 0)],
        ):
            system = subspace_system(rep, gens)
            closed, invariant, algebra = _dense_flags_oracle(rep, system.space)
            assert closed
            assert (is_invariant(system), is_vn_algebra(system)) == (invariant, algebra)


def test_phased_spans_assemble_as_on_the_matrix_path():
    # A monomial rep with phases validates a proper span on its support;
    # its matrices held as a matrix-path rep conjugate the basis densely.
    # Both give the dense oracle's invariance flag, or the same closure
    # error, on closed and unclosed spans.
    z4 = build_cyclic_group(4)
    phase = zn_phase_rep(4)
    joint = tensor_rep(regular_representation(z4), phase)
    signed = unitary_rep(z4, [np.linalg.matrix_power(1j * X, k) for k in range(4)])
    rng = np.random.default_rng(53)
    for rep in (phase, joint, signed):
        assert rep.phases is not None
        dense = UnitaryRep(group=rep.group, dim=rep.dim, _matrices=rep.matrices)
        d = rep.dim
        a = rng.standard_normal((d, d))
        twirl = sum(u @ a @ np.conj(u).T for u in rep.matrices)
        spans = [
            span_subspace([np.eye(d), twirl]),
            subspace_system(rep, [rng.standard_normal((d, d))]).space,
            subspace_system(rep, [np.diag(rng.standard_normal(d))]).space,
            subspace_system(rep, [_unit(d, 0, 0)]).space,
            span_subspace([np.eye(d), np.diag(rng.standard_normal(d))]),
            span_subspace([np.eye(d), _unit(d, 0, 1) + _unit(d, 1, 0)]),
            span_subspace([np.eye(d), rng.standard_normal((d, d))]),
        ]
        seen = set()
        for space in spans:
            closed, invariant, _ = _dense_flags_oracle(dense, space)
            outcomes = []
            for r in (rep, dense):
                try:
                    outcomes.append(is_invariant(system_from_subspace(r, space)))
                except FramerelError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0] == (invariant if closed else _NOT_CLOSED)
            seen.add(outcomes[0])
        assert seen == {True, False, _NOT_CLOSED}


def test_subspace_system_orbit_matches_the_per_element_loop_bit_for_bit():
    rng = np.random.default_rng(43)
    for rep in (s3_irrep2(), zn_phase_rep(5), regular_representation(s3())):
        d = rep.dim
        gens = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
        seeds = gens + [np.eye(d, dtype=complex)]
        orbit = seeds + [act(rep, g, m) for m in seeds for g in rep.group.elements()]
        expected = span_subspace(orbit, ambient_dim=d)
        assert np.array_equal(subspace_system(rep, gens).space.basis_stack, expected.basis_stack)


def test_same_system_compares_proper_spans_whatever_their_basis():
    rep = regular_representation(build_cyclic_group(3))
    diagonal = subspace_system(rep, [_unit(3, 0, 0)])
    rebased = system_from_subspace(
        rep, span_subspace([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 1.0])])
    )
    circulant = subspace_system(rep, [rep.matrices[1], rep.matrices[2]])
    assert diagonal.space.dim == rebased.space.dim == circulant.space.dim == 3
    assert same_system(diagonal, rebased) and same_system(rebased, diagonal)
    assert not same_system(diagonal, circulant) and not same_system(circulant, diagonal)


def _translate_loop_invariant(rep, tol=1e-9):
    """Oracle: the full algebra is invariant iff every g fixes every matrix unit."""
    d = rep.dim
    for u in rep.matrices:
        for k in range(d * d):
            unit = np.zeros((d, d), dtype=complex)
            unit.flat[k] = 1.0
            if max_abs(u @ unit @ np.conj(u).T - unit) > tol:
                return False
    return True


def test_full_system_invariance_agrees_with_the_translate_loop():
    z4 = build_cyclic_group(4)
    theta = np.pi / 2  # U(k) = e^{i k theta} I is a representation of Z4
    reps = [
        regular_representation(z4),  # permutation, not scalar
        s3_irrep2(),  # dense, not scalar
        z2_flip_rep(),
        trivial_rep(z4, 3),
        unitary_rep(z4, [np.exp(1j * theta * k) * np.eye(3) for k in range(4)]),
    ]
    flags = [is_invariant(full_system(rep)) for rep in reps]
    assert flags == [_translate_loop_invariant(rep) for rep in reps]
    assert flags == [False, False, False, True, True]


def test_full_system_stores_no_basis():
    sq = full_system(regular_representation(build_cyclic_group(5)))
    assert sq.space.is_unit_span and sq.space._stack is None
    # a full system keeps every state as its own canonical representative
    rho = random_density(np.random.default_rng(3), 5)
    assert np.array_equal(state_class(sq, rho).canonical, rho)
    assert quotient_dimension(sq) == 25


def test_full_system_on_s5_allocates_no_unit_stack():
    # the dense (14400, 120, 120) unit stack would be 3.3 GB
    rep = regular_representation(build_symmetric_group(5))
    sq, peak = traced_peak(lambda: full_system(rep))
    assert sq.is_full_algebra and sq.space.dim == 14400
    assert peak < 64 * 2**20


def test_full_spans_are_the_same_system_whatever_their_basis():
    rep = z2_flip_rep()
    units = full_system(rep)
    pauli = subspace_system(rep, [X, Y, Z])  # Gram-Schmidt basis, not the units
    assert pauli.is_full_algebra and not pauli.space.is_unit_span
    assert same_system(units, pauli) and same_system(pauli, units)
    assert not same_system(units, subspace_system(rep, [Z]))


def _unit_oracle_apply(channel, ops):
    """Dense matrix-unit oracle: coefficients conj(B) @ vec(a), then c @ images."""
    d = channel.source.dim
    units = np.eye(d * d, dtype=complex)
    images = np.stack([im.reshape(-1) for im in channel.images])
    return np.stack([
        (np.conj(units) @ np.ascontiguousarray(a).reshape(-1)) @ images for a in ops
    ]).reshape(len(ops), channel.target.dim, channel.target.dim)


def test_apply_on_the_unit_span_matches_the_dense_oracle_bit_for_bit():
    rng = np.random.default_rng(61)
    system = full_system(s3_irrep2())
    ch = depolarizing_channel(system, 0.3)
    stack = np.empty((5, 2, 2), dtype=complex)
    stack.real = rng.choice([0.0, -0.0, 1.25, -0.5], size=(5, 2, 2))
    stack.imag = rng.choice([0.0, -0.0, 2.0], size=(5, 2, 2))
    for ops in (stack, stack.transpose(0, 2, 1)):
        want = _unit_oracle_apply(ch, ops)
        got = ch.apply(ops)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        for k in range(len(ops)):
            assert np.array_equal(ch.apply(np.ascontiguousarray(ops[k])), want[k])
    with pytest.raises(DimensionError):
        ch.apply(np.zeros((2, 3, 3)))


def test_choi_certificate_reads_the_units_on_any_full_span():
    # span{I, X, Y, Z} is the full qubit algebra with a Gram-Schmidt basis
    rep = trivial_rep(build_cyclic_group(2), 2)
    pauli = subspace_system(rep, [X, Y, Z])
    assert pauli.is_full_algebra and not pauli.space.is_unit_span
    # the identity is certified by structure, the same images by Choi
    ident = identity_channel(pauli, samples=4, seed=2)
    assert (ident.positivity_check, ident.positivity_samples, ident.positivity_seed) == (
        "structure",
        4,
        2,
    )
    assert max_abs(channel_superop(ident) - np.eye(4)) < 1e-12
    explicit = build_channel(pauli, pauli, pauli.space.basis_stack)
    assert (explicit.positivity_check, explicit.positivity_seed) == ("choi", None)
    assert max_abs(channel_superop(explicit) - np.eye(4)) < 1e-12
    # conjugation by H: the superoperator acts on the units, whatever the basis
    conj = conjugation_channel(pauli, H)
    units = full_system(rep)
    assert max_abs(channel_superop(conj) - channel_superop(conjugation_channel(units, H))) < 1e-12
    # the transpose map is positive but not completely positive
    with pytest.raises(NotPositive) as err:
        build_channel(pauli, pauli, [b.T for b in pauli.space.basis])
    assert err.value.min_eigenvalue < -0.5


def test_choi_matrix_matches_the_kron_sum():
    rng = np.random.default_rng(29)
    images = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    oracle = np.zeros((6, 6), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            oracle += np.kron(unit, images[i * 2 + j])
    assert np.array_equal(_choi_matrix(images, 2), oracle)


def test_build_channel_validates_counts_unitality_and_targets():
    sq = full_system(z2_flip_rep())
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    with pytest.raises(DimensionError):
        build_channel(sq, sq, [I2, X])  # wrong image count
    with pytest.raises(NotUnital):
        build_channel(sq, sq, [0.5 * E00, E01, E10, E11])
    with pytest.raises(ImageOutsideTarget) as err:
        # X is not in the diagonal target span
        build_channel(sq, sys_iz, [E00, X / 2, X / 2, E11])
    assert err.value.index == 1
    # the stacked check names the first image outside, not the farthest
    images = [E00, 0.25 * X, X, E11]
    with pytest.raises(ImageOutsideTarget) as err:
        build_channel(sq, sys_iz, images)
    assert err.value.index == 1 and abs(err.value.residual - 0.25) < 1e-15
    assert np.array_equal(err.value.witness, images[1])
    # the first failure, with a farther one after it, keeps its index, and
    # its witness is a copy
    z5 = regular_representation(build_cyclic_group(5))
    diagonal = subspace_system(z5, list(np.eye(5)[:, None] * np.eye(5)))
    images = np.zeros((25, 5, 5), dtype=complex)
    images[18, 0, 1], images[23, 2, 3] = 0.25, 1.0
    with pytest.raises(ImageOutsideTarget) as err:
        build_channel(full_system(z5), diagonal, images)
    assert err.value.index == 18 and abs(err.value.residual - 0.25) < 1e-15
    assert np.array_equal(err.value.witness, images[18]) and err.value.witness.base is None
    # shapes are read before the one coercion: a ragged list is a DimensionError
    with pytest.raises(DimensionError, match="image 2"):
        build_channel(sq, sq, [E00, E01, np.eye(3), E11])


def test_build_channel_names_a_non_finite_image():
    # a NaN image made the target, unitality and Choi checks compare NaN,
    # and the Choi eigenvalues raised numpy's LinAlgError
    sq = full_system(z2_flip_rep())
    images = [E00, E01, np.full((2, 2), np.nan), E11]
    with pytest.raises(ImageOutsideTarget, match=r"^image of basis element 2 leaves the target span \(residual inf\)$") as err:
        build_channel(sq, sq, images)
    assert err.value.index == 2 and np.isnan(err.value.witness).all()


def test_positivity_rejected_via_choi_on_full_algebras():
    sq = full_system(z2_flip_rep())
    # unital map fixing I with Z -> 2Z: sends the state (I+Z)/2 to
    # (I+2Z)/2 which has a negative eigenvalue
    images = [(I2 + 2 * Z) / 2, E01, E10, (I2 - 2 * Z) / 2]
    with pytest.raises(NotPositive) as err:
        build_channel(sq, sq, images)
    assert err.value.min_eigenvalue < -0.1


def test_full_source_takes_the_choi_certificate_whatever_the_target():
    sq = full_system(z2_flip_rep())
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    # the pinching onto the diagonal is completely positive
    pinch = build_channel(sq, sys_iz, [E00, 0 * E01, 0 * E10, E11])
    assert (pinch.positivity_check, pinch.positivity_seed) == ("choi", None)
    # the Z-stretch into span{I, Z} sends E00 to diag(3/2, -1/2): the Choi
    # matrix is diag(3/2, -1/2, -1/2, 3/2) on the nonzero units, no sample
    # is drawn and no witness is named
    with pytest.raises(NotPositive) as err:
        build_channel(sq, sys_iz, [_stretch_z(E00), 0 * E01, 0 * E10, _stretch_z(E11)])
    assert "Choi matrix" in str(err.value)
    assert err.value.witness is None
    assert abs(err.value.min_eigenvalue + 0.5) < 1e-12
    # the transpose map is positive but not completely positive
    with pytest.raises(NotPositive) as err:
        build_channel(sq, sq, [E00, E10, E01, E11])
    assert abs(err.value.min_eigenvalue + 1.0) < 1e-12


def test_choi_spectrum_is_taken_per_block_of_its_pattern():
    # a -> -a/2 + (3/2) tr(a) I/3 on the full qutrit: the Choi matrix is
    # -(1/2) |Omega><Omega| + I/2, nonzero on the |ii> block and the
    # diagonal, so it splits into one 3 x 3 block and six 1 x 1 blocks;
    # the smallest eigenvalue, -1 on Omega, is the dense one
    rep = trivial_rep(build_cyclic_group(2), 3)
    full = full_system(rep)
    images = [-0.5 * b + 0.5 * np.trace(b) * np.eye(3) for b in full.space.basis]
    choi = _choi_matrix(np.stack(images), 3)
    assert sorted(idx.shape for idx in block_partition(choi != 0)) == [(1, 3), (6, 1)]
    with pytest.raises(NotPositive) as err:
        build_channel(full, full, images)
    assert abs(err.value.min_eigenvalue + 1.0) < 1e-12
    assert abs(err.value.min_eigenvalue - np.linalg.eigvalsh(choi)[0]) < 1e-12


def test_positivity_rejected_by_sampling_on_proper_subspace():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    with pytest.raises(NotPositive) as err:
        build_channel(sys_iz, sys_iz, _images_for(sys_iz, lambda a: _stretch_z(a)))
    assert err.value.witness is not None
    assert err.value.min_eigenvalue < -0.1


def _images_for(system, fn):
    return [fn(b) for b in system.space.basis]


def _stretch_z(a):
    # doubles the Z component, keeps the identity component
    coeff_i = np.trace(a) / 2
    coeff_z = np.trace(Z @ a) / 2
    return coeff_i * I2 + 2 * coeff_z * Z


def test_channel_positivity_mode_bookkeeping():
    sq = full_system(z2_flip_rep())
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    # explicit images: Choi on a full source, sampled on a proper one
    full_ch = build_channel(sq, sq, sq.space.basis_stack)
    assert (full_ch.positivity_check, full_ch.positivity_samples, full_ch.positivity_seed) == (
        "choi",
        0,
        None,
    )
    proper_ch = build_channel(sys_iz, sys_iz, sys_iz.space.basis_stack)
    assert (proper_ch.positivity_check, proper_ch.positivity_samples, proper_ch.positivity_seed) == (
        "sampled",
        DEFAULT_POSITIVITY_SAMPLES,
        DEFAULT_POSITIVITY_SEED,
    )
    # the identity is the empty chain on either kind, and records its settings
    for system in (sq, sys_iz):
        ident = identity_channel(system)
        assert ident.factors == ()
        assert (ident.positivity_check, ident.positivity_samples, ident.positivity_seed) == (
            "structure",
            DEFAULT_POSITIVITY_SAMPLES,
            DEFAULT_POSITIVITY_SEED,
        )


def test_apply_rejects_operators_outside_source_span():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    ch = identity_channel(sys_iz)
    with pytest.raises(OperatorOutsideSystem):
        ch.apply(X)


def test_apply_on_stacks_matches_single_operator_calls():
    rng = np.random.default_rng(37)
    for system in (full_system(s3_irrep2()), subspace_system(z2_flip_rep(), [Z])):
        ch = depolarizing_channel(system, 0.4)
        d, n = system.dim, system.space.dim
        stack = system.space.combine(rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        view = stack.transpose(0, 2, 1)  # the span is closed under transposition here
        assert not view.flags.c_contiguous
        for ops in (stack, view):
            out = ch.apply(ops)
            assert out.shape == (4, d, d)
            for k in range(4):
                assert np.array_equal(out[k], ch.apply(np.ascontiguousarray(ops[k])))
        assert ch.apply(np.zeros((0, d, d))).shape == (0, d, d)
        with pytest.raises(DimensionError):
            ch.apply(np.zeros((2, d + 1, d + 1)))


def test_apply_on_a_stack_reports_the_largest_residual():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    ch = identity_channel(sys_iz)
    far, near = X, 0.25 * X + Z
    singles = []
    for op in (far, near):
        with pytest.raises(OperatorOutsideSystem) as err:
            ch.apply(op)
        singles.append(err.value.residual)
    with pytest.raises(OperatorOutsideSystem) as err:
        ch.apply(np.stack([I2, near, Z, far]))
    assert err.value.residual == max(singles) == 1.0


def test_composite_keeps_the_requested_sampling_settings():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    ch = build_channel(sys_iz, sys_iz, list(sys_iz.space.basis), samples=3, seed=0)
    assert (ch.positivity_check, ch.positivity_samples, ch.positivity_seed) == ("sampled", 3, 0)
    both = compose_channels(ch, compose_channels(ch, ch))
    assert (both.positivity_check, both.positivity_samples, both.positivity_seed) == ("sampled", 3, 0)
    # the composite starts on the first factor's source, so it keeps the
    # first factor's settings even after a Choi-certified second factor
    ampl = ampliation_channel(sys_iz, 1)
    into_full = compose_channels(ampl, ch)
    assert (into_full.positivity_samples, into_full.positivity_seed) == (3, 0)


def test_images_are_one_read_only_stack_and_apply_matches_the_flattened_copy():
    rng = np.random.default_rng(71)
    qubit = full_system(z2_flip_rep())
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    pauli = subspace_system(z2_flip_rep(), [X, Y, Z])
    plane = full_system(s3_irrep2())
    channels = [
        depolarizing_channel(qubit, 0.3),
        conjugation_channel(pauli, H),
        build_channel(sys_iz, sys_iz, list(sys_iz.space.basis), samples=3, seed=0),
        ampliation_channel(sys_iz, 2),
        compose_channels(depolarizing_channel(plane, 0.2), depolarizing_channel(plane, 0.6)),
        compose_channels(conjugation_channel(pauli, H), identity_channel(pauli)),
        identity_channel(sys_iz),
    ]
    for channel in channels:
        n, d = channel.source.space.dim, channel.target.dim
        assert channel.images.shape == (n, d, d) and not channel.images.flags.writeable
        with pytest.raises(ValueError):
            channel.images[0, 0, 0] = 1.0
        ops = channel.source.space.combine(rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)))
        if channel.factors is None:
            # an explicit channel applies its own stack, bit for bit
            assert np.array_equal(channel.apply(ops), image_stack_apply(channel, ops))
            assert np.array_equal(channel.apply(ops[0]), image_stack_apply(channel, ops[0]))
        else:
            # a chain folds through its factors, and its dense images agree
            assert max_abs(channel.apply(ops) - image_stack_apply(channel, ops)) < 1e-13
            assert max_abs(channel.apply(ops[0]) - image_stack_apply(channel, ops[0])) < 1e-13
    assert [ch.factors is None for ch in channels] == [True] * 4 + [False] * 3


def _per_operator_apply(channel, ops):
    """One vector-matrix product per operator, over every source coefficient."""
    d = channel.target.dim
    flat = channel.images.reshape(len(channel.images), d * d)
    return np.stack([
        channel.source.space.coefficients(a) @ flat for a in ops
    ]).reshape(len(ops), d, d)


def test_apply_matches_the_per_operator_oracle_within_rounding():
    rng = np.random.default_rng(83)
    frame = canonical_ideal_frame(build_cyclic_group(16))
    full = depolarizing_channel(frame.value_system, 0.3)
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    proper = build_channel(sys_iz, sys_iz, [0.5 * b + 0.5 * np.trace(b) * I2 / 2 for b in sys_iz.space.basis])
    effects = frame.effects  # diagonal: 16 of the 256 unit coefficients are in use
    used = np.any(full.source.space.coefficients(effects) != 0, axis=0)
    assert np.count_nonzero(used) == 16
    dense = rng.standard_normal((5, 16, 16)) + 1j * rng.standard_normal((5, 16, 16))
    inside = sys_iz.space.combine(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    for channel, ops in ((full, effects), (full, dense), (proper, inside)):
        bound = 1e-13 * np.abs(channel.images).max()
        assert max_abs(channel.apply(ops) - _per_operator_apply(channel, ops)) <= bound
        for k in range(len(ops)):
            assert max_abs(channel.apply(ops[k]) - _per_operator_apply(channel, ops[k : k + 1])[0]) <= bound
    zeros = full.apply(np.zeros((3, 16, 16)))
    assert np.array_equal(zeros, np.zeros((3, 16, 16))) and not np.any(np.signbit(zeros.view(float)))
    assert full.apply(np.zeros((0, 16, 16))).shape == (0, 16, 16)
    with pytest.raises(OperatorOutsideSystem) as err:
        proper.apply(np.concatenate([inside, X[None]]))
    assert err.value.residual == 1.0


def test_conjugation_equals_single_kraus():
    sq = full_system(z2_flip_rep())
    conj = conjugation_channel(sq, H)
    kraus = kraus_channel(sq, sq, [H])
    for a, b in zip(conj.images, kraus.images):
        assert max_abs(a - b) < 1e-14
    a = np.array([[0.3, 0.4], [0.1, 0.7]], dtype=complex)
    assert max_abs(conj.apply(a) - H @ a @ H) < 1e-12


def test_kraus_images_equal_the_per_basis_loop():
    # the images come from one batched K b K^dag product summed over the
    # Kraus operators, in the loop's order: equal to it, not just close
    qubit = full_system(z2_flip_rep())
    proper = subspace_system(z2_flip_rep(), [X])
    wide = full_system(tensor_rep(trivial_rep(qubit.group, 2), z2_flip_rep()))
    mixed = [np.sqrt(0.5) * I2, np.sqrt(0.3) * X, np.sqrt(0.2) * Z]
    halves = [np.kron(np.eye(2)[:, [k]], I2) for k in range(2)]  # a -> I2 (x) a
    for source, target, ops in ((qubit, qubit, mixed), (proper, qubit, mixed), (qubit, wide, halves)):
        channel = kraus_channel(source, target, ops)
        loop = [sum(k @ b @ np.conj(k).T for k in ops) for b in source.space.basis]
        assert np.array_equal(channel.images, np.stack(loop))
    assert np.array_equal(conjugation_channel(qubit, H).images, np.stack([H @ b @ H for b in qubit.space.basis]))


@pytest.mark.parametrize("proper", [False, True], ids=["full", "proper"])
def test_an_explicit_channel_and_its_chain_of_one_agree_bit_for_bit(proper):
    rng = np.random.default_rng(89)
    rep = zn_phase_rep(3)
    system = subspace_system(rep, [np.diag(rng.standard_normal(rep.dim))]) if proper else full_system(rep)
    channels = [depolarizing_channel(system, 0.3), conjugation_channel(system, rep.matrices[1])]
    coeffs = rng.standard_normal((5, system.space.dim)) + 1j * rng.standard_normal((5, system.space.dim))
    stack = system.space.combine(coeffs)
    for ch in channels:
        for chain in (
            compose_channels(identity_channel(ch.target), ch),
            compose_channels(ch, identity_channel(ch.source)),
        ):
            assert chain.factors == (ch,)
            assert np.array_equal(chain.images, ch.images)
            assert np.array_equal(chain.apply(stack), ch.apply(stack))
            assert np.array_equal(chain.apply(stack[0]), ch.apply(stack[0]))
            assert chain.hs_gain() == ch.hs_gain()


def test_compose_channels_and_endpoint_checks():
    sq = full_system(z2_flip_rep())
    dep = depolarizing_channel(sq, 0.5)
    conj = conjugation_channel(sq, X)
    both = compose_channels(dep, conj)
    a = np.array([[0.8, 0.2], [0.2, 0.2]], dtype=complex)
    assert max_abs(both.apply(a) - dep.apply(conj.apply(a))) < 1e-12
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    with pytest.raises(ObjectMismatch):
        compose_channels(identity_channel(sys_iz), dep)


def test_depolarizer_composition_multiplies_retention():
    # (1 - nu) factors multiply under composition: closed-form oracle
    sq = full_system(z2_flip_rep())
    d1 = depolarizing_channel(sq, 0.25)
    d2 = depolarizing_channel(sq, 1 / 3)
    both = compose_channels(d2, d1)
    expected = depolarizing_channel(sq, 1 - (1 - 0.25) * (1 - 1 / 3))
    for a, b in zip(both.images, expected.images):
        assert max_abs(a - b) < 1e-12


# ------------------------------------------------------------------- chains


def _chain_systems():
    """The Z4 and Z8 frame value systems, the S3 plane, the qubit and span{I, Z}."""
    return [
        canonical_ideal_frame(build_cyclic_group(4)).value_system,
        canonical_ideal_frame(build_cyclic_group(8)).value_system,
        full_system(s3_irrep2()),
        full_system(z2_flip_rep()),
        subspace_system(z2_flip_rep(), [Z]),
    ]


def _factor_pairs(system):
    """Two explicit channels on a system: depolarizing, then conjugation or depolarizing."""
    second = depolarizing_channel(system, 0.55)
    if system.is_full_algebra:
        second = conjugation_channel(system, system.rep.matrices[1])
    return depolarizing_channel(system, 0.3), second


def test_chain_images_and_matrix_agree_with_the_dense_composite():
    rng = np.random.default_rng(5)
    for system in _chain_systems():
        first, second = _factor_pairs(system)
        ops = system.space.combine(rng.standard_normal((3, system.space.dim)))
        with refusing_chain_images():  # neither validation nor apply forms dense images
            both = compose_channels(second, first)
            assert both.factors == (first, second)
            assert max_abs(both.apply(ops) - second.apply(first.apply(ops))) < 1e-13
        assert both.positivity_check == ("structure" if system.is_full_algebra else "sampled")
        dense = second.apply(first.images)
        assert max_abs(both.images - dense) < 1e-13
        # a chain's images are its apply of its own source basis, anew on each request
        stack = both.images
        assert stack is not both.images and np.array_equal(stack, both.images)
        assert np.array_equal(stack, both.apply(system.space.basis_stack))
        assert max_abs(both.matrix() - system.space.coefficients(dense).T) < 1e-13
        ident = identity_channel(system)
        assert np.array_equal(ident.apply(ops), ops)
        assert max_abs(ident.images - system.space.basis_stack) < 1e-13
        assert max_abs(ident.matrix() - np.eye(system.space.dim)) < 1e-13
        # identities drop out and nested chains flatten
        nested = compose_channels(ident, compose_channels(both, ident))
        assert nested.factors == (first, second)
        assert max_abs(nested.images - dense) < 1e-13


def test_chain_images_follow_the_chain_basis_not_the_first_factor_basis():
    # the diagonal span of Z3 regular, rebuilt from another generating set,
    # publishes another orthonormal basis: a chain starting on the rebuilt
    # span reads its images along that basis, while its only explicit
    # factor holds them along its own
    rep = regular_representation(build_cyclic_group(3))
    s1 = subspace_system(rep, [np.diag([1.0, 0, 0])])
    s2 = subspace_system(rep, [np.diag([1.0, 1, 0]), np.diag([0, 1.0, 1]), np.diag([1.0, 0, 1])])
    assert same_system(s1, s2) and max_abs(s1.space.basis_stack - s2.space.basis_stack) > 0.1
    ch = depolarizing_channel(s1, 0.3)
    both = compose_channels(ch, identity_channel(s2))
    assert both.factors == (ch,)
    applied = both.apply(s2.space.basis_stack)
    assert max_abs(both.images - applied) <= 1e-13
    assert max_abs(both.matrix() - both.target.space.coefficients(applied).T) <= 1e-13
    # an explicit channel still hands out its own stored stack
    assert ch.images is ch._images


def test_structure_chains_are_completely_positive_by_the_dense_choi_matrix():
    tol = 1e-9
    for system in _chain_systems():
        if not system.is_full_algebra:
            continue
        first, second = _factor_pairs(system)
        for chain in (identity_channel(system), compose_channels(second, first)):
            choi = _choi_matrix(chain.images, system.dim)
            assert np.linalg.eigvalsh(choi)[0] >= -tol * choi.shape[0]
        # the transpose map is positive but not completely positive: given
        # as images it is still rejected
        with pytest.raises(NotPositive) as err:
            build_channel(system, system, system.space.basis_stack.transpose(0, 2, 1))
        assert err.value.min_eigenvalue < -0.5


def test_a_chain_with_a_sampled_factor_samples_with_the_first_settings(monkeypatch):
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    sampled = build_channel(sys_iz, sys_iz, list(sys_iz.space.basis), samples=2, seed=1)
    drawn = []
    original = framerel.systems.psd_span_samples

    def recording(subspace, count, seed, tol):
        drawn.append((count, seed))
        return original(subspace, count=count, seed=seed, tol=tol)

    monkeypatch.setattr(framerel.systems, "psd_span_samples", recording)
    first = identity_channel(sys_iz, samples=4, seed=9)
    both = compose_channels(sampled, first)
    assert (both.positivity_check, both.positivity_samples, both.positivity_seed) == ("sampled", 4, 9)
    assert drawn == [(4, 9)]
    # a factor that is not positive (doubles the Z component; never
    # validated) is caught by the chain's samples, with the explicit witness
    stretch = np.stack([_stretch_z(b) for b in sys_iz.space.basis])
    unchecked = ChannelMap(sys_iz, sys_iz, "sampled", 9, 4, _images=stretch)
    with pytest.raises(NotPositive) as explicit:
        build_channel(sys_iz, sys_iz, stretch, samples=4, seed=9)
    with pytest.raises(NotPositive) as chained:
        compose_channels(unchecked, first)
    assert chained.value.min_eigenvalue == explicit.value.min_eigenvalue
    assert np.array_equal(chained.value.witness, explicit.value.witness)


def test_chains_still_check_unitality_and_the_target_span():
    sq = full_system(z2_flip_rep())
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    dep = depolarizing_channel(sq, 0.3)
    # X and Y keep 0.7 of themselves, outside span{I, Z}: same witness
    with pytest.raises(ImageOutsideTarget) as explicit:
        build_channel(sq, sys_iz, dep.images)
    with pytest.raises(ImageOutsideTarget) as chained:
        framerel.systems._chain(sq, sys_iz, (dep,), 1e-9, 16, 7)
    assert chained.value.index == explicit.value.index == 1
    assert np.array_equal(chained.value.witness, explicit.value.witness)
    halved = ChannelMap(sq, sq, "choi", None, 0, _images=0.5 * sq.space.basis_stack)
    with pytest.raises(NotUnital):
        compose_channels(halved, identity_channel(sq))


def test_superoperator_and_predual_of_a_chain():
    rng = np.random.default_rng(17)
    for system in _chain_systems():
        if not system.is_full_algebra:
            continue
        first, second = _factor_pairs(system)
        both = compose_channels(second, first)
        expected = channel_superop(second) @ channel_superop(first)
        assert max_abs(channel_superop(both) - expected) < 1e-13
        t = random_density(rng, system.dim)
        twice = predual_channel(first, predual_channel(second, t))
        assert max_abs(predual_channel(both, t) - twice) < 1e-13


# -------------------------------------------------------------- equivariance


def test_conjugation_by_rep_element_is_equivariant():
    # Ad(Z) Ad(X) = Ad(ZX) = Ad(-XZ) = Ad(XZ): the phase cancels in the
    # adjoint action, so conjugation by Z commutes with the flip action
    sq = full_system(z2_flip_rep())
    assert is_equivariant(conjugation_channel(sq, X)).equivariant
    assert is_equivariant(conjugation_channel(sq, Z)).equivariant
    assert is_equivariant(depolarizing_channel(sq, 0.7)).equivariant


def test_hadamard_conjugation_is_not_equivariant():
    sq = full_system(z2_flip_rep())
    res = is_equivariant(conjugation_channel(sq, H))
    assert not res.equivariant
    assert res.witness_element == 1
    # on basis element |0><0|: H(X E00 X)H = (I-X)/2 but X(H E00 H)X = (I+X)/2
    assert abs(res.deviation - 1.0) < 1e-12


def test_equivariance_of_depolarizer_for_nonabelian_rep():
    full = full_system(s3_irrep2())
    assert is_equivariant(depolarizing_channel(full, 0.5)).equivariant
    # conjugating by a non-central group element's matrix breaks it
    u = full.rep.matrices[1]
    assert not is_equivariant(conjugation_channel(full, u)).equivariant


def _equivariance_oracle(channel):
    """Deviation table over (g, i) and the strict-> loop's first worst pair."""
    src, tgt = channel.source, channel.target
    table = np.array([
        [
            max_abs(channel.apply(act(src.rep, g, b)) - act(tgt.rep, g, channel.apply(b)))
            for b in src.space.basis
        ]
        for g in src.group.elements()
    ])
    worst, w_g, w_i = 0.0, None, None
    for g, row in enumerate(table):
        for i, dev in enumerate(row):
            if dev > worst:
                worst, w_g, w_i = dev, g, i
    return table, worst, w_g, w_i


def test_equivariance_witness_matches_the_loop_oracle():
    full = full_system(s3_irrep2())
    rng = np.random.default_rng(16)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    table, worst, g, i = _equivariance_oracle(conjugation_channel(full, u))
    assert np.count_nonzero(table == worst) == 1  # a unique worst pair, at (5, 2)
    assert (g, i) == (5, 2)
    res = is_equivariant(conjugation_channel(full, u))
    assert (res.witness_element, res.witness_index, res.deviation) == (g, i, worst)
    # a monomial rep on a proper span: a mixing with a random conjugation on
    # Z6, its worst pair unique by a wide margin
    rep = regular_representation(build_cyclic_group(6))
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    source = subspace_system(rep, [a + np.conj(a).T])
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    images = [0.75 * b + 0.25 * v @ b @ np.conj(v).T for b in source.space.basis]
    mixing = build_channel(source, full_system(rep), images)
    table, worst, g, i = _equivariance_oracle(mixing)
    ranked = np.sort(table.ravel())
    assert ranked[-1] - ranked[-2] > 1e-3
    res = is_equivariant(mixing)
    assert (res.witness_element, res.witness_index) == (g, i)
    assert abs(res.deviation - worst) < 1e-14
    # several pairs tie for the worst here: the first one in (g, i) order wins
    hconj = conjugation_channel(full_system(z2_flip_rep()), H)
    table, worst, g, i = _equivariance_oracle(hconj)
    assert np.count_nonzero(table == worst) > 1
    res = is_equivariant(hconj)
    assert (res.witness_element, res.witness_index, res.deviation) == (g, i, worst)


def _equivariance_table_loop(channel, stack, images):
    """One act/apply/act per group element: the table before runs of elements."""
    src, tgt = channel.source.rep, channel.target.rep
    return np.stack([
        np.abs(channel.apply(act(src, g, stack)) - act(tgt, g, images)).max(axis=(1, 2))
        for g in src.group.elements()
    ])


def test_equivariance_table_matches_the_per_element_loop(monkeypatch):
    rng = np.random.default_rng(29)
    frame = canonical_ideal_frame(build_cyclic_group(16))
    basis = frame.value_system.space.basis_stack
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    plane = full_system(s3_irrep2())
    s4 = build_symmetric_group(4)
    perm = [np.zeros((4, 4), dtype=complex) for _ in s4.elements()]
    for g, m in enumerate(perm):
        m[[int(c) for c in s4.label(g)], range(4)] = 1.0
    s4_system = full_system(unitary_rep(s4, perm))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    cases = [  # channel, stack, runs
        (depolarizing_channel(frame.value_system, 0.3), frame.effects, 1),
        (conjugation_channel(frame.value_system, u), basis[::8], 2),  # 32 operators: runs of 8
        (conjugation_channel(frame.value_system, u), basis, 16),  # one element per run
        (conjugation_channel(plane, plane.rep.matrices[1]), plane.space.basis_stack, 1),  # matrix path
        # 16 images of 4 x 4: the run floor takes all 24 elements at once
        (conjugation_channel(s4_system, v), s4_system.space.basis_stack, 1),
    ]
    moves = []

    def counting(rep, stack, elements):
        moves.append(elements)
        return translates(rep, stack, elements)

    monkeypatch.setattr(framerel.systems, "translates", counting)
    for channel, stack, runs in cases:
        images = channel.apply(stack)
        moves.clear()
        table = _equivariance_table(channel, stack, images, 1e-9)
        assert len(moves) == 2 * runs
        want = _equivariance_table_loop(channel, stack, images)
        assert table.shape == want.shape == (channel.source.group.order, len(stack))
        assert max_abs(table - want) <= 1e-13 * max(1.0, want.max())


def test_equivariance_table_holds_no_more_than_the_channel_images():
    # A Z16 value channel on its 256 basis elements: the translates of the
    # whole group would be 16 image stacks each.  One element per run
    # keeps the source translates, their images, the target translates
    # and their difference at one image stack each.
    frame = canonical_ideal_frame(build_cyclic_group(16))
    channel = depolarizing_channel(frame.value_system, 0.3)
    basis = frame.value_system.space.basis_stack
    images = channel.apply(basis)
    table, peak = traced_peak(lambda: _equivariance_table(channel, basis, images, 1e-9))
    assert table.shape == (16, 256) and table.max() < 1e-12
    assert peak < 6 * channel.images.nbytes


# ------------------------------------------------------------------ preduals


def test_predual_of_conjugation_is_inverse_conjugation():
    sq = full_system(z2_flip_rep())
    ch = conjugation_channel(sq, H)
    rng = np.random.default_rng(17)
    for _ in range(20):
        t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = predual_channel(ch, t)
        assert max_abs(got - np.conj(H).T @ t @ H) < 1e-12


def test_predual_pairing_identity_random_channels():
    sq = full_system(z2_flip_rep())
    rng = np.random.default_rng(18)
    for ch in (depolarizing_channel(sq, 0.3), conjugation_channel(sq, H)):
        s = channel_superop(ch)
        assert s.shape == (4, 4)
        for _ in range(25):
            t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.trace(predual_channel(ch, t) @ a)
            rhs = np.trace(t @ ch.apply(a))
            assert abs(lhs - rhs) < 1e-11


def test_predual_requires_full_algebras():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    with pytest.raises(RequiresFullAlgebra):
        predual_channel(identity_channel(sys_iz), I2 / 2)
    with pytest.raises(RequiresFullAlgebra):
        channel_superop(identity_channel(sys_iz))


# -------------------------------------------------------------------- states


def test_state_class_canonical_is_span_projection():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    plus = (I2 + X) / 2
    cls = state_class(sys_iz, plus)
    assert max_abs(cls.canonical - I2 / 2) < 1e-12  # X component invisible
    other = state_class(sys_iz, (I2 - X) / 2)
    assert cls.same_as(other)
    distinct = state_class(sys_iz, np.diag([0.8, 0.2]).astype(complex))
    assert not cls.same_as(distinct)
    # expectations of span observables survive the quotient
    for a in (I2, Z, np.diag([3.0, 1.0]).astype(complex)):
        assert abs(cls.expectation(a) - np.trace(plus @ a)) < 1e-12


def test_state_class_rejects_non_states():
    sq = full_system(z2_flip_rep())
    with pytest.raises(NotAState):
        state_class(sq, np.diag([0.75, 0.75]).astype(complex))
    with pytest.raises(NotAState):
        state_class(sq, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(NotAState):
        state_class(sq, np.eye(3, dtype=complex) / 3)


def test_quotient_dimension_equals_span_dimension():
    rep = z2_flip_rep()
    cases = [
        full_system(rep),
        subspace_system(rep, [Z]),
        subspace_system(rep, [E01]),
        invariant_subalgebra(rep),
        full_system(trivial_rep(build_cyclic_group(1), 1)),
        full_system(s3_irrep2()),
    ]
    for system in cases:
        assert quotient_dimension(system) == system.space.dim


def test_effect_expectations_determine_the_class():
    # two states with equal expectations on every span element project
    # to the same canonical representative, and conversely
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho1 = a @ np.conj(a).T
        rho1 /= np.trace(rho1)
        rho2 = rho1 + 0.05 * X  # differs only off the span
        c1 = state_class(sys_iz, rho1)
        c2 = state_class(sys_iz, rho2)
        assert c1.same_as(c2)
        for b in sys_iz.space.basis:
            assert abs(np.trace(rho1 @ b) - np.trace(rho2 @ b)) < 1e-12



# ----------------------------------------------------------------- working set


def _chunked_outputs(group, rep):
    """What each loop cut by ``linalg.chunks`` returns or raises, on one group."""
    rng = np.random.default_rng(61)
    regular = regular_representation(group)
    d, n = rep.dim, group.order
    out = []
    # the flat frame has 4 support blocks: fewer than the 6 elements of S3
    frames = (smeared_canonical_frame(group, 0.3), principal_frame_from_seed(rep, np.eye(d) / n))
    for frame in frames:
        for system in (full_system(rep), subspace_system(rep, [rng.standard_normal((d, d))])):
            out.append(relativization_map(frame, system).images)
    for r in (rep, regular):  # the matrix or phase path, and the permutation path
        system = subspace_system(r, [np.diag(rng.standard_normal(r.dim))])
        out.append((system.is_full_algebra, is_invariant(system), is_vn_algebra(system)))
        unclosed = span_subspace([np.eye(r.dim), rng.standard_normal((r.dim, r.dim))])
        with pytest.raises(FramerelError, match=_NOT_CLOSED):
            system_from_subspace(r, unclosed)
    for phi in (depolarizing_channel(full_system(rep), 0.3), conjugation_channel(full_system(rep), H)):
        eq = is_equivariant(phi)
        out.append((eq.deviation, eq.witness_element, eq.witness_index))
    broken = list(regular.matrices)
    broken[1], broken[2] = broken[2], broken[1]
    with pytest.raises(InvalidRepresentation) as err:
        unitary_rep(group, broken)
    out.append((str(err.value), err.value.deviation))
    diagonal = subspace_system(regular, list(np.eye(n)[:, None] * np.eye(n)))
    images = np.zeros((n * n, n, n), dtype=complex)
    images[n + 1, 0, 1], images[-1, 1, 2] = 0.25, 1.0
    with pytest.raises(ImageOutsideTarget) as err:
        build_channel(full_system(regular), diagonal, images)
    out.append(err.value.index)
    return out


@pytest.mark.parametrize("budget", [1, 2**30])
def test_chunked_loops_give_the_same_results_at_any_working_set(monkeypatch, budget):
    # a budget of 1 takes one item per step (or what the held array
    # allows), 2^30 takes every item at once.  The relativized images sum
    # the group a run of elements at a time, so each side lies within the
    # kernel's rounding bound of the exact sum (``kernel_bound``, with
    # effects and orthonormal basis entries of modulus at most 1)
    for group, rep in ((build_cyclic_group(4), zn_phase_rep(4)), (s3(), s3_irrep2())):
        default = _chunked_outputs(group, rep)
        monkeypatch.setattr(framerel.linalg, "WORKING_SET", budget)
        chunked = _chunked_outputs(group, rep)
        monkeypatch.undo()
        assert len(chunked) == len(default) == 10
        for got, expected in zip(chunked, default):
            if isinstance(got, np.ndarray):
                assert max_abs(got - expected) <= 2 * 8 * group.order * 2.0**-52
            else:
                assert got == expected
