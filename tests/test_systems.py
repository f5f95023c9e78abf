"""Semi-quantum systems, channels, states: conventions pinned by oracles."""

import tracemalloc

import numpy as np
import pytest

from framerel.errors import (
    DimensionError,
    FramerelError,
    ImageOutsideTarget,
    NotAState,
    NotPositive,
    NotUnital,
    ObjectMismatch,
    OperatorOutsideSystem,
    RequiresFullAlgebra,
)
from framerel.groups import (
    UnitaryRep,
    act,
    build_cyclic_group,
    build_symmetric_group,
    regular_representation,
    support_translates,
    tensor_rep,
    trivial_rep,
    unitary_rep,
)
from framerel.linalg import block_partition, matrix_unit_span, max_abs, span_subspace
from framerel.systems import (
    _NOT_CLOSED,
    _choi_matrix,
    build_channel,
    same_system,
    channel_superop,
    compose_channels,
    conjugation_channel,
    full_system,
    identity_channel,
    invariant_subalgebra,
    is_equivariant,
    is_vn_algebra,
    kraus_channel,
    predual_channel,
    quotient_dimension,
    state_class,
    subspace_system,
    system_from_subspace,
)

from .support import (
    H,
    I2,
    X,
    Y,
    Z,
    ampliation_channel,
    depolarizing_channel,
    image_stack_apply,
    s3,
    s3_irrep2,
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
    assert sq.is_full_algebra and is_vn_algebra(sq) and not sq.is_invariant
    assert sq.space.dim == 4
    for got, want in zip(sq.space.basis, [E00, E01, E10, E11]):
        assert max_abs(got - want) == 0.0


def test_subspace_system_without_saturation():
    sys_iz = subspace_system(z2_flip_rep(), [Z])
    assert sys_iz.space.dim == 2
    assert is_vn_algebra(sys_iz)  # diagonal algebra is closed under products
    assert not sys_iz.is_invariant  # X Z X = -Z moves elements, span is fixed
    assert sys_iz.space.contains(np.diag([2.0, -1.0]).astype(complex))
    assert not sys_iz.space.contains(X)


def test_subspace_system_saturates_group_translates():
    sys_e01 = subspace_system(z2_flip_rep(), [E01])
    # X E01 X = E10 had to be added
    assert span_subspace([E01, I2]).dim == 2
    assert sys_e01.space.dim == 3
    assert sys_e01.space.contains(E10)
    assert not is_vn_algebra(sys_e01)  # E01 E10 = E00 is outside the span
    # adjoint span coincides here (E01^dag = E10 is in the span)
    assert sys_e01.adjoint_space.dim == 3


def test_invariant_subalgebra_dims_match_twirl_trace_oracle():
    rep = z2_flip_rep()
    assert invariant_subalgebra(rep).space.dim == commutant_dim_oracle(rep) == 2
    joint = tensor_rep(rep, rep)
    assert invariant_subalgebra(joint).space.dim == commutant_dim_oracle(joint) == 8
    irr = s3_irrep2()
    assert invariant_subalgebra(irr).space.dim == commutant_dim_oracle(irr) == 1
    inv = invariant_subalgebra(joint)
    assert inv.is_invariant and is_vn_algebra(inv)
    for b in inv.space.basis:
        for g in joint.group.elements():
            assert max_abs(act(joint, g, b) - b) < 1e-12


# ----------------------------------------------------------------- channels


def test_system_flags_hold_across_translate_chunks():
    # 81 basis elements: the translates are formed in more than one chunk
    group = build_cyclic_group(9)
    assert full_system(trivial_rep(group, 9)).is_invariant
    shift = regular_representation(group)
    assert not full_system(shift).is_invariant
    rng = np.random.default_rng(23)
    gens = [rng.standard_normal((9, 9)) for _ in range(70)]
    fixed = subspace_system(trivial_rep(group, 9), gens)
    assert fixed.space.dim == 71 and fixed.is_invariant and not is_vn_algebra(fixed)
    diagonal = subspace_system(shift, [np.diag(rng.standard_normal(9))])
    assert diagonal.space.dim == 9 and is_vn_algebra(diagonal) and not diagonal.is_invariant
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
        _, leaves = support_translates(rep, space.support)
        assert leaves.any() == (name in ("shift-eps", "diagonal-eps", "off-diagonal")), name
        closed, invariant, algebra = flags
        if closed:
            system = system_from_subspace(rep, space)
            assert (system.is_invariant, is_vn_algebra(system)) == (invariant, algebra), name
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
            assert (system.is_invariant, is_vn_algebra(system)) == (invariant, algebra)


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
                    outcomes.append(system_from_subspace(r, space).is_invariant)
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
    flags = [full_system(rep).is_invariant for rep in reps]
    assert flags == [_translate_loop_invariant(rep) for rep in reps]
    assert flags == [False, False, False, True, True]


def test_full_system_stores_no_basis():
    sq = full_system(regular_representation(build_cyclic_group(5)))
    assert sq.space.is_unit_span and sq.space._stack is None
    assert sq.adjoint_space is sq.space
    assert quotient_dimension(sq) == 25


def test_full_system_on_s5_allocates_no_unit_stack():
    # the dense (14400, 120, 120) unit stack would be 3.3 GB
    rep = regular_representation(build_symmetric_group(5))
    tracemalloc.start()
    try:
        sq = full_system(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
    ident = identity_channel(pauli)
    assert ident.positivity_check == "choi"
    assert max_abs(channel_superop(ident) - np.eye(4)) < 1e-12
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
    full_ch = identity_channel(sq)
    assert full_ch.positivity_check == "choi"
    assert full_ch.positivity_seed is None
    proper_ch = identity_channel(sys_iz)
    assert proper_ch.positivity_check == "sampled"
    assert proper_ch.positivity_samples > 0


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
    ]
    for channel in channels:
        n, d = channel.source.space.dim, channel.target.dim
        assert channel.images.shape == (n, d, d) and not channel.images.flags.writeable
        with pytest.raises(ValueError):
            channel.images[0, 0, 0] = 1.0
        ops = channel.source.space.combine(rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)))
        assert np.array_equal(channel.apply(ops), image_stack_apply(channel, ops))
        assert np.array_equal(channel.apply(ops[0]), image_stack_apply(channel, ops[0]))


def test_conjugation_equals_single_kraus():
    sq = full_system(z2_flip_rep())
    conj = conjugation_channel(sq, H)
    kraus = kraus_channel(sq, sq, [H])
    for a, b in zip(conj.images, kraus.images):
        assert max_abs(a - b) < 1e-14
    a = np.array([[0.3, 0.4], [0.1, 0.7]], dtype=complex)
    assert max_abs(conj.apply(a) - H @ a @ H) < 1e-12


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
    # several pairs tie for the worst here: the first one in (g, i) order wins
    hconj = conjugation_channel(full_system(z2_flip_rep()), H)
    table, worst, g, i = _equivariance_oracle(hconj)
    assert np.count_nonzero(table == worst) > 1
    res = is_equivariant(hconj)
    assert (res.witness_element, res.witness_index, res.deviation) == (g, i, worst)


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
