"""Finite groups and unitary representations against independent oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framerel.errors import (
    DimensionError,
    GroupMismatch,
    InvalidRepresentation,
    NoIdentity,
    NoInverse,
    NotAssociative,
)
from framerel.groups import (
    act,
    build_cyclic_group,
    build_group_from_table,
    build_symmetric_group,
    commutation_deviation,
    invariance_deviation,
    regular_representation,
    same_group,
    support_translates,
    support_values,
    tensor_rep,
    translates,
    trivial_rep,
    unitary_rep,
)
from framerel.linalg import max_abs

from .strategies import cyclic_monomial_reps
from .support import I2, X, Z, s3_irrep2, z2_flip_rep, zn_phase_rep


# ------------------------------------------------------------------ oracles


def monomial_oracle(m):
    """(column, entry) of the one nonzero in each row of a monomial matrix, else None."""
    cols, entries = [], []
    for row in m:
        nonzero = [j for j, x in enumerate(row) if x != 0]
        if len(nonzero) != 1:
            return None
        cols.append(nonzero[0])
        entries.append(row[nonzero[0]])
    if sorted(cols) != list(range(len(m))):
        return None
    return np.array(cols), np.array(entries)


def compose_perms(p, q):
    """(p q)(k) = p(q(k)): apply q first."""
    return tuple(p[q[k]] for k in range(len(p)))


# ------------------------------------------------------------------- groups


def test_cyclic_group_is_modular_addition():
    g = build_cyclic_group(5)
    assert g.order == 5
    assert g.identity == 0
    for a in range(5):
        for b in range(5):
            assert g.multiply(a, b) == (a + b) % 5
        assert g.inv(a) == (-a) % 5
        assert g.is_central(a)  # abelian


def test_symmetric_group_matches_itertools_composition():
    g = build_symmetric_group(3)
    perms = sorted(itertools.permutations(range(3)))
    assert g.order == 6
    index = {p: i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            assert g.multiply(i, j) == index[compose_perms(p, q)]
    assert g.identity == index[(0, 1, 2)]
    # the only central element of S3 is the identity
    centrals = [h for h in g.elements() if g.is_central(h)]
    assert centrals == [g.identity]


def test_labels_and_lookup():
    g = build_symmetric_group(3)
    assert g.label(0) == "012"
    assert g.element_of_label("120") == 3
    assert g.element_of_label("4") == 4  # plain ids also accepted
    g2 = build_cyclic_group(3)
    assert g2.element_of_label("2") == 2


def test_table_validation_rejects_bad_tables():
    # smallest non-associative loop: a Latin square with identity and
    # two-sided inverses, so only the associativity scan can reject it
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as err:
        build_group_from_table(loop)
    assert len(err.value.triple) == 3
    with pytest.raises(NoIdentity):
        # left-identity only: row 0 is identity but column 0 is not
        build_group_from_table([[0, 1], [0, 1]])
    # row without the identity entry: some element has no right inverse
    with pytest.raises(NoInverse):
        build_group_from_table([[0, 1, 2], [1, 2, 1], [2, 0, 0]])


def test_table_accepts_klein_four_group():
    # independent table: componentwise XOR on {0,1}^2
    table = [[a ^ b for b in range(4)] for a in range(4)]
    g = build_group_from_table(table)
    assert g.order == 4
    for a in range(4):
        assert g.inv(a) == a  # every element is an involution


def test_same_group_distinguishes_orders_and_tables():
    assert same_group(build_cyclic_group(3), build_cyclic_group(3))
    assert not same_group(build_cyclic_group(3), build_cyclic_group(4))
    klein = build_group_from_table([[a ^ b for b in range(4)] for a in range(4)])
    assert not same_group(klein, build_cyclic_group(4))


# ----------------------------------------------------------------- reps


def test_unitary_rep_validates_homomorphism():
    g = build_cyclic_group(2)
    rep = unitary_rep(g, [I2, X])
    assert rep.dim == 2
    with pytest.raises(InvalidRepresentation):
        unitary_rep(g, [I2, np.diag([1.0, 0.5]).astype(complex)])  # not unitary
    with pytest.raises(InvalidRepresentation):
        unitary_rep(g, [X, I2])  # identity does not map to I
    g4 = build_cyclic_group(4)
    w = np.exp(2j * np.pi / 4)
    with pytest.raises(InvalidRepresentation):
        # diag(1, w^k) with one entry corrupted: not a homomorphism
        mats = [np.diag([1.0, w**k]).astype(complex) for k in range(4)]
        mats[2] = np.diag([1.0, -w**2]).astype(complex)
        unitary_rep(g4, mats)
    g3 = build_cyclic_group(3)
    w3 = np.exp(2j * np.pi / 3)
    mats = [np.diag([1.0, w3**k]).astype(complex) for k in range(3)]
    mats[2] = np.diag([1.0, w3**2 * np.exp(0.3j)])
    # (1, 1), (1, 2) and (2, 1) are off by |e^{0.3i} - 1|, (2, 2) by |e^{0.6i} - 1|
    with pytest.raises(InvalidRepresentation, match=r"pair \(2, 2\)") as err:
        unitary_rep(g3, mats)
    assert err.value.deviation == pytest.approx(abs(np.exp(0.6j) - 1.0))


def test_phase_rep_is_valid_for_several_orders():
    for n in (2, 3, 4, 6):
        rep = zn_phase_rep(n)
        assert rep.dim == 2
        for j in range(n):
            for k in range(n):
                prod = rep.matrices[j] @ rep.matrices[k]
                assert max_abs(prod - rep.matrices[(j + k) % n]) < 1e-12


def test_regular_representation_permutes_basis_by_left_translation():
    g = build_symmetric_group(3)
    rep = regular_representation(g)
    assert rep.dim == 6
    for a in g.elements():
        u = rep.matrices[a]
        for b in g.elements():
            e = np.zeros(6, dtype=complex)
            e[b] = 1.0
            expected = np.zeros(6, dtype=complex)
            expected[g.multiply(a, b)] = 1.0
            assert max_abs(u @ e - expected) == 0.0


def test_s3_irrep_is_faithful_and_unitary():
    rep = s3_irrep2()
    assert rep.dim == 2
    # faithful: all six matrices distinct
    for a in range(6):
        for b in range(a + 1, 6):
            assert max_abs(rep.matrices[a] - rep.matrices[b]) > 0.5


def test_act_is_conjugation_and_preserves_spectrum():
    rep = z2_flip_rep()
    a = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex)
    moved = act(rep, 1, a)
    assert max_abs(moved - X @ a @ X) < 1e-14
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(moved)), np.sort(np.linalg.eigvalsh(a))
    )
    assert max_abs(act(rep, 0, a) - a) == 0.0
    with pytest.raises(DimensionError):
        act(rep, 1, np.eye(3, dtype=complex))


def test_act_composes_along_the_group():
    rep = s3_irrep2()
    g = rep.group
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for x in g.elements():
        for y in g.elements():
            lhs = act(rep, x, act(rep, y, a))
            rhs = act(rep, g.multiply(x, y), a)
            assert max_abs(lhs - rhs) < 1e-12


def test_trivial_and_tensor_reps():
    g = build_cyclic_group(2)
    triv = trivial_rep(g, 3)
    for m in triv.matrices:
        assert max_abs(m - np.eye(3)) == 0.0
    rep = z2_flip_rep()
    joint = tensor_rep(rep, rep)
    assert joint.dim == 4
    assert max_abs(joint.matrices[1] - np.kron(X, X)) == 0.0
    with pytest.raises(GroupMismatch):
        tensor_rep(rep, zn_phase_rep(3))


def test_rep_matrices_are_copies_not_views():
    g = build_cyclic_group(2)
    source = [np.eye(2, dtype=complex), X.copy()]
    rep = unitary_rep(g, source)
    source[1][0, 0] = 99.0  # caller mutates their array afterwards
    assert max_abs(rep.matrices[1] - X) == 0.0


# ------------------------------------------------- permutation representations


def s3_permutation_rep():
    """S3 permuting the basis of C^3, matrices built from itertools."""
    mats = []
    for p in sorted(itertools.permutations(range(3))):
        m = np.zeros((3, 3), dtype=complex)
        for k in range(3):
            m[p[k], k] = 1.0
        mats.append(m)
    return unitary_rep(build_symmetric_group(3), mats)


def first_failing_pair_oracle(group, mats):
    """Row-major first (g, h) with U(g) U(h) != U(g h), by matrix products."""
    for g in group.elements():
        for h in group.elements():
            if not np.array_equal(mats[g] @ mats[h], mats[group.multiply(g, h)]):
                return g, h
    return None


def test_permutation_reps_act_by_gather_exactly():
    regular = regular_representation(build_symmetric_group(3))
    joint = tensor_rep(regular, s3_permutation_rep())
    rng = np.random.default_rng(11)
    for rep in (regular, joint):
        assert rep.perms is not None and rep.perms.shape == (6, rep.dim)
        d = rep.dim
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        for g in rep.group.elements():
            u = rep.matrices[g]
            moved = act(rep, g, stack)
            for a, out in zip(stack, moved):
                assert np.array_equal(act(rep, g, a), u @ a @ np.conj(u).T)
                assert np.array_equal(out, u @ a @ np.conj(u).T)
            assert commutation_deviation(rep, g, stack) == max(
                max_abs(a @ u - u @ a) for a in stack
            )


def test_joint_perms_are_index_arithmetic_on_the_factors():
    # S4 regular (x) the 4-dim permutation rep: the joint perms are the
    # ones the 0/1 detection reads off each Kronecker product
    group = build_symmetric_group(4)
    perm4 = []
    for g in group.elements():
        m = np.zeros((4, 4), dtype=complex)
        for k, pk in enumerate(int(c) for c in group.label(g)):
            m[pk, k] = 1.0
        perm4.append(m)
    regular = regular_representation(group)
    joint = tensor_rep(regular, unitary_rep(group, perm4))
    assert joint.dim == 96 and joint.perms.shape == (24, 96)
    for g in group.elements():
        kron = np.kron(regular.matrices[g], perm4[g])
        assert np.array_equal(joint.matrices[g], kron)
        assert not joint.matrices[g].flags.writeable
        assert np.array_equal(joint.perms[g], monomial_oracle(kron)[0])
    assert joint.phases is None
    # a phase factor makes the joint monomial with the product phases
    regular, phase = regular_representation(build_cyclic_group(4)), zn_phase_rep(4)
    phased = tensor_rep(regular, phase)
    assert phased.perms is not None and phased.phases is not None
    for g in regular.group.elements():
        kron = np.kron(regular.matrices[g], phase.matrices[g])
        assert np.array_equal(phased.matrices[g], kron)
        perm, entries = monomial_oracle(kron)
        assert np.array_equal(phased.perms[g], perm) and np.array_equal(phased.phases[g], entries)


def _sparse_stack(rng, k, d, density):
    """k random complex d x d operators sharing one random support pattern."""
    mask = rng.random((d, d)) < density
    return (rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))) * mask


def test_support_translates_describe_the_gather():
    regular = regular_representation(build_symmetric_group(3))
    joint = tensor_rep(regular, s3_permutation_rep())
    rng = np.random.default_rng(19)
    for rep in (regular, joint):
        d = rep.dim
        for density in (0.1, 0.5, 1.0):
            stack = _sparse_stack(rng, 3, d, density)
            flat = stack.reshape(3, -1)
            support = np.flatnonzero(np.any(flat != 0, axis=0))
            src, leaves = support_translates(rep, support)
            for g in rep.group.elements():
                moved = act(rep, g, stack).reshape(3, -1)
                # on the support g.a reads a at src[g]; off it, g.a holds
                # exactly the values that leave, and zeros elsewhere
                assert np.array_equal(moved[:, support], flat[:, src[g]])
                off = np.delete(moved, support, axis=1)
                assert np.array_equal(
                    np.sort(np.abs(off[off != 0])), np.sort(np.abs(flat[:, support[leaves[g]]]).reshape(-1))
                )


def test_support_values_are_the_entries_of_act_bit_for_bit():
    rng = np.random.default_rng(31)
    regular = regular_representation(build_symmetric_group(3))
    reps = [regular, tensor_rep(regular, s3_permutation_rep())] + [rep for rep, _ in phased_reps()]
    for rep in reps:
        stack = _sparse_stack(rng, 3, rep.dim, 0.4)
        flat = stack.reshape(3, -1)
        support = np.flatnonzero(np.any(flat != 0, axis=0))
        each = np.stack([act(rep, g, stack).reshape(3, -1)[:, support] for g in rep.group.elements()])
        for g in rep.group.elements():
            assert np.array_equal(support_values(rep, flat, support, g), each[g])
        chunk = support_values(rep, flat, support, slice(1, 3))
        assert np.array_equal(chunk, each[1:3].swapaxes(0, 1))


def test_invariance_deviation_is_the_commutation_maximum_bit_for_bit():
    rng = np.random.default_rng(23)
    regular = regular_representation(build_symmetric_group(3))
    reps = [regular, tensor_rep(regular, s3_permutation_rep()), s3_irrep2(), zn_phase_rep(4)]
    for rep in reps:
        for density in (0.0, 0.1, 0.5, 1.0):
            stack = _sparse_stack(rng, 4, rep.dim, density)
            # a nearly invariant stack: small deviations, not dominated by noise
            twirled = sum(act(rep, g, stack) for g in rep.group.elements()) / rep.group.order
            for ops in (stack, twirled + 1e-13 * stack):
                expected = max(commutation_deviation(rep, g, ops) for g in rep.group.elements())
                assert invariance_deviation(rep, ops) == expected


def test_signed_and_phased_monomials_are_not_permutations():
    w = np.exp(2j * np.pi / 4)
    ix = 1j * X
    inputs = [
        (build_cyclic_group(2), [I2, -X]),
        (build_cyclic_group(4), [np.linalg.matrix_power(ix, k) for k in range(4)]),
        (build_cyclic_group(4), [np.diag([1.0, w**k]).astype(complex) for k in range(4)]),
    ]
    # monomial: index arrays with a phase array; a permutation has no phases
    for group, mats in inputs:
        rep = unitary_rep(group, mats)
        assert rep.perms is not None and rep.phases is not None
        for g in group.elements():
            perm, entries = monomial_oracle(mats[g])
            assert np.array_equal(rep.perms[g], perm) and np.array_equal(rep.phases[g], entries)
            assert np.array_equal(rep.matrices[g], mats[g])
    z2_sign = unitary_rep(*inputs[0])
    assert np.array_equal(z2_sign.phases, [[1, 1], [-1, -1]])
    assert z2_flip_rep().perms is not None and z2_flip_rep().phases is None
    a = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert np.array_equal(act(z2_sign, 1, a), X @ a @ X)


def test_non_homomorphic_permutations_raise_with_the_product_witness():
    group = build_symmetric_group(3)
    mats = list(regular_representation(group).matrices)
    mats[3], mats[4] = mats[4], mats[3]
    witness = first_failing_pair_oracle(group, mats)
    assert witness is not None
    pair = rf"pair \({witness[0]}, {witness[1]}\)"
    with pytest.raises(InvalidRepresentation, match=pair) as err:
        unitary_rep(group, mats)
    assert err.value.deviation == 1.0


# --------------------------------------------------- monomial representations


def signed_regular_mats(group):
    """Regular rep of S_n times the sign character, from itertools permutations."""
    mats = []
    for g in group.elements():
        sign = round(np.linalg.det(np.eye(len(group.label(g)))[[int(c) for c in group.label(g)]]))
        m = np.zeros((group.order, group.order), dtype=complex)
        for h in group.elements():
            m[group.multiply(g, h), h] = sign
        mats.append(m)
    return mats


def phased_reps():
    """(rep, dense matrices) pairs: phase qubits, a signed Z2, signed S3 and phased joints."""
    w = np.exp(2j * np.pi / 5)
    z5 = build_cyclic_group(5)
    z5_phase = [np.diag([1.0, w**k, w ** (2 * k)]) for k in range(5)]
    s3_sign = signed_regular_mats(build_symmetric_group(3))
    z2_sign = [I2, -X]
    z4_regular = regular_representation(build_cyclic_group(4))
    z4_phase = zn_phase_rep(4)
    w6 = np.exp(2j * np.pi / 6)
    pairs = [
        (zn_phase_rep(6), [np.diag([1.0, w6**k]) for k in range(6)]),
        (unitary_rep(z5, z5_phase), z5_phase),
        (unitary_rep(build_cyclic_group(2), z2_sign), z2_sign),
        (unitary_rep(build_symmetric_group(3), s3_sign), s3_sign),
    ]
    for r1, r2 in ((z4_regular, z4_phase), (z4_phase, z4_regular), (z4_phase, z4_phase)):
        kron = [np.kron(a, b) for a, b in zip(r1.matrices, r2.matrices)]
        pairs.append((tensor_rep(r1, r2), kron))
    return pairs


def test_monomial_reps_act_as_dense_conjugation():
    rng = np.random.default_rng(29)
    for rep, mats in phased_reps():
        assert rep.perms is not None and rep.phases is not None
        d = rep.dim
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        twirled = sum(u @ stack @ np.conj(u).T for u in mats) / len(mats)
        for g, u in enumerate(mats):
            dense = u @ stack @ np.conj(u).T
            assert max_abs(act(rep, g, stack) - dense) < 1e-14
            assert max_abs(act(rep, g, stack[0]) - dense[0]) < 1e-14
            for ops in (stack, twirled):
                expected = max(max_abs(a @ u - u @ a) for a in ops)
                assert abs(commutation_deviation(rep, g, ops) - expected) < 1e-14
        for ops in (stack, twirled + 1e-13 * stack, _sparse_stack(rng, 2, d, 0.3)):
            expected = max(max_abs(a @ u - u @ a) for u in mats for a in ops)
            assert abs(invariance_deviation(rep, ops) - expected) < 1e-14
        each = np.stack([act(rep, g, stack) for g in rep.group.elements()])
        assert np.array_equal(translates(rep, stack), each)
        assert np.array_equal(translates(rep, stack, slice(1, 4)), each[1:4])
        assert np.array_equal(translates(rep, stack[0], slice(2, None)), each[2:, 0])


def dense_homomorphism_witness(group, mats):
    """The argmax (g, h) of |U(g) U(h) - U(gh)| by matrix products, and its value."""
    table = np.array(
        [[max_abs(mats[g] @ mats[h] - mats[group.multiply(g, h)]) for h in group.elements()] for g in group.elements()]
    )
    g, h = np.unravel_index(int(table.argmax()), table.shape)
    return (int(g), int(h)), float(table.max())


def test_monomial_validation_raises_with_the_dense_witness():
    # a monomial matrix off the unit circle fails unitarity at its element
    z3 = build_cyclic_group(3)
    w = np.exp(2j * np.pi / 3)
    stretched = [np.diag([1.0, w**k]).astype(complex) for k in range(3)]
    stretched[2] = np.array([[0, 1.0], [w**2 * 1.001, 0]])
    with pytest.raises(InvalidRepresentation, match="not unitary") as err:
        unitary_rep(z3, stretched)
    u = stretched[2]
    assert err.value.element == 2
    assert abs(err.value.deviation - max_abs(u @ np.conj(u).T - np.eye(2))) < 1e-14
    # phased reps that are not homomorphisms: a flipped sign, a twisted
    # phase, and two swapped signed permutations
    s3 = build_symmetric_group(3)
    flipped = signed_regular_mats(s3)
    flipped[4] = -flipped[4]
    twisted = signed_regular_mats(s3)
    twisted[5] = twisted[5] * np.exp(0.3j)
    swapped = signed_regular_mats(s3)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    z4 = build_cyclic_group(4)
    corrupted = [np.kron(np.linalg.matrix_power(np.roll(np.eye(2), 1, axis=0), k), np.diag([1.0, 1j**k])) for k in range(4)]
    corrupted[3] = corrupted[3] * np.exp(-0.2j)
    for group, mats in ((s3, flipped), (s3, twisted), (s3, swapped), (z4, corrupted)):
        (g, h), dev = dense_homomorphism_witness(group, mats)
        assert dev > 1e-9
        with pytest.raises(InvalidRepresentation, match=rf"pair \({g}, {h}\)") as err:
            unitary_rep(group, mats)
        assert abs(err.value.deviation - dev) < 1e-14


def test_reps_with_some_dense_matrix_keep_the_matrix_path():
    # the S3 irrep with its rounding dust cleared: the identity and "102"
    # are monomial, the four others are not, so the rep stays dense
    raw = s3_irrep2()
    assert raw.perms is None
    mats = [np.where(np.abs(m) < 1e-12, 0, m) for m in raw.matrices]
    rep = unitary_rep(raw.group, mats)
    assert rep.perms is None and rep.phases is None
    labels = [rep.group.label(g) for g in rep.group.elements() if monomial_oracle(mats[g]) is not None]
    assert labels == ["012", "102"]
    for g in rep.group.elements():
        assert np.array_equal(rep.matrices[g], mats[g])
    # so does its product with a permutation rep
    regular = regular_representation(rep.group)
    joint = tensor_rep(rep, regular)
    assert joint.perms is None
    for g in rep.group.elements():
        assert np.array_equal(joint.matrices[g], np.kron(mats[g], regular.matrices[g]))


def test_tensor_rep_of_s5_builds_no_joint_matrices():
    # 120 dense 600 x 600 joint matrices would take 660 MiB
    group = build_symmetric_group(5)
    regular = regular_representation(group)
    perm5 = []
    for g in group.elements():
        m = np.zeros((5, 5), dtype=complex)
        for k, pk in enumerate(int(c) for c in group.label(g)):
            m[pk, k] = 1.0
        perm5.append(m)
    perm5 = unitary_rep(group, perm5)
    tracemalloc.start()
    try:
        joint = tensor_rep(regular, perm5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert joint.dim == 600 and joint.perms.shape == (120, 600) and joint.phases is None
    assert joint._matrices is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_monomial_reps_act_as_dense_conjugation(data):
    n, mats = data.draw(cyclic_monomial_reps())
    rep = unitary_rep(build_cyclic_group(n), mats)
    assert rep.perms is not None
    d = rep.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    for g, u in enumerate(mats):
        assert np.array_equal(rep.matrices[g], u)
        assert max_abs(act(rep, g, stack) - u @ stack @ np.conj(u).T) < 1e-14
    _, other = data.draw(cyclic_monomial_reps(order=n))
    joint = tensor_rep(rep, unitary_rep(rep.group, other))
    for g in rep.group.elements():
        assert np.array_equal(joint.matrices[g], np.kron(mats[g], other[g]))
