"""Finite groups and unitary representations against independent oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framerel import groups
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
    invariance_deviation,
    moved_on_support,
    orbitals,
    regular_representation,
    same_group,
    support_orbit,
    tensor_rep,
    translates,
    trivial_rep,
    unitary_rep,
    word_bound,
)
from framerel.linalg import max_abs

from .strategies import (
    cyclic_monomial_reps,
    group_reps,
    permutation_matrices,
    regular_matrices,
    standard_matrices,
)
from .support import (
    I2,
    X,
    Z,
    commutation_deviation,
    s3_irrep2,
    symmetric_table_loop,
    traced_peak,
    z2_flip_rep,
    zn_phase_rep,
)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_table_and_labels_match_the_double_loop(n):
    table, labels = symmetric_table_loop(n)
    group = build_symmetric_group(n)
    assert np.array_equal(group.mult, table) and group.labels == labels


def test_symmetric_group_of_six_letters():
    group = build_symmetric_group(6)
    perms = sorted(itertools.permutations(range(6)))
    assert group.order == 720 and group.identity == 0 and group.labels[0] == "012345"
    index = {p: i for i, p in enumerate(perms)}
    rng = np.random.default_rng(6)
    for i, j in rng.integers(0, 720, size=(200, 2)):
        assert group.multiply(i, j) == index[compose_perms(perms[i], perms[j])]
    assert all(group.multiply(g, group.inv(g)) == 0 for g in group.elements())
    with pytest.raises(DimensionError):
        build_symmetric_group(7)


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


def _swapped(table, row, a, b):
    """``table`` with entries (row, a) and (row, b) swapped: identity and
    inverses survive when neither entry is the identity 0, associativity not."""
    table = [list(r) for r in table]
    assert 0 not in (table[row][a], table[row][b])
    table[row][a], table[row][b] = table[row][b], table[row][a]
    return table


def _assert_non_associative_witness(table):
    with pytest.raises(NotAssociative) as err:
        build_group_from_table(table)
    x, s, y = err.value.triple
    assert table[table[x][s]][y] != table[x][table[s][y]]


@pytest.mark.parametrize(
    "table",
    [
        [[(i + j) % 65 for j in range(65)] for i in range(65)],  # beyond any small-order cap
        build_symmetric_group(6).mult.tolist(),
    ],
    ids=["Z65", "S6"],
)
def test_light_test_rejects_one_swapped_entry_at_every_order(table):
    # one swap in row 2: Light's test on the generators finds a failing triple,
    # and the generator search itself terminates on a table that is no group
    _assert_non_associative_witness(_swapped(table, 2, 3, 4))


def test_light_test_accepts_groups_and_keeps_their_generators():
    assert build_symmetric_group(4).generators == (9, 10)
    assert build_symmetric_group(5).generators == (27, 31)
    assert build_symmetric_group(6).generators == (27, 128)


def test_malformed_tables_raise_engine_errors():
    with pytest.raises(DimensionError):
        build_group_from_table([[0, 1], [1]])  # ragged rows
    with pytest.raises(NoIdentity):
        build_group_from_table([[0, 1], [1, 0]], identity_element=5)


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


def test_unitary_rep_rejects_a_non_finite_matrix():
    # a dense NaN matrix passed every ``dev > tol`` test, and a frame on
    # the rep then raised numpy's LinAlgError
    bad = np.array([[np.nan, 1], [1, 0]], dtype=complex)
    with pytest.raises(InvalidRepresentation, match=r"^matrix has a non-finite entry \(element 1\)$") as err:
        unitary_rep(build_cyclic_group(2), [I2, bad])
    assert err.value.element == 1
    with pytest.raises(InvalidRepresentation, match="non-finite"):
        unitary_rep(build_cyclic_group(2), [I2, np.array([[0, np.inf], [1, 0]])])


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


def test_regular_representation_equals_the_validated_left_multiplication_matrices():
    # index arithmetic gives what unitary_rep detects in the dense matrices
    for group in (build_cyclic_group(5), build_symmetric_group(3), build_symmetric_group(4)):
        n = group.order
        mats = np.zeros((n, n, n), dtype=complex)
        for a in group.elements():
            for b in group.elements():
                mats[a, group.multiply(a, b), b] = 1.0
        validated, rep = unitary_rep(group, mats), regular_representation(group)
        assert rep.phases is None and not rep.perms.flags.writeable
        assert rep.perms.dtype == validated.perms.dtype
        assert np.array_equal(rep.perms, validated.perms)
        assert np.array_equal(np.stack(rep.matrices), mats)


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


def _moved_oracle(rep, stack, support):
    """(inside, outside) from ``act``: each g.a on ``support``, and its largest |entry| off it."""
    moved = np.stack([act(rep, g, stack).reshape(len(stack), -1) for g in rep.group.elements()])
    return moved[..., support], np.abs(np.delete(moved, support, axis=-1)).max(axis=-1, initial=0.0)


def _moved_cases():
    """(rep, stack) pairs for ``moved_on_support``: permutation, dense (the S3
    irrep) and phased reps, on supports that some element keeps and on
    supports that some element carries off."""
    regular = regular_representation(build_symmetric_group(3))
    reps = [regular, tensor_rep(regular, s3_permutation_rep()), s3_irrep2()]
    reps += [rep for rep, _ in phased_reps()]
    rng = np.random.default_rng(19)
    for rep in reps:
        for density in (0.1, 0.4, 1.0):
            yield rep, _sparse_stack(rng, 3, rep.dim, density)


def test_support_translates_describe_the_gather():
    # off the support g.a holds what g carries off; the orbit is where it can land
    carried_off = 0
    for rep, stack in _moved_cases():
        values, support = _on_support(stack)
        _, outside = _moved_oracle(rep, stack, support)
        carried_off += bool(outside.any())
        every = moved_on_support(rep, values, support)[1]
        for g in rep.group.elements():
            for out in (moved_on_support(rep, values, support, g)[1], every[g]):
                # exact but for the phases' rounding
                assert np.allclose(out, outside[g], rtol=0, atol=0 if rep.phases is None else 1e-15)
        # a monomial orbit is the entries some translate fills; a dense one is every entry
        translated = np.stack([act(rep, g, stack) for g in rep.group.elements()])
        orbit = np.flatnonzero(np.any(translated, axis=(0, 1))) if rep.perms is not None else np.arange(rep.dim**2)
        assert np.array_equal(support_orbit(rep, support), orbit)
    assert carried_off > 0


def test_support_values_are_the_entries_of_act_bit_for_bit():
    # on the support g.a is what act gives, for every element, a slice and one element
    for rep, stack in _moved_cases():
        values, support = _on_support(stack)
        inside, _ = _moved_oracle(rep, stack, support)
        assert np.array_equal(moved_on_support(rep, values, support)[0], inside)
        assert np.array_equal(moved_on_support(rep, values, support, slice(1, 3))[0], inside[1:3])
        for g in rep.group.elements():
            assert np.array_equal(moved_on_support(rep, values, support, g)[0], inside[g])


def _on_support(stack):
    """A stack's entries on its support, and that support (increasing flat indices)."""
    flat = np.reshape(stack, (len(stack), -1))
    support = np.flatnonzero(np.any(flat != 0, axis=0))
    return flat[:, support], support


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
                assert invariance_deviation(rep, *_on_support(ops)) == expected


def _permutation_reps():
    """S3 and S4 on their permutation and regular matrices, and tensor products of them."""
    for n in (3, 4):
        group = build_symmetric_group(n)
        perm = unitary_rep(group, permutation_matrices(n))
        regular = unitary_rep(group, regular_matrices(n))
        yield from (perm, regular, tensor_rep(regular, perm), tensor_rep(perm, perm))


def _entry_orbit_oracle(rep, t):
    """The flat entries where some g.E_t is nonzero, E_t the matrix unit at flat entry t."""
    unit = np.zeros(rep.dim**2, dtype=complex)
    unit[t] = 1.0
    moved = np.stack([act(rep, g, unit.reshape(rep.dim, rep.dim)) for g in rep.group.elements()])
    return set(np.flatnonzero(np.any(moved != 0, axis=0)).tolist())


def test_orbitals_are_the_orbits_of_every_element():
    # built from the generators, the labels and leaks are those of the whole group
    rng = np.random.default_rng(37)
    for rep in itertools.islice(_permutation_reps(), 6):
        for density in (0.05, 1.0):
            support = _on_support(_sparse_stack(rng, 1, rep.dim, density))[1]
            labels, phases, vanish = orbitals(rep, support)
            assert phases is None and len(labels) == len(support)
            orbits = [_entry_orbit_oracle(rep, t) for t in support]
            smallest = [min(orbits[np.flatnonzero(labels == o)[0]]) for o in range(len(vanish))]
            assert smallest == sorted(smallest)  # numbered by smallest entry
            for k, orbit in enumerate(orbits):
                assert set(support[labels == labels[k]].tolist()) == orbit & set(support.tolist())
                assert vanish[labels[k]] == (not orbit <= set(support.tolist()))
    assert orbitals(s3_irrep2(), np.arange(4)) is None


def _refuse(*args, **kwargs):
    raise AssertionError("the element loop ran")


def test_real_permutation_invariance_reads_orbits_bit_for_bit(monkeypatch):
    # real values on a permutation rep take the orbit spread, never the element
    # loop (which alone asks ``chunks`` for its runs), on empty, leaking and full supports
    rng = np.random.default_rng(41)
    seen = {"empty": 0, "leaking": 0, "closed": 0}
    for rep in _permutation_reps():
        for density in (0.0, 0.03, 0.3, 1.0):
            stack = _sparse_stack(rng, 3, rep.dim, density).real.astype(complex)
            twirled = sum(act(rep, g, stack) for g in rep.group.elements()) / rep.group.order
            for ops in (stack, twirled, twirled + 1e-13 * stack, -stack):
                expected = max(commutation_deviation(rep, g, ops) for g in rep.group.elements())
                values, support = _on_support(ops)
                with monkeypatch.context() as m:
                    m.setattr(groups, "chunks", _refuse)
                    assert invariance_deviation(rep, values, support) == expected
                    vanish = orbitals(rep, support)[2]
                seen["empty" if not len(support) else "leaking" if vanish.any() else "closed"] += 1
    assert min(seen.values()) > 0, seen


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
            assert abs(invariance_deviation(rep, *_on_support(ops)) - expected) < 1e-14
        each = np.stack([act(rep, g, stack) for g in rep.group.elements()])
        assert np.array_equal(translates(rep, stack), each)
        assert np.array_equal(translates(rep, stack, slice(1, 4)), each[1:4])
        assert np.array_equal(translates(rep, stack[0], slice(2, None)), each[2:, 0])
    # on the 1-dim Z3 phase rep two layouts of the products once rounded apart
    z3 = unitary_rep(build_cyclic_group(3), [np.array([[np.exp(2j * np.pi * k / 3)]]) for k in range(3)])
    for a in rng.standard_normal((8, 1, 1, 1)) + 1j * rng.standard_normal((8, 1, 1, 1)):
        assert np.array_equal(translates(z3, a), np.stack([act(z3, g, a) for g in range(3)]))
        assert np.array_equal(translates(z3, a[0]), np.stack([act(z3, g, a[0]) for g in range(3)]))


@settings(max_examples=40, deadline=None)
@given(case=group_reps(), seed=st.integers(0, 2**32 - 1))
def test_act_is_translates_at_one_element(case, seed):
    # one formula for g.a: on monomial and dense reps alike, every slice
    # of ``translates`` is ``act`` bit for bit, and both are U a U^dag
    kind, n, mats = case
    group = build_cyclic_group(n) if kind == "cyclic" else build_symmetric_group(n)
    rep = unitary_rep(group, mats)
    d = rep.dim
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    each = np.stack([act(rep, g, stack) for g in group.elements()])
    assert max_abs(each - np.stack([u @ stack @ np.conj(u).T for u in mats])) < 1e-13
    assert np.array_equal(translates(rep, stack), each)
    assert np.array_equal(translates(rep, stack[1]), each[:, 1])
    assert np.array_equal(translates(rep, stack, slice(1, None)), each[1:])


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
    joint, peak = traced_peak(lambda: tensor_rep(regular, perm5))
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


# --------------------------------------------------------------- generators


def word_depths(group, gens):
    """Word length of every element reachable from the identity by right
    multiplication with ``gens``, by a plain breadth-first search."""
    depth, frontier = {group.identity: 0}, [group.identity]
    while frontier:
        following = []
        for g in frontier:
            for s in gens:
                h = group.multiply(g, s)
                if h not in depth:
                    depth[h] = depth[g] + 1
                    following.append(h)
        frontier = following
    return depth


def z2_cubed():
    """Z2 x Z2 x Z2 as XOR on 0..7: three generators are needed."""
    return build_group_from_table([[a ^ b for b in range(8)] for a in range(8)])


GROUPS = {
    "Z1": lambda: build_cyclic_group(1),
    "Z2": lambda: build_cyclic_group(2),
    "Z7": lambda: build_cyclic_group(7),
    "Z16": lambda: build_cyclic_group(16),
    "S3": lambda: build_symmetric_group(3),
    "S4": lambda: build_symmetric_group(4),
    "S5": lambda: build_symmetric_group(5),
    "Z2^3": z2_cubed,
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generators_generate_the_group_and_words_are_the_bfs_tree(name):
    group = GROUPS[name]()
    depth = word_depths(group, group.generators)
    assert len(depth) == group.order
    assert group.word_length == max(depth.values())
    elements, parents, letters, length = group.words
    assert length == group.word_length
    assert sorted(elements.tolist()) == sorted(set(range(group.order)) - {group.identity})
    for g, p, s in zip(elements, parents, letters):
        assert group.multiply(p, s) == g and s in group.generators
        assert depth[g] == depth[p] + 1
    assert group.generators == GROUPS[name]().generators  # deterministic


def test_generating_set_sizes():
    for n in (2, 5, 16):
        assert build_cyclic_group(n).generators == (1,)
    for n in (4, 5):
        assert len(build_symmetric_group(n).generators) <= 2
    assert len(z2_cubed().generators) == 3


def test_order_one_group_has_no_generators_and_a_finite_bound():
    group = build_cyclic_group(1)
    assert group.generators == () and group.word_length == 0
    rep = trivial_rep(group, 2)
    assert rep.word_constants == (1.0, 0.0)
    assert word_bound(rep, 1.0, 1.0) == 0.0


def test_permutation_reps_compose_exactly_along_words():
    s4 = build_symmetric_group(4)
    for rep in (regular_representation(s4), unitary_rep(s4, permutation_matrices(4))):
        assert rep.word_constants == (1.0, 0.0)
        assert word_bound(rep, 2e-10, 5.0) == s4.word_length * 2e-10


def word_products(rep):
    """U(s_1) ... U(s_k) along every element's word, by plain matrix products."""
    group = rep.group
    mats = {group.identity: np.eye(rep.dim, dtype=complex)}
    for g, p, s in zip(*group.words[:3]):
        mats[int(g)] = mats[int(p)] @ rep.matrices[s]
    return mats


@pytest.mark.parametrize("dense", [False, True])
def test_word_constants_bound_the_defect_of_a_perturbed_element(dense):
    # U(g0) is moved off the words' product by ~1e-7 at a non-generator g0,
    # in a rep validated at a looser tolerance; theta must cover it
    group = build_symmetric_group(4)
    mats = standard_matrices(4) if dense else permutation_matrices(4)
    g0 = next(g for g in group.elements() if g not in group.generators and g != group.identity)
    d = len(mats[0])
    h = np.diag(np.linspace(-1.0, 1.0, d))
    if dense:
        h = h + 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
    vals, vecs = np.linalg.eigh(1e-7 * h)
    mats[g0] = mats[g0] @ (vecs * np.exp(1j * vals)) @ vecs.conj().T
    rep = unitary_rep(group, mats, tol=1e-5)
    assert (rep.perms is None) == dense
    nu, defect = rep.word_constants
    assert nu == pytest.approx(max(1.0, *(np.linalg.norm(rep.matrices[s], 2) for s in group.generators)))
    gaps = word_gaps(rep)
    assert 5e-8 < max(gaps) <= defect
    # the product with the sign rep takes its constants from the factors
    sign = [np.linalg.det(m.real) * np.eye(1) for m in permutation_matrices(4)]
    joint = tensor_rep(rep, unitary_rep(group, sign))
    assert max(word_gaps(joint)) <= joint.word_constants[1]
    assert word_bound(joint, 0.0, 1.0) >= max(gap * (2 + gap) for gap in word_gaps(joint))


def word_gaps(rep):
    """||U(g) - W(g)||_op for every element, W(g) the product along its word."""
    words = word_products(rep)
    return [np.linalg.norm(rep.matrices[g] - words[g], 2) for g in rep.group.elements()]
