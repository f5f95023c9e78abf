"""Linear-algebra layer: oracles first, then the library against them."""


import numpy as np
import pytest

from framerel.errors import DimensionError
from framerel.linalg import (
    MatrixSubspace,
    block_min_eigenvalues,
    block_operator_norms,
    block_partition,
    chunks,
    diagonal_blocks,
    hermitian_basis,
    hs_norms,
    is_density_matrix,
    is_psd,
    is_unitary,
    matrix_unit_span,
    max_abs,
    min_eigenvalue,
    operator_norm,
    orthonormalize,
    psd_span_samples,
    span_subspace,
    tensor_product,
    unvec,
    vec,
    vector_kernel,
    widen_partition,
)

from .support import partial_trace_first, traced_peak

# ----------------------------------------------------------------- oracles
#
# Independent implementations used to pin down conventions.  These are
# written from the definitions (index formulas, explicit loops), not by
# calling the code under test.


def kron_oracle(a, b):
    """(a (x) b)[i*db + k, j*db + l] = a[i,j] b[k,l]."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, da, db):
    """Sum of the diagonal (i,i) blocks of the (da x da) block structure."""
    out = np.zeros((db, db), dtype=complex)
    for i in range(da):
        out += m[i * db : (i + 1) * db, i * db : (i + 1) * db]
    return out


def project_oracle(m, spanning):
    """Least-squares projection onto a (not necessarily orthonormal) span."""
    a = np.stack([s.reshape(-1) for s in spanning], axis=1)
    coeff, *_ = np.linalg.lstsq(a, m.reshape(-1), rcond=None)
    return (a @ coeff).reshape(m.shape)


# ------------------------------------------------------------------ basics


def test_vec_unvec_row_major():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(m), np.array([1, 2, 3, 4], dtype=complex))
    assert np.array_equal(unvec(vec(m)), m)
    with pytest.raises(DimensionError):
        unvec(np.arange(3, dtype=complex))


def test_tensor_product_matches_index_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert max_abs(tensor_product(a, b) - kron_oracle(a, b)) < 1e-14


def test_partial_trace_first_matches_block_oracle():
    rng = np.random.default_rng(12)
    for da, db in [(2, 2), (2, 3), (4, 2)]:
        m = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal((da * db, da * db))
        got = partial_trace_first(m, da, db)
        assert max_abs(got - partial_trace_oracle(m, da, db)) < 1e-14
    # trace is preserved
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert abs(np.trace(partial_trace_first(m, 2, 3)) - np.trace(m)) < 1e-12


def test_partial_trace_of_product_factorizes():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = partial_trace_first(tensor_product(a, b), 3, 2)
    assert max_abs(got - np.trace(a) * b) < 1e-12


def test_predicates_on_fixed_matrices():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert is_unitary(x)
    assert not is_unitary(x + 0.1 * np.eye(2))
    assert is_psd(np.diag([0.3, 0.0]).astype(complex))
    assert not is_psd(np.diag([0.3, -0.2]).astype(complex))
    assert is_density_matrix(np.diag([0.75, 0.25]).astype(complex))
    assert not is_density_matrix(np.diag([0.75, 0.75]).astype(complex))
    assert min_eigenvalue(np.diag([2.0, -3.0]).astype(complex)) == -3.0


def test_is_psd_fails_a_non_finite_matrix():
    # a NaN on the diagonal passes both comparisons, ``dev > tol`` and
    # ``low >= -tol d``, when eigvalsh returns finite eigenvalues for it
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = np.nan
    assert not is_psd(m)
    m[0, 0] = np.inf
    assert not is_psd(m)
    assert not is_density_matrix(m)


def test_operator_norm_is_largest_singular_value():
    m = np.diag([3.0, -4.0]).astype(complex)
    assert operator_norm(m) == 4.0
    # a stack gives one norm per operator, each the single call's bit for bit
    rng = np.random.default_rng(29)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    norms = operator_norm(stack)
    assert norms.shape == (4,) and norms.tolist() == [operator_norm(s) for s in stack]


# ------------------------------------------------------- block-wise spectra
#
# Oracles: the dense np.linalg calls on each whole operator, and the
# components of a support pattern written down by hand.

# middle indices 0..6 in four components of unequal size, interleaved
COMPONENTS = ([0, 4, 5], [1], [2, 6], [3])


def _component_support(r, components):
    support = np.zeros((r, r), dtype=bool)
    for comp in components:
        for a, b in zip(comp, comp[1:]):  # a path, not a clique: one direction only
            support[a, b] = True
    return support


def _block_diagonal_stack(rng, n, partition, hermitian=False):
    """Random operators that vanish off the blocks of ``partition``."""
    size = sum(idx.size for idx in partition)
    out = np.zeros((n, size, size), dtype=complex)
    for idx in partition:
        for rows in idx:
            b = rows.size
            block = rng.standard_normal((n, b, b)) + 1j * rng.standard_normal((n, b, b))
            if hermitian:
                block = block + np.conj(block).swapaxes(1, 2)
            out[:, rows[:, None], rows[None, :]] = block
    return out


def test_block_partition_is_the_component_partition():
    components = block_partition(_component_support(7, COMPONENTS))
    for inner in (1, 2, 3):
        partition = widen_partition(components, inner)
        got = sorted(sorted(rows.tolist()) for idx in partition for rows in idx)
        want = sorted(sorted(i * inner + s for i in comp for s in range(inner)) for comp in COMPONENTS)
        assert got == want
        assert sorted(i for rows in got for i in rows) == list(range(7 * inner))
        # one index array per block size
        assert len({idx.shape[1] for idx in partition}) == len(partition)


def _components_oracle(support):
    """Connected components by depth-first search over both edge directions."""
    r = len(support)
    seen, comps = set(), []
    for start in range(r):
        if start in seen:
            continue
        comp, todo = [], [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in range(r):
                if (support[i, j] or support[j, i]) and j not in seen:
                    seen.add(j)
                    todo.append(j)
        comps.append(sorted(comp))
    return comps


def test_block_partition_matches_a_search_oracle_on_random_supports():
    rng = np.random.default_rng(19)
    for r in (1, 5, 12, 30):
        for density in (0.0, 0.05, 0.15):
            support = rng.random((r, r)) < density
            partition = block_partition(support)
            got = sorted(rows.tolist() for idx in partition for rows in idx)
            assert got == sorted(_components_oracle(support))


def test_block_partition_of_a_connected_support_is_the_identity():
    support = np.zeros((4, 4), dtype=bool)
    support[0, 3] = support[3, 1] = support[2, 1] = True
    (members,) = block_partition(support)
    assert np.array_equal(members, np.arange(4)[None, :])
    (idx,) = widen_partition((members,), inner=2)
    assert np.array_equal(idx, np.arange(8)[None, :])


def test_block_spectra_match_the_dense_calls():
    rng = np.random.default_rng(17)
    partition = widen_partition(block_partition(_component_support(7, COMPONENTS)), inner=2)
    for hermitian in (False, True):
        stack = _block_diagonal_stack(rng, 20, partition, hermitian)
        blocks = diagonal_blocks(stack, partition)
        lows = block_min_eigenvalues(blocks)
        norms = block_operator_norms(blocks)
        assert lows.shape == norms.shape == (20,)
        for m, low, nrm in zip(stack, lows, norms):
            want_low = np.linalg.eigvalsh((m + np.conj(m).T) / 2)[0]
            want_norm = np.linalg.norm(m, 2)
            assert abs(low - want_low) <= 1e-12 * abs(want_low)
            assert abs(nrm - want_norm) <= 1e-12 * want_norm


def test_zero_blocks_have_norm_zero_without_a_decomposition(monkeypatch):
    # every block zero: the norms are 0.0 and no 2-norm is taken; one
    # nonzero block takes the call for that block alone
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda a, *args, **kw: calls.append(a.shape) or norm(a, *args, **kw))
    blocks = [np.zeros((3, 5, 2, 2), dtype=complex), np.zeros((3, 1, 4, 4), dtype=complex)]
    assert np.array_equal(block_operator_norms(blocks), np.zeros(3))
    assert calls == []
    blocks[1][2, 0] = 2 * np.eye(4)
    assert np.array_equal(block_operator_norms(blocks), [0.0, 0.0, 2.0])
    assert calls == [(1, 4, 4)]


def test_one_block_spectra_are_the_dense_calls_bit_for_bit():
    rng = np.random.default_rng(18)
    stack = rng.standard_normal((6, 9, 9)) + 1j * rng.standard_normal((6, 9, 9))
    blocks = diagonal_blocks(stack, widen_partition(block_partition(np.ones((3, 3), dtype=bool)), inner=3))
    assert len(blocks) == 1 and np.array_equal(blocks[0][:, 0], stack)
    assert np.array_equal(
        block_min_eigenvalues(blocks), [min_eigenvalue(m) for m in stack]
    )
    assert np.array_equal(block_operator_norms(blocks), np.linalg.norm(stack, 2, axis=(1, 2)))


# ----------------------------------------------------------- orthonormalize


def test_orthonormalize_drops_dependents_and_is_deterministic():
    v1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    v2 = np.array([1.0, 1.0, 0.0], dtype=complex)
    basis = orthonormalize([v1, v2, v1 + v2])
    assert len(basis) == 2
    gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert max_abs(gram - np.eye(2)) < 1e-12
    again = orthonormalize([v1, v2, v1 + v2])
    for a, b in zip(basis, again):
        assert np.array_equal(a, b)  # bit-for-bit reproducible


def test_orthonormalize_randomized_gram_property():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = rng.integers(2, 7)
        k = rng.integers(1, n + 2)
        vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]
        basis = orthonormalize(vs)
        assert len(basis) == np.linalg.matrix_rank(np.stack(vs))
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert max_abs(gram - np.eye(len(basis))) < 1e-12


# ----------------------------------------------------------------- kernels


def test_vector_kernel_dimension_matches_rank_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rows = rng.integers(1, 6)
        cols = rng.integers(1, 6)
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        kern = vector_kernel(m)
        assert kern.shape[0] == cols - np.linalg.matrix_rank(m)
        if kern.shape[0]:
            assert max_abs(m @ kern.T) < 1e-12


def test_vector_kernel_scale_invariant():
    m = np.array([[1.0, 1.0, 0.0]], dtype=complex)
    k1 = vector_kernel(m)
    k2 = vector_kernel(1e6 * m)
    assert k1.shape == k2.shape == (2, 3)


def test_vector_kernel_of_a_tall_matrix_stays_small():
    rng = np.random.default_rng(5)
    left = rng.standard_normal((3000, 2)) + 1j * rng.standard_normal((3000, 2))
    right = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    m = left @ right  # rank 2, so the kernel has dimension 2
    kern, peak = traced_peak(lambda: vector_kernel(m))
    assert kern.shape == (2, 4)
    assert max_abs(m @ kern.T) < 1e-9
    assert max_abs(kern @ np.conj(kern).T - np.eye(2)) < 1e-12
    # a full SVD would allocate a 3000 x 3000 complex U, 137 MiB
    assert peak < 16 * 2**20


def test_chunks_cover_the_items_within_the_working_set(monkeypatch):
    monkeypatch.setattr("framerel.linalg.WORKING_SET", 10)
    assert list(chunks(7, 3)) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    # an item larger than the budget still takes a step of its own
    assert list(chunks(3, 20)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    # a held array at least as large as the budget raises it to its size
    assert list(chunks(5, 20, np.zeros((2, 20)))) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert list(chunks(0, 3)) == []


# ---------------------------------------------------------------- subspaces


def test_hs_project_matches_lstsq_oracle_on_fixed_case():
    eye = np.eye(2, dtype=complex)
    zmat = np.diag([1.0, -1.0]).astype(complex)
    space = span_subspace([eye, zmat])
    xmat = np.array([[0, 1], [1, 0]], dtype=complex)
    # oracle values: X is HS-orthogonal to span{I, Z}, (I+X)/2 projects to I/2
    assert max_abs(space.project(xmat)) == 0.0
    got = space.project((eye + xmat) / 2)
    assert max_abs(got - eye / 2) < 1e-14
    rng = np.random.default_rng(41)
    for _ in range(25):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert max_abs(space.project(m) - project_oracle(m, [eye, zmat])) < 1e-12


def test_projection_is_idempotent_and_self_adjoint():
    rng = np.random.default_rng(42)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    space = span_subspace(mats)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pa = space.project(a)
        assert max_abs(space.project(pa) - pa) < 1e-12
        lhs = np.vdot(space.project(a), b)
        rhs = np.vdot(a, space.project(b))
        assert abs(lhs - rhs) < 1e-11


def test_subspace_membership_and_coefficients():
    eye = np.eye(2, dtype=complex)
    zmat = np.diag([1.0, -1.0]).astype(complex)
    space = span_subspace([eye, zmat])
    assert space.dim == 2
    assert space.contains(np.diag([3.0, 7.0]).astype(complex))
    assert not space.contains(np.array([[0, 1], [0, 0]], dtype=complex))
    m = np.diag([2.0, 1.0]).astype(complex)
    assert max_abs(space.combine(space.coefficients(m)) - m) < 1e-14


def test_residuals_agree_with_contains_verdicts():
    rng = np.random.default_rng(17)
    spanning = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    space = span_subspace(spanning)
    members = [space.combine(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(5)]
    others = [rng.standard_normal((3, 3)) for _ in range(5)]
    stack = np.stack(members + others)
    res = space.residuals(stack)
    assert res.shape == (10,)
    assert [bool(r <= 1e-9) for r in res] == [space.contains(m) for m in stack]
    assert [space.contains(m) for m in stack] == [True] * 5 + [False] * 5
    assert np.allclose(res, [space.residual(m) for m in stack], rtol=1e-9, atol=1e-12)
    assert space.residuals(np.zeros((0, 3, 3))).shape == (0,)


def _dense_residuals(space, stack):
    """The two-product formula on the whole d x d entries."""
    flat = stack.reshape(len(stack), -1)
    basis = space.basis_stack.reshape(space.dim, -1)
    return np.abs((flat @ np.conj(basis).T) @ basis - flat).max(axis=1)


def test_support_residuals_match_the_dense_projection():
    rng = np.random.default_rng(31)
    # block-diagonal span on C^5, blocks {0, 1} and {2, 3, 4}: 13 of 25 entries
    block = np.zeros((5, 5), dtype=bool)
    block[:2, :2] = block[2:, 2:] = True
    sparse = span_subspace([
        (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) * block for _ in range(6)
    ])
    dense = span_subspace([rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(6)])
    assert np.array_equal(sparse.support, np.flatnonzero(block))
    assert np.array_equal(dense.support, np.arange(25))
    assert np.array_equal(matrix_unit_span(3).support, np.arange(9))
    off_only = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) * ~block
    for space in (sparse, dense):
        members = space.combine(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
        others = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        stack = np.concatenate([members, others, off_only[None], np.zeros((1, 5, 5))])
        res = space.residuals(stack)
        assert np.max(np.abs(res - _dense_residuals(space, stack))) <= 1e-12
        assert res[-1] == 0.0 and np.all(res[:3] <= 1e-12)
    # mass only off the support: the projection is zero, the residual its largest entry
    assert sparse.residuals(off_only[None])[0] == max_abs(off_only)
    on = sparse.support_residuals(off_only.reshape(1, -1)[:, sparse.support])
    assert np.array_equal(on, [0.0])


def test_full_span_membership_is_immediate():
    units = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    full = MatrixSubspace(2, tuple(units))
    assert full.is_full and not span_subspace(units[:3]).is_full
    a = np.array([[1.0, 2.0 + 1j], [-3.0, 4.0]])
    assert full.residual(a) == 0.0
    assert full.contains(a, 0.0)
    assert np.array_equal(full.residuals(np.stack([a, a.T])), [0.0, 0.0])
    with pytest.raises(DimensionError):
        full.residual(np.eye(3))
    with pytest.raises(DimensionError):
        full.residuals(np.eye(2))
    with pytest.raises(DimensionError):
        full.residuals(np.zeros((1, 3, 3)))


def _matrix_units(d):
    return [np.eye(d * d, dtype=complex)[k].reshape(d, d) for k in range(d * d)]


def test_stacked_coefficients_combine_and_project_match_single_calls():
    rng = np.random.default_rng(29)
    full = MatrixSubspace(3, tuple(_matrix_units(3)))
    proper = span_subspace([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)])
    for space in (full, proper):
        stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        view = stack.transpose(0, 2, 1)
        assert not view.flags.c_contiguous
        for ops in (stack, view):
            coeffs = space.coefficients(ops)
            assert coeffs.shape == (5, space.dim)
            combined = space.combine(coeffs)
            projected = space.project(ops)
            for k in range(5):
                single = np.ascontiguousarray(ops[k])
                assert np.array_equal(coeffs[k], space.coefficients(single))
                assert np.array_equal(combined[k], space.combine(coeffs[k]))
                assert np.array_equal(projected[k], space.project(single))
        assert space.coefficients(np.zeros((0, 3, 3))).shape == (0, space.dim)
        assert space.combine(np.zeros((0, space.dim))).shape == (0, 3, 3)
        assert space.project(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_coefficients_equal_the_conjugate_basis_product_bit_for_bit():
    # oracle: conj(B) @ vec(m), zero signs included (a real input on the
    # matrix units leaves exact zeros in every imaginary part)
    rng = np.random.default_rng(31)
    for space in (
        MatrixSubspace(2, tuple(_matrix_units(2))),
        span_subspace([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]),
    ):
        basis = np.conj(np.stack([vec(b) for b in space.basis]))
        for m in (np.array([[1.0, -2.0], [0.5, 3.0]]), rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))):
            expected = basis @ vec(m)
            assert space.coefficients(m).tobytes() == expected.tobytes()
            assert space.coefficients(m[None])[0].tobytes() == expected.tobytes()


def _same_bits(got, want):
    """Equal values and equal zero signs, in both real and imaginary parts."""
    return (
        got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got.real), np.signbit(want.real))
        and np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    )


def _signed_zero_operators(rng, shape):
    """Complex entries drawn from +-0.0 and nonzero values, parts independent."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.choice([0.0, -0.0, 1.5, -2.0], size=shape)
    out.imag = rng.choice([0.0, -0.0, 0.5, -1.0], size=shape)
    return out


def test_unit_span_matches_the_dense_matrix_unit_oracle_bit_for_bit():
    # oracle: the explicit (d*d, d*d) unit stack B, coefficients conj(B) @ vec(m)
    # and combinations c @ B, one matrix-vector product per operator
    rng = np.random.default_rng(53)
    for d in (1, 2, 3, 5):
        space = matrix_unit_span(d)
        assert space.is_unit_span and space.is_full and space.dim == d * d
        units = np.eye(d * d, dtype=complex)
        assert np.array_equal(space.basis_stack, units.reshape(d * d, d, d))
        assert len(space.basis) == d * d
        stack = _signed_zero_operators(rng, (4, d, d))
        for ops in (stack, stack.transpose(0, 2, 1)):
            dense = np.stack([np.conj(units) @ np.ascontiguousarray(m).reshape(-1) for m in ops])
            assert _same_bits(space.coefficients(ops), dense)
            for k, m in enumerate(ops):
                assert _same_bits(space.coefficients(m), dense[k])
            assert np.array_equal(space.residuals(ops), np.zeros(4))
            assert all(space.residual(m) == 0.0 and space.contains(m, 0.0) for m in ops)
        coeffs = _signed_zero_operators(rng, (4, d * d))
        dense = np.stack([(c @ units).reshape(d, d) for c in coeffs])
        assert _same_bits(space.combine(coeffs), dense)
        for k, c in enumerate(coeffs):
            assert _same_bits(space.combine(c), dense[k])
        projected = np.stack([(np.conj(units) @ m.reshape(-1)) @ units for m in stack])
        assert _same_bits(space.project(stack), projected.reshape(4, d, d))
        assert space.coefficients(np.zeros((0, d, d))).shape == (0, d * d)
        assert space.combine(np.zeros((0, d * d))).shape == (0, d, d)


def test_unit_span_rejects_wrong_shapes():
    space = matrix_unit_span(2)
    for bad in (np.zeros((2, 3, 3)), np.zeros((3, 3)), np.zeros((1, 2, 2, 2)), np.zeros(4)):
        with pytest.raises(DimensionError):
            space.coefficients(bad)
        with pytest.raises(DimensionError):
            space.project(bad)
    for bad in (np.zeros((3, 3)), np.zeros((1, 2, 2)), np.zeros(4)):
        with pytest.raises(DimensionError):
            space.residual(bad)
    for bad in (np.eye(2), np.zeros((1, 3, 3))):
        with pytest.raises(DimensionError):
            space.residuals(bad)
    for bad in (np.zeros(3), np.zeros((2, 5)), np.zeros((1, 2, 4))):
        with pytest.raises(DimensionError):
            space.combine(bad)
    with pytest.raises(DimensionError):
        matrix_unit_span(0)


def test_every_span_holds_its_basis_once():
    rng = np.random.default_rng(59)
    space = span_subspace([rng.standard_normal((3, 3)) for _ in range(4)])
    assert all(np.shares_memory(b, space.basis_stack) for b in space.basis)
    # the unit span stores no basis; the units are built when asked for
    assert matrix_unit_span(3)._stack is None


def test_stack_calls_reject_wrong_shapes():
    space = span_subspace([np.eye(2, dtype=complex), np.diag([1.0, -1.0])])
    for bad in (np.zeros((2, 3, 3)), np.zeros((3, 3)), np.zeros((1, 2, 2, 2)), np.zeros(4)):
        with pytest.raises(DimensionError):
            space.coefficients(bad)
        with pytest.raises(DimensionError):
            space.project(bad)
    with pytest.raises(DimensionError):
        space.residual(np.zeros((1, 2, 2)))
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(DimensionError):
            space.combine(bad)


def test_shift_into_cone_drops_a_multiple_of_the_identity():
    # span{h}, h = -c I plus rounding noise: the candidate -h/|h| shifts to
    # I up to that noise, +h/|h| to a matrix of norm ~1e-13; scaled up to
    # norm 1 it would be a sample that is neither PSD nor in the span
    rng = np.random.default_rng(43)
    noise = rng.standard_normal((4, 4))
    h = -0.45 * np.eye(4) + 1e-14 * (noise + noise.T)
    samples = psd_span_samples(span_subspace([h]), count=0, tol=1e-9)
    assert samples.shape == (2, 4, 4)
    assert np.allclose(samples, np.eye(4))
    # span{D}: the candidates are +-D/|D|, each shifted by its smallest
    # eigenvalue (-2/3 for both) and scaled to operator norm 1
    d = np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex)
    samples = psd_span_samples(span_subspace([d]), count=0, tol=1e-9)
    assert samples.shape == (3, 4, 4)
    shifted = sorted(np.diag(s).real.round(12).tolist() for s in samples[1:])
    assert shifted == [[0.0, 1.0, 0.25, 0.5], [1.0, 0.0, 0.75, 0.5]]


def test_matrix_subspace_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        MatrixSubspace(2, (np.eye(3, dtype=complex),))
    with pytest.raises(DimensionError):
        span_subspace([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])


def test_hermitian_basis_of_non_selfadjoint_span():
    # complex spans absorb i, so the interesting cases are spans that are
    # not closed under the adjoint: span{E01} holds no hermitian element
    # except 0, and span{I, E01} only the multiples of I
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert hermitian_basis(span_subspace([e01])) == []
    eye = np.eye(2, dtype=complex)
    basis = hermitian_basis(span_subspace([eye, e01]))
    assert len(basis) == 1
    assert max_abs(basis[0] @ basis[0] - np.eye(2) / 2) < 1e-12  # I/sqrt(2) squared


def test_hermitian_basis_spans_hermitians_of_closed_span():
    rng = np.random.default_rng(43)
    space = span_subspace(
        [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex),
         np.array([[0, 1], [1, 0]], dtype=complex)]
    )
    basis = hermitian_basis(space)
    assert len(basis) == 3
    for h in basis:
        assert max_abs(h - np.conj(h).T) < 1e-12
        assert space.contains(h)


def test_psd_span_samples_are_psd_members_of_span():
    space = span_subspace(
        [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    )
    samples = psd_span_samples(space, count=8, seed=3)
    assert len(samples) >= 3
    for s in samples:
        assert is_psd(s, 1e-12)
        assert space.contains(s, 1e-10)
        assert abs(operator_norm(s) - 1.0) < 1e-10
    again = psd_span_samples(space, count=8, seed=3)
    assert len(again) == len(samples)
    for a, b in zip(samples, again):
        assert np.array_equal(a, b)


def test_hs_norms_are_the_frobenius_norms_of_each_item():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    for items in (stack, stack.swapaxes(1, 2), stack.real, stack[:, ::2]):
        want = [np.sqrt(np.sum(np.abs(x) ** 2)) for x in items]
        assert np.allclose(hs_norms(items), want, rtol=1e-14, atol=0)
    assert hs_norms(np.zeros((0, 4, 4), dtype=complex)).shape == (0,)
