"""Dense complex linear algebra over the Hilbert-Schmidt inner product.

Everything downstream (group actions, frames, relativization) works on
plain square ``complex128`` numpy arrays.  Subspaces of the d x d matrix
space are carried as orthonormal bases held on their support, the
entries where some basis element is nonzero, so membership tests,
projections and kernels read those entries alone.  The full matrix
space with the matrix-unit basis is implicit: it stores no basis, its
coefficients are the reshaped operator and its combinations the reshaped
coefficients, so a full algebra costs no d^4 storage and no d^2 x d^2
products.
``coefficients``, ``combine`` and ``project`` take one operator (one
coefficient vector) or a whole (k, d, d) stack (a (k, dim) stack).  A
stack is run as one matrix-vector product per slice, the same BLAS call
a single operator gets, so every slice is bit-identical to the single
call.  Membership is tested one operator at a time (``residual``,
``contains``) or for a whole stack (``residuals``); a full span answers
without projecting, since it holds every operator of the right shape.
A stack is tested on the span's support: the projection only reads
and writes those entries, so ``residuals`` projects the support columns
and takes the larger of that residual and the largest entry off the
support.  Callers that know where their operators live pass those
entries alone: the translates of ``systems`` give their support entries
to ``support_residuals``, its products their block entries to
``projection_errors``; ``support_gather`` reads operators held on a
support at any flat entries, zero off it.  Bases come from a two-pass modified
Gram-Schmidt with fixed input ordering, kernels from LAPACK's SVD, both
deterministic on a given platform.  The SVD is the reduced one unless the
matrix is wide, so a tall constraint matrix never allocates a rows x rows
``U``.

Spectra of operators that are block-diagonal along a known index
partition are taken block by block.  ``block_partition`` turns a support
pattern into that partition (the connected components, one (m, b) index
array per block size), ``widen_partition`` carries it to a tensor
product with C^inner, ``diagonal_blocks`` gathers each stack into
(n, m, b, b) blocks (``block_diagonal`` scatters them back), and
``block_min_eigenvalues`` and ``block_operator_norms`` make one batched
``eigvalsh`` or 2-norm call per block size.  A connected support is one
block, the identity gather, so those values are the dense call's bit for
bit.

``hs_norms`` gives the Hilbert-Schmidt norm of every item of a stack, the
norm in which the group-law checks compare a group's generators (see
``groups``).

``psd_span_samples`` draws the inputs of sampled positivity checks as one
stack, shifted into the PSD cone with one batched ``eigvalsh``.

Loops that would form a large stack of temporaries take their items a
slice at a time, under one rule: ``chunks`` keeps a slice's temporaries
within max(``WORKING_SET``, an array the caller already holds).
``WORKING_SET`` is 2^13 complex entries, 128 KiB, glibc's default mmap
threshold: larger temporaries are mapped and unmapped call by call, and
S4 timings then follow glibc's moving thresholds.  A slice only splits
the items, except in the relativization kernel, whose runs of group
elements split its sums and so move them by rounding; the tests pin
every chunked loop's results at budgets of 1 and 2^30 entries.

Tolerances are absolute and entrywise.  ``DEFAULT_TOL`` is the global
default; every function takes an explicit override, which is how the
scenario runner threads a configured value through.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

DEFAULT_TOL = 1e-9
WORKING_SET = 1 << 13  # complex entries a chunked loop forms at once: 128 KiB


def chunks(count: int, per_item: int, held=0):
    """Slices of ``range(count)``, each as many items of ``per_item`` entries as
    fit in max(``WORKING_SET``, ``np.size(held)``) entries, and at least one."""
    budget = max(WORKING_SET, np.size(held))
    step = max(1, budget // max(1, per_item))
    for lo in range(0, count, step):
        yield slice(lo, lo + step)


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of one operator or of each operator of a stack."""
    return np.conj(m).swapaxes(-1, -2)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def max_abs(m) -> float:
    """Largest entrywise absolute value (0.0 for empty input)."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hs_norms(stack) -> np.ndarray:
    """The Hilbert-Schmidt norm of every item of a (k, ...) stack, real or
    complex: one dot product of each item's real and imaginary parts."""
    a = np.ascontiguousarray(stack)
    flat = a.reshape(len(a), math.prod(a.shape[1:])).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2.0


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    return float(np.linalg.eigvalsh(hermitian_part(as_operator(m)))[0])


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """Finite, Hermitian within tol, then minimum eigenvalue >= -tol * dim."""
    a = as_operator(m)
    if not np.isfinite(a).all() or max_abs(a - dagger(a)) > tol:
        return False
    return min_eigenvalue(a) >= -tol * a.shape[0]


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(m)
    return max_abs(a @ dagger(a) - identity(a.shape[0])) <= tol


def is_density_matrix(m, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(m)
    return is_psd(a, tol) and abs(np.trace(a) - 1.0) <= tol * a.shape[0]


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product, first factor on coarse (block) indices."""
    return np.kron(as_operator(a), as_operator(b))


def operator_norm(m) -> float | np.ndarray:
    """Largest singular value of one operator, or of every operator of a
    (k, d, d) stack, as ``hs_norms``: one batched 2-norm."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 3:
        return np.linalg.norm(a, 2, axis=(1, 2))
    return float(np.linalg.norm(as_operator(a), 2))


def block_partition(support) -> tuple[np.ndarray, ...]:
    """The connected components of a support pattern, grouped by size.

    ``support`` (r x r, boolean) is the graph on 0..r-1 with an edge
    wherever it is set, in either direction; an operator that vanishes off
    it is block-diagonal, one block per component.  Components of equal
    size are stacked into one (m, c) array of members in increasing order.
    A connected support gives the single block (0, ..., r - 1).
    """
    adj = np.asarray(support, dtype=bool)
    r = len(adj)
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    # each index takes the smallest label among its neighbours until none
    # moves: then every component is labelled by its smallest index
    labels = np.arange(r)
    while True:
        moved = np.where(adj, labels, r).min(axis=1)
        if (moved == labels).all():
            break
        labels = moved
    order = np.argsort(labels, kind="stable")  # components by smallest index, members in index order
    sizes = np.bincount(labels, minlength=r)[labels[order]]  # the component size of each member
    return tuple(order[sizes == size].reshape(-1, size) for size in dict.fromkeys(sizes.tolist()))


def widen_partition(components, inner: int) -> tuple[np.ndarray, ...]:
    """The blocks of C^r (x) C^inner, index (i, s) at i inner + s, that the
    ``components`` of an r x r support (:func:`block_partition`) force:
    the indices (i, s) with i in C, for each component C."""
    return tuple(
        (members[:, :, None] * inner + np.arange(inner)).reshape(len(members), -1)
        for members in components
    )


def diagonal_blocks(stack, partition) -> list[np.ndarray]:
    """The diagonal blocks of every operator of a (n, D, D) stack.

    One gather per index array of ``partition`` (see
    :func:`block_partition`): an (m, b) array gives the (n, m, b, b)
    blocks stack[:, idx_a, idx_a'] for its m index rows.
    """
    a = np.asarray(stack, dtype=np.complex128)
    return [a[:, idx[:, :, None], idx[:, None, :]] for idx in partition]


def block_min_eigenvalues(blocks) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of every operator, from its diagonal blocks.

    ``blocks`` is what :func:`diagonal_blocks` returns for a stack that
    vanishes off those blocks; the spectrum of such an operator is the
    union of its block spectra, so this is one ``eigvalsh`` per block size.
    """
    return np.minimum.reduce(
        [np.linalg.eigvalsh(hermitian_part(b))[..., 0].min(axis=-1) for b in blocks]
    )


def block_operator_norms(blocks) -> np.ndarray:
    """Largest singular value of every operator, from its diagonal blocks.

    As :func:`block_min_eigenvalues`: one batched 2-norm per block size,
    then the largest block norm of each operator.  Only blocks with a
    nonzero entry are decomposed; a zero block's norm is exactly 0.0, and
    a stack of zero blocks takes no decomposition call at all.
    """
    out = []
    for b in blocks:
        norms = np.zeros(b.shape[:-2])
        nonzero = b.any(axis=(-2, -1))
        if nonzero.any():
            norms[nonzero] = np.linalg.norm(b[nonzero], 2, axis=(-2, -1))
        out.append(norms.max(axis=-1))
    return np.maximum.reduce(out)


def block_diagonal(blocks, partition, dim: int) -> np.ndarray:
    """The dense (n, dim, dim) stack with diagonal blocks ``blocks`` and zeros
    elsewhere: the inverse of :func:`diagonal_blocks`."""
    out = np.zeros((len(blocks[0]), dim, dim), dtype=np.complex128)
    for b, idx in zip(blocks, partition):
        out[:, idx[:, :, None], idx[:, None, :]] = b
    return out


def vec(m) -> np.ndarray:
    """Row-major flattening of a matrix into a vector."""
    return np.asarray(m, dtype=np.complex128).reshape(-1)


def unvec(v, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; infers a square dimension when omitted."""
    a = np.asarray(v, dtype=np.complex128).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(a.size)))
    if dim * dim != a.size:
        raise DimensionError(f"vector of length {a.size} is not a flattened square matrix")
    return a.reshape(dim, dim)


def orthonormalize(vectors, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Two-pass modified Gram-Schmidt in fixed input order.

    Returns an orthonormal list spanning the input span; vectors whose
    residual after projection is <= tol are dropped as dependent.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=np.complex128).reshape(-1).copy()
        for _ in range(2):
            for b in basis:
                w -= np.vdot(b, w) * b
        nrm = float(np.linalg.norm(w))
        if nrm > tol:
            basis.append(w / nrm)
    return basis


def vector_kernel(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the right null space of ``a``.

    The cutoff scales with the largest singular value so that an overall
    rescaling of the constraint rows does not change the answer.  Only a
    wide matrix needs the full SVD: for it the reduced ``vh`` would drop
    null directions, while for a tall one it is already cols x cols.
    """
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.size == 0:
        raise DimensionError("empty constraint matrix")
    return np.conj(_svd_kernel(m, tol))


def _svd_kernel(m: np.ndarray, tol: float) -> np.ndarray:
    """The rows of ``vh`` past the numerical rank of a 2-d matrix, in its own dtype."""
    rows, cols = m.shape
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    cutoff = tol * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:]


def support_gather(values, support, flat) -> np.ndarray:
    """Entries ``flat`` (flat indices, any shape) of operators given by their
    (..., k) ``values`` on the increasing ``support``: zero off the support,
    shape (..., *flat.shape)."""
    pos = np.searchsorted(support, flat)
    pos[np.append(support, -1)[pos] != flat] = len(support)
    zero = np.zeros((*np.shape(values)[:-1], 1), dtype=np.asarray(values).dtype)
    return np.concatenate([values, zero], axis=-1)[..., pos]


def projection_errors(rows, basis) -> np.ndarray:
    """|r - P r| entrywise, for every row r of ``rows``, P the projection onto ``basis``.

    ``basis`` is a (k, m) stack of orthonormal rows, ``rows`` a (j, m)
    stack; the projections are two matrix products over the stack.
    """
    diff = (rows @ np.conj(basis).T) @ basis
    diff -= rows
    return np.abs(diff)


class MatrixSubspace:
    """A linear subspace of d x d matrices with an HS-orthonormal basis.

    The basis is held on ``support``, the flat (row-major) indices of the
    entries where some basis element is nonzero, as one (dim,
    len(support)) array.  Every element of the span vanishes off the
    support, so coefficients read an operator's support entries alone
    and combinations are zero off it.  Factories (:func:`span_subspace`,
    :func:`matrix_unit_span`) guarantee the orthonormality; direct
    construction, from dense matrices (reduced to their support) or
    :meth:`on_support`, is for callers that already hold an orthonormal
    family.  ``basis_stack`` is built from the support on first request
    and kept; ``basis`` is views of it.  The unit span of
    :func:`matrix_unit_span` stores no basis: its coefficients are the
    entries of the operator, and its units are built only on request.
    """

    __slots__ = ("ambient_dim", "_support", "_stack")

    def __init__(self, ambient_dim: int, basis):
        d = ambient_dim
        for b in basis:
            if b.shape != (d, d):
                raise DimensionError(
                    f"basis element of shape {b.shape} in ambient dimension {d}"
                )
        flat = (
            np.stack([vec(b) for b in basis])
            if len(basis)
            else np.zeros((0, d * d), dtype=np.complex128)
        )
        support = np.flatnonzero(np.any(flat != 0, axis=0))
        self._hold(d, (support, np.ascontiguousarray(flat[:, support])))

    def _hold(self, ambient_dim: int, parts) -> None:
        """Hold the (support, values) pair ``parts``; None is the unit span."""
        if ambient_dim <= 0:
            raise DimensionError("ambient dimension must be positive")
        self.ambient_dim = ambient_dim
        self._support = parts
        self._stack = None

    @classmethod
    def on_support(cls, ambient_dim: int, support, values) -> "MatrixSubspace":
        """The span of orthonormal rows ``values`` on the increasing flat ``support``."""
        space = cls.__new__(cls)
        space._hold(ambient_dim, (np.asarray(support), np.ascontiguousarray(values, dtype=np.complex128)))
        return space

    def __repr__(self) -> str:
        return f"MatrixSubspace(ambient_dim={self.ambient_dim}, dim={self.dim})"

    @property
    def is_unit_span(self) -> bool:
        """True for the implicit matrix-unit span of :func:`matrix_unit_span`."""
        return self._support is None

    @property
    def dim(self) -> int:
        return self.ambient_dim**2 if self.is_unit_span else len(self._support[1])

    @property
    def is_full(self) -> bool:
        """True when the span is the whole d x d matrix space."""
        return self.dim == self.ambient_dim**2

    @property
    def support(self) -> np.ndarray:
        """Increasing flat indices of the entries where some basis element is nonzero."""
        return self._support_parts()[0]

    @property
    def support_basis(self) -> np.ndarray | None:
        """The basis on ``support``, (dim, len(support)); None for the unit span."""
        return self._support_parts()[1]

    def _support_parts(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The support and the basis on it."""
        return (np.arange(self.ambient_dim**2), None) if self.is_unit_span else self._support

    @property
    def basis_stack(self) -> np.ndarray:
        """The basis as one (dim, d, d) array, kept once built; fresh units for the unit span."""
        d = self.ambient_dim
        if self.is_unit_span:
            return matrix_units(d)
        if self._stack is None:
            support, values = self._support
            self._stack = support_gather(values, support, np.arange(d * d)).reshape(-1, d, d)
        return self._stack

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return tuple(self.basis_stack)

    def _operators(self, m, ndims=(2, 3)) -> np.ndarray:
        """``m`` as complex128: one d x d operator (ndim 2) or a (k, d, d) stack (ndim 3)."""
        a = np.asarray(m, dtype=np.complex128)
        d = self.ambient_dim
        if a.ndim not in ndims or a.shape[-2:] != (d, d):
            raise DimensionError(f"operator of shape {a.shape} in ambient {d}")
        return a

    def coefficients(self, m) -> np.ndarray:
        """HS coefficients of one operator, or of each operator of a stack.

        Computed on the support as conj(B @ conj(v)), which equals
        conj(B) @ v bit for bit without a conjugate copy of the basis; the
        added +0.0 turns the -0.0 that the outer conj leaves on exact zeros
        back into +0.0.  On the unit span the coefficients are the entries
        themselves, with the same +0.0 on zeros that the product with the
        units gives.
        """
        a = self._operators(m)
        flat = a.reshape(*a.shape[:-2], self.ambient_dim**2)
        if self.is_unit_span:
            return flat + 0.0
        support, basis = self._support_parts()
        return np.conj(basis @ np.conj(flat[..., support, None]))[..., 0] + 0.0

    def combine(self, coefficients) -> np.ndarray:
        """Linear combination of the basis, for one coefficient vector or a stack."""
        c = np.asarray(coefficients, dtype=np.complex128)
        if c.ndim not in (1, 2) or c.shape[-1] != self.dim:
            raise DimensionError(f"expected {self.dim} coefficients, got {c.shape}")
        d = self.ambient_dim
        if self.is_unit_span:
            return c.reshape(*c.shape[:-1], d, d) + 0.0
        support, basis = self._support_parts()
        out = np.zeros((*c.shape[:-1], d * d), dtype=np.complex128)
        out[..., support] = (c[..., None, :] @ basis)[..., 0, :]
        return out.reshape(*c.shape[:-1], d, d)

    def project(self, m) -> np.ndarray:
        """Orthogonal projection onto the subspace, of one operator or a stack."""
        return self.combine(self.coefficients(m))

    def residual(self, m) -> float:
        """Entrywise distance from ``m`` to the subspace (0.0 for a full span)."""
        a = self._operators(m, ndims=(2,))
        return 0.0 if self.is_full else max_abs(a - self.project(a))

    def residuals(self, stack) -> np.ndarray:
        """``residual`` of every operator in a (k, d, d) stack, at once.

        The projection of an operator vanishes off the support, so its
        residual is the larger of the residual on the support columns
        (``support_residuals``) and the largest entry off them.  The
        projections are two matrix products over the whole stack, so the
        values agree with ``residual`` up to rounding, not bit for bit.
        """
        a = self._operators(stack, ndims=(3,))
        if self.is_full:
            return np.zeros(len(a))
        support, basis = self._support_parts()
        flat = a.reshape(len(a), self.ambient_dim**2)
        errors = np.abs(flat)  # off the support, the entries themselves
        errors[:, support] = projection_errors(flat[:, support], basis)
        return errors.max(axis=1, initial=0.0)

    def support_residuals(self, values) -> np.ndarray:
        """Residuals on the support, of operators given by their support entries.

        ``values`` is a (k, len(support)) stack, the entries of each
        operator at ``support`` in order.  Only those entries count: the
        full residual of an operator is the larger of this and its
        largest entry off the support, which the projection leaves as is.
        """
        if self.is_full:
            return np.zeros(len(values))
        return projection_errors(values, self._support_parts()[1]).max(axis=1, initial=0.0)

    def contains(self, m, tol: float = DEFAULT_TOL) -> bool:
        return self.residual(m) <= tol


def matrix_units(d: int) -> np.ndarray:
    """The d*d matrix units E_ij of d x d matrices, row-major, as one (d*d, d, d) stack."""
    return np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)


def matrix_unit_span(d: int) -> MatrixSubspace:
    """The full d x d matrix space, with the matrix units as its implicit basis."""
    space = MatrixSubspace.__new__(MatrixSubspace)
    space._hold(d, None)
    return space


def span_subspace(matrices, ambient_dim: int | None = None, tol: float = DEFAULT_TOL) -> MatrixSubspace:
    """Subspace spanned by the given matrices (dependents dropped)."""
    mats = [as_operator(m) for m in matrices]
    if not mats:
        if ambient_dim is None:
            raise DimensionError("ambient dimension required for an empty span")
        return MatrixSubspace(ambient_dim, ())
    d = mats[0].shape[0]
    if ambient_dim is not None and ambient_dim != d:
        raise DimensionError(f"matrices of dimension {d} in ambient {ambient_dim}")
    for m in mats:
        if m.shape[0] != d:
            raise DimensionError("mixed matrix dimensions in span")
    ortho = orthonormalize([vec(m) for m in mats], tol)
    return MatrixSubspace(d, tuple(unvec(v, d) for v in ortho))


def _transpose_permutation(d: int) -> np.ndarray:
    return np.arange(d * d).reshape(d, d).T.reshape(-1)


def hermitian_basis(subspace: MatrixSubspace, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the real space of Hermitian elements of the span.

    Solves H = H^dag as a real-linear condition on the complex basis
    coefficients; the result can be smaller than the complex dimension
    when the span is not closed under the adjoint.  The condition is a
    real (2 d^2, 2n) system, and its kernel comes from a float64 SVD
    under the cutoff rule of ``vector_kernel``.
    """
    n = subspace.dim
    if n == 0:
        return []
    d = subspace.ambient_dim
    m = subspace.basis_stack.reshape(n, d * d).T
    pm = m[_transpose_permutation(d), :]
    a1 = m - np.conj(pm)
    a2 = 1j * (m + np.conj(pm))
    real_system = np.block(
        [[a1.real, a2.real], [a1.imag, a2.imag]]
    )  # (2 d^2, 2n) real
    rows = _svd_kernel(real_system, tol)
    coeffs = rows[:, :n] + 1j * rows[:, n:]
    return [hermitian_part(h) for h in subspace.combine(coeffs)]


def psd_span_samples(
    subspace: MatrixSubspace,
    count: int = 16,
    seed: int = 7,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Deterministic PSD elements of the span, as one (k, d, d) stack.

    The candidates are a fixed lattice (the first eight Hermitian basis
    directions and pairwise sums and differences of the first six, each
    with both signs) and ``count`` seeded random Hermitian combinations,
    drawn as one (count, n) normal array.  All of them are shifted into
    the cone along I (which the callers guarantee lies in the span) and
    scaled to operator norm 1 at once, with one batched ``eigvalsh`` and
    one batched 2-norm.  A candidate that shifts to zero within ``tol``
    was a multiple of I; normalizing what is left of it would only scale
    up rounding noise, so it is dropped.  The identity comes first.
    """
    d = subspace.ambient_dim
    herm = hermitian_basis(subspace, tol)
    if not herm:
        return identity(d)[None]
    lattice = list(herm[:8])
    for i in range(min(len(herm), 6)):
        for j in range(i + 1, min(len(herm), 6)):
            lattice.append(herm[i] + herm[j])
            lattice.append(herm[i] - herm[j])
    coeffs = np.random.default_rng(seed).standard_normal((max(count, 0), len(herm)))
    # (0 + c_0 h_0) + c_1 h_1 + ...: the order in which Python's sum() adds
    combos = 0.0 + coeffs[:, 0, None, None] * herm[0]
    for k in range(1, len(herm)):
        combos += coeffs[:, k, None, None] * herm[k]
    signed = np.stack(lattice)[:, None] * np.array([1.0, -1.0])[:, None, None]
    h = np.concatenate([signed.reshape(-1, d, d), combos])
    h -= np.minimum(np.linalg.eigvalsh(h)[:, 0], 0.0)[:, None, None] * identity(d)
    norms = np.linalg.norm(h, 2, axis=(1, 2))
    kept = norms > tol
    return np.concatenate([identity(d)[None], h[kept] / norms[kept, None, None]])
