"""Finite groups as multiplication tables, and their unitary representations.

Group elements are integer ids ``0..order-1`` with optional string labels
for reports and scenario files.  Tables are validated eagerly and
exhaustively (associativity up to a configurable cap), and representations
are validated eagerly too: once a ``UnitaryRep`` exists, every matrix is
unitary, the identity maps to I and the assignment is a homomorphism, so
downstream code never re-checks.

A representation whose matrices are all monomial, U(g) = diag(chi_g) P_g
with one nonzero entry per row and column (regular representations,
permutation actions, diagonal phase reps, signed permutations and their
tensor products), is held as a permutation array and a phase array
instead of matrices.  Its validation is index composition plus phase
products, and the action ``act`` gathers matrix entries and scales them
by the phases in the order the matrix products multiply them, in place
of two matrix products.  A permutation rep (every phase exactly 1) has
no phase array, so its gather is the whole action and gives the matrix
path's numbers bit for bit; other phases agree with it within rounding.
Operators that live on a few entries are moved on those alone:
``support_translates`` says where each g carries a support,
``support_values`` gives the moved and scaled entries there, and
``invariance_deviation`` compares a stack with its translates there.
Tensor products of monomial reps are index and phase arithmetic, and
their matrices are built only when a caller asks for them.  Every other
representation keeps its matrices and takes the matrix path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import (
    DimensionError,
    GroupMismatch,
    InvalidRepresentation,
    NoIdentity,
    NoInverse,
    NotAssociative,
)
from .linalg import DEFAULT_TOL, as_operator, dagger, identity, max_abs

ASSOCIATIVITY_CAP = 64
_TABLE_CHUNK = 1 << 16  # (g, h, i) entries of the monomial homomorphism table formed at once


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    mult: np.ndarray
    identity: int
    inverse: np.ndarray
    labels: tuple[str, ...]

    def elements(self) -> range:
        return range(self.order)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def is_central(self, h: int) -> bool:
        """True when h commutes with every element."""
        return bool(np.array_equal(self.mult[h, :], self.mult[:, h]))

    def label(self, g: int) -> str:
        return self.labels[g]

    def element_of_label(self, key: str) -> int | None:
        """Resolve a label (or a stringified id) to an element id."""
        if key in self.labels:
            return self.labels.index(key)
        try:
            g = int(key)
        except ValueError:
            return None
        return g if 0 <= g < self.order else None


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return (
        a.order == b.order
        and a.identity == b.identity
        and np.array_equal(a.mult, b.mult)
    )


def build_group_from_table(
    table,
    identity_element: int | None = None,
    labels=None,
    associativity_cap: int = ASSOCIATIVITY_CAP,
) -> FiniteGroup:
    """Validate a multiplication table into a group.

    The identity is located automatically when not supplied.  All axioms
    are checked exhaustively; associativity is vectorized and capped at
    ``associativity_cap`` elements (default 64).
    """
    mult = np.array(table, dtype=np.int64)
    if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
        raise DimensionError(f"multiplication table must be square, got {mult.shape}")
    n = mult.shape[0]
    if n == 0:
        raise DimensionError("empty multiplication table")
    if mult.min() < 0 or mult.max() >= n:
        raise DimensionError("table entries outside 0..order-1")

    ids = np.arange(n)
    if identity_element is not None:
        e = int(identity_element)
        if not (np.array_equal(mult[e, :], ids) and np.array_equal(mult[:, e], ids)):
            raise NoIdentity(f"declared identity {e} is not a two-sided identity")
    else:
        candidates = [
            g
            for g in range(n)
            if np.array_equal(mult[g, :], ids) and np.array_equal(mult[:, g], ids)
        ]
        if not candidates:
            raise NoIdentity()
        e = candidates[0]

    inverse = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.nonzero((mult[a, :] == e) & (mult[:, a] == e))[0]
        if hits.size == 0:
            raise NoInverse(a)
        inverse[a] = hits[0]

    if n <= associativity_cap:
        left = mult[mult, :]          # left[a,b,c] = (a b) c
        right = mult[:, mult]         # right[a,b,c] = a (b c)
        bad = np.argwhere(left != right)
        if bad.size:
            raise NotAssociative(bad[0])

    if labels is None:
        label_tuple = tuple(str(i) for i in range(n))
    else:
        label_tuple = tuple(str(x) for x in labels)
        if len(label_tuple) != n or len(set(label_tuple)) != n:
            raise DimensionError("labels must be distinct, one per element")

    mult.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(order=n, mult=mult, identity=e, inverse=inverse, labels=label_tuple)


def build_cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n, element k standing for the k-fold generator."""
    if n <= 0:
        raise DimensionError("cyclic group order must be positive")
    ids = np.arange(n)
    table = (ids[:, None] + ids[None, :]) % n
    return build_group_from_table(table, identity_element=0)


def build_symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters, elements in lexicographic order.

    Composition convention: (p q)(k) = p(q(k)), so element ids multiply
    like function composition and the identity permutation is id 0.
    """
    if not 1 <= n <= 5:
        raise DimensionError("symmetric group helper supports 1 <= n <= 5")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.zeros((order, order), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    labels = ["".join(str(x) for x in p) for p in perms]
    return build_group_from_table(table, identity_element=0, labels=labels)


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """A validated unitary representation: one matrix U(g) per group element.

    ``perms`` is set when every U(g) is monomial, U(g) = diag(phases[g])
    P(g): row i of U(g) holds its one nonzero entry, ``phases[g, i]``,
    in column ``perms[g, i]``.  Then U(g) x = phases[g] * x[perms[g]],
    and U(g) a U(g)^dag is a[perms[g]][:, perms[g]] times the outer
    product of phases[g] with its conjugate.  ``phases`` is None when
    every entry is exactly 1 (a permutation rep).  A monomial rep builds
    ``matrices`` from the index arrays on first request; every other rep
    is given them.
    """

    group: FiniteGroup
    dim: int
    perms: np.ndarray | None = None
    phases: np.ndarray | None = None
    _matrices: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        if self._matrices is None:
            n, d = self.perms.shape
            stack = np.zeros((n, d, d), dtype=np.complex128)
            stack[np.arange(n)[:, None], np.arange(d), self.perms] = _phases(self)
            stack.setflags(write=False)
            object.__setattr__(self, "_matrices", tuple(stack))
        return self._matrices

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]


def _phases(rep: UnitaryRep) -> np.ndarray:
    """The (|G|, d) phases of a monomial rep; ones for a permutation rep."""
    return np.ones(rep.perms.shape) if rep.phases is None else rep.phases


def _monomial_parts(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(perms, phases) of a (n, d, d) stack whose matrices all have exactly
    one nonzero entry in every row and every column; None otherwise."""
    nonzero = stack != 0
    if not (np.all(nonzero.sum(axis=1) == 1) and np.all(nonzero.sum(axis=2) == 1)):
        return None
    perms = nonzero.argmax(axis=2)
    return perms, np.take_along_axis(stack, perms[:, :, None], axis=2)[:, :, 0]


def _monomial_gap(p, c, q, b) -> np.ndarray:
    """Largest entry of diag(c) P - diag(b) Q, reduced over the last axis.

    A row where the two columns agree holds c_i - b_i there; a row
    where they differ holds c_i and -b_i in two columns.  All other
    entries are zero, so this is the dense difference's maximum.  Phases
    None stand for all ones: two permutations differ by 0 or 1.
    """
    if c is None and b is None:
        return np.any(p != q, axis=-1).astype(float)
    c, b = (np.ones(np.shape(p)) if x is None else x for x in (c, b))
    return np.where(p == q, np.abs(c - b), np.maximum(np.abs(c), np.abs(b))).max(axis=-1)


def same_rep(a: UnitaryRep, b: UnitaryRep, tol: float = DEFAULT_TOL) -> bool:
    """Same group, same dimension and every U(g) equal within ``tol``."""
    if a is b:
        return True
    if not (same_group(a.group, b.group) and a.dim == b.dim):
        return False
    if a.perms is not None and b.perms is not None:
        return bool(np.all(_monomial_gap(a.perms, a.phases, b.perms, b.phases) <= tol))
    return max_abs(np.stack(a.matrices) - np.stack(b.matrices)) <= tol


def unitary_rep(group: FiniteGroup, matrices, tol: float = DEFAULT_TOL) -> UnitaryRep:
    """Validate one matrix per element into a unitary representation.

    When every matrix is monomial, the rep keeps the index arrays alone.
    A monomial matrix is unitary when its entries have modulus 1, and
    U(g) U(h) is the monomial matrix with columns perms[h][perms[g]] and
    entries phases[g] * phases[h][perms[g]].  The deviations are read
    from those entries: the same verdicts and (g, h) witness as the
    matrix products, with values equal within rounding.  A permutation
    rep fails a pair with deviation exactly 1.0.
    """
    mats = [as_operator(m) for m in matrices]
    if len(mats) != group.order:
        raise DimensionError(
            f"expected {group.order} matrices, got {len(mats)}"
        )
    d = mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise DimensionError("representation matrices have mixed dimensions")
    stack = np.stack(mats)
    monomial = _monomial_parts(stack)
    if monomial is None:
        unitarity = (max_abs(m @ dagger(m) - identity(d)) for m in stack)
    else:
        perms, phases = monomial
        unitarity = np.abs(phases * np.conj(phases) - 1).max(axis=1)
    for g, dev in enumerate(unitarity):
        if dev > tol:
            raise InvalidRepresentation("matrix is not unitary", element=g, deviation=float(dev))
    dev = max_abs(stack[group.identity] - identity(d))
    if dev > tol:
        raise InvalidRepresentation(
            "identity element does not map to the identity matrix", deviation=dev
        )
    # One row of the table at a time keeps the work at |G| d^2; the index
    # form takes a few rows of |G| d entries at once.
    if monomial is not None:
        if np.all(phases == 1):
            phases = None
        step = max(1, _TABLE_CHUNK // (group.order * d))
        rows = []
        for lo in range(0, group.order, step):
            p_g = perms[lo : lo + step]
            target = group.mult[lo : lo + step]
            c = b = None
            if phases is not None:
                c = phases[lo : lo + step, None, :] * phases[:, p_g].swapaxes(0, 1)
                b = phases[target]
            rows.append(_monomial_gap(perms[:, p_g].swapaxes(0, 1), c, perms[target], b))
        dev_table = np.concatenate(rows)
    else:
        dev_table = np.stack(
            [
                np.abs(stack[g] @ stack - stack[group.mult[g]]).max(axis=(1, 2))
                for g in group.elements()
            ]
        )
    worst = float(dev_table.max())
    if worst > tol:
        g, h = np.unravel_index(int(dev_table.argmax()), dev_table.shape)
        raise InvalidRepresentation(
            f"assignment is not a homomorphism at pair ({g}, {h})", deviation=worst
        )
    if monomial is None:
        stack.setflags(write=False)
        return UnitaryRep(group=group, dim=d, _matrices=tuple(stack))
    for a in (perms, phases):
        if a is not None:
            a.setflags(write=False)
    return UnitaryRep(group=group, dim=d, perms=perms, phases=phases)


def trivial_rep(group: FiniteGroup, dim: int = 1) -> UnitaryRep:
    return unitary_rep(group, [identity(dim)] * group.order)


def regular_representation(group: FiniteGroup) -> UnitaryRep:
    """Permutation matrices of left multiplication on C^|G|."""
    n = group.order
    mats = []
    for g in group.elements():
        m = np.zeros((n, n), dtype=np.complex128)
        for h in group.elements():
            m[group.multiply(g, h), h] = 1.0
        mats.append(m)
    return unitary_rep(group, mats)


def _check_operand(rep: UnitaryRep, a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-2:] != (rep.dim, rep.dim):
        raise DimensionError(
            f"operator of shape {m.shape} under a dimension-{rep.dim} action"
        )
    return m


def act(rep: UnitaryRep, g: int, a) -> np.ndarray:
    """Conjugation action g.a = U(g) a U(g)^dag.

    ``a`` is one d x d operator or a stack of shape (n, d, d), moved
    slice by slice.  A monomial representation gathers the entries
    instead of multiplying, and scales entry (i, j) in the order the
    matrix products do, (phases[g, i] * a') * conj(phases[g, j]); a
    permutation rep only gathers.
    """
    m = _check_operand(rep, a)
    if rep.perms is None:
        u = rep.matrices[g]
        return u @ m @ dagger(u)
    p = rep.perms[g]
    moved = m[..., p[:, None], p]
    if rep.phases is not None:
        c = rep.phases[g]
        moved = c[:, None] * moved * np.conj(c)
    return moved


def translates(rep: UnitaryRep, a, elements: slice = slice(None)) -> np.ndarray:
    """``act(rep, g, a)`` for every g in ``elements`` (all of them by
    default) in order, shape (len(elements), *a.shape).

    A monomial rep takes these translates from one gather, with the same
    arithmetic as ``act``, so each slice is bit-identical to it.
    """
    m = _check_operand(rep, a)
    if rep.perms is None:
        return np.stack([act(rep, g, m) for g in range(rep.group.order)[elements]])
    p = rep.perms[elements]
    moved = m[..., p[:, :, None], p[:, None, :]]
    if m.ndim == 3:
        moved = moved.swapaxes(0, 1)  # (elements, n, d, d)
    if rep.phases is not None:
        c = rep.phases[elements].reshape(len(p), *(1,) * (m.ndim - 2), rep.dim)
        moved = c[..., :, None] * moved * np.conj(c)[..., None, :]
    return moved


def commutation_deviation(rep: UnitaryRep, g: int, a) -> float:
    """Largest entry of a U(g) - U(g) a over an operator or a stack of them.

    For a monomial U(g), column perms[g, k] of that difference holds
    a[i, k] phases[g, k] - phases[g, i] a[perms[g, i], perms[g, k]], the
    products the matrix path forms; for a permutation rep these are the
    entries of a - g.a.
    """
    m = np.asarray(a, dtype=np.complex128)
    if rep.perms is None:
        u = rep.matrices[g]
        return max_abs(m @ u - u @ m)
    p = rep.perms[g]
    moved = m[..., p[:, None], p]
    if rep.phases is None:
        return max_abs(m - moved)
    c = rep.phases[g]
    return max_abs(m * c - c[:, None] * moved)


def acts_trivially(rep: UnitaryRep, tol: float = DEFAULT_TOL) -> bool:
    """Whether every U(g) is a scalar multiple of I within ``tol``.

    The scalar is U(g)[0, 0]; for a monomial rep the difference is a
    gap between two monomial matrices, read from the entries.
    """
    if rep.perms is None:
        eye = identity(rep.dim)
        return all(max_abs(u - u[0, 0] * eye) <= tol for u in rep.matrices)
    p, c = rep.perms, _phases(rep)
    corner = c[:, :1] * (p[:, :1] == 0)  # U(g)[0, 0]
    return bool(np.all(_monomial_gap(p, c, np.arange(rep.dim), corner) <= tol))


def _support_sources(perms: np.ndarray, support, d: int) -> np.ndarray:
    """The flat index that g.a reads at each support entry, for every row g of ``perms``."""
    rows, cols = np.divmod(np.asarray(support), d)
    return perms[..., rows] * d + perms[..., cols]


def support_translates(rep: UnitaryRep, support) -> tuple[np.ndarray, np.ndarray]:
    """Where a monomial rep (``rep.perms`` set) moves the entries of operators on ``support``.

    ``support`` holds increasing flat (row-major) indices.  Returns
    ``(src, leaves)``, both (|G|, len(support)): on the support, g.a
    reads a.flat[src[g]] (``support_values`` gives the scaled values),
    and ``leaves[g, k]`` is True when g carries the entry support[k] off
    the support, where g.a then holds that value times a phase.  Every
    other entry of g.a is zero.  g carries entry s to the entry that the
    gather of g^-1 reads at s, so no permutation is inverted.
    """
    inside = np.zeros(rep.dim * rep.dim, dtype=bool)
    inside[support] = True
    src = _support_sources(rep.perms, support, rep.dim)
    return src, ~inside[src[rep.group.inverse]]


def support_values(rep: UnitaryRep, flat, support, elements) -> np.ndarray:
    """The entries of g.a on ``support`` under a monomial rep, as ``act`` computes them.

    ``flat`` is a (n, d*d) stack of row-major operators and ``support``
    holds flat indices.  ``elements`` is one element, giving (n,
    len(support)), or a slice of elements, giving (n, len(slice),
    len(support)).  Each value is bit-identical to that entry of ``act``.
    """
    rows, cols = np.divmod(np.asarray(support), rep.dim)
    moved = flat[..., _support_sources(rep.perms[elements], support, rep.dim)]
    if rep.phases is None:
        return moved
    c = rep.phases[elements]
    return c[..., rows] * moved * np.conj(c[..., cols])


def invariance_deviation(rep: UnitaryRep, a) -> float:
    """Largest ``commutation_deviation`` over every group element.

    For a monomial rep, a U(g) - U(g) a is formed on the support of a
    alone, with ``commutation_deviation``'s products.  Off the support
    it is zero but where g carries an entry s of a, and there it is
    -a[s] times a phase; g^-1 reads that entry from off the support, so
    its difference holds a[s] times a phase at s itself.  The maximum
    over every element is therefore the same: the same float for a
    permutation rep, and within rounding of the phases' modulus at
    those entries otherwise.
    """
    m = np.asarray(a, dtype=np.complex128)
    if rep.perms is None:
        return max(commutation_deviation(rep, g, m) for g in rep.group.elements())
    flat = m.reshape(-1, rep.dim * rep.dim)
    support = np.flatnonzero(np.any(flat != 0, axis=0))
    on = flat[:, support]
    src = _support_sources(rep.perms, support, rep.dim)
    if rep.phases is None:
        return max(max_abs(on - flat[:, s]) for s in src)
    rows, cols = np.divmod(support, rep.dim)
    c = rep.phases
    return max(max_abs(on * c[g, cols] - c[g, rows] * flat[:, s]) for g, s in enumerate(src))


def tensor_rep(r1: UnitaryRep, r2: UnitaryRep) -> UnitaryRep:
    """Elementwise Kronecker product of two representations of one group.

    Both factors are already valid, so their product is too and it is not
    validated again.  When both are monomial, the joint U(g) sends row
    (i, k) to column (p1[g, i], p2[g, k]) with entry c1[g, i] * c2[g, k],
    which is index and phase arithmetic; its matrices, built on request,
    equal the Kronecker products.
    """
    if not same_group(r1.group, r2.group):
        raise GroupMismatch("tensor product of representations of different groups")
    n, dim = r1.group.order, r1.dim * r2.dim
    if r1.perms is None or r2.perms is None:
        mats = [np.kron(r1.matrices[g], r2.matrices[g]) for g in r1.group.elements()]
        for m in mats:
            m.setflags(write=False)
        return UnitaryRep(group=r1.group, dim=dim, _matrices=tuple(mats))
    perms = (r1.perms[:, :, None] * r2.dim + r2.perms[:, None, :]).reshape(n, dim)
    perms.setflags(write=False)
    phases = None
    if r1.phases is not None or r2.phases is not None:
        phases = (_phases(r1)[:, :, None] * _phases(r2)[:, None, :]).reshape(n, dim)
        phases.setflags(write=False)
    return UnitaryRep(group=r1.group, dim=dim, perms=perms, phases=phases)
