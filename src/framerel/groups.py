"""Finite groups as multiplication tables, and their unitary representations.

Group elements are integer ids ``0..order-1`` with optional string labels
for reports and scenario files.  Tables are validated eagerly and
exhaustively (associativity up to a configurable cap), and representations
are validated eagerly too: once a ``UnitaryRep`` exists, every matrix is
unitary, the identity maps to I and the assignment is a homomorphism, so
downstream code never re-checks.

A representation whose matrices are all exactly 0/1 permutation matrices
(regular representations, permutation actions and their tensor products)
also carries them as index arrays.  Its validation is then index
composition, and the action ``act`` moves matrix entries by a
precomputed gather instead of two matrix products.  For 0/1 matrices
both are exact, so they give the same numbers as the matrix path.
Operators that live on a few entries are moved on those alone:
``support_translates`` says where each g carries a support, and
``invariance_deviation`` compares a stack with its translates there.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Validated matrices U(g), one per group element.

    ``perms`` is set when every U(g) is exactly a permutation matrix: row
    i of U(g) holds its 1 in column ``perms[g, i]``, so U(g) x =
    x[perms[g]] and U(g) a U(g)^dag = a[perms[g]][:, perms[g]].
    """

    group: FiniteGroup
    dim: int
    matrices: tuple[np.ndarray, ...]
    perms: np.ndarray | None = None

    def __post_init__(self):
        if self.perms is not None:
            p, d = self.perms, self.dim
            gather = (p[:, :, None] * d + p[:, None, :]).reshape(len(p), d * d)
            gather.setflags(write=False)
            object.__setattr__(self, "_gather", gather)

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]


def same_rep(a: UnitaryRep, b: UnitaryRep, tol: float = DEFAULT_TOL) -> bool:
    """Same group, same dimension and every U(g) equal within ``tol``."""
    if a is b:
        return True
    return (
        same_group(a.group, b.group)
        and a.dim == b.dim
        and max_abs(np.stack(a.matrices) - np.stack(b.matrices)) <= tol
    )


def _permutation(m: np.ndarray) -> np.ndarray | None:
    """Column of the 1 in each row when ``m`` is exactly a 0/1 permutation matrix."""
    ones = m == 1
    if (
        np.all(ones | (m == 0))
        and np.all(ones.sum(axis=0) == 1)
        and np.all(ones.sum(axis=1) == 1)
    ):
        return ones.argmax(axis=1)
    return None


def unitary_rep(group: FiniteGroup, matrices, tol: float = DEFAULT_TOL) -> UnitaryRep:
    """Validate one matrix per element into a unitary representation.

    Permutation matrices are unitary as they stand, and their products
    are compared by composing index arrays.  A pair that fails then has
    deviation exactly 1.0 and the same (g, h) witness as the matrix
    products give.
    """
    mats = [as_operator(m).copy() for m in matrices]
    if len(mats) != group.order:
        raise DimensionError(
            f"expected {group.order} matrices, got {len(mats)}"
        )
    d = mats[0].shape[0]
    perms = []
    for g, m in enumerate(mats):
        if m.shape[0] != d:
            raise DimensionError("representation matrices have mixed dimensions")
        perms.append(_permutation(m))
        if perms[-1] is None:
            dev = max_abs(m @ dagger(m) - identity(d))
            if dev > tol:
                raise InvalidRepresentation("matrix is not unitary", element=g, deviation=dev)
    dev = max_abs(mats[group.identity] - identity(d))
    if dev > tol:
        raise InvalidRepresentation(
            "identity element does not map to the identity matrix", deviation=dev
        )
    index = np.stack(perms) if all(p is not None for p in perms) else None
    # One row of the table at a time keeps the work at |G| d^2 (|G| d for indices).
    if index is not None:
        # U(g) U(h) x = x[index[h][index[g]]]
        dev_table = np.stack(
            [np.any(index[:, index[g]] != index[group.mult[g]], axis=1) for g in group.elements()]
        ).astype(float)
    else:
        stack = np.stack(mats)
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
    for m in mats:
        m.setflags(write=False)
    if index is not None:
        index.setflags(write=False)
    return UnitaryRep(group=group, dim=d, matrices=tuple(mats), perms=index)


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


def act(rep: UnitaryRep, g: int, a) -> np.ndarray:
    """Conjugation action g.a = U(g) a U(g)^dag.

    ``a`` is one d x d operator or a stack of shape (n, d, d), moved
    slice by slice.  A permutation representation gathers the entries
    instead of multiplying.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-2:] != (rep.dim, rep.dim):
        raise DimensionError(
            f"operator of shape {m.shape} under a dimension-{rep.dim} action"
        )
    if rep.perms is not None:
        flat = m.reshape(*m.shape[:-2], rep.dim * rep.dim)
        return np.take(flat, rep._gather[g], axis=-1).reshape(m.shape)
    u = rep.matrices[g]
    return u @ m @ dagger(u)


def commutation_deviation(rep: UnitaryRep, g: int, a) -> float:
    """Largest entry of a U(g) - U(g) a over an operator or a stack of them.

    For a permutation U(g) these are the entries of a - g.a, permuted
    by columns, so the gather gives the same maximum.
    """
    m = np.asarray(a, dtype=np.complex128)
    if rep.perms is not None:
        return max_abs(m - act(rep, g, m))
    u = rep.matrices[g]
    return max_abs(m @ u - u @ m)


def support_translates(rep: UnitaryRep, support) -> tuple[np.ndarray, np.ndarray]:
    """Where a permutation rep (``rep.perms`` set) moves the entries of operators on ``support``.

    ``support`` holds increasing flat (row-major) indices.  Returns
    ``(src, leaves)``, both (|G|, len(support)): on the support, g.a is
    a.flat[src[g]], and ``leaves[g, k]`` is True when g carries the
    entry support[k] off the support, where g.a then holds that value.
    Every other entry of g.a is zero.  g carries entry s to the entry
    that the gather of g^-1 reads at s, so no permutation is inverted.
    """
    inside = np.zeros(rep.dim * rep.dim, dtype=bool)
    inside[support] = True
    src = rep._gather[:, support]
    return src, ~inside[rep._gather[rep.group.inverse[:, None], support]]


def invariance_deviation(rep: UnitaryRep, a) -> float:
    """Largest ``commutation_deviation`` over every group element, bit for bit.

    For a permutation rep, a - g.a is compared on the support of a
    alone.  Off the support it is zero but where g carries an entry s of
    a, and there it is -a[s]; g^-1 reads that entry from off the
    support, so a - g^-1.a holds a[s] - 0 = a[s] at s itself.  The
    maximum over every element is therefore the same float.
    """
    m = np.asarray(a, dtype=np.complex128)
    if rep.perms is None:
        return max(commutation_deviation(rep, g, m) for g in rep.group.elements())
    flat = m.reshape(-1, rep.dim * rep.dim)
    support = np.flatnonzero(np.any(flat != 0, axis=0))
    on = flat[:, support]
    return max(max_abs(on - flat[:, src]) for src in rep._gather[:, support])


def tensor_rep(r1: UnitaryRep, r2: UnitaryRep) -> UnitaryRep:
    """Elementwise Kronecker product of two representations of one group.

    Both factors are already valid, so their product is too and it is not
    validated again.  When both carry ``perms``, the joint U(g) sends row
    (i, k) to column (p1[g, i], p2[g, k]), which is index arithmetic.
    """
    if not same_group(r1.group, r2.group):
        raise GroupMismatch("tensor product of representations of different groups")
    mats = [np.kron(r1.matrices[g], r2.matrices[g]) for g in r1.group.elements()]
    for m in mats:
        m.setflags(write=False)
    perms = None
    if r1.perms is not None and r2.perms is not None:
        perms = (r1.perms[:, :, None] * r2.dim + r2.perms[:, None, :]).reshape(len(mats), -1)
        perms.setflags(write=False)
    return UnitaryRep(group=r1.group, dim=r1.dim * r2.dim, matrices=tuple(mats), perms=perms)
