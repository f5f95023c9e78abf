"""Finite groups as multiplication tables, and their unitary representations.

Group elements are integer ids ``0..order-1`` with optional string labels
for reports and scenario files.  Tables are validated eagerly and
exhaustively (associativity up to a configurable cap), and representations
are validated eagerly too: once a ``UnitaryRep`` exists, every matrix is
unitary, the identity maps to I and the assignment is a homomorphism, so
downstream code never re-checks.
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
    group: FiniteGroup
    dim: int
    matrices: tuple[np.ndarray, ...]

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]


def unitary_rep(group: FiniteGroup, matrices, tol: float = DEFAULT_TOL) -> UnitaryRep:
    """Validate one matrix per element into a unitary representation."""
    mats = [as_operator(m).copy() for m in matrices]
    if len(mats) != group.order:
        raise DimensionError(
            f"expected {group.order} matrices, got {len(mats)}"
        )
    d = mats[0].shape[0]
    for g, m in enumerate(mats):
        if m.shape[0] != d:
            raise DimensionError("representation matrices have mixed dimensions")
        dev = max_abs(m @ dagger(m) - identity(d))
        if dev > tol:
            raise InvalidRepresentation("matrix is not unitary", element=g, deviation=dev)
    dev = max_abs(mats[group.identity] - identity(d))
    if dev > tol:
        raise InvalidRepresentation(
            "identity element does not map to the identity matrix", deviation=dev
        )
    stack = np.stack(mats)
    # One row of the table at a time keeps the products at |G| d^2.
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
    return UnitaryRep(group=group, dim=d, matrices=tuple(mats))


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
    """Conjugation action g.a = U(g) a U(g)^dag."""
    m = as_operator(a)
    if m.shape[0] != rep.dim:
        raise DimensionError(
            f"operator of dimension {m.shape[0]} under a dimension-{rep.dim} action"
        )
    u = rep.matrices[g]
    return u @ m @ dagger(u)


def tensor_rep(r1: UnitaryRep, r2: UnitaryRep, tol: float = DEFAULT_TOL) -> UnitaryRep:
    """Elementwise Kronecker product of two representations of one group."""
    if not same_group(r1.group, r2.group):
        raise GroupMismatch("tensor product of representations of different groups")
    mats = [np.kron(r1.matrices[g], r2.matrices[g]) for g in r1.group.elements()]
    return unitary_rep(r1.group, mats, tol)
