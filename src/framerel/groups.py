"""Finite groups as multiplication tables, and their unitary representations.

Group elements are integer ids ``0..order-1`` with optional string labels
for reports and scenario files.  Tables are validated eagerly: every
entry, the identity and every inverse, and associativity on every triple
for orders up to ``ASSOCIATIVITY_CAP``.  Representations are validated
eagerly too: once a ``UnitaryRep`` exists, every matrix is unitary, the
identity maps to I and the assignment is a homomorphism, each within the
tolerance, so downstream code never re-checks.

Group laws are tested on generators.  ``FiniteGroup.generators`` is a
small generating set, and ``words`` the breadth-first word tree over it:
every element g is a product of k <= L = ``word_length`` generators, with
no inverse letters, since g^-1 is a positive power of g.  The checks that
only decide (span closure in ``systems``, frame covariance in ``frames``)
test the generators first, in the Hilbert-Schmidt norm.
It bounds every entry (|a_ij| <= ||a||_HS), which is what their element
loops compare with the tolerance.
Conjugation by a product of at most L generator matrices scales HS norms
by at most mu = nu^(2L), with nu = max(1, ||U(s)||_op).  So a deviation
that grows by at most eps per letter, carried along by the letters before
it, stays at most k mu eps after k letters.  A rep validated within the
tolerance need not equal its words W(g): ||U a U^dag - W a W^dag||_HS <=
||U - W||_op (||U||_op + ||W||_op) ||a||_HS <= theta ||a||_HS
(``UnitaryRep.word_constants``).  Each check states which eps it
measures.  When ``word_bound`` = L mu eps + theta |a| is at most the
tolerance, every element passes and the element loop is skipped.  A
permutation rep has mu = 1 and theta = 0, so the test is L eps <= tol.
Any larger bound runs the element loop, so every verdict, error and
witness is the loop's.  The order-1 group has no generators and L = 0.
``systems.is_equivariant`` reports a deviation and keeps its element
table; ``invariance_deviation`` reads orbits where it can.

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
``act`` is ``translates`` at one element, so the two agree bit for bit.
Tensor products of monomial reps are index and phase arithmetic, and
their matrices are built only when a caller asks for them.  Every other
representation keeps its matrices and takes the matrix path.

Only this module reads how a representation is stored.  Operators that
live on a few entries are given by their entries on that support, zero
elsewhere: ``moved_on_support`` gives g.a on the support and its largest
entry off it (a monomial rep gathers, any other conjugates densely),
``support_orbit`` the entries some g.a can fill, ``orbitals`` their
orbits, and ``invariance_deviation`` compares a stack with its translates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
from .linalg import DEFAULT_TOL, as_operator, chunks, dagger, identity, max_abs, support_gather

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

    @property
    def generators(self) -> tuple[int, ...]:
        """A small generating set, chosen once and deterministically.

        Candidates run by decreasing element order, then by id.  The
        first candidate, which generates the largest cyclic subgroup,
        joins; then each round adds the first candidate that, with the
        set so far, generates the whole group, or else the one that
        generates the largest subgroup.  A cyclic group gets its first
        element of full order (1 for ``build_cyclic_group``), the order-1
        group none.
        """
        return self._word_tree[0]

    @property
    def words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The breadth-first word tree over ``generators``: ``(elements,
        parents, letters, L)``.

        Every element but the identity is listed once, by increasing word
        length, as parent * letter: a parent one letter shorter times one
        generator.  L is the longest word length.  No inverse letters are
        needed: in a finite group g^-1 is the positive power g^(ord g - 1).
        """
        return self._word_tree[1]

    @property
    def word_length(self) -> int:
        """L, the longest word: every element is a product of at most L generators."""
        return self._word_tree[1][3]

    @cached_property
    def _word_tree(self):
        """``generators`` and ``words``, from the search that picks the set."""
        n, e = self.order, self.identity
        powers, orders = np.arange(n), np.ones(n, dtype=np.int64)
        while np.any(powers != e):  # powers[g] = g^k until every g is back at e
            orders += powers != e
            powers = self.mult[powers, np.arange(n)]
        candidates = sorted(range(n), key=lambda g: (-orders[g], g))
        rows = self.mult.tolist()
        gens = candidates[:1] if n > 1 else []
        levels, reached = _word_levels(rows, e, gens)
        while len(reached) < n:
            best = None
            for g in candidates:
                if g in reached:
                    continue
                grown = _word_levels(rows, e, gens + [g])
                if best is None or len(grown[1]) > len(best[1][1]):
                    best = g, grown
                if len(grown[1]) == n:
                    break
            gens.append(best[0])
            levels, reached = best[1]
        tree = [np.array([x for level in levels for x in level[k]], dtype=np.int64) for k in range(3)]
        return tuple(gens), (*tree, len(levels))


def _word_levels(rows: list[list[int]], e: int, gens: list[int]):
    """Breadth-first search from ``e`` by right multiplication with ``gens``.

    ``rows`` is the multiplication table as lists.  Returns the levels,
    each (elements, parents, letters) as lists with the elements in
    increasing id (see ``FiniteGroup.words``), and the set of reached
    elements.  A new element takes the first (parent, letter) pair that
    reaches it, parents in increasing id, then letters in order.
    """
    reached, frontier, levels = {e}, [e], []
    while frontier and gens:
        found: dict[int, tuple[int, int]] = {}
        for p in frontier:
            for s in gens:
                g = rows[p][s]
                if g not in reached and g not in found:
                    found[g] = p, s
        reached.update(found)
        frontier = sorted(found)
        if frontier:
            levels.append((frontier, [found[g][0] for g in frontier], [found[g][1] for g in frontier]))
    return levels, reached


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
) -> FiniteGroup:
    """Validate a multiplication table into a group.

    The identity is located automatically when not supplied.  All axioms
    are checked exhaustively; associativity is vectorized and checked on
    groups of at most ``ASSOCIATIVITY_CAP`` (64) elements.
    """
    try:
        mult = np.array(table, dtype=np.int64)
    except (TypeError, ValueError) as exc:  # ragged rows or entries that are not ids
        raise DimensionError("multiplication table must be a square array of element ids") from exc
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
        if not 0 <= e < n:
            raise NoIdentity(f"declared identity {e} is not an element id in 0..{n - 1}")
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

    if n <= ASSOCIATIVITY_CAP:
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
    Products are composed at once and found by their sorted base-n codes.
    """
    if not 1 <= n <= 6:
        raise DimensionError("symmetric group helper supports 1 <= n <= 6")
    perms = np.array(sorted(permutations(range(n))), dtype=np.int64)
    place = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(perms @ place, perms[:, perms] @ place)  # [i, j]: p_i(p_j(k))
    labels = ["".join(str(x) for x in p) for p in perms.tolist()]
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
    _word_constants: tuple[float, float] | None = field(default=None, repr=False)

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

    @property
    def word_constants(self) -> tuple[float, float]:
        """(nu, D) of ``word_bound``, computed once (``_word_constants``).

        nu = max(1, ||U(s)||_op over the generators s) and D bounds every
        ||U(g) - W(g)||_op, W(g) the product of U along g's word.
        ``tensor_rep`` derives a product's constants from its factors'.
        """
        if self._word_constants is None:
            object.__setattr__(self, "_word_constants", _word_constants(self))
        return self._word_constants


def _word_constants(rep: UnitaryRep) -> tuple[float, float]:
    """(nu, D) of ``UnitaryRep.word_constants``.

    W(g) = W(p) U(s) for g = p s in ``group.words``, so ||U(g) - W(g)||_op
    is at most e + nu ||U(p) - W(p)||_op, where e >= ||U(g) - U(p) U(s)||_op,
    down to ||U(e) - I||_op at the identity.  Along a word of length
    k <= L that sums to D = nu^L (L e_max + ||U(e) - I||_op).  A monomial
    rep reads e from its index arrays and phases, exactly (D is infinite
    if a permutation differs), and a permutation rep has D = 0.  Other
    reps multiply matrices and take the Frobenius norm, an upper bound.
    """
    group = rep.group
    elements, parents, letters, length = group.words
    gens = list(group.generators)
    if rep.perms is not None:
        p, c = rep.perms, _phases(rep)
        moved = p[parents]
        if np.any(p[letters[:, None], moved] != p[elements]) or np.any(
            p[group.identity] != np.arange(rep.dim)
        ):
            return 1.0, np.inf
        if rep.phases is None:
            return 1.0, 0.0
        nu = np.abs(c[gens]).max(initial=1.0)
        edge = np.abs(c[elements] - c[parents] * c[letters[:, None], moved]).max(initial=0.0)
        root = np.abs(c[group.identity] - 1).max()
    else:
        us = np.stack(rep.matrices)
        nu = max([1.0, *(np.linalg.norm(us[s], 2) for s in gens)])
        edges = np.linalg.norm(us[elements] - us[parents] @ us[letters], axis=(1, 2))
        edge = edges.max(initial=0.0)
        root = np.linalg.norm(us[group.identity] - identity(rep.dim))
    return float(nu), float(nu**length * (length * edge + root))


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
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise InvalidRepresentation("matrix has a non-finite entry", element=int(np.argmin(finite)))
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
    # form takes rows of |G| d entries a working set at a time.
    if monomial is not None:
        if np.all(phases == 1):
            phases = None
        rows = []
        for run in chunks(group.order, group.order * d):
            p_g, target = perms[run], group.mult[run]
            c = b = None
            if phases is not None:
                c = phases[run, None, :] * phases[:, p_g].swapaxes(0, 1)
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
    """Left multiplication on C^|G|, U(g) e_h = e_{gh}, by index arithmetic.

    Row i of U(g) holds its one entry in column g^-1 i, so the perms are
    the rows of the table at the inverses; a valid table makes this a
    valid rep, and its matrices are built on request.
    """
    perms = group.mult[group.inverse]
    perms.setflags(write=False)
    return UnitaryRep(group=group, dim=group.order, perms=perms)


def word_bound(rep: UnitaryRep, deviation: float, size: float) -> float:
    """L mu ``deviation`` + theta ``size``, the generator rule's bound on
    every element (module docstring): mu = nu^(2L) and theta =
    D (2 nu^L + D), with (nu, D) = ``rep.word_constants``."""
    nu, defect = rep.word_constants
    length = rep.group.word_length
    reach = nu**length
    return length * reach**2 * deviation + defect * (2 * reach + defect) * size


def act(rep: UnitaryRep, g: int, a) -> np.ndarray:
    """g.a = U(g) a U(g)^dag of one operator or a (n, d, d) stack: ``translates`` at g alone."""
    return translates(rep, a, slice(g, g + 1))[0]


def translates(rep: UnitaryRep, a, elements=slice(None)) -> np.ndarray:
    """g.a for every g in ``elements`` (all of them by default, or a slice
    or id array) in order, shape (len(elements), *a.shape).

    A dense rep forms U a U^dag over the selected matrices in one batched
    product.  A monomial rep gathers the entries instead, and scales entry
    (i, j) in the order the matrix products multiply it, (phases[g, i] *
    a') * conj(phases[g, j]); a permutation rep only gathers.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-2:] != (rep.dim, rep.dim):
        raise DimensionError(f"operator of shape {m.shape} under a dimension-{rep.dim} action")
    if rep.perms is None:
        u = np.stack([rep.matrices[g] for g in np.arange(rep.group.order)[elements]])
        u = u.reshape(-1, *(1,) * (m.ndim - 2), rep.dim, rep.dim)
        return u @ m @ dagger(u)
    p = rep.perms[elements]
    moved = m[..., p[:, :, None], p[:, None, :]]
    if m.ndim == 3:
        moved = moved.swapaxes(0, 1)  # (elements, n, d, d)
    if rep.phases is not None:
        c = rep.phases[elements].reshape(len(p), *(1,) * (m.ndim - 2), rep.dim)
        moved = c[..., :, None] * moved * np.conj(c)[..., None, :]
    return moved


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


def support_orbit(rep: UnitaryRep, support) -> np.ndarray:
    """The increasing flat entries where some g.a can be nonzero, for operators
    that vanish off the flat ``support``: the entries a monomial rep carries
    the support to, and every entry under any other rep."""
    d = rep.dim
    if rep.perms is None:
        return np.arange(d * d)
    moved = _support_sources(rep.perms, support, d)
    return np.flatnonzero(np.bincount(moved.ravel(), minlength=d * d))


def moved_on_support(rep: UnitaryRep, values, support, elements=slice(None)):
    """``(inside, outside)``: g.a on ``support`` and its largest |entry| off it.

    ``values`` holds the (n, K) entries at ``support`` (increasing flat
    indices) of operators that vanish off it.  One element gives (n, K)
    and (n,); a slice or an id array puts the elements first, as
    ``translates`` does.  ``inside`` is ``act``'s entries bit for bit.  A
    monomial rep gathers and scales as ``translates`` does; g carries
    entry s to the entry that g^-1's gather reads at s, so no permutation
    is inverted.  Any other rep conjugates densely, a working set of
    elements at a time.
    """
    values, support = np.asarray(values, dtype=np.complex128), np.asarray(support)
    ids = np.arange(rep.group.order)[elements]
    run, d, n = np.atleast_1d(ids), rep.dim, len(values)
    if rep.perms is None:
        stack = support_gather(values, support, np.arange(d * d)).reshape(n, d, d)
        inside = np.empty((len(run), n, len(support)), dtype=np.complex128)
        outside = np.empty((len(run), n))
        for part in chunks(len(run), n * d * d):
            moved = translates(rep, stack, run[part]).reshape(-1, n, d * d)
            inside[part] = moved[..., support]
            moved[..., support] = 0
            outside[part] = np.abs(moved).max(axis=-1, initial=0.0)
    else:
        src, c = _support_sources(rep.perms[run], support, d), rep.phases
        on = np.zeros(d * d, dtype=bool)
        on[support] = True
        inside, outside = support_gather(values, support, src).swapaxes(0, 1), np.zeros((len(run), n))
        if c is not None:
            rows, cols = np.divmod(support, d)
            inside = c[run[:, None, None], rows] * inside * np.conj(c[run[:, None, None], cols])
        # g permutes the entries, so it carries one off the support iff its gather reads one from off it
        leak = ~on[src].all(axis=1)
        if leak.any():
            at = run[leak, None]
            dest = _support_sources(rep.perms[rep.group.inverse[run[leak]]], support, d)
            rows, cols = np.divmod(dest, d)
            carried = values[:, None] if c is None else c[at, rows] * values[:, None] * np.conj(c[at, cols])
            outside[leak] = np.where(~on[dest], np.abs(carried), 0.0).max(axis=-1).T
    return (inside[0], outside[0]) if np.ndim(ids) == 0 else (inside, outside)


def orbitals(rep: UnitaryRep, support, tol: float = DEFAULT_TOL):
    """``(labels, phases, vanish)``: the orbit of each entry of the increasing
    flat ``support`` under a monomial rep, orbits numbered by their smallest
    entry (on the support or off it); None for any other rep.

    An invariant X has X[t] = phases[t] X[r] on the orbit whose smallest
    entry is r (``phases`` is None on a permutation rep).  ``vanish[o]``
    marks an orbit that leaves the support or whose phases disagree along
    a generator by more than ``tol``: there an invariant operator that
    vanishes off the support vanishes too.  The support is closed under the
    generators, then each entry takes the least label among its own and
    those the generators read there, with the phase that carries, until
    none moves (as ``linalg.block_partition``): |generators| gathers a round.
    """
    if rep.perms is None:
        return None
    d, gens = rep.dim, list(rep.group.generators)
    entries = support = np.asarray(support)
    while True:  # close the support: stop once every entry a generator reads is held
        sources = _support_sources(rep.perms[gens], entries, d)  # (generators, entries)
        read = np.searchsorted(entries, sources).clip(max=len(entries) - 1)
        if np.array_equal(entries[read], sources):
            break
        entries = np.union1d(entries, sources)
    labels = at = np.arange(len(entries))
    rho = None
    if rep.phases is not None:
        rows, cols = np.divmod(entries, d)
        step = rep.phases[gens][:, rows] * np.conj(rep.phases[gens][:, cols])  # X[t] = step X[read]
        rho = np.ones(len(entries), dtype=np.complex128)
    while True:
        offers = np.vstack([labels, labels[read]])
        pick = offers.argmin(axis=0)  # row 0, the entry's own label, wins ties
        if np.array_equal(offers[pick, at], labels):
            break
        labels = offers[pick, at]
        if rho is not None:
            rho = np.vstack([rho, step * rho[read]])[pick, at]
            rho = rho * rho[labels]
        labels = labels[labels]  # a label's own label is in the orbit too: rounds halve the distance
    labels = (np.cumsum(labels == at) - 1)[labels]  # numbered by their roots, the smallest entries
    on = np.searchsorted(entries, support)
    off = np.bincount(on, minlength=len(entries)) == 0  # the entries off the support
    if rho is not None:
        off |= np.any(np.abs(rho - step * rho[read]) > tol, axis=0)
    vanish = np.bincount(labels[off], minlength=labels.max(initial=-1) + 1) > 0
    return labels[on], None if rho is None else rho[on], vanish


def invariance_deviation(rep: UnitaryRep, values, support) -> float:
    """Largest entry of a U(g) - U(g) a over every element g and operator a
    given on ``support`` as in ``moved_on_support``.

    On a permutation rep with real values the pairs (s, g^-1 s) are those
    within one orbit (``orbitals``): the deviation is the widest max - min
    over an orbit, with the 0 of an orbit that leaves the support, and
    rounding is monotone, so that is the loop's float.  Otherwise a
    monomial rep forms a U(g) - U(g) a on the support, elements a working
    set at a time: off it, g^-1's difference at s holds what g's holds
    where g carries s off, up to the phases' modulus.  Any other rep
    compares the dense operators.
    """
    values, support = np.asarray(values, dtype=np.complex128), np.asarray(support)
    d, order = rep.dim, rep.group.order
    if rep.perms is not None and rep.phases is None and not values.imag.any():
        labels, _, vanish = orbitals(rep, support)
        by_orbit = np.argsort(labels, kind="stable")
        real, starts = values.real[:, by_orbit], np.flatnonzero(np.diff(labels[by_orbit], prepend=-1))
        hi, lo = np.maximum.reduceat(real, starts, axis=1), np.minimum.reduceat(real, starts, axis=1)
        return float(np.where(vanish, np.maximum(hi, 0.0) - np.minimum(lo, 0.0), hi - lo).max(initial=0.0))
    if rep.perms is None:
        dense = support_gather(values, support, np.arange(d * d)).reshape(-1, d, d)
        us = np.stack(rep.matrices)[:, None]
        return max(max_abs(dense @ us[run] - us[run] @ dense) for run in chunks(order, dense.size))
    # the column of ``padded`` each g.a reads at each support entry, 0 off the support
    pos = support_gather(np.arange(1, len(support) + 1), support, _support_sources(rep.perms, support, d))
    padded = np.concatenate([np.zeros((len(values), 1)), values], axis=1)
    rows, cols = np.divmod(support, d)
    devs = []
    for run in chunks(order, values.size):
        moved = padded[:, pos[run]]  # (n, elements, support)
        if rep.phases is None:
            devs.append(max_abs(values[:, None] - moved))
        else:
            c = rep.phases[run]
            devs.append(max_abs(values[:, None] * c[:, cols] - c[:, rows] * moved))
    return max(devs)


def tensor_rep(r1: UnitaryRep, r2: UnitaryRep) -> UnitaryRep:
    """Elementwise Kronecker product of two representations of one group.

    Both factors are already valid, so their product is too and it is not
    validated again.  When both are monomial, the joint U(g) sends row
    (i, k) to column (p1[g, i], p2[g, k]) with entry c1[g, i] * c2[g, k],
    which is index and phase arithmetic; its matrices, built on request,
    equal the Kronecker products.

    Its ``word_constants`` come from the factors'.  Along one word the
    product's W(g) is W1(g) (x) W2(g), and ||A (x) B||_op = ||A||_op ||B||_op,
    so nu <= nu1 nu2, and U1 (x) U2 - W1 (x) W2 = (U1 - W1) (x) U2 +
    W1 (x) (U2 - W2) gives D <= D1 (nu2^L + D2) + nu1^L D2.
    """
    if not same_group(r1.group, r2.group):
        raise GroupMismatch("tensor product of representations of different groups")
    n, dim = r1.group.order, r1.dim * r2.dim
    (nu1, d1), (nu2, d2) = r1.word_constants, r2.word_constants
    length = r1.group.word_length
    constants = nu1 * nu2, d1 * (nu2**length + d2) + nu1**length * d2
    if r1.perms is None or r2.perms is None:
        mats = [np.kron(r1.matrices[g], r2.matrices[g]) for g in r1.group.elements()]
        for m in mats:
            m.setflags(write=False)
        return UnitaryRep(group=r1.group, dim=dim, _matrices=tuple(mats), _word_constants=constants)
    perms = (r1.perms[:, :, None] * r2.dim + r2.perms[:, None, :]).reshape(n, dim)
    perms.setflags(write=False)
    phases = None
    if r1.phases is not None or r2.phases is not None:
        phases = (_phases(r1)[:, :, None] * _phases(r2)[:, None, :]).reshape(n, dim)
        phases.setflags(write=False)
    return UnitaryRep(
        group=r1.group, dim=dim, perms=perms, phases=phases, _word_constants=constants
    )
