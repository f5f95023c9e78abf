"""Hypothesis strategies for generated law tests.

Like ``support``, they build their objects from closed forms, independent
of the library's internals.
"""

import itertools

import numpy as np
from hypothesis import strategies as st


def _twisted_shift(m: int, z: complex) -> np.ndarray:
    """diag(1, ..., 1, z) C_m, with C_m the cyclic shift e_i -> e_{i+1 mod m}."""
    shift = np.roll(np.eye(m, dtype=complex), 1, axis=0)
    shift[:, m - 1] *= z
    return shift


@st.composite
def cyclic_monomial_reps(draw, order=None, max_order: int = 8):
    """``(n, matrices)``: a monomial representation of Z_n with root-of-unity phases.

    n is ``order`` when given, else at most ``max_order``.  The rep is a
    direct sum of one to three blocks, its basis then permuted.  A block
    lives on C^m for a divisor m of n, and the generator acts there as
    w^j diag(1, ..., 1, w^(t m)) C_m with w = exp(2 pi i / n): its m-th
    power is the scalar w^(j m + t m), so its n-th power is I.  Element k
    is the k-th power of the generator.
    """
    n = order if order is not None else draw(st.integers(1, max_order))
    w = np.exp(2j * np.pi / n)
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from(divisors))
        j, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n // m - 1))
        blocks.append(w**j * _twisted_shift(m, w ** (t * m)))
    d = sum(len(b) for b in blocks)
    generator = np.zeros((d, d), dtype=complex)
    lo = 0
    for b in blocks:
        generator[lo : lo + len(b), lo : lo + len(b)] = b
        lo += len(b)
    order_of_basis = draw(st.permutations(range(d)))
    generator = generator[np.ix_(order_of_basis, order_of_basis)]
    mats = [np.eye(d, dtype=complex)]
    for _ in range(n - 1):
        mats.append(generator @ mats[-1])
    return n, mats


def permutation_matrices(n: int) -> list[np.ndarray]:
    """The matrices e_k -> e_p(k) of S_n, p in lexicographic order (the
    element order of ``build_symmetric_group``)."""
    mats = []
    for p in sorted(itertools.permutations(range(n))):
        m = np.zeros((n, n), dtype=complex)
        m[list(p), range(n)] = 1.0
        mats.append(m)
    return mats


def standard_matrices(n: int) -> list[np.ndarray]:
    """The (n-1)-dim standard representation of S_n: the permutation
    matrices on the sum-zero vectors, in the orthonormal Helmert basis
    (e_0 + ... + e_(k-1) - k e_k) / sqrt(k (k+1)), k = 1..n-1.  Dense."""
    basis = np.zeros((n, n - 1))
    for k in range(1, n):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -k
        basis[:, k - 1] /= np.sqrt(k * (k + 1))
    return [(basis.T @ m.real @ basis).astype(complex) for m in permutation_matrices(n)]


def regular_matrices(n: int) -> list[np.ndarray]:
    """Left multiplication of S_n on C^(n!), U(p) e_q = e_(p q), (p q)(k) = p(q(k))."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mats = []
    for p in perms:
        m = np.zeros((len(perms), len(perms)), dtype=complex)
        for q in perms:
            m[index[tuple(p[k] for k in q)], index[q]] = 1.0
        mats.append(m)
    return mats


@st.composite
def group_reps(draw):
    """``(kind, n, matrices)``: a representation of Z_n (kind "cyclic") or
    of S_n (kind "symmetric"), element k of the group at ``matrices[k]``.

    Z_n comes from ``cyclic_monomial_reps``.  S3 acts by its permutation
    matrices, its 2-dim standard (dense) representation or its regular
    representation; S4 by its permutation matrices or its 3-dim
    standard representation.
    """
    choice = draw(st.sampled_from(["cyclic", "s3-perm", "s3-std", "s3-reg", "s4-perm", "s4-std"]))
    if choice == "cyclic":
        n, mats = draw(cyclic_monomial_reps())
        return "cyclic", n, mats
    n = int(choice[1])
    form = {"perm": permutation_matrices, "std": standard_matrices, "reg": regular_matrices}
    return "symmetric", n, form[choice[3:]](n)
