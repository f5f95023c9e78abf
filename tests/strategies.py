"""Hypothesis strategies for generated law tests.

Like ``support``, they build their objects from closed forms, independent
of the library's internals.
"""

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
