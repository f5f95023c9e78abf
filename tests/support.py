"""Shared constructions for the test suite: groups, reps, frames, channels,
and a runner for the command-line interface.

Everything here is deliberately independent of the library's internals:
representations are given by explicit matrices, permutation products are
computed with itertools, and the smearing/depolarizing channels are
written out in closed form so tests can cross-check library output
against these directly.  The one exception is ``relativized_dense``,
which assembles the library's own block form densely for the tests that
pin that form.
"""

import contextlib
import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np

import framerel as fr
from framerel.errors import DimensionError
from framerel.linalg import as_operator, block_diagonal, hermitian_basis, max_abs, widen_partition
from framerel.relativize import _relativize_stack

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def ket(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def proj(v):
    return np.outer(v, np.conj(v))


def partial_trace_first(m, dim_first: int, dim_second: int) -> np.ndarray:
    """Trace out the first tensor factor of an operator on C^a (x) C^b."""
    a = as_operator(m)
    if dim_first <= 0 or dim_second <= 0:
        raise DimensionError("tensor factor dimensions must be positive")
    if a.shape[0] != dim_first * dim_second:
        raise DimensionError(
            f"operator of dimension {a.shape[0]} does not factor as "
            f"{dim_first} x {dim_second}"
        )
    blocks = a.reshape(dim_first, dim_second, dim_first, dim_second)
    return np.einsum("ijil->jl", blocks)


# ------------------------------------------------------------------- groups


def z2():
    return fr.build_cyclic_group(2)


def z2_flip_rep():
    """Z2 on a qubit by conjugation with X."""
    return fr.unitary_rep(z2(), [I2, X])


def zn_phase_rep(n):
    """Zn on a qubit: k acts as diag(1, w^k) with w = exp(2 pi i / n)."""
    g = fr.build_cyclic_group(n)
    w = np.exp(2j * np.pi / n)
    mats = [np.diag([1.0, w**k]).astype(complex) for k in range(n)]
    return fr.unitary_rep(g, mats)


def s3():
    return fr.build_symmetric_group(3)


def symmetric_table_loop(n):
    """``(table, labels)`` of S_n by a double loop over itertools permutations
    in lexicographic order, (p q)(k) = p(q(k)): an oracle for
    ``build_symmetric_group``."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return table, tuple("".join(str(x) for x in p) for p in perms)


def s3_irrep2():
    """The 2-dimensional irreducible representation of S3.

    Obtained by restricting the permutation representation on C^3 to the
    plane of sum-zero vectors, in the orthonormal basis
    (1,-1,0)/sqrt(2), (1,1,-2)/sqrt(6).  The permutation matrices are
    built here from itertools, independent of the group module.
    """
    group = s3()
    v = np.array(
        [
            [1 / np.sqrt(2), 1 / np.sqrt(6)],
            [-1 / np.sqrt(2), 1 / np.sqrt(6)],
            [0.0, -2 / np.sqrt(6)],
        ]
    )
    mats = []
    for p in sorted(itertools.permutations(range(3))):
        perm = np.zeros((3, 3))
        for k in range(3):
            perm[p[k], k] = 1.0
        mats.append((v.T @ perm @ v).astype(complex))
    return fr.unitary_rep(group, mats)


def commutation_deviation(rep, g, a):
    """Largest entry of a U(g) - U(g) a over an operator or a stack of them, at
    one element: the per-element loop ``groups.invariance_deviation`` replaces.

    A monomial U(g) is read from the rep's index arrays: column perms[g, k]
    of the difference holds a[i, k] phases[g, k] - phases[g, i]
    a[perms[g, i], perms[g, k]], the products the matrix path forms; for a
    permutation rep these are the entries of a - g.a.
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


def commutator_invariant(system, tol=1e-9):
    """Oracle for ``systems.is_invariant``: every basis element x of the span
    has |x U(g) - U(g) x| <= tol entrywise, one element g at a time, from the
    rep's dense matrices."""
    basis = system.space.basis_stack
    return all(max_abs(basis @ u - u @ basis) <= tol for u in system.rep.matrices)


def commutant_svd_oracle(rep, tol=1e-9):
    """Orthonormal rows spanning the commutant of ``rep``, vectorized row-major:
    the joint kernel of X U(g) - U(g) X = 0 stacked over every element, by
    one SVD of the (|G| d^2, d^2) constraint matrix."""
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    rows = np.vstack([np.kron(eye, u.T) - np.kron(u, eye) for u in rep.matrices])
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return np.conj(vh[rank:])


# ------------------------------------------------------------------- frames


def z2_ideal_frame():
    return fr.principal_frame_from_seed(z2_flip_rep(), np.diag([1.0, 0.0]).astype(complex))


def z2_smeared_frame(lam):
    """Seed (1-lam)|0><0| + lam I/2 = diag(1 - lam/2, lam/2)."""
    seed = np.diag([1 - lam / 2, lam / 2]).astype(complex)
    return fr.principal_frame_from_seed(z2_flip_rep(), seed)


def z2_unlocalized_frame():
    return fr.principal_frame_from_seed(z2_flip_rep(), I2 / 2)


def smeared_canonical_frame(group, lam):
    """Canonical frame of a group, smeared toward the uniform effect."""
    n = group.order
    rep = fr.regular_representation(group)
    seed = (1 - lam) * proj(ket(group.identity, n)) + lam * np.eye(n, dtype=complex) / n
    return fr.principal_frame_from_seed(rep, seed)


def unlocalized_canonical_frame(group):
    n = group.order
    rep = fr.regular_representation(group)
    return fr.principal_frame_from_seed(rep, np.eye(n, dtype=complex) / n)


def effect_stack(frame):
    """The (|G|, d, d) effects U(g) E(e) U(g)^dag of a frame, one matrix
    product per element from the rep's dense matrices: the stack oracle for
    the functions that read a frame through its seed."""
    seed = frame.seed
    return np.stack([u @ seed @ np.conj(u).T for u in frame.rep.matrices])


# ------------------------------------------------------------------ channels


def depolarizing_channel(system, nu, target=None):
    """a -> (1-nu) a + nu tr(a) I/d, equivariant for every representation."""
    tgt = target if target is not None else system
    d = system.dim
    images = [
        (1 - nu) * b + nu * np.trace(b) * np.eye(d, dtype=complex) / d
        for b in system.space.basis
    ]
    return fr.build_channel(system, tgt, images)


def smearing_morphism(group, lam, ideal=None):
    """Morphism from a canonical-style ideal frame onto its smeared version."""
    frame = ideal if ideal is not None else fr.canonical_ideal_frame(group)
    d = frame.rep.dim
    seed = (1 - lam) * frame.seed + lam * np.eye(d, dtype=complex) / d
    smeared = fr.principal_frame_from_seed(frame.rep, seed)
    channel = depolarizing_channel(frame.value_system, lam)
    return fr.build_frame_morphism(frame, smeared, channel)


def z2_smearing_morphism(lam):
    ideal = z2_ideal_frame()
    smeared = z2_smeared_frame(lam)
    channel = depolarizing_channel(ideal.value_system, lam)
    return fr.build_frame_morphism(ideal, smeared, channel)


def ampliation_channel(system, extra_dim):
    """a -> a (x) I_k into the full system on rep (x) trivial(k)."""
    joint = fr.tensor_rep(system.rep, fr.trivial_rep(system.group, extra_dim))
    target = fr.full_system(joint)
    eye = np.eye(extra_dim, dtype=complex)
    images = [np.kron(b, eye) for b in system.space.basis]
    return fr.build_channel(system, target, images)


def image_stack_apply(channel, ops):
    """A channel applied through a flattened copy of its images, made one image at a time.

    Coefficients along the source basis, times the stack of the row-major
    flattened images: the product ``ChannelMap.apply`` forms, on a copy
    built image by image instead of on the channel's own stack.
    """
    images = np.stack([np.asarray(m, dtype=complex).reshape(-1) for m in channel.images])
    c = channel.source.space.coefficients(ops)
    d = channel.target.dim
    return (c[..., None, :] @ images).reshape(*c.shape[:-1], d, d)


def dense_relativize(frame, system, a):
    """sum_g E(g) (x) U(g) a U(g)^dag, one Kronecker product per element."""
    out, effects = 0, frame.effects
    for g in frame.group.elements():
        u = np.asarray(system.rep.matrices[g])
        out = out + np.kron(effects[g], u @ a @ np.conj(u).T)
    return out


def relativized_dense(frame, system, mats):
    """The relativization kernel's blocks of a stack (``_relativize_stack``),
    assembled as one dense (n, D, D) array, zero off the blocks."""
    blocks = _relativize_stack(frame, system, mats)
    partition = widen_partition(frame.components, system.dim)
    return block_diagonal(blocks, partition, frame.rep.dim * system.dim)


def kernel_bound(frame, ops):
    """8 |G| 2^-52 max|E| max|a|: how far the relativization kernel may
    stray from the Kronecker loop on the operators ``ops``.

    Each entry of sum_g E(g) (x) g.a is a sum of |G| products, which the
    kernel forms in one matrix product over the group and the loop one
    element at a time; either order rounds each partial sum once.
    """
    eps = 2.0**-52
    return 8 * frame.group.order * eps * np.abs(frame.effects).max() * np.abs(ops).max()


def predual_loop(frame, system, t):
    """sum_g g^-1 . tr_frame[(E(g) (x) I) T], one Kronecker product per element."""
    d_r, d_s = frame.rep.dim, system.dim
    sigma, effects = np.zeros((d_s, d_s), dtype=complex), frame.effects
    for g in frame.group.elements():
        joint = (np.kron(effects[g], np.eye(d_s)) @ t).reshape(d_r, d_s, d_r, d_s)
        reduced = np.einsum("ijil->jl", joint)
        u = np.asarray(system.rep.matrices[int(frame.group.inverse[g])])
        sigma += u @ reduced @ np.conj(u).T
    return sigma


def dense_induced_matrix(induced):
    """The matrix of an induced map through a pseudo-inverse of the dense
    (D^2, n) source images: each relative basis element along the
    relativized system basis, carried to the target relativizations and
    read along the target's relative basis."""
    psi, phi = induced.frame_morphism, induced.system_channel
    basis = phi.source.space.basis_stack
    sources = np.stack([dense_relativize(psi.source, phi.source, b).reshape(-1) for b in basis])
    xs = induced.source.space.basis_stack
    coeffs = np.linalg.pinv(sources.T) @ xs.reshape(len(xs), -1).T
    targets = np.stack([dense_relativize(psi.target, phi.target, im) for im in phi.images])
    images = np.tensordot(coeffs, targets, axes=(0, 0))
    ys = induced.target.space.basis_stack
    return np.array([[np.vdot(y, im) for im in images] for y in ys])


def first_pair_near_max(devs, tol):
    """First (i, j) in row-major order whose deviation is within tol of the largest."""
    for i, j in np.ndindex(*devs.shape):
        if devs[i, j] >= devs.max() - tol:
            return (i, j)


def dense_law_values(frame, system, phi=None, samples=12, seed=7, tol=1e-9):
    """Every deviation of the axiom, embedding and naturality checks, densely.

    The relativized operators are the Kronecker sums of ``dense_relativize``;
    norms, spectra and the Choi matrix are taken of whole joint matrices,
    and the products b_i b_j and adjoints are relativized directly.  The
    system must be a full algebra; ``phi``, an equivariant channel from
    it, adds the naturality deviation, with phi applied through its
    recorded images along the published basis.  ``pairs`` is the table of
    multiplicativity deviations and ``basis_pair`` the first pair within
    ``tol`` of the largest (None when the largest is 0).
    """
    def rel(a):
        return dense_relativize(frame, system, a)

    def norm(m):
        return float(np.linalg.norm(m, 2))

    basis = list(system.space.basis)
    n, d = len(basis), system.dim
    images = [rel(b) for b in basis]
    big = images[0].shape[0]
    rng = np.random.default_rng(seed)
    linearity = 0.0
    for _ in range(samples):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        combo = rel(sum(ck * b for ck, b in zip(c, basis)))
        linearity = max(linearity, np.abs(combo - sum(ck * m for ck, m in zip(c, images))).max())
    invariance = 0.0
    for g in frame.group.elements():
        u = np.kron(frame.rep.matrices[g], system.rep.matrices[g])
        invariance = max(invariance, max(np.abs(m @ u - u @ m).max() for m in images))
    choi = np.zeros((d * big, d * big), dtype=complex)
    for i, j in np.ndindex(d, d):
        unit = np.zeros((d, d), dtype=complex)
        unit[i, j] = 1.0
        choi[i * big:(i + 1) * big, j * big:(j + 1) * big] = rel(unit)
    pairs = np.array([[norm(rel(a @ b) - images[i] @ images[j]) for j, b in enumerate(basis)]
                      for i, a in enumerate(basis)])
    values = {
        "linearity": float(linearity),
        "unital": float(np.abs(rel(np.eye(d)) - np.eye(big)).max()),
        "invariance": float(invariance),
        "positivity": -float(np.linalg.eigvalsh((choi + np.conj(choi).T) / 2)[0]),
        "contraction": max([0.0] + [norm(m) / norm(b) - 1.0 for m, b in zip(images, basis)]),
        "multiplicativity": float(pairs.max()),
        "isometry": max(abs(norm(m) - norm(b)) for m, b in zip(images, basis)),
        "adjoint": max(norm(rel(np.conj(b).T) - np.conj(m).T) for m, b in zip(images, basis)),
        "pairs": pairs,
        "basis_pair": None if pairs.max() == 0.0 else first_pair_near_max(pairs, tol),
    }
    if phi is not None:
        def apply(x):
            return sum(np.vdot(b, x) * im for b, im in zip(basis, phi.images))

        d_r, e = frame.rep.dim, phi.target.dim
        worst = 0.0
        for b, m in zip(basis, images):
            rhs = np.zeros((d_r * e, d_r * e), dtype=complex)
            for i, j in np.ndindex(d_r, d_r):
                rhs[i * e:(i + 1) * e, j * e:(j + 1) * e] = apply(m[i * d:(i + 1) * d, j * d:(j + 1) * d])
            worst = max(worst, np.abs(dense_relativize(frame, phi.target, apply(b)) - rhs).max())
        values["naturality"] = float(worst)
    return values


def psd_span_samples_loop(subspace, count=16, seed=7, tol=1e-9):
    """The PSD sampler one candidate at a time: a reference for the stacked one.

    Each lattice direction (both signs) and each seeded random combination
    of the Hermitian basis is shifted into the cone along I and scaled to
    operator norm 1 on its own; a candidate that shifts to zero within tol
    is dropped.
    """
    d = subspace.ambient_dim
    herm = hermitian_basis(subspace, tol)

    def shift_into_cone(h):
        low = float(np.linalg.eigvalsh(h)[0])
        shifted = h - min(low, 0.0) * np.eye(d, dtype=complex)
        nrm = float(np.linalg.norm(shifted, 2))
        return None if nrm <= tol else shifted / nrm

    lattice = list(herm[:8])
    for i in range(min(len(herm), 6)):
        for j in range(i + 1, min(len(herm), 6)):
            lattice.append(herm[i] + herm[j])
            lattice.append(herm[i] - herm[j])
    candidates = [sign * h for h in lattice for sign in (1.0, -1.0)]
    if herm and count > 0:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            coeff = rng.standard_normal(len(herm))
            candidates.append(sum(c * hk for c, hk in zip(coeff, herm)))
    samples = [np.eye(d, dtype=complex)]
    for h in candidates:
        s = shift_into_cone(h)
        if s is not None:
            samples.append(s)
    return samples


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ np.conj(a).T
    return rho / np.trace(rho)


def random_span_element(rng, space):
    c = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return space.combine(c)


# ------------------------------------------------------------------ memory


def traced_peak(call):
    """``(result, peak)``: what ``call()`` returns and the tracemalloc peak,
    in bytes, while it ran.

    numpy imports ``numpy.random`` lazily, on the first ``default_rng``,
    and that import takes about 0.6 MB; it is made before tracing starts,
    so no test's peak depends on whether it is the first to sample.
    """
    np.random.default_rng(0).standard_normal(1)
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def refusing_chain_images():
    """Within the block, asking a channel chain for its dense images raises;
    an explicit channel still hands out its own stack."""
    original = fr.ChannelMap.images

    def images(channel):
        if channel.factors is not None:
            raise AssertionError("a chain formed its dense images")
        return original.fget(channel)

    with mock.patch.object(fr.ChannelMap, "images", property(images)):
        yield


# ----------------------------------------------------------------------- CLI

ROOT = pathlib.Path(__file__).resolve().parent.parent


CAP_BYTES = int(4.77 * 2**30)


def run_under_cap(script):
    """Run ``script`` in a child Python that imports from src/, on one BLAS
    thread, with its address space capped at 4.77 GiB.

    The child sets the cap on itself only; one BLAS thread keeps the thread
    buffers of a many-core machine out of the budget.  Returns the
    ``CompletedProcess``.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    preamble = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, {CAP_BYTES}))\n"
    return subprocess.run(
        [sys.executable, "-c", preamble + script], capture_output=True, text=True, env=env
    )


def run_cli(*argv, env=None):
    """Run ``python -m framerel`` from the repository root, importing from src/."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), full_env.get("PYTHONPATH")])
    )
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "framerel", *argv],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=str(ROOT),
    )
