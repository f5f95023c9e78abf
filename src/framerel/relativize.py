"""Relativization of observables against a covariant frame, and its functor.

The relativization of a system observable a against a frame with
effects E(g) is the joint observable

    sum_g  E(g) (x) g.a

on frame (x) system.  It is a unital positive linear contraction whose
image commutes with the diagonal group action, and it is multiplicative
and isometric exactly when the frame is ideal (all effects projections).
This module builds the map, the subspace of relative observables it
generates (together with its kernel), the predual on joint states, and
the induced maps between relative subspaces coming from a frame
morphism paired with a system channel.  The induced map is assembled by
linear extension along the relativized images; a nonzero kernel makes
well-definedness a real condition, checked witness by witness.

Every law check returns one :class:`LawReport`: the deviation of each
checked component, the verdict, the witnesses and a one-line summary,
so the scenario runner quotes any check the same way.

A map and a relative subspace depend only on their (frame, system)
pair, and an induced map only on its (frame morphism, system channel)
pair: a ``Workspace`` builds each once for every caller that shares it,
as the tasks of one scenario run do.

Block (i, j) of a relativized operator vanishes off the union support
of the effects, so every relativized operator, and every product,
adjoint and Choi matrix formed from them, is block-diagonal along the
components of that support, which the frame computes once
(``FrameObservable.components``).  A relativized stack is held as those
diagonal blocks, one (n, m, b, b) array per block size, formed by one
matrix product over the group per block size (``_relativize_stack``);
the predual on joint states is its adjoint.  The law checks work on
the blocks alone: products, norms, spectra and the Choi matrix are
taken block by block in batched calls, the relative subspace is spanned
on the entries of the blocks, and invariance is compared there
(``groups.invariance_deviation``).  Dense (n, D, D) images are
assembled from blocks (``linalg.block_diagonal``) where they are read
(``relativize``, the induced maps and ``RelativizationMap.images``) and
never kept.  An induced map relativizes the system channel's images once,
as blocks against the target frame: the kernel's combinations of those
blocks give the well-definedness norms, block by block, and their
combinations along the relative basis, with coefficients read from the
values on the support entries, give its images.

Relativization is a unital channel into the invariant algebra, so what
it derives is built without validation: a relative subspace holds
yen(I) = I and is fixed by the joint action, and an induced map sends
yen(a) to yen'(phi(a)) in the target span and I to I.  Positivity
follows the rule of ``systems``: the axiom check reads the Choi matrix
alone on a full algebra and samples one PSD stack otherwise, and an
induced map runs its certificate alone (``_induced_channel``).  Every
induced map is compared once with psi (x) phi formed from generators;
the largest gap is its ``tensor_deviation``, which the tensor-form law
reads.  With exact factors (Choi-certified, or "structure" chains such
as the identities and composites of the functor laws) and a gap within
tol, a map on a proper relative subspace is the restriction of the
completely positive psi (x) phi ("tensor") and nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import (
    ChannelNotEquivariant,
    GroupMismatch,
    IllDefined,
    NotAState,
    ObjectMismatch,
    OperatorOutsideSystem,
    RequiresFullAlgebra,
)
from .frames import (
    FrameMorphism,
    FrameObservable,
    born_measure,
    compose_frame_morphisms,
    identity_frame_morphism,
    same_frame,
)
from .groups import UnitaryRep, invariance_deviation, same_group, tensor_rep, translates
from .linalg import (
    DEFAULT_TOL,
    MatrixSubspace,
    as_operator,
    block_diagonal,
    block_min_eigenvalues,
    block_operator_norms,
    chunks,
    dagger,
    diagonal_blocks,
    identity,
    is_density_matrix,
    matrix_units,
    max_abs,
    operator_norm,
    orthonormalize,
    psd_span_samples,
    vector_kernel,
    widen_partition,
)
from .systems import (
    DEFAULT_POSITIVITY_SAMPLES,
    DEFAULT_POSITIVITY_SEED,
    ChannelMap,
    EquivarianceResult,
    SemiQuantumSystem,
    StateClass,
    _induced_channel,
    compose_channels,
    identity_channel,
    is_equivariant,
    predual_channel,
    same_system,
    state_class,
)

DEFAULT_CHECK_SAMPLES = 12


@dataclass(frozen=True, eq=False)
class RelativizationMap:
    """The map a -> sum_g E(g) (x) g.a, tabulated on the system basis.

    ``blocks`` holds the images on the diagonal blocks of ``partition``,
    one (n, m, b, b) array per block size: ``blocks[s][k, mu]`` is block
    mu of the image of basis element k, which vanishes off the blocks.
    They come from ``_relativize_stack``, one matrix product over the
    group per block size; the predual (``predual_relativize``) is its
    adjoint.  ``images``, the dense (n, D, D) stack, is assembled anew,
    read-only, on every request, and never kept.
    """

    frame: FrameObservable
    system: SemiQuantumSystem
    joint_rep: UnitaryRep
    blocks: tuple[np.ndarray, ...]
    partition: tuple[np.ndarray, ...]

    @property
    def joint_dim(self) -> int:
        return self.joint_rep.dim

    @property
    def images(self) -> np.ndarray:
        images = block_diagonal(self.blocks, self.partition, self.joint_dim)
        images.setflags(write=False)
        return images


def _relativize_stack(frame: FrameObservable, system: SemiQuantumSystem, mats) -> list[np.ndarray]:
    """Relativize a stack of n system operators at once, as blocks.

    Returns the diagonal blocks of ``widen_partition(frame.components, d)``,
    one (n, m, c d, c d) C-contiguous array per size c of ``frame.components``.
    The sum over the group is one matrix product per block size, W.T @ M:
    W is the frame's (|G|, m c^2) ``effect_blocks`` and M the (|G|, n d^2)
    translates of the stack, taken a run of elements at a time
    (``chunks``, the product held) and accumulated.  One transpose then
    brings entry ((mu, i, j), (k, s, t)) of the product to entry
    ((i, s), (j, t)) of block mu of operator k.  Each entry is a sum of
    |G| products, so it agrees with adding E(g) (x) g.a one element at a
    time to within the rounding of that sum, and exactly where a sum has
    a single nonzero term, as for a canonical ideal frame.  The predual
    (``predual_relativize``) is its adjoint.
    """
    d = system.dim
    stack = np.asarray(mats, dtype=np.complex128).reshape(-1, d, d)
    blocks = []
    for c, w in zip(frame.components, frame.effect_blocks):
        m, size = c.shape
        total = np.zeros((w.shape[1], stack.size), dtype=np.complex128)
        for run in chunks(frame.group.order, stack.size, total):
            weights = w[run]
            # inline, so the gathered translates are freed once flattened
            total += weights.T @ translates(system.rep, stack, run).reshape(len(weights), -1)
        out = total.reshape(m, size, size, len(stack), d, d).transpose(3, 0, 1, 4, 2, 5)
        blocks.append(np.ascontiguousarray(out).reshape(len(stack), m, size * d, size * d))
    return blocks


def _support_values(rmap: RelativizationMap) -> tuple[np.ndarray, np.ndarray]:
    """The images on the entries where some image is nonzero, (n, K), and
    those flat entries of the joint space, increasing."""
    flat = [p[:, :, None] * rmap.joint_dim + p[:, None, :] for p in rmap.partition]
    entries = np.concatenate([f.ravel() for f in flat])
    values = np.concatenate([b.reshape(len(b), -1) for b in rmap.blocks], axis=1)
    kept = np.flatnonzero(values.any(axis=0))
    order = kept[np.argsort(entries[kept])]
    return values[:, order], entries[order]


def relativization_map(frame: FrameObservable, system: SemiQuantumSystem) -> RelativizationMap:
    if not same_group(frame.group, system.group):
        raise GroupMismatch("frame and system live over different groups")
    blocks = tuple(_relativize_stack(frame, system, system.space.basis_stack))
    for b in blocks:
        b.setflags(write=False)
    return RelativizationMap(
        frame=frame,
        system=system,
        joint_rep=tensor_rep(frame.rep, system.rep),
        blocks=blocks,
        partition=widen_partition(frame.components, system.dim),
    )


def relativize(
    frame: FrameObservable,
    system: SemiQuantumSystem,
    a,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Relativize a single system observable (must lie in the system span),
    assembled densely from its blocks."""
    if not same_group(frame.group, system.group):
        raise GroupMismatch("frame and system live over different groups")
    m = as_operator(a)
    res = system.space.residual(m)
    if res > tol:
        raise OperatorOutsideSystem(res)
    partition, dim = widen_partition(frame.components, system.dim), frame.rep.dim * system.dim
    return block_diagonal(_relativize_stack(frame, system, m), partition, dim)[0]


@dataclass(frozen=True, eq=False)
class RelativeSubspace:
    """Image and kernel of a relativization map, with the image as a system."""

    base: RelativizationMap
    kernel: MatrixSubspace
    as_system: SemiQuantumSystem

    @property
    def space(self) -> MatrixSubspace:
        """The image span, held once by ``as_system``."""
        return self.as_system.space

    @property
    def frame(self) -> FrameObservable:
        return self.base.frame

    @property
    def system(self) -> SemiQuantumSystem:
        return self.base.system


def build_relative_subspace(
    frame: FrameObservable, system: SemiQuantumSystem, tol: float = DEFAULT_TOL
) -> RelativeSubspace:
    """Span of the relativized basis, plus the kernel inside the system span."""
    return _relative_subspace(relativization_map(frame, system), tol)


def _relative_subspace(rmap: RelativizationMap, tol: float) -> RelativeSubspace:
    """The relative subspace of ``rmap``.

    Image and kernel both come from the (n, K) matrix of the images on
    the entries where some image is nonzero: the span is orthonormalised
    and held there (``MatrixSubspace.on_support``), and the kernel is that
    of the (K, n) matrix.  The span is a system over the joint rep by
    construction, so it is not validated again: it holds yen(I) = I, and
    h.yen(a) = sum_g E(hg) (x) (hg).a = yen(a) by covariance, so the
    action fixes it.
    """
    system = rmap.system
    values, support = _support_values(rmap)
    basis = np.reshape(orthonormalize(values, tol), (-1, len(support)))
    space = MatrixSubspace.on_support(rmap.joint_dim, support, basis)
    coeff_kernel = vector_kernel(values.T, tol)
    kernel = MatrixSubspace(system.dim, system.space.combine(coeff_kernel))
    if space.dim + kernel.dim != system.space.dim:
        raise ObjectMismatch(
            "rank plus nullity of the relativization map does not add up; "
            "tolerance is likely too tight for the inputs"
        )
    return RelativeSubspace(
        base=rmap,
        kernel=kernel,
        as_system=SemiQuantumSystem(rmap.joint_rep, space),
    )


@dataclass(eq=False)
class Workspace:
    """Relativizations shared by every caller that holds this workspace.

    A relativization map and a relative subspace depend only on their
    (frame, system) pair, an induced map only on its (frame morphism,
    system channel) pair and its positivity ``samples`` and ``seed``, and
    a channel's equivariance verdict (``is_equivariant``) only on the
    channel, all at the workspace's ``tol``.  Each is built on first
    request and then handed out again.  The keys are the engine's own
    objects, which compare by identity, and the workspace holds them, so
    a key stays unique while it lives.  Only successes are stored: a
    build that raises stores nothing and raises again on the next
    request.  A scenario run holds one workspace for all its tasks.
    """

    tol: float = DEFAULT_TOL
    maps: dict = field(default_factory=dict, init=False, repr=False)
    subspaces: dict = field(default_factory=dict, init=False, repr=False)
    channels: dict = field(default_factory=dict, init=False, repr=False)
    verdicts: dict = field(default_factory=dict, init=False, repr=False)

    def relativization_map(
        self, frame: FrameObservable, system: SemiQuantumSystem
    ) -> RelativizationMap:
        key = (frame, system)
        if key not in self.maps:
            self.maps[key] = relativization_map(frame, system)
        return self.maps[key]

    def relative_subspace(
        self, frame: FrameObservable, system: SemiQuantumSystem
    ) -> RelativeSubspace:
        key = (frame, system)
        if key not in self.subspaces:
            rmap = self.relativization_map(frame, system)
            self.subspaces[key] = _relative_subspace(rmap, self.tol)
        return self.subspaces[key]

    def induced(
        self, psi: FrameMorphism, phi: ChannelMap, samples: int, seed: int
    ) -> RelativeChannel:
        key = (psi, phi, samples, seed)
        if key not in self.channels:
            self.channels[key] = _induce(psi, phi, self, samples, seed)
        return self.channels[key]

    def equivariance(self, phi: ChannelMap) -> EquivarianceResult:
        if phi not in self.verdicts:
            self.verdicts[phi] = is_equivariant(phi, self.tol)
        return self.verdicts[phi]


def _workspace(workspace: Workspace | None, tol: float) -> Workspace:
    """``workspace``, or a fresh private one when None, at tolerance ``tol``."""
    if workspace is None:
        return Workspace(tol)
    if workspace.tol != tol:
        raise ObjectMismatch(
            f"workspace tolerance {workspace.tol:.3e} differs from the requested {tol:.3e}"
        )
    return workspace


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class LawReport:
    """The outcome of one law check.

    ``deviations`` holds one entry per checked component, in check
    order, each read as "larger is worse": a positivity component is
    the negated smallest eigenvalue.  ``witnesses`` are what the
    scenario runner emits with the entry (a basis pair or index), and
    ``detail`` is its one-line summary.  ``expected`` is the verdict the
    law predicts: true, except for the embedding check, which predicts
    the frame's ideality.
    """

    deviations: dict[str, float]
    passed: bool
    witnesses: dict[str, Any]
    detail: str
    expected: bool = True

    @property
    def max_deviation(self) -> float:
        return max([0.0, *self.deviations.values()])

    @property
    def consistent_with_ideality(self) -> bool:
        """The claimed equivalence: embedding exactly for ideal frames."""
        return self.passed == self.expected


def _pair_products(blocks: np.ndarray, right: np.ndarray, run: slice) -> np.ndarray:
    """q_i q_j blockwise for the rows i in ``run`` and every j: (r, n, m, k, k).

    ``blocks`` is one (n, m, k, k) block stack q and ``right`` its
    (m, k, n k) rearrangement ``_pair_right(blocks)``.  Block mu of every
    product in the run is one (r k, k) @ (k, n k) matrix product, so m
    products replace r n m small ones; each entry is the same k-term sum.
    """
    m, k = blocks.shape[1], blocks.shape[-1]
    left = blocks[run].transpose(1, 0, 2, 3).reshape(m, -1, k)  # (m, r k, k): rows (i, a)
    return (left @ right).reshape(m, -1, k, len(blocks), k).transpose(1, 3, 0, 2, 4)


def _pair_right(blocks: np.ndarray) -> np.ndarray:
    """The (m, k, n k) right factor of ``_pair_products``: columns (j, b)."""
    n, m, k = blocks.shape[:3]
    return np.ascontiguousarray(blocks.transpose(1, 2, 0, 3)).reshape(m, k, n * k)


def _unit_product_gaps(blocks: np.ndarray, right: np.ndarray, run: slice, d: int) -> np.ndarray:
    """q_i q_j - yen(b_i b_j) on the unit span, for the rows i in ``run``.

    With b_i = E_ab and b_j = E_ce the product is E_ae when c = b and 0
    otherwise, so row i subtracts the image of E_ae, e = 0..d-1, at the
    columns j = b d + e and nothing elsewhere: the same entries as the
    combination along the 0/1 coefficients, without its products.
    """
    gaps = _pair_products(blocks, right, run)
    a, b = np.divmod(np.arange(len(blocks))[run], d)
    e = np.arange(d)
    gaps[np.repeat(np.arange(len(a)), d), (b[:, None] * d + e).ravel()] -= blocks[(a[:, None] * d + e).ravel()]
    return gaps


def check_channel_axioms(
    rmap: RelativizationMap,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_CHECK_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> LawReport:
    """Certify the relativization map as a unital positive invariant contraction.

    Every component is computed on the support blocks.  Linearity is
    exact by construction and verified on seeded random combinations.  On
    a full-algebra system positivity is the Choi certificate alone: the
    ``positivity`` component is the negated smallest eigenvalue over the
    Choi blocks, and contraction is read from the basis images, since a
    unital completely positive map has norm 1.  On a proper span
    positivity is sampled over ``psd_span_samples`` and contraction is
    checked on the basis and on the same samples.  ``detail`` opens with
    the mode: "positivity choi" or "positivity sampled over N inputs".
    """
    frame, system, images = rmap.frame, rmap.system, rmap.blocks
    rng = np.random.default_rng(seed)
    n = system.space.dim

    z = rng.standard_normal((samples, 2, n))
    coeffs = z[:, 0] + 1j * z[:, 1]
    combos = _relativize_stack(frame, system, system.space.combine(coeffs))
    linearity = max(max_abs(c - np.tensordot(coeffs, q, axes=1)) for c, q in zip(combos, images))

    eye = _relativize_stack(frame, system, identity(system.dim))
    unital = max(max_abs(b[0] - identity(b.shape[-1])) for b in eye)

    invariance = invariance_deviation(rmap.joint_rep, *_support_values(rmap))

    in_norms = operator_norm(system.space.basis_stack)
    out_norms = block_operator_norms(images)
    if system.is_full_algebra:
        units = (
            images
            if system.space.is_unit_span
            else _relativize_stack(frame, system, matrix_units(system.dim))
        )
        # Choi block mu, indexed (k, (i, s)), holds yen(E_kl) in block mu at
        # ((k, (i, s)), (l, (j, t))): one transpose of the unit blocks
        d = system.dim
        choi = [u.reshape(d, d, *u.shape[1:]).transpose(2, 0, 3, 1, 4) for u in units]
        choi = [c.reshape(1, len(c), d * c.shape[2], -1) for c in choi]
        low = float(block_min_eigenvalues(choi)[0])
        positive = low >= -tol * rmap.joint_dim * system.dim
        mode = "choi"
    else:
        psd_inputs = psd_span_samples(system.space, count=samples, seed=seed, tol=tol)
        outputs = _relativize_stack(frame, system, psd_inputs)
        low = min(0.0, float(np.min(block_min_eigenvalues(outputs))))
        positive = low >= -tol * rmap.joint_dim
        mode = f"sampled over {len(psd_inputs)} inputs"
        in_norms = np.concatenate([operator_norm(psd_inputs), in_norms])
        out_norms = np.concatenate([block_operator_norms(outputs), out_norms])
    kept = in_norms > tol
    excess = float(np.max(out_norms[kept] / in_norms[kept] - 1.0, initial=0.0))

    deviations = {
        "linearity": linearity,
        "unital": unital,
        "invariance": invariance,
        "positivity": 0.0 - low,
        "contraction": excess,
    }
    passed = (
        linearity <= tol
        and unital <= tol
        and invariance <= tol
        and positive
        and excess <= tol
    )
    detail = (
        f"positivity {mode}; "
        f"unital {unital:.3e}, invariance {invariance:.3e}, "
        f"contraction excess {excess:.3e}"
    )
    return LawReport(deviations, passed, {}, detail)


def check_ideal_isomorphism(rmap: RelativizationMap, tol: float = DEFAULT_TOL) -> LawReport:
    """Measure how far relativization is from a *-embedding.

    Multiplicativity, adjoint preservation and isometry are tested on
    the basis (bilinearity carries them to the whole algebra).  Only
    meaningful on full algebras, where products stay inside the domain.
    Relativization is linear, so the image of b_i b_j (and of b_k^dag) is
    the combination of the block images along its basis coefficients.  On
    the unit span E_ab E_ce = delta_bc E_ae and E_ab^dag = E_ba, so those
    images are gathered, one image each (``_unit_product_gaps``).  The
    products q_i q_j run a working set of rows at a time (``chunks``),
    one matrix product per block (``_pair_products``), and norms are
    taken per block, of the nonzero blocks alone, and of those alone
    whose HS norm, which bounds the operator norm, reaches the largest
    deviation of the rows before less ``tol``.  The witness is the
    first basis pair in row-major order whose multiplicativity deviation
    lies within ``tol`` of the largest: pairs that tie mathematically
    differ by rounding alone.  A block left out lies more than ``tol``
    below a deviation of an earlier row, so it is neither the largest nor
    the one that makes its pair the witness.
    """
    system = rmap.system
    if not system.is_full_algebra:
        raise RequiresFullAlgebra(
            "the embedding question needs a full matrix algebra as the system"
        )
    frame, images, space = rmap.frame, rmap.blocks, system.space
    basis = space.basis_stack
    n = len(basis)
    rights = [_pair_right(q) for q in images]
    rows = []
    largest = 0.0
    for run in chunks(n, n * sum(q[0].size for q in images)):
        if space.is_unit_span:
            gaps = [_unit_product_gaps(q, r, run, system.dim) for q, r in zip(images, rights)]
        else:
            products = (basis[run, None] @ basis[None]).reshape(-1, *basis.shape[1:])
            coeffs = space.coefficients(products).reshape(-1, n, n)  # [i, j]: b_i b_j along the basis
            gaps = [_pair_products(q, r, run) - np.tensordot(coeffs, q, axes=1) for q, r in zip(images, rights)]
        rows.append(block_operator_norms(gaps, largest - tol))
        largest = max(largest, float(rows[-1].max()))
    devs = np.concatenate(rows)  # devs[i, j]: deviation of the pair (i, j), where it matters
    mult_dev = float(devs.max())
    witness = (
        None if mult_dev == 0.0
        else tuple(int(k) for k in np.unravel_index(np.argmax(devs >= mult_dev - tol), devs.shape))
    )
    iso_dev = float(np.max(np.abs(block_operator_norms(images) - operator_norm(basis))))
    if space.is_unit_span:
        d = system.dim
        adjoints = np.arange(n).reshape(d, d).T.ravel()  # E_ab^dag = E_ba
        adjoint_images = [q[adjoints] for q in images]
    else:
        adjoint_coeffs = space.coefficients(dagger(basis))
        adjoint_images = [np.tensordot(adjoint_coeffs, q, axes=1) for q in images]
    adj_dev = float(np.max(block_operator_norms(
        [a - dagger(q) for a, q in zip(adjoint_images, images)]
    )))
    passed = mult_dev <= tol and iso_dev <= tol and adj_dev <= tol
    if frame.is_ideal:
        detail = (
            f"ideal frame; embedding deviations mult {mult_dev:.3e}, "
            f"isometry {iso_dev:.3e}, adjoint {adj_dev:.3e}"
        )
    else:
        detail = (
            f"non-ideal frame; embedding fails as required "
            f"(multiplicativity deviation {mult_dev:.3e})"
        )
    return LawReport(
        deviations={"multiplicativity": mult_dev, "isometry": iso_dev, "adjoint": adj_dev},
        passed=passed,
        witnesses={} if passed or witness is None else {"basis_pair": list(witness)},
        detail=detail,
        expected=frame.is_ideal,
    )


# ------------------------------------------------------------- states / predual


def predual_relativize(
    frame: FrameObservable,
    system: SemiQuantumSystem,
    joint_state,
    tol: float = DEFAULT_TOL,
) -> StateClass:
    """Predual of relativization on a joint state T, the adjoint of the
    relativization kernel:

        sigma[s, t] = tr[T yen(E_ts)],   yen(a) = sum_g E(g) (x) g.a,

    so tr[sigma a] = tr[T yen(a)] for every system observable a.  The
    matrix units E_ts are relativized by ``_relativize_stack`` a working
    set at a time (``chunks``), and each trace reads T on the support
    blocks alone, where every yen(E_ts) has its nonzero entries.
    Returns the operational state class on the system.
    """
    if not same_group(frame.group, system.group):
        raise GroupMismatch("frame and system live over different groups")
    t = as_operator(joint_state)
    d_r, d_s = frame.rep.dim, system.dim
    if t.shape[0] != d_r * d_s:
        raise NotAState(
            f"joint state has dimension {t.shape[0]}, expected {d_r * d_s}"
        )
    if not is_density_matrix(t, tol):
        raise NotAState("joint state is not a density matrix")
    # tr[T B] on block mu is the sum of B_mu[x, y] T_mu[y, x]
    blocks = diagonal_blocks(t[None], widen_partition(frame.components, d_s))
    parts = [b[0].transpose(0, 2, 1).ravel() for b in blocks]
    units, traces = matrix_units(d_s), []
    for run in chunks(len(units), sum(p.size for p in parts)):
        images = _relativize_stack(frame, system, units[run])
        traces.append(sum(u.reshape(len(u), -1) @ p for u, p in zip(images, parts)))
    return state_class(system, np.concatenate(traces).reshape(d_s, d_s).T, tol)


def product_relative_state(
    frame: FrameObservable,
    system: SemiQuantumSystem,
    omega,
    rho,
    tol: float = DEFAULT_TOL,
) -> StateClass:
    """Closed form of the relative state of a product: a Born mixture
    of inverse translates, sum_g tr[omega E(g)] g^{-1}.rho."""
    if not same_group(frame.group, system.group):
        raise GroupMismatch("frame and system live over different groups")
    weights = born_measure(frame, omega, tol)
    r = as_operator(rho)
    if r.shape[0] != system.dim or not is_density_matrix(r, tol):
        raise NotAState("system state is not a density matrix of the right dimension")
    moved = translates(system.rep, r, frame.group.inverse)  # g^-1.rho at row g
    return state_class(system, np.add.reduce(weights[:, None, None] * moved, axis=0), tol)


# --------------------------------------------------------------- induced maps


@dataclass(frozen=True, eq=False)
class RelativeChannel:
    """The induced map between relative subspaces from a morphism pair.

    Sends the relativization of a against the source frame to the
    relativization of phi(a) against the target frame, extended
    linearly.  ``matrix`` is the superoperator between the published
    orthonormal bases of the two relative subspaces.
    ``tensor_deviation`` is the largest entry of (psi (x) phi)(x) minus
    the induced image of x, over the source relative basis.
    """

    source: RelativeSubspace
    target: RelativeSubspace
    frame_morphism: FrameMorphism
    system_channel: ChannelMap
    channel: ChannelMap
    matrix: np.ndarray
    kernel_image_norm: float
    tensor_deviation: float

    def apply(self, a, tol: float = DEFAULT_TOL) -> np.ndarray:
        return self.channel.apply(a, tol)


def _tensor_images(psi: FrameMorphism, phi: ChannelMap, coeffs, tol: float) -> np.ndarray:
    """(psi (x) phi)(x_k) for the source relative basis x_k, from generators.

    x_k = sum_j coeffs[j, k] sum_g E(g) (x) g.s_j along the system basis
    s_j, so its image is sum_j coeffs[j, k] sum_g psi(E(g)) (x) phi(g.s_j).
    psi takes the effects, the source seed's translates, as one stack and
    phi the |G| n translates of the basis as one stack; the sum over g is
    one matrix product, and no Kronecker product or Choi matrix of psi (x)
    phi is formed.
    """
    system = phi.source
    basis = system.space.basis_stack
    n, order = len(basis), psi.group.order
    frame_parts = psi.channel.apply(translates(psi.source.rep, psi.source.seed), tol)
    moved = translates(system.rep, basis)
    system_parts = phi.apply(moved.reshape(-1, system.dim, system.dim), tol)
    d_f, d_s = frame_parts.shape[-1], system_parts.shape[-1]
    # sums[a c, j b d] = sum_g psi(E(g))[a, c] phi(g.s_j)[b, d]
    sums = frame_parts.reshape(order, -1).T @ system_parts.reshape(order, -1)
    per_basis = sums.reshape(d_f, d_f, n, d_s, d_s).transpose(2, 0, 3, 1, 4)
    return np.tensordot(coeffs, per_basis.reshape(n, d_f * d_s, d_f * d_s), axes=(0, 0))


def relativize_morphisms(
    psi: FrameMorphism,
    phi: ChannelMap,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
    workspace: Workspace | None = None,
) -> RelativeChannel:
    """Induce the map of relative observables from a (frame, system) morphism pair.

    Well-definedness is witnessed on the kernel of the source
    relativization: every kernel element must still relativize to zero
    after the system channel, otherwise IllDefined carries the witness.
    The images of the relative basis are compared once with
    (psi (x) phi) from generators (``_tensor_images``), and the largest
    gap is ``tensor_deviation``.  The induced channel is certified by
    the rule of ``systems._induced_channel``: "choi" on a full relative
    subspace, "tensor" when psi's channel and phi are both exact ("choi"
    or "structure") and that gap is within ``tol``, and otherwise sampled
    with ``samples``/``seed``, which a "tensor" channel records as well.

    The two relative subspaces and the induced map come from
    ``workspace`` (a fresh private one when None), so a pair asked for
    again is built once.
    """
    return _workspace(workspace, tol).induced(psi, phi, samples, seed)


def _induce(
    psi: FrameMorphism, phi: ChannelMap, workspace: Workspace, samples: int, seed: int
) -> RelativeChannel:
    """Build the induced map of ``relativize_morphisms`` on ``workspace``'s subspaces."""
    if not same_group(psi.group, phi.source.group):
        raise ObjectMismatch("frame morphism and system channel live over different groups")
    tol = workspace.tol
    source_rel = workspace.relative_subspace(psi.source, phi.source)
    target_rel = workspace.relative_subspace(psi.target, phi.target)
    # the images of the system basis, relativized once against the target frame
    blocks = _relativize_stack(psi.target, phi.target, phi.images)

    kernel_image_norm = 0.0
    if source_rel.kernel.dim:
        kernel = source_rel.kernel.basis_stack
        along = phi.source.space.coefficients(kernel)
        norms = block_operator_norms([np.tensordot(along, b, axes=1) for b in blocks])
        over = np.flatnonzero(norms > tol)
        if len(over):
            raise IllDefined(kernel_witness=kernel[over[0]], image_norm=float(norms[over[0]]))
        kernel_image_norm = float(norms.max())

    # coefficients of each relative basis element along the relativized
    # system basis, read on the support entries, where both have every
    # nonzero entry, and carried over to the target relativizations
    values, _ = _support_values(source_rel.base)
    coeffs = np.linalg.pinv(values.T) @ source_rel.space.support_basis.T
    combined = [np.tensordot(coeffs, b, axes=(0, 0)) for b in blocks]
    images = block_diagonal(combined, target_rel.base.partition, target_rel.base.joint_dim)
    tensor_deviation = max_abs(_tensor_images(psi, phi, coeffs, tol) - images)
    channel = _induced_channel(
        source_rel.as_system, target_rel.as_system, images, (psi.channel, phi), tensor_deviation,
        tol, samples, seed,
    )
    return RelativeChannel(
        source=source_rel,
        target=target_rel,
        frame_morphism=psi,
        system_channel=phi,
        channel=channel,
        matrix=channel.matrix(),
        kernel_image_norm=kernel_image_norm,
        tensor_deviation=tensor_deviation,
    )


def check_functor_laws(
    links,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
    workspace: Workspace | None = None,
) -> LawReport:
    """Verify identity and composition through a chain of morphism pairs.

    ``links`` is a sequence of (FrameMorphism, ChannelMap) pairs whose
    endpoints match up.  Identities are induced at the first node;
    every adjacent pair, and the full chain when longer, is compared
    against the matrix product of the induced pieces.  The deviations
    are ``identity``, ``composition[i]`` for links i and i + 1, and
    ``full_chain`` for chains of three or more links.  ``samples``/``seed``
    reach every induced channel and both identities at the first node.
    The induced maps, and the relative subspaces they are built on, come
    from ``workspace`` (a fresh private one when None).
    """
    workspace = _workspace(workspace, tol)
    chain = list(links)
    if not chain:
        raise ObjectMismatch("an empty chain has no laws to check")
    for (psi_a, phi_a), (psi_b, phi_b) in zip(chain, chain[1:]):
        if not same_frame(psi_a.target, psi_b.source, tol):
            raise ObjectMismatch("adjacent frame morphisms do not compose")
        if not same_system(phi_a.target, phi_b.source, tol):
            raise ObjectMismatch("adjacent system channels do not compose")

    psi, phi = chain[0]
    ident = relativize_morphisms(
        identity_frame_morphism(psi.source, tol, samples, seed),
        identity_channel(phi.source, tol, samples, seed),
        tol,
        samples,
        seed,
        workspace,
    )
    deviations = {"identity": max_abs(ident.matrix - identity(ident.source.space.dim))}

    induced = [relativize_morphisms(psi, phi, tol, samples, seed, workspace) for psi, phi in chain]

    def composite_gap(lo: int, hi: int) -> float:
        """Links lo..hi-1 composed and induced, against the product of their induced maps."""
        morphism, channel = chain[lo]
        product = induced[lo].matrix
        for (psi, phi), step in zip(chain[lo + 1:hi], induced[lo + 1:hi]):
            morphism = compose_frame_morphisms(morphism, psi, tol)
            channel = compose_channels(phi, channel, tol)
            product = step.matrix @ product
        direct = relativize_morphisms(morphism, channel, tol, samples, seed, workspace)
        return max_abs(direct.matrix - product)

    for i in range(len(chain) - 1):
        deviations[f"composition[{i}]"] = composite_gap(i, i + 2)
    if len(chain) > 2:
        deviations["full_chain"] = composite_gap(0, len(chain))

    detail = (
        f"identity deviation {deviations['identity']:.3e} over a chain of "
        f"{len(chain)} link(s)"
    )
    return LawReport(deviations, all(d <= tol for d in deviations.values()), {}, detail)


def _require_equivariant(phi: ChannelMap, workspace: Workspace) -> None:
    """Raise ChannelNotEquivariant, with the worst witness, unless phi is
    equivariant, by the verdict of ``workspace``."""
    eq = workspace.equivariance(phi)
    if not eq.equivariant:
        raise ChannelNotEquivariant(
            eq.witness_element if eq.witness_element is not None else -1,
            eq.deviation,
            witness=None
            if eq.witness_index is None
            else phi.source.space.basis[eq.witness_index],
        )


def check_equivariant_tensor_form(
    psi: FrameMorphism,
    phi: ChannelMap,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
    workspace: Workspace | None = None,
) -> LawReport:
    """For equivariant phi the induced map is just psi (x) phi; verify it.

    The deviation is the induced map's ``tensor_deviation``: its images
    of the relative basis against (psi (x) phi) from generators.  Every
    relative observable is sum_g E(g) (x) g.s for s in the system span,
    so it lies in the product of the value span and the system span, and
    psi (x) phi is defined on it.  Raises ChannelNotEquivariant when phi
    is not equivariant.  ``samples``/``seed`` reach the induced channel,
    which, with the equivariance verdict, comes from ``workspace`` (a
    fresh private one when None).
    """
    workspace = _workspace(workspace, tol)
    _require_equivariant(phi, workspace)
    worst = relativize_morphisms(psi, phi, tol, samples, seed, workspace).tensor_deviation
    return LawReport(
        {"tensor_form": worst},
        worst <= tol,
        {},
        "induced map compared with the factorwise tensor form",
    )


def check_naturality(
    frame: FrameObservable,
    phi: ChannelMap,
    tol: float = DEFAULT_TOL,
    workspace: Workspace | None = None,
) -> LawReport:
    """Verify the naturality square for an equivariant system channel:

        relativize(phi(a))  =  (id (x) phi)(relativize(a))

    computed through two independent code paths (direct relativization
    against the target system versus blockwise application of phi to the
    already relativized observable), both on the support blocks, where
    the two sides have every nonzero entry.  The relativized source basis
    is the blocks of the (frame, source system) map of ``workspace`` (a
    fresh private one when None), and the equivariance verdict is its
    own.
    """
    workspace = _workspace(workspace, tol)
    _require_equivariant(phi, workspace)
    if not same_group(frame.group, phi.source.group):
        raise GroupMismatch("frame and channel live over different groups")
    basis = phi.source.space.basis_stack
    n, d_in, d_out = len(basis), phi.source.dim, phi.target.dim
    lhs = _relativize_stack(frame, phi.target, phi.apply(basis, tol))
    source = workspace.relativization_map(frame, phi.source)
    devs = np.zeros(n)
    for left, right in zip(lhs, source.blocks):
        m, c = right.shape[1], right.shape[2] // d_in
        # (id (x) phi) applied to every frame-index block (i, j) of every
        # block of every relativized basis element, in one stacked call
        pieces = right.reshape(n, m, c, d_in, c, d_in).transpose(0, 1, 2, 4, 3, 5)
        images = phi.apply(pieces.reshape(-1, d_in, d_in), tol)
        rhs = images.reshape(n, m, c, c, d_out, d_out).transpose(0, 1, 2, 4, 3, 5)
        devs = np.maximum(devs, np.abs(left - rhs.reshape(left.shape)).max(axis=(1, 2, 3)))
    witness = int(np.argmax(devs))
    worst = float(devs[witness])
    return LawReport(
        {"naturality": worst},
        worst <= tol,
        {} if worst <= tol else {"basis_index": witness},
        "naturality square verified on every source basis element",
    )


def external_frame_transform(
    psi: FrameMorphism,
    system: SemiQuantumSystem,
    omega_target,
    rho,
    tol: float = DEFAULT_TOL,
) -> tuple[StateClass, StateClass]:
    """Describe one product state against both ends of a frame morphism.

    Returns the pair (relative state of rho with the target-frame state
    omega, relative state of rho with the predual-transported state
    against the source frame).  The two classes coincide; their
    comparison is the external-frame-transform consistency check.
    """
    source_vs = psi.source.value_system
    target_vs = psi.target.value_system
    if not (source_vs.is_full_algebra and target_vs.is_full_algebra):
        raise RequiresFullAlgebra(
            "the predual transport needs full value algebras (declare the "
            "frames with full value systems to enable it)"
        )
    omega = as_operator(omega_target)
    if omega.shape[0] != psi.target.rep.dim or not is_density_matrix(omega, tol):
        raise NotAState("frame-side state is not a density matrix on the target frame")
    target_side = product_relative_state(psi.target, system, omega, rho, tol)
    transported = predual_channel(psi.channel, omega)
    source_side = product_relative_state(psi.source, system, transported, rho, tol)
    return target_side, source_side
