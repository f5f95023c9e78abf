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
so the scenario runner quotes any check the same way.  The checks work
on operator stacks: the relativized basis is one (n, D, D) array, and
each product of a law is one batched call.  Block (i, j) of a relativized
operator vanishes off the union support of the effects, so every
relativized operator, every product and difference of them and their
Choi matrix are block-diagonal along the connected components of that
support; eigenvalues, operator norms and the embedding's products are
taken on those blocks (one block for a frame with connected support).
The relative subspace is validated as a system on the same support
(membership, closure and products, see ``systems``), and the invariance
of the channel is compared on the support of the images
(``groups.invariance_deviation``), with the dense comparison's value.

Positivity follows the rule of ``systems``: the axiom check reads the
Choi matrix alone on a full algebra and samples one PSD stack otherwise.
An induced map whose frame morphism and system channel both carry Choi
certificates is the restriction of psi (x) phi, which is completely
positive; it is certified by comparing its images with psi (x) phi
("tensor"), and is sampled only when a factor was sampled or the two
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    build_frame_morphism,
    compose_frame_morphisms,
    same_frame,
)
from .groups import UnitaryRep, act, invariance_deviation, same_group, tensor_rep, translates
from .linalg import (
    DEFAULT_TOL,
    MatrixSubspace,
    as_operator,
    block_min_eigenvalues,
    block_operator_norms,
    block_partition,
    dagger,
    diagonal_blocks,
    identity,
    is_density_matrix,
    matrix_units,
    max_abs,
    partial_trace_first,
    psd_span_samples,
    span_subspace,
    tensor_product,
    vector_kernel,
)
from .systems import (
    DEFAULT_POSITIVITY_SAMPLES,
    DEFAULT_POSITIVITY_SEED,
    ChannelMap,
    SemiQuantumSystem,
    StateClass,
    _choi_matrix,
    build_channel,
    compose_channels,
    identity_channel,
    is_equivariant,
    predual_channel,
    same_system,
    state_class,
    system_from_subspace,
)

DEFAULT_CHECK_SAMPLES = 12


@dataclass(frozen=True, eq=False)
class RelativizationMap:
    """The map a -> sum_g E(g) (x) g.a, tabulated on the system basis.

    ``images`` is one (n, D, D) stack: the image of basis element k is
    ``images[k]``.
    """

    frame: FrameObservable
    system: SemiQuantumSystem
    joint_rep: UnitaryRep
    images: np.ndarray

    @property
    def joint_dim(self) -> int:
        return self.joint_rep.dim


def _effect_support(frame: FrameObservable) -> np.ndarray:
    """The union support of the effects: the (d_r, d_r) pattern of the
    entries (i, j) where some E(g)[i, j] != 0."""
    return np.any(frame.effects != 0, axis=0)


def _joint_partition(frame: FrameObservable, d: int, outer: int = 1) -> tuple[np.ndarray, ...]:
    """The diagonal blocks every relativized operator lives in.

    Block (i, j) of a relativized operator vanishes off the effect
    support, so each connected component C of the support gives one
    block C x {0..d-1} of the joint space.  With ``outer`` the blocks
    are those of an operator on C^outer (x) joint space built from
    relativized blocks, such as the Choi matrix of the relativization.
    """
    return block_partition(_effect_support(frame), inner=d, outer=outer)


def _relativize_stack(frame: FrameObservable, system: SemiQuantumSystem, mats) -> np.ndarray:
    """Relativize a stack of system operators at once, shape (n, D, D).

    Only the blocks (i, j) in the union support of the effects, the
    pairs where some E(g)[i, j] is nonzero, are accumulated: for each
    element g in group order, E(g)[i, j] * g.a is added to block (i, j)
    of every operator.  The translates g.a come from ``groups.translates``
    for as many elements at a time as there are blocks, so they never
    take more memory than the blocks do.  The blocks are then scattered
    into a zeroed (n, d_r, d, d_r, d) buffer.  The kept products and
    their sum order are those of adding E(g) (x) g.a one operator at a
    time.  A skipped term is a product 0 * x, which is a signed zero,
    and adding a signed zero to a sum that started at +0 leaves the sum
    unchanged.  So each slice is bit-identical to that dense loop.  The
    canonical ideal frame and its smearings are diagonal (d_r of the
    d_r^2 blocks); a frame with dense support takes every block.
    """
    d_r, d = frame.rep.dim, system.dim
    stack = np.asarray(mats, dtype=np.complex128).reshape(-1, d, d)
    rows, cols = np.nonzero(_effect_support(frame))
    weights = frame.effects[:, rows, cols]
    blocks = np.zeros((len(rows), len(stack), d, d), dtype=np.complex128)
    step = len(rows)
    for lo in range(0, frame.group.order, step):
        moved = translates(system.rep, stack, slice(lo, lo + step))
        for g, m in enumerate(moved, lo):
            blocks += weights[g][:, None, None, None] * m[None]
    out = np.zeros((len(stack), d_r, d, d_r, d), dtype=np.complex128)
    out[:, rows, :, cols, :] = blocks
    return out.reshape(len(stack), d_r * d, d_r * d)


def relativization_map(
    frame: FrameObservable, system: SemiQuantumSystem, tol: float = DEFAULT_TOL
) -> RelativizationMap:
    if not same_group(frame.group, system.group):
        raise GroupMismatch("frame and system live over different groups")
    joint = tensor_rep(frame.rep, system.rep)
    images = _relativize_stack(frame, system, system.space.basis_stack)
    return RelativizationMap(frame=frame, system=system, joint_rep=joint, images=images)


def relativize(
    frame: FrameObservable,
    system: SemiQuantumSystem,
    a,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Relativize a single system observable (must lie in the system span)."""
    if not same_group(frame.group, system.group):
        raise GroupMismatch("frame and system live over different groups")
    m = as_operator(a)
    res = system.space.residual(m)
    if res > tol:
        raise OperatorOutsideSystem(res)
    return _relativize_stack(frame, system, m)[0]


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
    rmap = relativization_map(frame, system, tol)
    space = span_subspace(rmap.images, ambient_dim=rmap.joint_dim, tol=tol)
    coeff_kernel = vector_kernel(rmap.images.reshape(system.space.dim, -1).T, tol)
    kernel = MatrixSubspace(system.dim, system.space.combine(coeff_kernel))
    if space.dim + kernel.dim != system.space.dim:
        raise ObjectMismatch(
            "rank plus nullity of the relativization map does not add up; "
            "tolerance is likely too tight for the inputs"
        )
    return RelativeSubspace(
        base=rmap,
        kernel=kernel,
        as_system=system_from_subspace(rmap.joint_rep, space, tol),
    )


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
        return max(0.0, *self.deviations.values())

    @property
    def consistent_with_ideality(self) -> bool:
        """The claimed equivalence: embedding exactly for ideal frames."""
        return self.passed == self.expected


def _operator_norms(stack) -> np.ndarray:
    """Largest singular value of every operator of a (k, d, d) stack."""
    return np.linalg.norm(stack, 2, axis=(1, 2))


def check_channel_axioms(
    rmap: RelativizationMap,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_CHECK_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> LawReport:
    """Certify the relativization map as a unital positive invariant contraction.

    Linearity is exact by construction and verified on seeded random
    combinations.  On a full-algebra system positivity is the Choi
    certificate alone: the ``positivity`` component is the negated
    smallest Choi eigenvalue, and contraction is read from the basis
    images, since a unital completely positive map has norm 1.  On a
    proper span positivity is sampled over ``psd_span_samples`` and
    contraction is checked on the basis and on the same samples.
    ``detail`` opens with the mode: "positivity choi" or "positivity
    sampled over N inputs".
    """
    frame, system, images = rmap.frame, rmap.system, rmap.images
    d_joint = rmap.joint_dim
    rng = np.random.default_rng(seed)
    n = system.space.dim

    coeffs = np.reshape(
        [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(samples)], (-1, n)
    )
    linearity = max_abs(
        _relativize_stack(frame, system, system.space.combine(coeffs))
        - np.tensordot(coeffs, images, axes=1)
    )

    unital = max_abs(
        _relativize_stack(frame, system, identity(system.dim))[0] - identity(d_joint)
    )

    invariance = invariance_deviation(rmap.joint_rep, images)

    joint_blocks = _joint_partition(frame, system.dim)
    in_norms = _operator_norms(system.space.basis_stack)
    out_norms = block_operator_norms(diagonal_blocks(images, joint_blocks))
    if system.is_full_algebra:
        units = (
            images
            if system.space.is_unit_span
            else _relativize_stack(frame, system, matrix_units(system.dim))
        )
        choi_blocks = diagonal_blocks(
            _choi_matrix(units, system.dim)[None],
            _joint_partition(frame, system.dim, outer=system.dim),
        )
        low = float(block_min_eigenvalues(choi_blocks)[0])
        positive = low >= -tol * d_joint * system.dim
        mode = "choi"
    else:
        psd_inputs = psd_span_samples(system.space, count=samples, seed=seed, tol=tol)
        outputs = diagonal_blocks(_relativize_stack(frame, system, psd_inputs), joint_blocks)
        low = min(0.0, float(np.min(block_min_eigenvalues(outputs))))
        positive = low >= -tol * d_joint
        mode = f"sampled over {len(psd_inputs)} inputs"
        in_norms = np.concatenate([_operator_norms(psd_inputs), in_norms])
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
    Every relativized operator, and so every product and difference of
    them, is block-diagonal along the effect support, so the products
    and norms are taken block by block.  Multiplicativity runs one basis
    row at a time, so the products of a single row are the largest
    stack held.  The witness is the first basis pair, in row-major
    order, whose multiplicativity deviation lies within ``tol`` of the
    largest: pairs that tie mathematically differ by rounding alone.
    """
    system = rmap.system
    if not system.is_full_algebra:
        raise RequiresFullAlgebra(
            "the embedding question needs a full matrix algebra as the system"
        )
    frame = rmap.frame
    parts = _joint_partition(frame, system.dim)
    images = diagonal_blocks(rmap.images, parts)
    basis = system.space.basis_stack
    rows = []
    for i, a in enumerate(basis):
        products = diagonal_blocks(_relativize_stack(frame, system, a @ basis), parts)
        rows.append(block_operator_norms([p - q[i] @ q for p, q in zip(products, images)]))
    devs = np.stack(rows)  # devs[i, j]: deviation of the pair (i, j)
    mult_dev = float(devs.max())
    witness = (
        None if mult_dev == 0.0
        else tuple(int(k) for k in np.unravel_index(np.argmax(devs >= mult_dev - tol), devs.shape))
    )
    iso_dev = float(np.max(np.abs(block_operator_norms(images) - _operator_norms(basis))))
    adjoints = diagonal_blocks(_relativize_stack(frame, system, dagger(basis)), parts)
    adj_dev = float(
        np.max(block_operator_norms([p - dagger(q) for p, q in zip(adjoints, images)]))
    )
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
    """Predual of relativization on a joint state T:

        sum_g  g^{-1} . tr_frame[(E(g) (x) I) T]

    satisfying tr[result a] = tr[T sum_g E(g) (x) g.a] for every system
    observable a.  Returns the operational state class on the system.
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
    eye_s = identity(d_s)
    sigma = np.zeros((d_s, d_s), dtype=np.complex128)
    for g in frame.group.elements():
        reduced = partial_trace_first(
            tensor_product(frame.effects[g], eye_s) @ t, d_r, d_s
        )
        sigma += act(system.rep, frame.group.inv(g), reduced)
    return state_class(system, sigma, tol)


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
    sigma = np.zeros((system.dim, system.dim), dtype=np.complex128)
    for g in frame.group.elements():
        sigma += weights[g] * act(system.rep, frame.group.inv(g), r)
    return state_class(system, sigma, tol)


# --------------------------------------------------------------- induced maps


@dataclass(frozen=True, eq=False)
class RelativeChannel:
    """The induced map between relative subspaces from a morphism pair.

    Sends the relativization of a against the source frame to the
    relativization of phi(a) against the target frame, extended
    linearly.  ``matrix`` is the superoperator between the published
    orthonormal bases of the two relative subspaces.
    """

    source: RelativeSubspace
    target: RelativeSubspace
    frame_morphism: FrameMorphism
    system_channel: ChannelMap
    channel: ChannelMap
    matrix: np.ndarray
    kernel_image_norm: float

    def apply(self, a, tol: float = DEFAULT_TOL) -> np.ndarray:
        return self.channel.apply(a, tol)


def _tensor_images(psi: FrameMorphism, phi: ChannelMap, coeffs, tol: float) -> np.ndarray:
    """(psi (x) phi)(x_k) for the source relative basis x_k, from generators.

    x_k = sum_j coeffs[j, k] sum_g E(g) (x) g.s_j along the system basis
    s_j, so its image is sum_j coeffs[j, k] sum_g psi(E(g)) (x) phi(g.s_j).
    psi takes the effects as one stack and phi the |G| n translates as
    one stack; the sum over g is one matrix product, and no Kronecker
    product or Choi matrix of psi (x) phi is formed.
    """
    system = phi.source
    basis = system.space.basis_stack
    n, order = len(basis), psi.group.order
    frame_parts = psi.channel.apply(psi.source.effects, tol)
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
    source_rel: RelativeSubspace | None = None,
    target_rel: RelativeSubspace | None = None,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> RelativeChannel:
    """Induce the map of relative observables from a (frame, system) morphism pair.

    Well-definedness is witnessed on the kernel of the source
    relativization: every kernel element must still relativize to zero
    after the system channel, otherwise IllDefined carries the witness.
    When psi's channel and phi are both Choi-certified, the induced
    channel on a proper relative subspace is certified "tensor" if its
    images agree with (psi (x) phi) within ``tol``; otherwise
    ``samples``/``seed`` reach its sampled positivity check, as in
    ``build_channel``.  A "tensor" channel records them as well.
    """
    if not same_group(psi.group, phi.source.group):
        raise ObjectMismatch("frame morphism and system channel live over different groups")
    if source_rel is None:
        source_rel = build_relative_subspace(psi.source, phi.source, tol)
    if target_rel is None:
        target_rel = build_relative_subspace(psi.target, phi.target, tol)

    kernel = source_rel.kernel.basis_stack
    norms = _operator_norms(
        _relativize_stack(psi.target, phi.target, phi.apply(kernel, tol))
    )
    over = np.flatnonzero(norms > tol)
    if len(over):
        raise IllDefined(kernel_witness=kernel[over[0]], image_norm=float(norms[over[0]]))

    # coefficients of each relative basis element along the relativized
    # system basis, carried over to the target relativizations
    source_images = source_rel.base.images
    coeffs = np.linalg.pinv(source_images.reshape(len(source_images), -1).T) @ (
        source_rel.space.basis_stack.reshape(source_rel.space.dim, -1).T
    )
    target_images = _relativize_stack(
        psi.target, phi.target, phi.apply(phi.source.space.basis_stack, tol)
    )
    images = np.tensordot(coeffs, target_images, axes=(0, 0))
    certified = (
        psi.channel.positivity_check == phi.positivity_check == "choi"
        and not source_rel.as_system.is_full_algebra
        and max_abs(_tensor_images(psi, phi, coeffs, tol) - images) <= tol
    )
    channel = build_channel(
        source_rel.as_system, target_rel.as_system, images, tol, samples, seed,
        _tensor_certified=certified,
    )
    return RelativeChannel(
        source=source_rel,
        target=target_rel,
        frame_morphism=psi,
        system_channel=phi,
        channel=channel,
        matrix=channel.matrix(),
        kernel_image_norm=float(np.max(norms, initial=0.0)),
    )


def check_functor_laws(
    links,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> LawReport:
    """Verify identity and composition through a chain of morphism pairs.

    ``links`` is a sequence of (FrameMorphism, ChannelMap) pairs whose
    endpoints match up.  Identities are induced at the first node;
    every adjacent pair, and the full chain when longer, is compared
    against the matrix product of the induced pieces.  The deviations
    are ``identity``, ``composition[i]`` for links i and i + 1, and
    ``full_chain`` for chains of three or more links.  ``samples``/``seed``
    reach every induced channel and both identities at the first node.
    """
    chain = list(links)
    if not chain:
        raise ObjectMismatch("an empty chain has no laws to check")
    for (psi_a, phi_a), (psi_b, phi_b) in zip(chain, chain[1:]):
        if not same_frame(psi_a.target, psi_b.source, tol):
            raise ObjectMismatch("adjacent frame morphisms do not compose")
        if not same_system(phi_a.target, phi_b.source, tol):
            raise ObjectMismatch("adjacent system channels do not compose")

    nodes = [(chain[0][0].source, chain[0][1].source)]
    for psi, phi in chain:
        nodes.append((psi.target, phi.target))
    rel = [build_relative_subspace(f, s, tol) for f, s in nodes]

    first_frame, first_system = nodes[0]
    values = first_frame.value_system
    ident = relativize_morphisms(
        build_frame_morphism(
            first_frame, first_frame, identity_channel(values, tol, samples, seed), tol
        ),
        identity_channel(first_system, tol, samples, seed),
        tol,
        source_rel=rel[0],
        target_rel=rel[0],
        samples=samples,
        seed=seed,
    )
    deviations = {"identity": max_abs(ident.matrix - identity(rel[0].space.dim))}

    induced = [
        relativize_morphisms(psi, phi, tol, rel[i], rel[i + 1], samples, seed)
        for i, (psi, phi) in enumerate(chain)
    ]

    for i in range(len(chain) - 1):
        psi_a, phi_a = chain[i]
        psi_b, phi_b = chain[i + 1]
        pair_morphism = compose_frame_morphisms(psi_a, psi_b, tol)
        pair_channel = compose_channels(phi_b, phi_a, tol)
        direct = relativize_morphisms(
            pair_morphism, pair_channel, tol, rel[i], rel[i + 2], samples, seed
        )
        deviations[f"composition[{i}]"] = max_abs(
            direct.matrix - induced[i + 1].matrix @ induced[i].matrix
        )

    if len(chain) > 2:
        total_morphism = chain[0][0]
        total_channel = chain[0][1]
        for psi, phi in chain[1:]:
            total_morphism = compose_frame_morphisms(total_morphism, psi, tol)
            total_channel = compose_channels(phi, total_channel, tol)
        direct = relativize_morphisms(
            total_morphism, total_channel, tol, rel[0], rel[-1], samples, seed
        )
        product = induced[0].matrix
        for step in induced[1:]:
            product = step.matrix @ product
        deviations["full_chain"] = max_abs(direct.matrix - product)

    detail = (
        f"identity deviation {deviations['identity']:.3e} over a chain of "
        f"{len(chain)} link(s)"
    )
    return LawReport(deviations, all(d <= tol for d in deviations.values()), {}, detail)


def _require_equivariant(phi: ChannelMap, tol: float) -> None:
    """Raise ChannelNotEquivariant, with the worst witness, unless phi is equivariant."""
    eq = is_equivariant(phi, tol)
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
) -> LawReport:
    """For equivariant phi the induced map is just psi (x) phi; verify it.

    Every relative observable x is split as sum_j y_j (x) s_j along the
    system basis s_j, with each frame part y_j projected onto the value
    span; then psi (x) phi is sum_j psi(y_j) (x) phi(s_j), compared with
    the induced map's image of x.  The whole basis of relative
    observables goes through each step as one stack.  Raises
    ChannelNotEquivariant when phi is not equivariant, and ObjectMismatch
    when x does not lie in the product of the value spans.
    ``samples``/``seed`` reach the induced channel.
    """
    _require_equivariant(phi, tol)
    induced = relativize_morphisms(psi, phi, tol, samples=samples, seed=seed)
    d_r, d_s = psi.source.rep.dim, phi.source.dim
    s_basis = phi.source.space.basis_stack
    x_stack = induced.source.space.basis_stack
    xs = x_stack.reshape(-1, d_r, d_s, d_r, d_s)
    k, j = len(xs), len(s_basis)
    # frame factor of each x along each s_j: the partial HS product over
    # the system factor, projected onto the source value span
    frame_parts = psi.source.value_system.space.project(
        np.einsum("jbd,kabcd->kjac", np.conj(s_basis), xs).reshape(k * j, d_r, d_r)
    )
    recon = np.einsum("kjac,jbd->kabcd", frame_parts.reshape(k, j, d_r, d_r), s_basis)
    if max_abs(recon - xs) > tol:
        raise ObjectMismatch(
            "relative observable does not expand in the product of value spans"
        )
    psi_parts = psi.channel.apply(frame_parts, tol)
    d_t = psi_parts.shape[-1]
    tens = np.einsum(
        "kjac,jbd->kabcd", psi_parts.reshape(k, j, d_t, d_t), phi.apply(s_basis, tol)
    )
    images = induced.channel.apply(x_stack, tol)
    worst = max_abs(tens.reshape(images.shape) - images)
    return LawReport(
        {"tensor_form": worst},
        worst <= tol,
        {},
        "induced map compared with the factorwise tensor form",
    )


def check_naturality(
    frame: FrameObservable, phi: ChannelMap, tol: float = DEFAULT_TOL
) -> LawReport:
    """Verify the naturality square for an equivariant system channel:

        relativize(phi(a))  =  (id (x) phi)(relativize(a))

    computed through two independent code paths (direct relativization
    against the target system versus blockwise application of phi to the
    already relativized observable).
    """
    _require_equivariant(phi, tol)
    if not same_group(frame.group, phi.source.group):
        raise GroupMismatch("frame and channel live over different groups")
    basis = phi.source.space.basis_stack
    n, d_r, d_in, d_out = len(basis), frame.rep.dim, phi.source.dim, phi.target.dim
    lhs = _relativize_stack(frame, phi.target, phi.apply(basis, tol))
    # (id (x) phi) applied to every frame-index block (i, j) of every
    # relativized basis element, in one stacked call.
    blocks = _relativize_stack(frame, phi.source, basis).reshape(n, d_r, d_in, d_r, d_in)
    images = phi.apply(blocks.transpose(0, 1, 3, 2, 4).reshape(-1, d_in, d_in), tol)
    rhs = images.reshape(n, d_r, d_r, d_out, d_out).transpose(0, 1, 3, 2, 4)
    devs = np.abs(lhs - rhs.reshape(lhs.shape)).max(axis=(1, 2))
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
    transported = predual_channel(psi.channel, omega, tol)
    source_side = product_relative_state(psi.source, system, transported, rho, tol)
    return target_side, source_side
