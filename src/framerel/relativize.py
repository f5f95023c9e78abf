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

Checks come in report form: every law verified numerically, with the
worst deviation and a witness recorded, so the scenario runner can
quote them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .frames import FrameMorphism, FrameObservable, born_measure
from .groups import UnitaryRep, act, commutation_deviation, same_group, tensor_rep
from .linalg import (
    DEFAULT_TOL,
    MatrixSubspace,
    as_operator,
    dagger,
    identity,
    is_density_matrix,
    matrix_units,
    max_abs,
    min_eigenvalue,
    operator_norm,
    partial_trace_first,
    psd_span_samples,
    span_subspace,
    tensor_product,
    vec,
    vector_kernel,
)
from .systems import (
    ChannelMap,
    SemiQuantumSystem,
    StateClass,
    _choi_matrix,
    build_channel,
    is_equivariant,
    predual_channel,
    state_class,
    system_from_subspace,
)

DEFAULT_CHECK_SAMPLES = 12
DEFAULT_CHECK_SEED = 7


@dataclass(frozen=True, eq=False)
class RelativizationMap:
    """The map a -> sum_g E(g) (x) g.a, tabulated on the system basis."""

    frame: FrameObservable
    system: SemiQuantumSystem
    joint_rep: UnitaryRep
    images: tuple[np.ndarray, ...]

    @property
    def joint_dim(self) -> int:
        return self.joint_rep.dim


def _relativize_stack(frame: FrameObservable, system: SemiQuantumSystem, mats) -> np.ndarray:
    """Relativize a stack of system operators at once, shape (n, D, D).

    Only the blocks (i, j) in the union support of the effects, the
    pairs where some E(g)[i, j] is nonzero, are accumulated: for each
    element g in group order, E(g)[i, j] * g.a is added to block (i, j)
    of every operator.  The blocks are then scattered into a zeroed
    (n, d_r, d, d_r, d) buffer.  The kept products and their sum order
    are those of adding E(g) (x) g.a one operator at a time.  A skipped
    term is a product 0 * x, which is a signed zero, and adding a signed
    zero to a sum that started at +0 leaves the sum unchanged.  So each
    slice is bit-identical to that dense loop.  The canonical ideal
    frame and its smearings are diagonal (d_r of the d_r^2 blocks); a
    frame with dense support takes every block.
    """
    d_r, d = frame.rep.dim, system.dim
    stack = np.asarray(mats, dtype=np.complex128).reshape(-1, d, d)
    effects = np.stack(frame.effects)
    rows, cols = np.nonzero(np.any(effects != 0, axis=0))
    weights = effects[:, rows, cols]
    blocks = np.zeros((len(rows), len(stack), d, d), dtype=np.complex128)
    for g in frame.group.elements():
        blocks += weights[g][:, None, None, None] * act(system.rep, g, stack)[None]
    out = np.zeros((len(stack), d_r, d, d_r, d), dtype=np.complex128)
    out[:, rows, :, cols, :] = blocks
    return out.reshape(len(stack), d_r * d, d_r * d)


def relativization_map(
    frame: FrameObservable, system: SemiQuantumSystem, tol: float = DEFAULT_TOL
) -> RelativizationMap:
    if not same_group(frame.group, system.group):
        raise GroupMismatch("frame and system live over different groups")
    joint = tensor_rep(frame.rep, system.rep, tol)
    images = tuple(_relativize_stack(frame, system, system.space.basis_stack))
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
    space: MatrixSubspace
    kernel: MatrixSubspace
    as_system: SemiQuantumSystem

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
    columns = np.stack([vec(im) for im in rmap.images], axis=1)
    coeff_kernel = vector_kernel(columns, tol)
    kernel = MatrixSubspace(system.dim, system.space.combine(coeff_kernel))
    if space.dim + kernel.dim != system.space.dim:
        raise ObjectMismatch(
            "rank plus nullity of the relativization map does not add up; "
            "tolerance is likely too tight for the inputs"
        )
    return RelativeSubspace(
        base=rmap,
        space=space,
        kernel=kernel,
        as_system=system_from_subspace(rmap.joint_rep, space, tol),
    )


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class ChannelAxiomsReport:
    linearity_deviation: float
    unital_deviation: float
    invariance_deviation: float
    positivity_min_eigenvalue: float
    choi_min_eigenvalue: float | None
    contraction_excess: float
    positivity_mode: str
    samples_used: int
    seed: int
    passed: bool

    @property
    def max_deviation(self) -> float:
        worst = max(
            self.linearity_deviation,
            self.unital_deviation,
            self.invariance_deviation,
            self.contraction_excess,
            max(0.0, -self.positivity_min_eigenvalue),
        )
        if self.choi_min_eigenvalue is not None:
            worst = max(worst, max(0.0, -self.choi_min_eigenvalue))
        return worst


def check_channel_axioms(
    rmap: RelativizationMap,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_CHECK_SAMPLES,
    seed: int = DEFAULT_CHECK_SEED,
) -> ChannelAxiomsReport:
    """Certify the relativization map as a unital positive invariant contraction.

    Linearity is exact by construction and verified on seeded random
    combinations; positivity is Choi-exact when the system is a full
    algebra and sampled otherwise; the contraction property is checked
    on the basis and on the same samples.
    """
    frame, system = rmap.frame, rmap.system
    d_joint = rmap.joint_dim
    rng = np.random.default_rng(seed)
    n = system.space.dim

    coeffs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(samples)]
    directs = _relativize_stack(frame, system, system.space.combine(np.reshape(coeffs, (-1, n))))
    linearity = 0.0
    for coeff, direct in zip(coeffs, directs):
        combined = sum(c * im for c, im in zip(coeff, rmap.images))
        linearity = max(linearity, max_abs(direct - combined))

    unital = max_abs(
        _relativize_stack(frame, system, identity(system.dim))[0] - identity(d_joint)
    )

    images = np.stack(rmap.images)
    invariance = max(
        commutation_deviation(rmap.joint_rep, g, images) for g in frame.group.elements()
    )

    psd_inputs = psd_span_samples(
        system.space, count=samples, seed=seed,
        include_rank_one=system.is_full_algebra, tol=tol,
    )
    low = 0.0
    excess = 0.0
    for s, out in zip(psd_inputs, _relativize_stack(frame, system, psd_inputs)):
        low = min(low, min_eigenvalue(out))
        nrm = operator_norm(s)
        if nrm > tol:
            excess = max(excess, operator_norm(out) / nrm - 1.0)
    for b, out in zip(system.space.basis, rmap.images):
        nrm = operator_norm(b)
        if nrm > tol:
            excess = max(excess, operator_norm(out) / nrm - 1.0)

    choi_low: float | None = None
    mode = "sampled"
    if system.is_full_algebra:
        units = (
            rmap.images
            if system.space.is_unit_span
            else _relativize_stack(frame, system, matrix_units(system.dim))
        )
        choi_low = min_eigenvalue(_choi_matrix(units, system.dim))
        mode = "choi+sampled"

    passed = (
        linearity <= tol
        and unital <= tol
        and invariance <= tol
        and low >= -tol * d_joint
        and excess <= tol
        and (choi_low is None or choi_low >= -tol * d_joint * system.dim)
    )
    return ChannelAxiomsReport(
        linearity_deviation=linearity,
        unital_deviation=unital,
        invariance_deviation=invariance,
        positivity_min_eigenvalue=low,
        choi_min_eigenvalue=choi_low,
        contraction_excess=max(0.0, excess),
        positivity_mode=mode,
        samples_used=len(psd_inputs),
        seed=seed,
        passed=passed,
    )


@dataclass(frozen=True)
class IdealIsomorphismReport:
    frame_is_ideal: bool
    multiplicativity_deviation: float
    isometry_deviation: float
    adjoint_deviation: float
    witness_indices: tuple[int, int] | None
    passed: bool

    @property
    def max_deviation(self) -> float:
        return max(
            self.multiplicativity_deviation,
            self.isometry_deviation,
            self.adjoint_deviation,
        )

    @property
    def consistent_with_ideality(self) -> bool:
        """The claimed equivalence: embedding exactly for ideal frames."""
        return self.passed == self.frame_is_ideal


def check_ideal_isomorphism(
    rmap: RelativizationMap, tol: float = DEFAULT_TOL
) -> IdealIsomorphismReport:
    """Measure how far relativization is from a *-embedding.

    Multiplicativity, adjoint preservation and isometry are tested on
    the basis (bilinearity carries them to the whole algebra).  Only
    meaningful on full algebras, where products stay inside the domain.
    """
    system = rmap.system
    if not system.is_full_algebra:
        raise RequiresFullAlgebra(
            "the embedding question needs a full matrix algebra as the system"
        )
    frame, images = rmap.frame, rmap.images
    basis = system.space.basis
    mult_dev = 0.0
    witness = None
    for i, a in enumerate(basis):
        products = _relativize_stack(frame, system, [a @ b for b in basis])
        for j, lhs in enumerate(products):
            dev = operator_norm(lhs - images[i] @ images[j])
            if dev > mult_dev:
                mult_dev = dev
                witness = (i, j)
    iso_dev = max(
        abs(operator_norm(im) - operator_norm(b)) for b, im in zip(basis, images)
    )
    adjoints = _relativize_stack(frame, system, [dagger(b) for b in basis])
    adj_dev = max(operator_norm(adj - dagger(im)) for adj, im in zip(adjoints, images))
    passed = mult_dev <= tol and iso_dev <= tol and adj_dev <= tol
    return IdealIsomorphismReport(
        frame_is_ideal=frame.is_ideal,
        multiplicativity_deviation=mult_dev,
        isometry_deviation=iso_dev,
        adjoint_deviation=adj_dev,
        witness_indices=None if passed else witness,
        passed=passed,
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


def relativize_morphisms(
    psi: FrameMorphism,
    phi: ChannelMap,
    tol: float = DEFAULT_TOL,
    source_rel: RelativeSubspace | None = None,
    target_rel: RelativeSubspace | None = None,
) -> RelativeChannel:
    """Induce the map of relative observables from a (frame, system) morphism pair.

    Well-definedness is witnessed on the kernel of the source
    relativization: every kernel element must still relativize to zero
    after the system channel, otherwise IllDefined carries the witness.
    """
    if not same_group(psi.group, phi.source.group):
        raise ObjectMismatch("frame morphism and system channel live over different groups")
    if source_rel is None:
        source_rel = build_relative_subspace(psi.source, phi.source, tol)
    if target_rel is None:
        target_rel = build_relative_subspace(psi.target, phi.target, tol)

    kernel = source_rel.kernel.basis
    kernel_images = _relativize_stack(
        psi.target, phi.target, phi.apply(source_rel.kernel.basis_stack, tol)
    )
    worst_kernel = 0.0
    for k, image in zip(kernel, kernel_images):
        nrm = operator_norm(image)
        if nrm > worst_kernel:
            worst_kernel = nrm
            if nrm > tol:
                raise IllDefined(kernel_witness=k, image_norm=nrm)

    columns = np.stack([vec(im) for im in source_rel.base.images], axis=1)
    pinv = np.linalg.pinv(columns)
    target_images = _relativize_stack(
        psi.target, phi.target, phi.apply(phi.source.space.basis_stack, tol)
    )
    images = []
    for s in source_rel.space.basis:
        coeff = pinv @ vec(s)
        images.append(sum(c * im for c, im in zip(coeff, target_images)))
    channel = build_channel(source_rel.as_system, target_rel.as_system, images, tol)
    return RelativeChannel(
        source=source_rel,
        target=target_rel,
        frame_morphism=psi,
        system_channel=phi,
        channel=channel,
        matrix=channel.matrix(),
        kernel_image_norm=worst_kernel,
    )


@dataclass(frozen=True)
class FunctorLawsReport:
    identity_deviation: float
    composition_deviations: tuple[float, ...]
    full_chain_deviation: float
    passed: bool

    @property
    def max_deviation(self) -> float:
        tail = max(self.composition_deviations) if self.composition_deviations else 0.0
        return max(self.identity_deviation, tail, self.full_chain_deviation)


def check_functor_laws(links, tol: float = DEFAULT_TOL) -> FunctorLawsReport:
    """Verify identity and composition through a chain of morphism pairs.

    ``links`` is a sequence of (FrameMorphism, ChannelMap) pairs whose
    endpoints match up.  Identities are induced at the first node;
    every adjacent pair, and the full chain when longer, is compared
    against the matrix product of the induced pieces.
    """
    from .frames import compose_frame_morphisms, identity_frame_morphism, same_frame
    from .systems import compose_channels, identity_channel, same_system

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
    ident = relativize_morphisms(
        identity_frame_morphism(first_frame, tol),
        identity_channel(first_system, tol),
        tol,
        source_rel=rel[0],
        target_rel=rel[0],
    )
    eye = identity(rel[0].space.dim)
    identity_dev = max_abs(ident.matrix - eye)

    induced = [
        relativize_morphisms(psi, phi, tol, source_rel=rel[i], target_rel=rel[i + 1])
        for i, (psi, phi) in enumerate(chain)
    ]

    comp_devs = []
    for i in range(len(chain) - 1):
        psi_a, phi_a = chain[i]
        psi_b, phi_b = chain[i + 1]
        pair_morphism = compose_frame_morphisms(psi_a, psi_b, tol)
        pair_channel = compose_channels(phi_b, phi_a, tol)
        direct = relativize_morphisms(
            pair_morphism, pair_channel, tol, source_rel=rel[i], target_rel=rel[i + 2]
        )
        comp_devs.append(
            max_abs(direct.matrix - induced[i + 1].matrix @ induced[i].matrix)
        )

    full_dev = 0.0
    if len(chain) > 2:
        total_morphism = chain[0][0]
        total_channel = chain[0][1]
        for psi, phi in chain[1:]:
            total_morphism = compose_frame_morphisms(total_morphism, psi, tol)
            total_channel = compose_channels(phi, total_channel, tol)
        direct = relativize_morphisms(
            total_morphism, total_channel, tol, source_rel=rel[0], target_rel=rel[-1]
        )
        product = induced[0].matrix
        for step in induced[1:]:
            product = step.matrix @ product
        full_dev = max_abs(direct.matrix - product)

    passed = (
        identity_dev <= tol
        and all(d <= tol for d in comp_devs)
        and full_dev <= tol
    )
    return FunctorLawsReport(
        identity_deviation=identity_dev,
        composition_deviations=tuple(comp_devs),
        full_chain_deviation=full_dev,
        passed=passed,
    )


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


@dataclass(frozen=True)
class TensorFormReport:
    max_deviation: float
    passed: bool


def check_equivariant_tensor_form(
    psi: FrameMorphism, phi: ChannelMap, tol: float = DEFAULT_TOL
) -> TensorFormReport:
    """For equivariant phi the induced map is just psi (x) phi; verify it.

    Every relative observable is expanded in a product basis of the two
    value spans, psi and phi are applied factor by factor, and the
    result is compared with the induced map's image.  Raises
    ChannelNotEquivariant when phi is not equivariant.
    """
    _require_equivariant(phi, tol)
    induced = relativize_morphisms(psi, phi, tol)
    r_basis = psi.source.value_system.space.basis_stack
    s_basis = phi.source.space.basis_stack
    psi_images = psi.channel.apply(r_basis, tol)
    phi_images = phi.apply(s_basis, tol)
    xs = induced.source.space.basis_stack
    induced_images = induced.channel.apply(xs, tol)
    d_out = induced.target.space.ambient_dim
    tens = [np.zeros((d_out, d_out), dtype=np.complex128) for _ in xs]
    recon = [np.zeros_like(x) for x in xs]
    for i, r in enumerate(r_basis):
        for j, s in enumerate(s_basis):
            rs = tensor_product(r, s)
            coeffs = [complex(np.vdot(rs, x)) for x in xs]
            if not any(coeffs):
                continue
            image = tensor_product(psi_images[i], phi_images[j])
            for k, c in enumerate(coeffs):
                if c != 0:
                    tens[k] += c * image
                    recon[k] += c * rs
    worst = 0.0
    for x, t, rec, image in zip(xs, tens, recon, induced_images):
        residual = max_abs(rec - x)
        if residual > tol:
            raise ObjectMismatch(
                "relative observable does not expand in the product of value spans"
            )
        worst = max(worst, max_abs(t - image))
    return TensorFormReport(max_deviation=worst, passed=worst <= tol)


@dataclass(frozen=True)
class NaturalityReport:
    max_deviation: float
    witness_index: int | None
    passed: bool


def check_naturality(
    frame: FrameObservable, phi: ChannelMap, tol: float = DEFAULT_TOL
) -> NaturalityReport:
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
    return NaturalityReport(
        max_deviation=worst,
        witness_index=None if worst <= tol else witness,
        passed=worst <= tol,
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
