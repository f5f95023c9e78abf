"""Semi-quantum systems and the channels between them.

A semi-quantum system is a linear subspace of observables on a finite
dimensional Hilbert space, containing the identity and closed under a
group's conjugation action.  It is the finite stand-in for an
ultraweakly closed operator subspace: enough structure to pair with
states, too little (in general) to multiply (``is_vn_algebra`` tells,
on request).  Channels between systems are unital positive linear maps
recorded by their images on the source basis, one read-only (k, d, d)
stack.  Positivity has one rule per source kind.  A full-algebra source
is certified exactly, whatever the target: the Choi matrix is PSD iff
the map is completely positive (Choi 1975), and a unital positive map
has norm 1 (Russo-Dye), so the certificate covers contraction as well.
Its spectrum is taken block by block along the connected components of
the Choi matrix's nonzero pattern.  A proper source is sampled over one
deterministic PSD stack, whose images are tested with one batched
``eigvalsh`` (and reported as sampled, never as proved), unless the
caller has shown the map to be the restriction of a completely positive
map (the induced maps of ``relativize``, from their tensor form).

A proper span is validated on its support, the entries where some basis
element is nonzero: its translates, adjoints and products are projected
on those entries alone (the basis vanishes elsewhere), and their
entries off the support are compared with the tolerance directly.  A
monomial representation moves the support entries alone, and
products are formed on the diagonal blocks of the support, so a span
that lives on a few blocks of a large joint space costs what its blocks
cost.

States enter through operational equivalence: two density matrices are
the same state of a system when every observable in the span gives them
equal expectations.  ``state_class`` picks the canonical representative
by projecting onto the span of adjoints, which makes class equality a
matrix comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    FramerelError,
    GroupMismatch,
    ImageOutsideTarget,
    NotAState,
    NotPositive,
    NotUnital,
    NotUnitary,
    ObjectMismatch,
    OperatorOutsideSystem,
    RequiresFullAlgebra,
)
from .groups import (
    UnitaryRep,
    act,
    acts_trivially,
    same_group,
    same_rep,
    support_translates,
    support_values,
    translates,
)
from .linalg import (
    DEFAULT_TOL,
    MatrixSubspace,
    as_operator,
    block_min_eigenvalues,
    block_partition,
    dagger,
    diagonal_blocks,
    hermitian_part,
    identity,
    is_density_matrix,
    is_unitary,
    matrix_unit_span,
    matrix_units,
    max_abs,
    min_eigenvalue,
    projection_errors,
    psd_span_samples,
    span_subspace,
    unvec,
    vec,
    vector_kernel,
)

DEFAULT_POSITIVITY_SAMPLES = 16
DEFAULT_POSITIVITY_SEED = 7


@dataclass(frozen=True, eq=False)
class SemiQuantumSystem:
    """An action-closed operator subspace containing the identity."""

    rep: UnitaryRep
    space: MatrixSubspace
    adjoint_space: MatrixSubspace
    is_full_algebra: bool
    is_invariant: bool

    @property
    def dim(self) -> int:
        """Hilbert space dimension the observables act on."""
        return self.rep.dim

    @property
    def group(self):
        return self.rep.group


_CHUNK = 16  # translates or products formed at once (at least one per basis element)
_NOT_CLOSED = "system span is not closed under the group action"


def _closed_under_products(space: MatrixSubspace, tol: float) -> bool:
    """Adjoints, then the products a b of basis elements, on the support blocks.

    Every element vanishes off the span's support, so it is block
    diagonal along the connected components of that support, and so
    are its adjoint and every product of two elements.  Their residuals
    are taken on the entries of those diagonal blocks alone, against the
    basis restricted to them (still orthonormal, since every basis
    element vanishes elsewhere).  The products are formed block by
    block, a few rows of the basis at a time.
    """
    n, d = space.dim, space.ambient_dim
    inside = np.zeros(d * d, dtype=bool)
    inside[space.support] = True
    blocks = diagonal_blocks(space.basis_stack, block_partition(inside.reshape(d, d)))

    def entries(stacks):  # (k, ...) stacks of blocks, one per block size -> (k, block entries)
        return np.concatenate([b.reshape(len(b), -1) for b in stacks], axis=1)

    basis = entries(blocks)
    if np.any(projection_errors(entries([dagger(b) for b in blocks]), basis) > tol):
        return False
    step = max(1, _CHUNK // n)
    for lo in range(0, n, step):
        products = [(b[lo : lo + step, None] @ b[None]).reshape(-1, *b.shape[1:]) for b in blocks]
        if np.any(projection_errors(entries(products), basis) > tol):
            return False
    return True


def is_vn_algebra(system: SemiQuantumSystem, tol: float = DEFAULT_TOL) -> bool:
    """Whether the span is closed under adjoints and products (a full span is)."""
    return system.space.is_full or _closed_under_products(system.space, tol)


def _assemble_system(rep: UnitaryRep, space: MatrixSubspace, tol: float) -> SemiQuantumSystem:
    """Validate a span against the action and record its flags.

    A full span holds every translate, and it is invariant iff every
    U(g) is a scalar within ``tol``, so it is read from the rep and no
    basis element is moved.  On a proper span the translates of the
    basis give both closure and invariance, a few group elements at a
    time.  A monomial rep moves the support entries alone and scales
    them by its phases (``support_translates``, ``support_values``): a
    translate that carries an entry above ``tol`` off the support leaves
    the span, and the rest is tested on the support through
    ``support_residuals``.  Other reps conjugate the basis densely, as
    ``act`` does, and ``residuals`` tests the translates on the span's
    support and off it.
    """
    if space.ambient_dim != rep.dim:
        raise DimensionError(
            f"subspace ambient dimension {space.ambient_dim} does not match "
            f"representation dimension {rep.dim}"
        )
    if not space.contains(identity(rep.dim), tol):
        raise FramerelError("system span does not contain the identity")
    full = space.is_full
    invariant = True
    if full:
        invariant = acts_trivially(rep, tol)
    elif rep.perms is not None:
        flat = space.basis_stack.reshape(space.dim, -1)
        values = flat[:, space.support]
        _, leaves = support_translates(rep, space.support)
        if np.any(leaves[:, np.abs(values).max(axis=0) > tol]):
            raise FramerelError(_NOT_CLOSED)
        step = max(1, _CHUNK // space.dim)
        for lo in range(0, rep.group.order, step):
            # (dim, elements, support): the translates on the support
            moved = support_values(rep, flat, space.support, slice(lo, lo + step))
            if np.any(space.support_residuals(moved.reshape(-1, values.shape[1])) > tol):
                raise FramerelError(_NOT_CLOSED)
            invariant = invariant and max_abs(moved - values[:, None]) <= tol
    else:
        basis = space.basis_stack
        us = np.stack(rep.matrices)
        step = max(1, _CHUNK // space.dim)
        for lo in range(0, rep.group.order, step):
            u = us[lo : lo + step, None]
            moved = u @ basis @ dagger(u)  # (elements, dim, d, d): translates
            if np.any(space.residuals(moved.reshape(-1, rep.dim, rep.dim)) > tol):
                raise FramerelError(_NOT_CLOSED)
            invariant = invariant and max_abs(moved - basis) <= tol
    adjoint_space = (
        space if full else span_subspace([dagger(b) for b in space.basis], tol=tol)
    )
    return SemiQuantumSystem(
        rep=rep,
        space=space,
        adjoint_space=adjoint_space,
        is_full_algebra=full,
        is_invariant=invariant,
    )


def full_system(rep: UnitaryRep, tol: float = DEFAULT_TOL) -> SemiQuantumSystem:
    """The full matrix algebra on the representation space.

    The published basis is the matrix units in row-major order, which is
    also the flattening order used by superoperator assembly.  The span
    is the implicit unit span of ``matrix_unit_span``: the d^2 units are
    not stored, and they are built only when a caller asks for the basis.
    """
    return _assemble_system(rep, matrix_unit_span(rep.dim), tol)


def subspace_system(rep: UnitaryRep, generators, tol: float = DEFAULT_TOL) -> SemiQuantumSystem:
    """Smallest action-closed span containing the generators and I.

    Saturation is a single sweep: the span of {generators, I} and all
    their translates is already closed because translates of translates
    are translates.
    """
    gens = [as_operator(g) for g in generators]
    for g in gens:
        if g.shape[0] != rep.dim:
            raise DimensionError(
                f"generator of dimension {g.shape[0]} for a dimension-{rep.dim} system"
            )
    seeds = gens + [identity(rep.dim)]
    # the orbit lists each seed's translates in group order
    moved = translates(rep, np.stack(seeds)).swapaxes(0, 1)
    orbit = seeds + list(moved.reshape(-1, rep.dim, rep.dim))
    space = span_subspace(orbit, ambient_dim=rep.dim, tol=tol)
    return _assemble_system(rep, space, tol)


def invariant_subalgebra(rep: UnitaryRep, tol: float = DEFAULT_TOL) -> SemiQuantumSystem:
    """Commutant of the representation: all operators fixed by the action.

    Computed as the joint kernel of the commutation constraints
    X U(g) - U(g) X = 0, stacked over every group element.
    """
    d = rep.dim
    eye = identity(d)
    blocks = []
    for g in rep.group.elements():
        u = rep.matrices[g]
        blocks.append(np.kron(eye, u.T) - np.kron(u, eye))
    kernel_rows = vector_kernel(np.vstack(blocks), tol)
    return _assemble_system(rep, MatrixSubspace(d, kernel_rows.reshape(-1, d, d)), tol)


def system_from_subspace(
    rep: UnitaryRep, space: MatrixSubspace, tol: float = DEFAULT_TOL
) -> SemiQuantumSystem:
    """Wrap an existing orthonormal subspace as a system (flags recomputed)."""
    return _assemble_system(rep, space, tol)


def same_system(a: SemiQuantumSystem, b: SemiQuantumSystem, tol: float = DEFAULT_TOL) -> bool:
    """Same group, same action, same span (mutual containment)."""
    if a is b:
        return True
    if not same_rep(a.rep, b.rep, tol) or a.space.dim != b.space.dim:
        return False
    if a.space.is_full:
        return True
    return bool(
        np.all(b.space.residuals(a.space.basis_stack) <= tol)
        and np.all(a.space.residuals(b.space.basis_stack) <= tol)
    )


# --------------------------------------------------------------------- channels


@dataclass(frozen=True, eq=False)
class ChannelMap:
    """A unital positive linear map recorded on the source basis.

    ``positivity_check`` names the certificate, one of three:

    - "choi": the source is a full algebra and the exact Choi
      certificate ran (seed None, 0 samples);
    - "tensor": an induced map on a proper relative subspace whose
      frame morphism and system channel are both "choi"; it agrees with
      psi (x) phi, a completely positive map, within tol, so it is
      positive and nothing is sampled;
    - "sampled": every other proper source, tested on seeded random
      PSD samples of the span.

    "tensor" and "sampled" channels record the seed and the number of
    samples that were asked for, so a composite starting on their
    source samples with the same settings.

    ``images`` is one read-only (k, d, d) stack, the image of source
    basis element i at ``images[i]``.  ``apply`` takes one operator or
    a whole (k, d, d) stack, and ``matrix`` is one stacked coefficient
    call on the images.  Like ``MatrixSubspace.coefficients``, a stack
    runs one matrix-vector product per slice, so each slice is
    bit-identical to applying the channel to that operator alone.
    """

    source: SemiQuantumSystem
    target: SemiQuantumSystem
    images: np.ndarray
    positivity_check: str
    positivity_seed: int | None
    positivity_samples: int

    def apply(self, a, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Apply to one operator or a (k, d, d) stack in the source span.

        Raises OperatorOutsideSystem with the largest residual over the
        stack when some operator leaves the source span; a full source
        holds every operator, so it skips the check.
        """
        space = self.source.space
        c = space.coefficients(a)
        if not space.is_full:
            residual = max_abs(np.asarray(a, dtype=np.complex128) - space.combine(c))
            if residual > tol:
                raise OperatorOutsideSystem(residual)
        d = self.target.dim
        flat = self.images.reshape(len(self.images), d * d)
        return (c[..., None, :] @ flat).reshape(*c.shape[:-1], d, d)

    def matrix(self) -> np.ndarray:
        """Superoperator matrix between the published orthonormal bases."""
        return self.target.space.coefficients(self.images).T


def _choi_matrix(images, d_source: int) -> np.ndarray:
    """sum_ij E_ij (x) phi(E_ij) from the images of the matrix units.

    Block (i, j) of the Choi matrix is image i d + j, so one transpose
    of the image stack lays it out; every entry is copied, not summed.
    """
    d_target = images[0].shape[0]
    blocks = np.asarray(images).reshape(d_source, d_source, d_target, d_target)
    return blocks.transpose(0, 2, 1, 3).reshape(d_source * d_target, d_source * d_target)


def _unit_images(channel: ChannelMap, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The images of the matrix units of a full source, row-major, as one stack.

    On the unit span these are the recorded images.  Any other full
    span publishes another basis, so the units go through ``apply``.
    """
    if channel.source.space.is_unit_span:
        return channel.images
    return channel.apply(matrix_units(channel.source.dim), tol)


def build_channel(
    source: SemiQuantumSystem,
    target: SemiQuantumSystem,
    images,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
    _tensor_certified: bool = False,
) -> ChannelMap:
    """Validate one image per source basis element into a channel.

    Raises ImageOutsideTarget, NotUnital or NotPositive when the
    declared data does not describe a unital positive map into the
    target span.  A full-algebra source takes the Choi certificate,
    whatever the target, and NotPositive carries its smallest
    eigenvalue over the diagonal blocks of the Choi matrix.  A proper
    source is sampled: ``psd_span_samples`` of the source span with
    ``samples``/``seed``, all images tested at once, and NotPositive
    names the first failing sample as witness.  ``_tensor_certified``
    is set by ``relativize_morphisms`` alone, when the images agree with
    the tensor product of two Choi-certified channels: a proper source
    then records "tensor" and skips the samples.
    """
    if not same_group(source.group, target.group):
        raise GroupMismatch("channel endpoints live over different groups")
    imgs = [as_operator(m) for m in images]
    if len(imgs) != source.space.dim:
        raise DimensionError(
            f"expected {source.space.dim} images, got {len(imgs)}"
        )
    for k, im in enumerate(imgs):
        if im.shape[0] != target.dim:
            raise DimensionError(
                f"image {k} has dimension {im.shape[0]}, target has {target.dim}"
            )
        res = target.space.residual(im)
        if res > tol:
            raise ImageOutsideTarget(k, res, witness=im)
    stack = np.stack(imgs)
    stack.setflags(write=False)

    exact = source.is_full_algebra
    channel = ChannelMap(
        source=source,
        target=target,
        images=stack,
        positivity_check="choi" if exact else "tensor" if _tensor_certified else "sampled",
        positivity_seed=None if exact else seed,
        positivity_samples=0 if exact else samples,
    )
    unital_dev = max_abs(channel.apply(identity(source.dim), tol) - identity(target.dim))
    if unital_dev > tol:
        raise NotUnital(unital_dev)

    if exact:
        choi = _choi_matrix(_unit_images(channel, tol), source.dim)
        herm_dev = max_abs(choi - dagger(choi))
        blocks = diagonal_blocks(choi[None], block_partition(choi != 0))
        low = float(block_min_eigenvalues(blocks)[0])
        if herm_dev > tol or low < -tol * choi.shape[0]:
            raise NotPositive(
                f"Choi matrix fails positivity (hermiticity deviation "
                f"{herm_dev:.3e}, minimum eigenvalue {low:.3e})",
                min_eigenvalue=low,
            )
    elif not _tensor_certified:
        psd = psd_span_samples(source.space, count=samples, seed=seed, tol=tol)
        lows = np.linalg.eigvalsh(hermitian_part(channel.apply(psd, tol)))[:, 0]
        failing = np.flatnonzero(lows < -tol * target.dim)
        if len(failing):
            low = float(lows[failing[0]])
            raise NotPositive(
                f"sampled PSD input maps to a non-PSD image "
                f"(minimum eigenvalue {low:.3e})",
                witness=psd[failing[0]],
                min_eigenvalue=low,
            )
    return channel


def identity_channel(
    system: SemiQuantumSystem,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> ChannelMap:
    """The identity on a system; ``samples``/``seed`` as in ``build_channel``."""
    return build_channel(system, system, system.space.basis_stack, tol, samples, seed)


def conjugation_channel(
    system: SemiQuantumSystem,
    u,
    target: SemiQuantumSystem | None = None,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> ChannelMap:
    """The channel a -> u a u^dag (u unitary).

    ``samples``/``seed`` reach the sampled positivity check, as in
    ``build_channel``.
    """
    mat = as_operator(u)
    if not is_unitary(mat, tol):
        raise NotUnitary(max_abs(mat @ dagger(mat) - identity(mat.shape[0])))
    tgt = target if target is not None else system
    if mat.shape[0] != tgt.dim or mat.shape[0] != system.dim:
        raise DimensionError("conjugating unitary has the wrong dimension")
    images = [mat @ b @ dagger(mat) for b in system.space.basis]
    return build_channel(system, tgt, images, tol, samples, seed)


def kraus_channel(
    source: SemiQuantumSystem,
    target: SemiQuantumSystem,
    kraus_ops,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> ChannelMap:
    """Channel a -> sum_k K_k a K_k^dag from Kraus operators (target x source).

    ``samples``/``seed`` reach the sampled positivity check, as in
    ``build_channel``.
    """
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus_ops]
    if not ops:
        raise DimensionError("at least one Kraus operator is required")
    for k in ops:
        if k.ndim != 2 or k.shape != (target.dim, source.dim):
            raise DimensionError(
                f"Kraus operator of shape {k.shape}, expected "
                f"({target.dim}, {source.dim})"
            )
    images = [
        sum(k @ b @ dagger(k) for k in ops) for b in source.space.basis
    ]
    return build_channel(source, target, images, tol, samples, seed)


def compose_channels(
    second: ChannelMap, first: ChannelMap, tol: float = DEFAULT_TOL
) -> ChannelMap:
    """The composite ``second after first``, certified with ``first``'s settings
    (both start on ``first.source``)."""
    if not same_system(first.target, second.source, tol):
        raise ObjectMismatch("channel composition endpoints do not match")
    return build_channel(
        first.source,
        second.target,
        second.apply(first.images, tol),
        tol,
        samples=first.positivity_samples,
        seed=first.positivity_seed,
    )


@dataclass(frozen=True)
class EquivarianceResult:
    equivariant: bool
    deviation: float
    witness_element: int | None = None
    witness_index: int | None = None


def _equivariance_table(channel: ChannelMap, stack, images, tol: float) -> np.ndarray:
    """table[g, i] = |phi(g.x_i) - g.phi(x_i)| (largest entry), for a stack x.

    ``images`` is ``channel.apply(stack)``; the rows run over the group
    elements in order.
    """
    src, tgt = channel.source.rep, channel.target.rep
    return np.stack([
        np.abs(channel.apply(act(src, g, stack), tol) - act(tgt, g, images)).max(axis=(1, 2))
        for g in src.group.elements()
    ])


def is_equivariant(channel: ChannelMap, tol: float = DEFAULT_TOL) -> EquivarianceResult:
    """Check phi(g.a) = g.phi(a) on the source basis, for every element."""
    if not same_group(channel.source.group, channel.target.group):
        raise GroupMismatch("equivariance needs one group on both sides")
    basis = channel.source.space.basis_stack
    # argmax picks the first worst pair in (g, i) order
    table = _equivariance_table(channel, basis, channel.apply(basis, tol), tol)
    w_g, w_i = (int(k) for k in np.unravel_index(np.argmax(table), table.shape))
    worst = float(table[w_g, w_i])
    ok = worst <= tol
    return EquivarianceResult(
        equivariant=ok,
        deviation=worst,
        witness_element=None if ok else w_g,
        witness_index=None if ok else w_i,
    )


def channel_superop(channel: ChannelMap) -> np.ndarray:
    """Full-algebra superoperator S with vec(phi(a)) = S vec(a) (row-major)."""
    if not (channel.source.is_full_algebra and channel.target.is_full_algebra):
        raise RequiresFullAlgebra("superoperator form needs full algebras")
    d = channel.source.dim
    return np.ascontiguousarray(_unit_images(channel).reshape(d * d, -1).T)


def predual_channel(channel: ChannelMap, t, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The predual map on states, defined by tr[phi_*(T) a] = tr[T phi(a)].

    Only available between full matrix algebras, where the pairing is
    non-degenerate; elsewhere the predual lives on a quotient and has no
    canonical matrix form.
    """
    s = channel_superop(channel)
    mat = as_operator(t)
    if mat.shape[0] != channel.target.dim:
        raise DimensionError(
            f"predual input has dimension {mat.shape[0]}, expected {channel.target.dim}"
        )
    return unvec(s.T @ vec(mat.T), channel.source.dim).T


# ----------------------------------------------------------------------- states


@dataclass(frozen=True, eq=False)
class StateClass:
    """Operational equivalence class of a density matrix against a system.

    ``canonical`` is the HS projection of the representative onto the
    span of adjoints of the system space; two classes are equal exactly
    when their canonicals agree within tolerance.
    """

    system: SemiQuantumSystem
    canonical: np.ndarray

    def same_as(self, other: "StateClass", tol: float = DEFAULT_TOL) -> bool:
        if self.canonical.shape != other.canonical.shape:
            return False
        return max_abs(self.canonical - other.canonical) <= tol

    def deviation(self, other: "StateClass") -> float:
        return max_abs(self.canonical - other.canonical)

    def expectation(self, observable) -> complex:
        """tr[rho a]; the canonical representative carries all of these."""
        return complex(np.trace(self.canonical @ as_operator(observable)))


def state_class(
    system: SemiQuantumSystem, rho, tol: float = DEFAULT_TOL
) -> StateClass:
    mat = as_operator(rho)
    if mat.shape[0] != system.dim:
        raise NotAState(
            f"state has dimension {mat.shape[0]}, system has {system.dim}"
        )
    if not is_density_matrix(mat, tol):
        raise NotAState(
            f"not a density matrix (trace {complex(np.trace(mat)):.6f}, "
            f"minimum eigenvalue {min_eigenvalue(hermitian_part(mat)):.3e})"
        )
    return StateClass(system=system, canonical=system.adjoint_space.project(mat))


def quotient_dimension(system: SemiQuantumSystem, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the operational state quotient.

    Computed through the pairing: d^2 minus the dimension of the
    annihilator {T : tr[T a] = 0 for all a in the span}.  Banach space
    duality makes this equal to dim span(space), which the test suite
    asserts as an exact integer identity.  A full span has an empty
    annihilator, so its answer is d^2 without an SVD.
    """
    if system.space.is_full:
        return system.dim**2
    rows = np.stack([vec(b.T) for b in system.space.basis])
    annihilator = vector_kernel(rows, tol)
    return system.dim**2 - annihilator.shape[0]
