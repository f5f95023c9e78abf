"""Semi-quantum systems and the channels between them.

A semi-quantum system is a linear subspace of observables on a finite
dimensional Hilbert space, containing the identity and closed under a
group's conjugation action.  It is the finite stand-in for an
ultraweakly closed operator subspace: enough structure to pair with
states, too little (in general) to multiply (``is_vn_algebra`` tells,
on request), and in general not fixed by the action (``is_invariant`` tells,
on request, by the commutator test of ``groups.invariance_deviation``);
it stores its representation and its span alone.  Channels between
systems are unital positive linear maps recorded by their images on the
source basis, one read-only (k, d, d) stack, or held as a chain of such
channels applied in order: the identity is the empty chain, a composite
the chain of its factors and an explicit channel the chain of itself
alone, so every channel is applied along one path, and neither the
identity nor a composite forms a d^4 image stack or a product of two.
Positivity has one rule per source kind.  A full-algebra source is
certified exactly, whatever the target: the Choi matrix is PSD iff the
map is completely positive (Choi 1975), and a unital positive map has
norm 1 (Russo-Dye), so the certificate covers contraction as well.  Its
spectrum is taken block by block along the connected components of the
Choi matrix's nonzero pattern.  A chain of exact factors needs no
spectrum: a composite of completely positive maps is completely
positive.  A proper source is sampled over one deterministic PSD stack,
whose images are tested with one batched ``eigvalsh`` (and reported as
sampled, never as proved).  An induced map of ``relativize`` lies in its
target and sends I to I by construction, so it runs the certificate step
alone (``_induced_channel``), and one that agrees with psi (x) phi of two
exact factors is the restriction of a completely positive map ("tensor").

A proper span is validated on its support, the entries where some basis
element is nonzero: its translates, adjoints and products are projected
on those entries alone (the basis vanishes elsewhere), and their
entries off the support are compared with the tolerance directly.  The
translates come from ``groups.moved_on_support`` (a monomial
representation moves the support entries alone), and products are
formed on the diagonal blocks of the support, so a span
that lives on a few blocks of a large joint space costs what its blocks
cost.  Closure is tested on the group's generators first, under the
rule of ``groups``, and on every element only when the generators'
bound exceeds the tolerance.  ``is_equivariant`` reports a deviation,
so it keeps its table over every element.  A monomial rep's commutant
is read from the orbits of its entries, and it holds I and is closed by
construction, so it is not validated again.

States enter through operational equivalence: two density matrices are
the same state of a system when every observable in the span gives them
equal expectations.  ``state_class`` picks the canonical representative
by projecting onto the span of adjoints, which makes class equality a
matrix comparison.  That projection is read from the span itself,
P_{S^dag}(X) = P_S(X^dag)^dag, so no system holds a second span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    acts_trivially,
    invariance_deviation,
    moved_on_support,
    orbitals,
    same_group,
    same_rep,
    translates,
    word_bound,
)
from .linalg import (
    DEFAULT_TOL,
    MatrixSubspace,
    as_operator,
    block_min_eigenvalues,
    block_partition,
    chunks,
    dagger,
    diagonal_blocks,
    hermitian_part,
    hs_norms,
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

    @property
    def is_full_algebra(self) -> bool:
        return self.space.is_full

    @property
    def dim(self) -> int:
        """Hilbert space dimension the observables act on."""
        return self.rep.dim

    @property
    def group(self):
        return self.rep.group


_NOT_CLOSED = "system span is not closed under the group action"


def _closed_under_products(space: MatrixSubspace, tol: float) -> bool:
    """Adjoints, then the products a b of basis elements, on the support blocks.

    Every element vanishes off the span's support, so it is block
    diagonal along the connected components of that support, and so
    are its adjoint and every product of two elements.  Their residuals
    are taken on the entries of those diagonal blocks alone, against the
    basis restricted to them (still orthonormal, since every basis
    element vanishes elsewhere).  The products are formed block by
    block, the rows of the basis a working set at a time (``chunks``).
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
    for run in chunks(n, n * basis.shape[1]):
        products = [(b[run, None] @ b[None]).reshape(-1, *b.shape[1:]) for b in blocks]
        if np.any(projection_errors(entries(products), basis) > tol):
            return False
    return True


def is_vn_algebra(system: SemiQuantumSystem, tol: float = DEFAULT_TOL) -> bool:
    """Whether the span is closed under adjoints and products (a full span is)."""
    return system.space.is_full or _closed_under_products(system.space, tol)


def _assemble_system(rep: UnitaryRep, space: MatrixSubspace, tol: float) -> SemiQuantumSystem:
    """Validate a span against the action: it holds I and is closed.

    A full span holds I and every translate, so nothing is moved.  A
    proper span must hold I, which is read on its support
    (``_holds_identity``), and it is closed when every translate g.x_i
    of its orthonormal basis has residual at most ``tol``.  That is
    decided on the generators first (``_generator_closure``): HS norms
    bound the largest entry, and ``groups.word_bound`` carries a
    generator's deviation to every element.  The generator's deviation
    is the HS norm of the residual map P_perp s on the span, at most
    (sum_i ||P_perp s.x_i||^2)^(1/2); a word of length k then leaves the
    span by at most k nu^(2(k-1)) times it, since each letter either
    moves the part still in the span (by the residual map) or carries
    the part already outside (norm <= nu^2).  A verdict the bound does
    not prove runs the element loop (``_closure_loop``), so no verdict
    changes.  Whether the span is fixed by the action is asked
    separately (``is_invariant``).
    """
    if space.ambient_dim != rep.dim:
        raise DimensionError(
            f"subspace ambient dimension {space.ambient_dim} does not match "
            f"representation dimension {rep.dim}"
        )
    if not space.is_full:
        if not _holds_identity(space, tol):
            raise FramerelError("system span does not contain the identity")
        some = len(rep.group.generators) < rep.group.order - 1  # else the loop is no dearer
        if not (some and word_bound(rep, _generator_closure(rep, space), 1.0) <= tol):
            _closure_loop(rep, space, tol)
    return SemiQuantumSystem(rep, space)


def _holds_identity(space: MatrixSubspace, tol: float) -> bool:
    """Whether I lies in a proper span, read on the support: all d diagonal
    entries i (d + 1) must be on it, and I's values there have
    ``support_residuals`` <= ``tol``."""
    d = space.ambient_dim
    eye = (space.support % (d + 1) == 0).astype(np.complex128)
    return np.count_nonzero(eye) == d and space.support_residuals(eye[None])[0] <= tol


def _generator_closure(rep: UnitaryRep, space: MatrixSubspace) -> float:
    """The largest (sum_i ||P_perp s.x_i||^2)^(1/2) of a proper span over the generators s.

    Read on the support from the ``moved_on_support`` translates, plus
    at most (d^2 - K) outside^2 off it.
    """
    gens = np.array(rep.group.generators, dtype=np.int64)
    support, values = space.support, space.support_basis
    inside, outside = moved_on_support(rep, values, support, gens)  # (gens, dim, K), (gens, dim)
    spill = (rep.dim**2 - len(support)) * outside**2
    residual = projection_errors(inside.reshape(-1, len(support)), values).reshape(inside.shape)
    return float(np.sqrt(hs_norms(residual) ** 2 + spill.sum(axis=1)).max(initial=0.0))


def _closure_loop(rep: UnitaryRep, space: MatrixSubspace, tol: float) -> None:
    """Raise unless every translate of a proper span stays in it, the elements a
    working set at a time: a translate leaves the span when its largest entry
    off the support (``moved_on_support``'s ``outside``) or its residual on
    the support (``support_residuals``) exceeds ``tol``."""
    support, values = space.support, space.support_basis
    for run in chunks(rep.group.order, values.size):
        inside, outside = moved_on_support(rep, values, support, run)  # (elements, dim, K)
        if max(outside.max(), space.support_residuals(inside.reshape(-1, len(support))).max()) > tol:
            raise FramerelError(_NOT_CLOSED)


def is_invariant(system: SemiQuantumSystem, tol: float = DEFAULT_TOL) -> bool:
    """Whether the action fixes every element of the span: x U(g) = U(g) x
    within ``tol`` entrywise, for every g and basis element x.

    A full span is fixed iff every U(g) is a scalar (``acts_trivially``);
    a proper span reads ``groups.invariance_deviation`` on its support.
    """
    space = system.space
    if space.is_full:
        return acts_trivially(system.rep, tol)
    return invariance_deviation(system.rep, space.support_basis, space.support) <= tol


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

    For a monomial rep, one basis element per orbit of entries whose phases
    agree (``groups.orbitals``): its phases, normalized.  Any other rep
    twirls the matrix units, (1/|G|) sum_g g.E_kl, a working set of elements
    at a time: the twirl projects onto the commutant.  Either span holds I
    and is fixed by the action, hence closed, by construction (the orbital
    matrices span the commutant; Higman, Geom. Dedicata 4, 1975), so it is
    not validated again.
    """
    d = rep.dim
    orbits = orbitals(rep, np.arange(d * d), tol)
    if orbits is None:
        runs = chunks(rep.group.order, d**4)
        twirl = sum(translates(rep, matrix_units(d), run).sum(axis=0) for run in runs) / rep.group.order
        return SemiQuantumSystem(rep, span_subspace(twirl, d, tol))
    labels, phases, vanish = orbits
    keep = ~vanish[labels]
    row = (np.cumsum(~vanish) - 1)[labels[keep]]  # the kept orbits, renumbered
    weights = (1.0 if phases is None else phases[keep]) / np.sqrt(np.bincount(row)[row])
    values = (np.arange(np.count_nonzero(~vanish))[:, None] == row) * weights
    return SemiQuantumSystem(rep, MatrixSubspace.on_support(d, np.flatnonzero(keep), values))


def system_from_subspace(
    rep: UnitaryRep, space: MatrixSubspace, tol: float = DEFAULT_TOL
) -> SemiQuantumSystem:
    """Wrap an existing orthonormal subspace as a system (validated)."""
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
    """A unital positive linear map, held as its images or as a chain of factors.

    An explicit channel holds ``images``, one read-only (k, d, d) stack,
    the image of source basis element i at ``images[i]``.  A chain holds
    ``factors``, explicit channels applied in order (``compose_channels``
    flattens nested chains); the empty chain is the identity
    (``identity_channel``).  Every method reads a channel as the explicit
    channels it applies in order, its ``_steps``: a chain's factors, or
    an explicit channel as the chain of itself alone.  A chain keeps no
    images: ``images`` and ``matrix`` are its ``apply`` of its own source
    basis, anew on every request.

    ``positivity_check`` names the certificate, one of four:

    - "choi": the source is a full algebra and the exact Choi
      certificate ran (seed None, 0 samples);
    - "structure": a chain whose factors are all exact ("choi" or
      "structure"; the empty chain counts).  Each factor is completely
      positive, or the identity, on its source, and a composite of
      completely positive maps is completely positive (Choi 1975), so
      nothing is computed;
    - "tensor": an induced map on a proper relative subspace whose
      frame morphism and system channel are both exact; it agrees with
      psi (x) phi, a completely positive map, within tol, so it is
      positive and nothing is sampled;
    - "sampled": every other proper source, tested on seeded random
      PSD samples of the span.

    "structure", "tensor" and "sampled" channels record the seed and the
    number of samples that were asked for, so a composite starting on
    their source samples with the same settings.

    ``apply`` takes one operator or a whole (k, d, d) stack and passes it
    through each step in turn.  A step contracts the stack in one matrix
    product, over the source coefficients where some operator of the
    stack is nonzero, so its images are read once per stack; a slice
    agrees with applying the channel to that operator alone within
    rounding, not bit for bit.
    """

    source: SemiQuantumSystem
    target: SemiQuantumSystem
    positivity_check: str
    positivity_seed: int | None
    positivity_samples: int
    factors: tuple[ChannelMap, ...] | None = None
    _images: np.ndarray | None = field(default=None, repr=False)

    @property
    def _steps(self) -> tuple[ChannelMap, ...]:
        """The explicit channels applied in order: the factors of a chain, or
        the explicit channel itself as a chain of one."""
        return (self,) if self.factors is None else self.factors

    @property
    def images(self) -> np.ndarray:
        """The read-only (k, d, d) images: an explicit channel's stack, a chain's ``apply`` of its source basis."""
        images = self._images if self.factors is None else self.apply(self.source.space.basis_stack)
        images.setflags(write=False)
        return images

    def apply(self, a, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Apply to one operator or a (k, d, d) stack in the source span.

        Raises OperatorOutsideSystem with the largest residual over the
        stack when some operator leaves the source span; a full source
        holds every operator, so it skips the check.  The stack then goes
        through each step's product in turn, along that step's source
        coefficients; the source coefficients of the check serve the
        first step when it reads the same span, and only the identity on
        a full source takes none (it returns a copy).
        """
        space, steps = self.source.space, self._steps
        out = np.array(a, dtype=np.complex128)
        c = None if space.is_full and not steps else space.coefficients(out)
        if not space.is_full:
            residual = max_abs(out - space.combine(c))
            if residual > tol:
                raise OperatorOutsideSystem(residual)
        for k, step in enumerate(steps):
            if k or step.source.space is not space:
                c = step.source.space.coefficients(out)
            out = step._product(c)
        return out

    def _product(self, c) -> np.ndarray:
        """The images of the (..., n) source coefficients ``c`` (explicit channels).

        The coefficients form one (k, n) matrix.  A column that is zero
        for every operator adds only signed zeros, so when at most half
        of the columns are nonzero the product runs over those columns
        and the images they name (the frame effects of a Z_n regular
        value system use n of its n^2).  The gather copies the images it
        keeps, so past half, and always when every column is in use, the
        product reads the whole image matrix in place.  Half is about
        where the two break even: on 144 and 256 columns the gathered
        product took 0.2 of the in-place one's time with 1/8 of the
        columns in use and 0.9-1.2 with half (one BLAS thread).
        """
        d, n = self.target.dim, len(self._images)
        rows = c.reshape(-1, n)
        flat = self._images.reshape(n, d * d)
        used = rows.any(axis=0).nonzero()[0]
        if 2 * len(used) <= n:
            rows, flat = rows.take(used, axis=1), flat.take(used, axis=0)
        return (rows @ flat).reshape(*c.shape[:-1], d, d)

    def matrix(self) -> np.ndarray:
        """Superoperator matrix between the published orthonormal bases."""
        return self.target.space.coefficients(self.images).T

    def hs_gain(self) -> float:
        """Phi >= ||apply(a)||_HS / ||a||_HS for every operator ``a``.  A step
        sums the HS coefficients of its input on its orthonormal source basis
        (a contraction) against its images, so by Cauchy-Schwarz it has
        Phi = ||images||_HS over the whole stack, and a chain multiplies its
        steps' (1 for the identity, which returns its input)."""
        return float(math.prod(np.linalg.norm(hs_norms(s._images)) for s in self._steps))


EXACT_CERTIFICATES = ("choi", "structure")


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


def _image_stack(images, count: int, dim: int) -> np.ndarray:
    """The images as one fresh complex (count, dim, dim) stack.

    The count and the shapes are read before the one coercion, so a
    list of images of different shapes raises DimensionError naming
    the first image of the wrong shape, not numpy's ragged-array error.
    An image with a non-finite entry lies in no span: ImageOutsideTarget
    names the first, with residual inf.
    """
    n = len(images)
    if n != count:
        raise DimensionError(f"expected {count} images, got {n}")
    is_stack = isinstance(images, np.ndarray)
    for k, shape in enumerate([images.shape[1:]] if is_stack else map(np.shape, images)):
        if shape != (dim, dim):
            raise DimensionError(f"image {k} has shape {shape}, target has dimension {dim}")
    stack = np.array(images, dtype=np.complex128)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise ImageOutsideTarget(k, np.inf, witness=stack[k].copy())
    return stack


def build_channel(
    source: SemiQuantumSystem,
    target: SemiQuantumSystem,
    images,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> ChannelMap:
    """Validate one image per source basis element into an explicit channel.

    Raises ImageOutsideTarget, NotUnital or NotPositive when the
    declared data does not describe a unital positive map into the
    target span.  A full-algebra source takes the Choi certificate,
    whatever the target, and NotPositive carries its smallest
    eigenvalue over the diagonal blocks of the Choi matrix.  A proper
    source is sampled: ``psd_span_samples`` of the source span with
    ``samples``/``seed``, all images tested at once, and NotPositive
    names the first failing sample as witness.
    """
    if not same_group(source.group, target.group):
        raise GroupMismatch("channel endpoints live over different groups")
    stack = _image_stack(images, source.space.dim, target.dim)
    stack.setflags(write=False)
    return _validated(ChannelMap(source, target, *_certificate(source, samples, seed), _images=stack), tol)


def _certificate(source: SemiQuantumSystem, samples: int, seed, proper: str = "sampled") -> tuple:
    """(positivity_check, positivity_seed, positivity_samples) on ``source``: "choi"
    on a full algebra, seed None and 0 samples; else ``proper``, ``seed``, ``samples``."""
    return ("choi", None, 0) if source.is_full_algebra else (proper, seed, samples)


def _induced_channel(source, target, images, factors, tensor_deviation, tol, samples, seed) -> ChannelMap:
    """An induced map of ``relativize`` on its read-only ``images``, certified alone.

    Its images lie in the target relative subspace and it sends I to I by
    construction, so only ``_certified`` runs: "choi" on a full source, else
    "tensor" when both ``factors`` (the frame morphism's channel and the
    system channel) are exact and ``tensor_deviation`` <= ``tol``, else "sampled".
    """
    exact = tensor_deviation <= tol and all(f.positivity_check in EXACT_CERTIFICATES for f in factors)
    images.setflags(write=False)
    certificate = _certificate(source, samples, seed, "tensor" if exact else "sampled")
    return _certified(ChannelMap(source, target, *certificate, _images=images), tol)


def _chain(source, target, factors: tuple[ChannelMap, ...], tol: float, samples: int, seed) -> ChannelMap:
    """Validate explicit ``factors``, applied in order, into a chain.

    All exact factors give "structure".  Otherwise the chain takes the
    certificate an explicit channel on ``source`` would, sampling with
    ``samples``/``seed``.
    """
    exact = all(f.positivity_check in EXACT_CERTIFICATES for f in factors)
    certificate = ("structure", seed, samples) if exact else _certificate(source, samples, seed)
    return _validated(ChannelMap(source, target, *certificate, factors=factors), tol)


def _basis_run(space: MatrixSubspace, run: slice) -> np.ndarray:
    """Basis elements ``run`` of a span, without the whole stack of a unit span."""
    lo, hi, _ = run.indices(space.dim)
    return space.combine(np.eye(hi - lo, space.dim, k=lo, dtype=np.complex128))


def _validated(channel: ChannelMap, tol: float) -> ChannelMap:
    """Check a new channel's declared data, then certify it (``_certified``).

    A proper target tests the images a working set at a time
    (``chunks``): an explicit channel reads them from its stack, a chain
    ``apply``s runs of the source basis, so no chain forms its whole
    image stack here.  Then the image of I must be I.
    """
    source, target = channel.source, channel.target
    if not target.space.is_full:
        explicit = channel.factors is None
        for run in chunks(source.space.dim, target.dim**2):
            stack = channel._images[run] if explicit else channel.apply(_basis_run(source.space, run), tol)
            residuals = target.space.residuals(stack)
            outside = np.flatnonzero(residuals > tol)
            if outside.size:
                k = int(outside[0])
                raise ImageOutsideTarget(run.start + k, residuals[k], witness=stack[k].copy())

    unital_dev = max_abs(channel.apply(identity(source.dim), tol) - identity(target.dim))
    if unital_dev > tol:
        raise NotUnital(unital_dev)
    return _certified(channel, tol)


def _certified(channel: ChannelMap, tol: float) -> ChannelMap:
    """Run the certificate ``positivity_check`` names: "choi" reads the images
    of the matrix units, "sampled" applies the channel to one PSD stack drawn
    with the recorded samples and seed, and "structure" and "tensor" hold by
    how the channel was made."""
    source, target = channel.source, channel.target
    if channel.positivity_check == "choi":
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
    elif channel.positivity_check == "sampled":
        psd = psd_span_samples(
            source.space, count=channel.positivity_samples, seed=channel.positivity_seed, tol=tol
        )
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
    """The identity on a system: the empty chain, certified "structure".

    It records ``samples``/``seed``, so a composite that starts on it and
    has a sampled factor samples with them.
    """
    return _chain(system, system, (), tol, samples, seed)


def conjugation_channel(
    system: SemiQuantumSystem,
    u,
    target: SemiQuantumSystem | None = None,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> ChannelMap:
    """The one-Kraus channel a -> u a u^dag (u unitary); ``samples``/``seed`` as in ``kraus_channel``."""
    mat = as_operator(u)
    if not is_unitary(mat, tol):
        raise NotUnitary(max_abs(mat @ dagger(mat) - identity(mat.shape[0])))
    tgt = target if target is not None else system
    if mat.shape[0] != tgt.dim or mat.shape[0] != system.dim:
        raise DimensionError("conjugating unitary has the wrong dimension")
    return kraus_channel(system, tgt, [mat], tol, samples, seed)


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
    stack = np.stack(ops)[:, None]
    images = (stack @ source.space.basis_stack[None] @ dagger(stack)).sum(axis=0)
    return build_channel(source, target, images, tol, samples, seed)


def compose_channels(
    second: ChannelMap, first: ChannelMap, tol: float = DEFAULT_TOL
) -> ChannelMap:
    """The composite ``second after first``, as the flattened chain of their factors.

    No product of the two image stacks is formed: the composite applies
    ``first``'s factors and then ``second``'s, and builds its images on
    request.  It is "structure" when every factor is exact; otherwise it
    is certified as an explicit channel on ``first.source`` would be,
    with ``first``'s samples and seed.
    """
    if not same_system(first.target, second.source, tol):
        raise ObjectMismatch("channel composition endpoints do not match")
    factors = first._steps + second._steps
    return _chain(
        first.source, second.target, factors, tol, first.positivity_samples, first.positivity_seed
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
    elements in order.  The elements are taken a run at a time: the
    translates of the stack on both sides come from ``translates``, and
    the source ones go through one ``apply``.  The runs come from
    ``chunks`` with an explicit channel's images as the held array, so
    the table's temporaries grow with the channel, not with the group
    order, and a channel with small images takes the group in one run.
    A chain holds no images of its own and takes ``WORKING_SET`` runs.
    """
    src, tgt = channel.source.rep, channel.target.rep
    k = len(stack)
    table = np.empty((src.group.order, k))
    for run in chunks(src.group.order, k * max(src.dim, tgt.dim) ** 2, channel._images):
        moved = translates(src, stack, run).reshape(-1, src.dim, src.dim)
        mapped = channel.apply(moved, tol).reshape(-1, k, tgt.dim, tgt.dim)
        table[run] = np.abs(mapped - translates(tgt, images, run)).max(axis=(2, 3))
    return table


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


def predual_channel(channel: ChannelMap, t) -> np.ndarray:
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
    return StateClass(system=system, canonical=dagger(system.space.project(dagger(mat))))


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
