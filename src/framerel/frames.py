"""Covariant frame observables on finite groups, and morphisms between them.

A frame observable assigns one PSD effect to each group element so that
the effects sum to the identity and translate covariantly under the
frame's own representation: E(g h) = g.E(h).  At h = e that reads
E(g) = g.E(e), so every frame is principal and is held as its seed E(e);
the canonical ideal frame seeds the regular representation with the
projection onto the identity basis vector.  Conjugation preserves
positivity and projections, and a system span is closed under the
action, so a seed alone is validated: PSD, in the value span, its
translates summing to I on the orbit of its support (``groups``'
``support_orbit`` and ``moved_on_support``, whatever the rep's storage),
covariance on the generators first under the rule of ``groups`` (the
loop over every pair only when the bound exceeds the tolerance), and
ideal iff E(e)^2 = E(e).  An explicit family is first validated as a
stack.  Every reader goes through the seed (or its effect blocks), a
working set of elements at a time; no function of the package reads the
(|G|, d, d) ``effects`` stack.

A frame morphism is a channel between the value systems that carries
the source effects exactly onto the target effects.  Such a channel is
automatically equivariant on the span of the source effects: by
linearity, phi(g.E(h)) - g.phi(E(h)) is made of the factorization
residual and the two frames' covariance defects, so the residual, the
covariance the frames stored and the channel's ``hs_gain`` bound it, and
the element table runs only when that bound exceeds the tolerance.  Equivariance on the whole value
system is neither checked nor assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    EffectSpanNotEquivariant,
    FactorizationFails,
    FrameInvalid,
    GroupMismatch,
    NotAState,
    NotCentral,
    ObjectMismatch,
    SeedNotNormalizing,
    SeedNotPSD,
)
from .groups import (
    FiniteGroup,
    UnitaryRep,
    act,
    moved_on_support,
    regular_representation,
    same_group,
    same_rep,
    support_orbit,
    translates,
    word_bound,
)
from .linalg import (
    DEFAULT_TOL,
    as_operator,
    block_partition,
    chunks,
    dagger,
    hermitian_part,
    hs_norms,
    identity,
    is_density_matrix,
    is_psd,
    max_abs,
    min_eigenvalue,
    support_gather,
)
from .systems import (
    DEFAULT_POSITIVITY_SAMPLES,
    DEFAULT_POSITIVITY_SEED,
    ChannelMap,
    SemiQuantumSystem,
    _equivariance_table,
    build_channel,
    compose_channels,
    full_system,
    identity_channel,
    same_system,
)


@dataclass(frozen=True, eq=False)
class FrameObservable:
    """A covariant POVM over a finite group, held as its seed E(e): covariance
    at h = e gives E(g) = g.E(e), so only the seed is validated (module
    docstring).  ``components`` is ``block_partition`` of the effects' union
    support, and ``effect_blocks`` holds every E(g) on its diagonal blocks, one
    (|G|, m c^2) array per block size c, as ``act`` computes them.
    ``covariance``, measured on the generators s, is the largest
    ||E(s h) - s.E(h)||_HS and the largest ||E(h)||_HS.  The frame keeps
    nothing else: ``effects`` builds the whole stack anew on each request.
    """

    rep: UnitaryRep
    seed: np.ndarray
    value_system: SemiQuantumSystem
    is_ideal: bool
    covariance: tuple[float, float]
    components: tuple[np.ndarray, ...] = field(repr=False)
    effect_blocks: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    @property
    def effects(self) -> np.ndarray:
        """The read-only (|G|, d, d) stack ``translates(rep, seed)``, built anew on each request."""
        stack = translates(self.rep, self.seed)
        stack.setflags(write=False)
        return stack


def _orbit(rep: UnitaryRep, stack) -> tuple[np.ndarray, np.ndarray]:
    """``(entries, values)``: the ``support_orbit`` of a (k, d, d) stack's
    union support, and the stack's (k, m) values there."""
    flat = stack.reshape(len(stack), -1)
    entries = support_orbit(rep, np.flatnonzero(np.any(flat != 0, axis=0)))
    return entries, flat[:, entries]


def _covariance_on_generators(rep: UnitaryRep, entries, values) -> tuple[float, float]:
    """eps, the largest ||E(s h) - s.E(h)|| over the generators s, and the largest
    ||E(h)||, both HS, from the effects' ``values`` on ``entries`` (``_orbit``).
    E(gh) - g.E(h) telescopes along g's word, g = p s: E(p (s h)) - p.E(s h) +
    p.(E(s h) - s.E(h)), so every pair deviates by at most ``word_bound(rep,
    eps, max_h ||E(h)||_HS)``; when that exceeds ``tol``, ``_covariance_loop`` decides."""
    gens = np.array(rep.group.generators, dtype=np.int64)
    gaps = values[rep.group.mult[gens]] - moved_on_support(rep, values, entries, gens)[0]
    return float(hs_norms(gaps.reshape(-1, len(entries))).max(initial=0.0)), float(hs_norms(values).max())


def _covariance_loop(rep: UnitaryRep, entries, values, tol: float) -> None:
    """Raise FrameInvalid at the first pair (g, h), in element order, where
    |E(g h) - g.E(h)| exceeds ``tol`` entrywise, the elements g a ``chunks``
    run at a time."""
    group = rep.group
    for run in chunks(group.order, values.size):
        devs = np.abs(values[group.mult[run]] - moved_on_support(rep, values, entries, run)[0]).max(axis=2)
        bad = np.argwhere(devs > tol)
        if bad.size:
            g, h = (int(k) for k in bad[0])
            raise FrameInvalid(
                f"covariance fails at pair ({group.label(run.start + g)}, {group.label(h)}) "
                f"(deviation {devs[g, h]:.3e})"
            )


def _check_value_system(rep: UnitaryRep, value_system: SemiQuantumSystem, tol: float) -> None:
    if value_system.dim != rep.dim or not same_group(value_system.group, rep.group):
        raise ObjectMismatch("value system does not live on the frame representation")
    if not same_rep(value_system.rep, rep, tol):
        raise ObjectMismatch("value system carries a different action")


def _seed_orbit(rep: UnitaryRep, seed) -> tuple[np.ndarray, np.ndarray]:
    """``(entries, values)``: ``_orbit`` of the seed and its translates there, (|G|, m)."""
    entries, values = _orbit(rep, seed[None])
    return entries, moved_on_support(rep, values, entries)[0][:, 0]


def _seed_frame(rep: UnitaryRep, seed, value_system, tol: float, entries, values):
    """The frame of ``seed`` from its ``_seed_orbit``, ideal iff seed^2 = seed on its blocks."""
    seed.setflags(write=False)
    blocks = (seed[c[:, :, None], c[:, None, :]] for c in block_partition(seed != 0))
    ideal = all(max_abs(b @ b - b) <= tol for b in blocks)
    covariance = _covariance_on_generators(rep, entries, values)
    support = np.zeros(rep.dim**2, dtype=bool)
    support[entries] = np.any(values != 0, axis=0)
    components = block_partition(support.reshape(rep.dim, rep.dim))
    flat = ((c[:, :, None] * rep.dim + c[:, None, :]).ravel() for c in components)
    effect_blocks = tuple(support_gather(values, entries, f) for f in flat)
    return FrameObservable(rep, seed, value_system, ideal, covariance, components, effect_blocks)


def frame_from_effects(
    rep: UnitaryRep,
    effects,
    value_system: SemiQuantumSystem | None = None,
    tol: float = DEFAULT_TOL,
) -> FrameObservable:
    """Validate an explicit effect family into a frame observable.

    A failure names the first failing element, positivity before membership,
    then the sum and covariance.  Covariance at h = e is effects[g] =
    g.effects[e] within ``tol``, so the frame keeps effects[e] alone."""
    effs = [as_operator(e) for e in effects]
    vs = value_system if value_system is not None else full_system(rep, tol)
    if len(effs) != rep.group.order:
        raise DimensionError(f"expected {rep.group.order} effects, got {len(effs)}")
    _check_value_system(rep, vs, tol)
    for g, e in enumerate(effs):
        if e.shape[0] != rep.dim:
            raise DimensionError(f"effect {g} has dimension {e.shape[0]}, representation has {rep.dim}")
    stack = np.stack(effs)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        g = int(np.argmin(finite))
        raise FrameInvalid(f"effect for element {rep.group.label(g)} has a non-finite entry")
    lows = np.linalg.eigvalsh(hermitian_part(stack))[:, 0]
    psd = (np.abs(stack - dagger(stack)).max(axis=(1, 2)) <= tol) & (lows >= -tol * rep.dim)
    bad = np.flatnonzero(~(psd & (vs.space.residuals(stack) <= tol)))
    if bad.size:
        g = int(bad[0])
        problem = "leaves the value system span" if psd[g] else "is not positive semidefinite"
        raise FrameInvalid(f"effect for element {rep.group.label(g)} {problem}")
    dev = max_abs(sum(stack) - identity(rep.dim))
    if dev > tol:
        raise FrameInvalid(f"effects do not sum to the identity (deviation {dev:.3e})")
    orbit = _orbit(rep, stack)
    if word_bound(rep, *_covariance_on_generators(rep, *orbit)) > tol:
        _covariance_loop(rep, *orbit, tol)
    seed = stack[rep.group.identity].copy()
    return _seed_frame(rep, seed, vs, tol, *_seed_orbit(rep, seed))


def principal_frame_from_seed(
    rep: UnitaryRep,
    seed,
    value_system: SemiQuantumSystem | None = None,
    tol: float = DEFAULT_TOL,
) -> FrameObservable:
    """Frame of the translates of one seed effect, validated on the seed (module docstring)."""
    s = as_operator(seed).copy()
    if s.shape[0] != rep.dim:
        raise DimensionError(
            f"seed of dimension {s.shape[0]} for a dimension-{rep.dim} representation"
        )
    if not np.isfinite(s).all():
        raise FrameInvalid("seed effect has a non-finite entry")
    if not is_psd(s, tol):
        raise SeedNotPSD(min_eigenvalue(s))
    (entries, values), total = _seed_orbit(rep, s), np.zeros(rep.dim**2, dtype=np.complex128)
    total[entries] = values.sum(axis=0)  # row by row, as a sum over the effects
    dev = max_abs(total.reshape(rep.dim, rep.dim) - identity(rep.dim))
    if dev > tol:
        raise SeedNotNormalizing(dev)
    vs = value_system if value_system is not None else full_system(rep, tol)
    _check_value_system(rep, vs, tol)
    if vs.space.residuals(s[None])[0] > tol:
        raise FrameInvalid(f"effect for element {rep.group.label(rep.group.identity)} leaves the value system span")
    frame = _seed_frame(rep, s, vs, tol, entries, values)
    if word_bound(rep, *frame.covariance) > tol:
        _covariance_loop(rep, entries, values, tol)
    return frame


def canonical_ideal_frame(group: FiniteGroup, tol: float = DEFAULT_TOL) -> FrameObservable:
    """Regular representation seeded at the identity basis projection."""
    rep = regular_representation(group)
    seed = np.zeros((group.order, group.order), dtype=np.complex128)
    seed[group.identity, group.identity] = 1.0
    return principal_frame_from_seed(rep, seed, tol=tol)


def born_measure(frame: FrameObservable, omega, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Outcome distribution p[g] = tr[omega E(g)] of the frame on a state."""
    rho = as_operator(omega)
    if rho.shape[0] != frame.rep.dim:
        raise NotAState(
            f"state has dimension {rho.shape[0]}, frame has {frame.rep.dim}"
        )
    if not is_density_matrix(rho, tol):
        raise NotAState("frame state is not a density matrix")
    # tr[rho E] sums E[j, i] rho[i, j], and every E(g) vanishes off its blocks
    t, blocks = rho.T, zip(frame.components, frame.effect_blocks)
    values = sum(w @ t[c[:, :, None], c[:, None, :]].ravel() for c, w in blocks)
    if max_abs(values.imag) > tol * frame.rep.dim:
        raise FrameInvalid("Born weights acquired an imaginary part")
    return values.real.copy()


def same_frame(a: FrameObservable, b: FrameObservable, tol: float = DEFAULT_TOL) -> bool:
    """Equal reps within ``tol``, and every E(g) - E'(g) = g.(E(e) - E'(e))
    within ``tol`` entrywise: ``moved_on_support`` of the seeds' difference,
    a working set of elements at a time."""
    if a is b:
        return True
    if not same_rep(a.rep, b.rep, tol):
        return False
    gap = (a.seed - b.seed).ravel()
    support = np.flatnonzero(gap)
    for run in chunks(a.group.order, len(support)):
        inside, outside = moved_on_support(a.rep, gap[None, support], support, run)
        if max(max_abs(inside), max_abs(outside)) > tol:
            return False
    return True


# ------------------------------------------------------------------- morphisms


@dataclass(frozen=True, eq=False)
class FrameMorphism:
    """A value-system channel that factors the target frame through the source."""

    source: FrameObservable
    target: FrameObservable
    channel: ChannelMap

    @property
    def group(self) -> FiniteGroup:
        return self.source.group


def build_frame_morphism(
    source: FrameObservable,
    target: FrameObservable,
    channel: ChannelMap,
    tol: float = DEFAULT_TOL,
) -> FrameMorphism:
    """Validate the factorization target.E(g) = channel(source.E(g)) for all g.

    Then the channel must be equivariant on the source effects:
    |channel(g.E(h)) - g.channel(E(h))| <= ``tol`` entrywise for every g
    and h.  The factorization residual and the two frames' covariance
    bound that first (``_equivariant_on_generators``); only a bound above
    ``tol`` builds the element table, and EffectSpanNotEquivariant names
    its first failing element.  The effects are the seeds' translates, a
    ``chunks`` run of elements at a time, with one ``apply`` per run.
    """
    if not same_group(source.group, target.group):
        raise GroupMismatch("frame morphism endpoints live over different groups")
    if not same_system(channel.source, source.value_system, tol):
        raise ObjectMismatch("channel source is not the source value system")
    if not same_system(channel.target, target.value_system, tol):
        raise ObjectMismatch("channel target is not the target value system")
    order, space = source.group.order, channel.source.space
    devs, norms, outside = np.empty(order), np.empty(order), np.empty(order)
    for run in chunks(order, max(source.rep.dim, target.rep.dim) ** 2):
        effects = translates(source.rep, source.seed, run)
        residual = channel.apply(effects, tol) - translates(target.rep, target.seed, run)
        devs[run] = np.abs(residual).max(axis=(1, 2))
        norms[run] = hs_norms(residual)
        outside[run] = space.residuals(effects)
    bad = np.flatnonzero(devs > tol)
    if bad.size:
        g = int(bad[0])
        raise FactorizationFails(g, float(devs[g]), label=source.group.label(g))
    if not _equivariant_on_generators(source, target, channel, norms.max(), outside.max(), tol):
        effects = translates(source.rep, source.seed)
        worst = _equivariance_table(channel, effects, channel.apply(effects, tol), tol).max(axis=1)
        bad = np.flatnonzero(worst > tol)
        if bad.size:
            raise EffectSpanNotEquivariant(int(bad[0]), float(worst[bad[0]]))
    return FrameMorphism(source=source, target=target, channel=channel)


def _covariance_bound(frame: FrameObservable, rep: UnitaryRep) -> float:
    """C >= ||g.E(h) - E(gh)||_HS for every g and h, g acting by ``rep``: the
    ``word_bound`` of the frame's ``covariance``, measured again when
    ``rep`` is not the frame's own object, on the effects' values over the
    ``rep`` orbit of the entries where some effect is nonzero."""
    if rep is frame.rep:
        return word_bound(rep, *frame.covariance)
    entries, values = _seed_orbit(frame.rep, frame.seed)
    orbit = support_orbit(rep, entries[np.any(values != 0, axis=0)])
    return word_bound(rep, *_covariance_on_generators(rep, orbit, support_gather(values, entries, orbit)))


def _equivariant_on_generators(
    source: FrameObservable, target: FrameObservable, channel: ChannelMap, residual, outside, tol: float
) -> bool:
    """True when factorization and covariance prove every entry of
    ``_equivariance_table`` <= ``tol``, from the largest HS norm of the
    factorization residual and the largest span residual of a source effect.

    With the factorization residual f(k) = phi(E(k)) - E'(k) and the
    covariance defects c(g, h) = g.E(h) - E(gh), c'(g, h) = g.E'(h) -
    E'(gh), linearity gives phi(g.E(h)) - g.phi(E(h)) = f(gh) - g.f(h) +
    phi(c(g, h)) - c'(g, h).  In HS norm, which bounds every entry,
    ||g.f|| <= r^2 ||f|| with r = nu^L + D >= ||U'(g)||_op from the target
    rep's ``word_constants``, ||phi(c)|| <= Phi ||c|| (``ChannelMap.hs_gain``), and
    ||c||, ||c'|| <= C, C' (``_covariance_bound``, from the generators).
    So every entry is at most (1 + r^2) max ||f|| + Phi C + C'.  A proper
    source also needs every g.E(h) inside its span, as ``apply`` checks:
    its residual is at most E(gh)'s own plus C.
    """
    src, tgt = channel.source.rep, channel.target.rep
    gap = _covariance_bound(source, src)
    if not channel.source.space.is_full and outside + gap > tol:
        return False
    nu, defect = tgt.word_constants
    reach = nu**tgt.group.word_length + defect
    factor = (1 + reach**2) * residual
    return factor + channel.hs_gain() * gap + _covariance_bound(target, tgt) <= tol


def identity_frame_morphism(
    frame: FrameObservable,
    tol: float = DEFAULT_TOL,
    samples: int = DEFAULT_POSITIVITY_SAMPLES,
    seed: int = DEFAULT_POSITIVITY_SEED,
) -> FrameMorphism:
    """The identity on a frame; ``samples``/``seed`` as in ``identity_channel``.

    The identity channel carries every effect onto itself, so the
    factorization holds by construction and is not validated again.
    """
    return FrameMorphism(frame, frame, identity_channel(frame.value_system, tol, samples, seed))


def compose_frame_morphisms(
    first: FrameMorphism, second: FrameMorphism, tol: float = DEFAULT_TOL
) -> FrameMorphism:
    """Composite morphism applying ``first`` and then ``second``."""
    if not same_frame(first.target, second.source, tol):
        raise ObjectMismatch("frame morphism composition endpoints do not match")
    channel = compose_channels(second.channel, first.channel, tol)
    return build_frame_morphism(first.source, second.target, channel, tol)


def reorientation_morphism(
    frame: FrameObservable, h: int, tol: float = DEFAULT_TOL
) -> FrameMorphism:
    """Translate a frame by a central element h: effects E'(g) = E(h g).

    The value-system channel is conjugation by U(h), which carries E(g) to
    h.E(g) = E(h g).  The target is the principal frame of the seed h.E(e)
    = E(h), whose effects are g.E(h) = E(g h); the factorization check
    compares the two, so for non-central h it fails and NotCentral is
    raised.  Centrality itself is not tested directly, so a non-faithful
    action with E(h g) = E(g h) for every g is accepted.
    """
    group = frame.group
    if not 0 <= h < group.order:
        raise DimensionError(f"element id {h} outside 0..{group.order - 1}")
    vs = frame.value_system
    channel = build_channel(vs, vs, act(frame.rep, h, vs.space.basis_stack), tol)
    target = principal_frame_from_seed(frame.rep, act(frame.rep, h, frame.seed), vs, tol)
    try:
        return build_frame_morphism(frame, target, channel, tol)
    except FactorizationFails as exc:
        raise NotCentral(h) from exc
