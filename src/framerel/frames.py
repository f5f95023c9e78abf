"""Covariant frame observables on finite groups, and morphisms between them.

A frame observable assigns one PSD effect to each group element so that
the effects sum to the identity and translate covariantly under the
frame's own representation: E(g h) = g.E(h).  Principal frames arise by
translating a single seed effect around the group; the canonical ideal
frame of a group puts the regular representation on C^|G| and seeds it
with the projection onto the identity basis vector, which makes every
effect a rank-1 projection.  A frame holds its effects once, as the
read-only (|G|, d, d) stack that relativization reads, and validates
them as a stack: positivity, value-span membership and the projection
test are one batched call each.

A frame morphism is a channel between the value systems that carries
the source effects exactly onto the target effects.  Such a channel is
automatically equivariant on the span of the source effects (this is
checked numerically anyway); equivariance on the whole value system is
neither checked nor assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EffectSpanNotEquivariant,
    FactorizationFails,
    FrameInvalid,
    GroupMismatch,
    NotAState,
    NotCentral,
    NotUnitary,
    ObjectMismatch,
    SeedNotNormalizing,
    SeedNotPSD,
)
from .groups import (
    FiniteGroup,
    UnitaryRep,
    act,
    regular_representation,
    same_group,
    same_rep,
    support_values,
    translates,
)
from .linalg import (
    DEFAULT_TOL,
    as_operator,
    dagger,
    hermitian_part,
    identity,
    is_density_matrix,
    is_psd,
    is_unitary,
    max_abs,
    min_eigenvalue,
)
from .systems import (
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
    """A covariant POVM over a finite group, effects indexed by element id.

    ``effects`` is one read-only (|G|, d, d) stack: E(g) is ``effects[g]``.
    """

    rep: UnitaryRep
    effects: np.ndarray
    value_system: SemiQuantumSystem
    is_ideal: bool

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    def effect(self, g: int) -> np.ndarray:
        return self.effects[g]


def _validate_frame(
    rep: UnitaryRep,
    effects: list[np.ndarray],
    value_system: SemiQuantumSystem,
    tol: float,
) -> tuple[np.ndarray, bool]:
    """The effects as one read-only stack, and whether they are all projections.

    Each test runs on the whole stack; a failure names the first failing
    element, positivity before membership, as a loop over them would.
    """
    group = rep.group
    if len(effects) != group.order:
        raise DimensionError(
            f"expected {group.order} effects, got {len(effects)}"
        )
    if value_system.dim != rep.dim or not same_group(value_system.group, group):
        raise ObjectMismatch("value system does not live on the frame representation")
    if not same_rep(value_system.rep, rep, tol):
        raise ObjectMismatch("value system carries a different action")
    for g, e in enumerate(effects):
        if e.shape[0] != rep.dim:
            raise DimensionError(
                f"effect {g} has dimension {e.shape[0]}, representation has {rep.dim}"
            )
    stack = np.stack(effects)
    stack.setflags(write=False)
    lows = np.linalg.eigvalsh(hermitian_part(stack))[:, 0]
    psd = (np.abs(stack - dagger(stack)).max(axis=(1, 2)) <= tol) & (lows >= -tol * rep.dim)
    inside = value_system.space.residuals(stack) <= tol
    bad = np.flatnonzero(~(psd & inside))
    if bad.size:
        g = int(bad[0])
        problem = "leaves the value system span" if psd[g] else "is not positive semidefinite"
        raise FrameInvalid(f"effect for element {group.label(g)} {problem}")
    dev = max_abs(sum(stack) - identity(rep.dim))
    if dev > tol:
        raise FrameInvalid(f"effects do not sum to the identity (deviation {dev:.3e})")
    if rep.perms is not None:
        # g.E(h) is E(h) with rows and columns permuted and scaled, so both
        # sides of E(gh) = g.E(h) vanish off the support's orbit: compare only there
        p = rep.perms
        support = np.any(stack != 0, axis=0)
        orbit = np.flatnonzero(support[p[:, :, None], p[:, None, :]].any(axis=0))
        flat = stack.reshape(len(stack), -1)
        values = flat[:, orbit]
        moved = lambda g: support_values(rep, flat, orbit, g)
    else:
        values = stack.reshape(len(stack), -1)
        moved = lambda g: act(rep, g, stack).reshape(len(stack), -1)
    for g in group.elements():
        devs = np.abs(values[group.mult[g]] - moved(g)).max(axis=1)
        bad = np.flatnonzero(devs > tol)
        if bad.size:
            h = int(bad[0])
            raise FrameInvalid(
                f"covariance fails at pair ({group.label(g)}, {group.label(h)}) "
                f"(deviation {devs[h]:.3e})"
            )
    return stack, bool(np.all(np.abs(stack @ stack - stack) <= tol))


def frame_from_effects(
    rep: UnitaryRep,
    effects,
    value_system: SemiQuantumSystem | None = None,
    tol: float = DEFAULT_TOL,
) -> FrameObservable:
    """Validate an explicit effect family into a frame observable."""
    effs = [as_operator(e) for e in effects]
    vs = value_system if value_system is not None else full_system(rep, tol)
    stack, ideal = _validate_frame(rep, effs, vs, tol)
    return FrameObservable(rep=rep, effects=stack, value_system=vs, is_ideal=ideal)


def principal_frame_from_seed(
    rep: UnitaryRep,
    seed,
    value_system: SemiQuantumSystem | None = None,
    tol: float = DEFAULT_TOL,
) -> FrameObservable:
    """Frame whose effects are the group translates of one seed effect."""
    s = as_operator(seed)
    if s.shape[0] != rep.dim:
        raise DimensionError(
            f"seed of dimension {s.shape[0]} for a dimension-{rep.dim} representation"
        )
    if not is_psd(s, tol):
        raise SeedNotPSD(min_eigenvalue(s))
    effects = list(translates(rep, s))
    total = sum(effects)
    dev = max_abs(total - identity(rep.dim))
    if dev > tol:
        raise SeedNotNormalizing(dev)
    vs = value_system if value_system is not None else full_system(rep, tol)
    stack, ideal = _validate_frame(rep, effects, vs, tol)
    return FrameObservable(rep=rep, effects=stack, value_system=vs, is_ideal=ideal)


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
    values = np.array([np.trace(rho @ e) for e in frame.effects])
    if max_abs(values.imag) > tol * frame.rep.dim:
        raise FrameInvalid("Born weights acquired an imaginary part")
    return values.real.copy()


def same_frame(a: FrameObservable, b: FrameObservable, tol: float = DEFAULT_TOL) -> bool:
    if a is b:
        return True
    return same_rep(a.rep, b.rep, tol) and max_abs(a.effects - b.effects) <= tol


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
    """Validate the factorization target.E(g) = channel(source.E(g)) for all g."""
    if not same_group(source.group, target.group):
        raise GroupMismatch("frame morphism endpoints live over different groups")
    if not same_system(channel.source, source.value_system, tol):
        raise ObjectMismatch("channel source is not the source value system")
    if not same_system(channel.target, target.value_system, tol):
        raise ObjectMismatch("channel target is not the target value system")
    images = channel.apply(source.effects, tol)
    devs = np.abs(images - target.effects).max(axis=(1, 2))
    bad = np.flatnonzero(devs > tol)
    if bad.size:
        g = int(bad[0])
        raise FactorizationFails(g, float(devs[g]), label=source.group.label(g))
    # Equivariance on the effect span is forced by factorization and
    # covariance; verify it numerically on the effects themselves.
    worst = _equivariance_table(channel, source.effects, images, tol).max(axis=1)
    bad = np.flatnonzero(worst > tol)
    if bad.size:
        raise EffectSpanNotEquivariant(int(bad[0]), float(worst[bad[0]]))
    return FrameMorphism(source=source, target=target, channel=channel)


def identity_frame_morphism(frame: FrameObservable, tol: float = DEFAULT_TOL) -> FrameMorphism:
    return build_frame_morphism(
        frame, frame, identity_channel(frame.value_system, tol), tol
    )


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

    The value-system channel is conjugation by U(h).  For non-central h
    the translated family is no longer covariant and NotCentral is
    raised; centrality itself is not tested directly, so a non-faithful
    action that stays covariant is accepted.
    """
    group = frame.group
    if not 0 <= h < group.order:
        raise DimensionError(f"element id {h} outside 0..{group.order - 1}")
    vs = frame.value_system
    images = [act(frame.rep, h, b) for b in vs.space.basis]
    channel = build_channel(vs, vs, images, tol)
    translated = act(frame.rep, h, frame.effects)
    try:
        target = frame_from_effects(frame.rep, translated, vs, tol)
    except FrameInvalid as exc:
        raise NotCentral(h) from exc
    return build_frame_morphism(frame, target, channel, tol)


@dataclass(frozen=True)
class FrameIsomorphismReport:
    isomorphic: bool
    forward_deviation: float
    inverse_deviation: float
    detail: str


def frames_isomorphic_by(
    f1: FrameObservable,
    f2: FrameObservable,
    t,
    tol: float = DEFAULT_TOL,
) -> FrameIsomorphismReport:
    """Check whether conjugation by the unitary t is a frame isomorphism.

    Verification only: confirms a -> t a t^dag carries f1's effects onto
    f2's and its inverse carries them back.  No search is attempted.
    """
    mat = as_operator(t)
    if not is_unitary(mat, tol):
        raise NotUnitary(max_abs(mat @ dagger(mat) - identity(mat.shape[0])))
    if not same_group(f1.group, f2.group):
        raise GroupMismatch("frames live over different groups")
    if mat.shape[0] != f1.rep.dim or f1.rep.dim != f2.rep.dim:
        raise DimensionError("conjugating unitary has the wrong dimension")
    fwd = max_abs(mat @ f1.effects @ dagger(mat) - f2.effects)
    inv = max_abs(dagger(mat) @ f2.effects @ mat - f1.effects)
    ok = fwd <= tol and inv <= tol
    detail = "isomorphism verified" if ok else "effects do not correspond under t"
    return FrameIsomorphismReport(
        isomorphic=ok, forward_deviation=fwd, inverse_deviation=inv, detail=detail
    )
