"""Exception taxonomy for the engine.

Two branches matter to callers.  ``EngineError`` marks structural
problems that make a request unexecutable: bad dimensions, invalid
declarations, unresolved references.  ``LawViolation`` marks the
mathematical failures this package exists to surface: a morphism that
does not factorize, an induced map that is not well defined, a channel
that is not equivariant where equivariance is required.  The scenario
runner turns the former into ``error`` report entries and the latter
into ``fail`` entries; anything raised while *declaring* objects
(groups, reps, frames, channels) aborts parsing instead.

Witness payloads ride on attributes so reports can quote them.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping


class FramerelError(Exception):
    """Base class for every error raised by this package."""


class EngineError(FramerelError):
    """A request that cannot be executed as posed."""


class LawViolation(FramerelError):
    """A checked mathematical law does not hold: its size ``deviation``, the
    group ``element`` where it shows (each None when the law has none) and
    the ``witnesses`` that exhibit it, by name."""

    deviation: float | None = None
    element: int | None = None
    witnesses: Mapping[str, Any] = MappingProxyType({})


# ---------------------------------------------------------------- structure


class DimensionError(EngineError):
    """Shapes or dimensions are inconsistent."""


class GroupMismatch(EngineError):
    """Two objects that must share a group do not."""


class ObjectMismatch(EngineError):
    """Composition endpoints (frames, systems) do not line up."""


class RequiresFullAlgebra(EngineError):
    """The operation is only defined on full matrix algebras."""


class UnknownFormat(EngineError):
    """Unrecognized report format name."""


# ---------------------------------------------------------------- groups


class NotAssociative(EngineError):
    def __init__(self, triple):
        self.triple = tuple(int(x) for x in triple)
        super().__init__(
            f"multiplication table is not associative at triple {self.triple}"
        )


class NoIdentity(EngineError):
    def __init__(self, detail="no two-sided identity element found"):
        super().__init__(detail)


class NoInverse(EngineError):
    def __init__(self, element):
        self.element = int(element)
        super().__init__(f"element {self.element} has no two-sided inverse")


class InvalidRepresentation(EngineError):
    """A matrix assignment fails unitarity, identity or homomorphism."""

    def __init__(self, reason, element=None, deviation=None):
        self.element = element
        self.deviation = deviation
        msg = reason
        if element is not None:
            msg += f" (element {element})"
        if deviation is not None:
            msg += f", deviation {deviation:.3e}"
        super().__init__(msg)


# ---------------------------------------------------------------- systems


class NotUnital(EngineError):
    def __init__(self, deviation):
        self.deviation = float(deviation)
        super().__init__(f"channel is not unital, deviation {self.deviation:.3e}")


class NotPositive(EngineError):
    def __init__(self, detail, witness=None, min_eigenvalue=None):
        self.witness = witness
        self.min_eigenvalue = min_eigenvalue
        super().__init__(detail)


class ImageOutsideTarget(EngineError):
    def __init__(self, index, residual, witness=None):
        self.index = int(index)
        self.residual = float(residual)
        self.witness = witness
        super().__init__(
            f"image of basis element {self.index} leaves the target span "
            f"(residual {self.residual:.3e})"
        )


class NotAState(EngineError):
    def __init__(self, detail):
        super().__init__(detail)


class NotUnitary(EngineError):
    def __init__(self, deviation):
        self.deviation = float(deviation)
        super().__init__(f"matrix is not unitary, deviation {self.deviation:.3e}")


class OperatorOutsideSystem(EngineError):
    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(
            f"operator is not in the system span (residual {self.residual:.3e})"
        )


# ---------------------------------------------------------------- frames


class SeedNotPSD(EngineError):
    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"seed effect is not positive semidefinite "
            f"(minimum eigenvalue {self.min_eigenvalue:.3e})"
        )


class SeedNotNormalizing(EngineError):
    def __init__(self, deviation):
        self.deviation = float(deviation)
        super().__init__(
            f"orbit of the seed does not sum to the identity "
            f"(deviation {self.deviation:.3e})"
        )


class FrameInvalid(EngineError):
    """A declared frame violates a frame invariant (covariance, PSD, ...)."""

    def __init__(self, reason):
        super().__init__(reason)


class FactorizationFails(LawViolation):
    def __init__(self, element, deviation, label=None):
        self.element = int(element)
        self.deviation = float(deviation)
        shown = label if label is not None else str(self.element)
        super().__init__(
            f"channel does not map the source effect for element {shown} to the "
            f"target effect (deviation {self.deviation:.3e})"
        )


class EffectSpanNotEquivariant(LawViolation):
    def __init__(self, element, deviation):
        self.element = int(element)
        self.deviation = float(deviation)
        super().__init__(
            f"channel fails equivariance on the effect span at group element "
            f"{self.element} (deviation {self.deviation:.3e})"
        )


class NotCentral(LawViolation):
    def __init__(self, element):
        self.element = int(element)
        super().__init__(
            f"reorientation by non-central element {self.element}: the induced "
            f"effect family is not covariant"
        )


# ---------------------------------------------------------------- relativization


class IllDefined(LawViolation):
    """The induced map on relative observables is not well defined."""

    def __init__(self, kernel_witness, image_norm):
        self.kernel_witness = kernel_witness
        self.image_norm = self.deviation = float(image_norm)
        self.witnesses = {"kernel_witness": kernel_witness}
        super().__init__(
            f"kernel element maps to a nonzero relative observable "
            f"(norm {self.image_norm:.3e}); the induced map is not well defined"
        )


class ChannelNotEquivariant(LawViolation):
    def __init__(self, element, deviation, witness=None):
        self.element = int(element)
        self.deviation = float(deviation)
        self.witness = witness
        self.witnesses = {} if witness is None else {"witness": witness}
        super().__init__(
            f"channel is not equivariant at group element {self.element} "
            f"(deviation {self.deviation:.3e})"
        )


# ---------------------------------------------------------------- scenarios


class ScenarioError(EngineError):
    """Base for scenario file problems."""


class ScenarioSyntaxError(ScenarioError):
    def __init__(self, detail, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            detail = f"{detail} (line {line}, column {column})"
        super().__init__(detail)


class UnknownReference(ScenarioError):
    def __init__(self, name, section=None):
        self.name = name
        self.section = section
        where = f" in {section}" if section else ""
        super().__init__(f"reference to undeclared name '{name}'{where}")


class DimensionMismatch(ScenarioError):
    def __init__(self, context):
        super().__init__(f"dimension mismatch: {context}")


class ScenarioValidationError(ScenarioError):
    """A declared object failed eager validation; wraps the original error."""

    def __init__(self, section, name, original):
        self.section = section
        self.name = name
        self.original = original
        super().__init__(f"{section} '{name}': {original}")
