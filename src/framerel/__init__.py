"""Operational relativization of observables against quantum reference frames.

Finite groups, unitary representations, covariant frame observables,
semi-quantum systems, and the relativization map that turns a system
observable into a joint frame-and-system observable — together with the
induced maps between relative subspaces, their functor laws, preduals
on states, and a scenario runner that checks all of it numerically.
"""

from .errors import (
    ChannelNotEquivariant,
    DimensionError,
    EffectSpanNotEquivariant,
    EngineError,
    FactorizationFails,
    FrameInvalid,
    FramerelError,
    GroupMismatch,
    IllDefined,
    LawViolation,
    NotAState,
    NotCentral,
    NotPositive,
    NotUnital,
    ObjectMismatch,
    OperatorOutsideSystem,
    RequiresFullAlgebra,
    ScenarioError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownReference,
)
from .frames import (
    FrameMorphism,
    FrameObservable,
    born_measure,
    build_frame_morphism,
    canonical_ideal_frame,
    compose_frame_morphisms,
    frame_from_effects,
    identity_frame_morphism,
    principal_frame_from_seed,
    reorientation_morphism,
    same_frame,
)
from .groups import (
    FiniteGroup,
    UnitaryRep,
    act,
    build_cyclic_group,
    build_group_from_table,
    build_symmetric_group,
    regular_representation,
    same_group,
    same_rep,
    tensor_rep,
    trivial_rep,
    unitary_rep,
)
from .linalg import DEFAULT_TOL, MatrixSubspace, matrix_unit_span, span_subspace
from .relativize import (
    LawReport,
    RelativeChannel,
    RelativeSubspace,
    RelativizationMap,
    Workspace,
    build_relative_subspace,
    check_channel_axioms,
    check_equivariant_tensor_form,
    check_functor_laws,
    check_ideal_isomorphism,
    check_naturality,
    external_frame_transform,
    predual_relativize,
    product_relative_state,
    relativization_map,
    relativize,
    relativize_morphisms,
)
from .runner import RunReport, TaskResult, emit_report, run_scenario
from .scenario import (
    ScenarioSpec,
    ScenarioTask,
    decode_matrix,
    encode_matrix,
    parse_scenario,
    serialize_scenario,
)
from .systems import (
    ChannelMap,
    SemiQuantumSystem,
    StateClass,
    build_channel,
    compose_channels,
    conjugation_channel,
    full_system,
    identity_channel,
    invariant_subalgebra,
    is_equivariant,
    is_invariant,
    is_vn_algebra,
    kraus_channel,
    predual_channel,
    quotient_dimension,
    state_class,
    subspace_system,
    system_from_subspace,
)

__version__ = "0.1.0"
