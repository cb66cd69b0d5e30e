"""catmn: a finite-category computation engine.

Build finite categories from explicit composition tables, construct
idempotent monads and comonads (notably the fiber-top and fiber-bottom
collapses of a fibered spec), verify reflective and coreflective
subcategories by exhaustive universal-property sweeps, assemble and check
the adjoint equivalence between the two fixed subcategories, and transport
the whole picture across contravariant equivalences.  Everything is
verified instance by instance; validators return reports naming every
violated axiom rather than raising.
"""

from .config import DEFAULT_MORPHISM_LIMIT, morphism_limit
from .core import (
    Category,
    Mor,
    full_subcategory,
    inverse_of,
    opposite,
    validate_category,
)
from .dot import render_dot, render_spec_dot
from .equivalence import (
    EquivalenceResult,
    MNPair,
    build_mn_equivalence,
    check_mn_hypotheses,
    make_mn_pair,
    verify_adjoint_equivalence,
    verify_factorizations,
)
from .errors import (
    EngineError,
    ExtremumError,
    InvalidArtifactError,
    LiftError,
    MismatchError,
    ParseError,
    SizeLimitError,
    UnknownMorphismError,
    UnknownObjectError,
)
from .fibered import (
    FiberPoset,
    FiberedSpec,
    SizeLimits,
    TotalCategory,
    build_final_monad,
    build_total_category,
    canonical_c2,
    chain_poset,
    collapse,
    poset_from_pairs,
    random_spec,
    terminal_spec,
    validate_spec,
)
from .functors import (
    Functor,
    NaturalTransformation,
    compose_functors,
    identity_functor,
    identity_nat,
    validate_contravariant,
    validate_functor,
    validate_nat,
)
from .monads import (
    COMONAD,
    MONAD,
    MonadDatum,
    ReflectionPackage,
    check_idempotent,
    fixed_objects,
    fixed_subcategory,
    verify_reflection,
)
from .report import ValidationReport, Violation
from .textio import (
    LoadedArtifact,
    artifact_doc,
    load_path,
    load_text,
    parse_json_text,
    parse_text,
    render_artifacts,
    render_category,
    render_json,
    render_spec,
    validator_for,
)
from .transport import (
    ContravariantEquivalence,
    TransportResult,
    induce,
    powerset_duality_demo,
    relabeled_opposite_equivalence,
    transport_pair,
    validate_equivalence,
    verify_transfer,
)

__version__ = "0.1.0"
