"""exactcat: a computational workbench for exact categories.

Concrete model categories built on exact integer linear algebra, generic
diagram constructions (pushouts, snake lemma, resolutions, derived
functors, idempotent completion), and a randomized law harness that
verifies the axioms on generated instances.
"""

from .intlinalg import (
    IntMatrix,
    SmithDecomposition,
    lattice_contains,
    smith_normal_form,
    solve_columns_mod_lattice,
    solve_integer,
)
from .kernel import (
    Analysis,
    ComposabilityError,
    ExactCatError,
    ExactStructureModel,
    GenBounds,
    InternalCheckError,
    IsoInvariants,
    ModelMismatch,
    MorphismHandle,
    NotAdmissible,
    ObjectAbsent,
    ObjectHandle,
    PreconditionError,
    ShortExactSequence,
    analyze,
    biproduct,
    cokernel,
    is_admissible_epic,
    is_admissible_monic,
    is_short_exact,
    kernel,
    pullback_along_epic,
    pushout_along_monic,
    ses,
)
from .models import (
    PresentedObject,
    cyclic,
    even_rank_split,
    fgab,
    fgab_object,
    fgab_split,
    free,
    free_exact,
    free_split,
    is_projective,
    iso_invariants,
    projective_cover_epi,
    random_admissible,
    random_morphism,
    random_object,
    random_ses,
    vect,
    vect_model,
)
from .diagrams import (
    Grid3x3,
    KerCokerResult,
    SesMorphism,
    SnakeResult,
    factor_ses_morphism,
    five_lemma_verify,
    ker_coker_sequence,
    long_five_verify,
    noether_third_column,
    ses_morphism,
    snake,
    three_by_three,
)
from .complexes import (
    AcyclicityCertificate,
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    chain_complex,
    chain_map,
    check_cone_acyclic,
    find_null_homotopy,
    homology,
    is_acyclic,
    is_quasi_iso,
    mapping_cone,
    strict_triangle,
    translate,
)
from .resolutions import (
    DerivedFunctorResult,
    FunctorSpec,
    Resolution,
    compare_lift,
    derived,
    derived_les,
    horseshoe,
    lift_homotopy,
    projective_replacement,
    projective_resolution,
)
from .completion import (
    CompletionObject,
    complete,
    extend_functor,
    retraction_kernel_probe,
    split_idempotent,
)
from .laws import LawConfig, LawReport, check_axioms, check_heller, run_suites

__version__ = "0.1.0"
