"""Exact calculus of partial compositions over pluggable coefficient rings.

Two interchangeable element representations:

- the endomorphism backend stores degree-n elements as dense (n+1)-index
  tables over a prime field or the integers,
- the free backend stores formal linear combinations of planar rooted trees
  over a generator signature and evaluates them into tables on demand.

On top of either one the package builds the cup product, total composition,
bracket, coboundary, the braces h{f_1, ..., f_n} of any arity, their
coboundary deviations, and the auxiliary boundary families, together with a registry
of randomized laws that check every identity with exact arithmetic.
"""

from .backends import EndoBackend, FreeBackend, GradedElement
from .calculus import (
    KNOWN_MUTATIONS,
    PreOperadContext,
    associator,
    braces,
    bracket,
    bullet,
    cup,
    delta,
    dev_braces,
    dev_tetrabraces,
    dev_tribraces,
    tetrabraces,
    tribraces,
)
from .domains import (
    boundary_faces,
    envelope_domains,
    full_scope,
    ground_tetrahedron,
    removed_edges,
    scope_regions,
    shifted_tetrahedron,
)
from .endo import (
    MultilinearMap,
    componentwise_product,
    ksign,
    make_map,
    matrix_algebra_product,
    random_map,
    unit_map,
    zero_map,
)
from .errors import (
    BackendMismatch,
    BadConfig,
    DegreeMismatch,
    IndexOutOfDomain,
    IndexOutOfScope,
    InvalidDegree,
    MissingAssignment,
    PreOperadError,
    RingMismatch,
    ScriptSyntaxError,
    ScriptTypeError,
    ShapeMismatch,
    TableTooLarge,
    UnknownGenerator,
    UnknownLaw,
    UnsupportedRing,
)
from .free import FreeElement, Signature, evaluate_hom, tree_degree, tree_to_sexpr
from .gamma import GAMMA_KINDS, aux_gamma, aux_gamma_shifted, gamma_domain
from .laws import (
    Report,
    TrialConfig,
    get_law,
    laws_for_backend,
    list_laws,
    replay,
    run_law,
    run_suite,
    shrink,
)
from .rings import CoefficientRing
from .script import eval_script, parse_script

__version__ = "1.0.0"

__all__ = [
    "BackendMismatch", "BadConfig", "CoefficientRing", "DegreeMismatch",
    "EndoBackend", "FreeBackend", "FreeElement", "GAMMA_KINDS",
    "GradedElement", "IndexOutOfDomain", "IndexOutOfScope", "InvalidDegree",
    "KNOWN_MUTATIONS", "MissingAssignment", "MultilinearMap",
    "PreOperadContext", "PreOperadError", "Report", "RingMismatch",
    "ScriptSyntaxError", "ScriptTypeError", "ShapeMismatch", "Signature",
    "TableTooLarge", "TrialConfig", "UnknownGenerator", "UnknownLaw",
    "UnsupportedRing", "associator", "aux_gamma", "aux_gamma_shifted",
    "boundary_faces", "braces", "bracket", "bullet",
    "componentwise_product", "cup", "delta", "dev_braces",
    "dev_tetrabraces", "dev_tribraces", "envelope_domains", "eval_script",
    "evaluate_hom", "full_scope", "gamma_domain", "get_law",
    "ground_tetrahedron", "ksign", "laws_for_backend", "list_laws",
    "make_map", "matrix_algebra_product", "parse_script", "random_map",
    "removed_edges", "replay", "run_law", "run_suite", "scope_regions",
    "shifted_tetrahedron", "shrink", "tetrabraces", "tree_degree",
    "tree_to_sexpr", "tribraces", "unit_map", "zero_map",
]
