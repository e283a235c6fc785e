"""ualg: a finite universal-algebra toolkit.

Operation-table algebras, equational satisfaction, subalgebra generation,
clones, homomorphism search, categorical direct products over fresh
urelements, truncated free semigroups, and a computable reduced-power
extension model over the cofinite filter.
"""

from .core import (
    BudgetExceeded,
    FiniteAlgebra,
    InvalidAlgebra,
    Signature,
    Subuniverse,
    UalgError,
    UnknownElement,
    is_subuniverse,
    validate_algebra,
)
from .terms import (
    App,
    Equation,
    EquationSet,
    Term,
    TermError,
    Var,
    eval_term,
    parse_term,
    satisfies,
    satisfies_all,
)
from .presets import preset, PRESET_NAMES
from .catalog import (
    boolean_2,
    boolean_4,
    cyclic_group,
    lattice_2,
    one_element,
    semilattice_2,
    sheffer,
    vector_space_gf,
)
from .generation import (
    CloneFragment,
    GenerationTrace,
    all_subuniverses,
    clone_n,
    generate,
)
from .morphisms import (
    Morphism,
    check_homomorphism,
    check_isomorphism,
    enumerate_homomorphisms,
    find_retractions,
    reduct,
)
from .products import (
    RelabeledProduct,
    direct_product,
    mediating_morphism,
)
from .free_semigroup import (
    TruncatedFreeSemigroup,
    build_truncated,
    search_bounded_retraction,
)
from .reduced_power import (
    EpSequence,
    GeneratedExtension,
    adjoin_generate,
    canonicalize,
    coordinate_retraction,
    preservation_suite,
    std_embed,
)
from .fileformat import (
    ParseError,
    parse_algebra_file,
    parse_equation_file,
    serialize_algebra,
)

__version__ = "0.1.0"
