"""Symbolic finite automata over effective Boolean algebras.

Transitions carry predicates (Boolean combinations of half-open integer
intervals, or of literals over k propositions) instead of concrete letters.  The package provides the
structural forms (neat, normalized, feasible, deterministic, complete),
the standard constructions (product, complement, determinize, minimize),
decision procedures (membership, emptiness, inclusion, equivalence, and
a shortest counterexample for the last two),
canonical minimal forms in both algebras, a brute-force oracle for
testing, a JSON file format, DOT export, and a CLI ("symfa").
"""

from .algebra import (
    AlgebraBinding,
    OpCounters,
    interval_binding,
    propositional_binding,
)
from .dot import export_dot, pretty_pred
from .errors import (
    BindingMismatch,
    FormatError,
    NondeterministicInput,
    SfaError,
    UnsupportedAlgebra,
)
from .operations import (
    ProductMode,
    complement,
    counterexample,
    determinize,
    equivalent,
    includes,
    is_empty,
    minimize,
    product,
)
from .predicates import (
    FALSE,
    FULL_INTERVAL,
    TRUE,
    And,
    Atom,
    IntervalAtom,
    LiteralAtom,
    NEG_INF,
    Not,
    Or,
    POS_INF,
    PredicateClass,
    classify,
    mk_and,
    mk_not,
    mk_or,
    predicate_size,
)
from .serialize import emit_sfa, parse_sfa
from .sfa import (
    Sfa,
    SizeTriple,
    Transition,
    is_complete,
    is_deterministic,
    is_feasible,
    is_neat,
    is_normalized,
    membership,
    size_triple,
    validate,
)
from .transforms import (
    canonical_minimal_neat,
    canonical_minimal_normalized,
    complete,
    to_feasible,
    to_neat,
    to_normalized,
)

__version__ = "0.1.0"
