"""todx: an index answering "which equalities does this substitution order?"

Unordered equalities sharing a left-hand side are compiled, lazily and
during retrieval, into term ordering diagrams: rooted dags whose nodes
are term comparisons and weight positivity checks under KBO or LPO.
Repeated queries reuse every check the earlier ones already paid for.
"""

from .index import (DuplicateEqualityError, IndexMode, MalformedEqualityError,
                    PostOrderingIndex, UnknownEqualityError,
                    canonicalize_equality, canonicalize_term)
from .ordering import KboOrder, LpoOrder, TermOrder, closure_equal, make_order
from .forcing import (PartialOrdering, TpoInconsistencyError, TpoStore,
                      force_positivity_label, force_term_label)
from .stats import NodeCounters, Stats
from .terms import (EMPTY_SUBST, ArityError, Label, LinearExpr, Signature,
                    SignatureError, Substitution, Symbol, Term,
                    UnknownSymbolError, term_weight)
from .tod import (Equality, NodeKind, StepCapExceededError, Tod, TodNode,
                  TodStructureError, STEP_CAP)

__version__ = "0.1.0"

__all__ = [
    "ArityError", "DuplicateEqualityError", "EMPTY_SUBST", "Equality",
    "IndexMode", "KboOrder", "Label", "LinearExpr", "LpoOrder",
    "MalformedEqualityError", "NodeCounters", "NodeKind", "PartialOrdering",
    "PostOrderingIndex", "STEP_CAP", "Signature", "SignatureError", "Stats",
    "StepCapExceededError", "Substitution", "Symbol", "Term", "TermOrder",
    "Tod", "TodNode", "TodStructureError", "TpoInconsistencyError",
    "TpoStore", "UnknownEqualityError", "UnknownSymbolError",
    "canonicalize_equality", "canonicalize_term", "closure_equal",
    "force_positivity_label", "force_term_label", "make_order", "term_weight",
]
