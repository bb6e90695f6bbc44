"""Prescriptively typed logic programs: parsing, type checking, bounded
resolution, and static subject-reduction analysis."""

from .core import (
    Atom,
    Clause,
    Fun,
    FuncDecl,
    Param,
    PredDecl,
    Program,
    Signature,
    Subst,
    TCon,
    Var,
    validate_signature,
    variant,
    wrap_query,
)
from .corpus import corpus_names, corpus_text, load_corpus
from .parser import (
    ParseError,
    parse_clause,
    parse_program,
    parse_query,
    parse_term,
    render,
)
from .reports import CheckReport, Finding
from .srcheck import (
    Partition,
    check_head_condition,
    check_semi_generic,
    make_partition,
    monitored_answers,
    search_partition,
    subject_reduction,
    type_skeleton_of,
)
from .trees import (
    BOTTOM,
    Derivation,
    DerivationTree,
    GroundAtomSet,
    Skeleton,
    answers,
    derivations,
    derive_step,
    enumerate_proof_skeletons,
    enumerate_skeletons,
    frontier,
    head_atom,
    is_proper_skeleton,
    most_general_derivation_tree,
    node_atoms,
    same_shape,
    skeleton_of,
    tp_fixpoint,
)
from .typecheck import (
    ClauseTyping,
    UntypableError,
    is_typable,
    is_typed_substitution,
    judge,
    most_general_type,
    most_general_type_wrt,
)
from .unify import UnificationError, mgu_terms, mgu_types

__version__ = "0.1.0"

__all__ = [
    "Atom", "BOTTOM", "CheckReport", "Clause", "ClauseTyping", "Derivation",
    "DerivationTree", "Finding", "Fun", "FuncDecl", "GroundAtomSet", "ParseError",
    "Param", "Partition", "PredDecl", "Program", "Signature", "Skeleton", "Subst",
    "TCon", "UnificationError", "UntypableError", "Var", "answers",
    "check_head_condition", "check_semi_generic", "corpus_names", "corpus_text",
    "derivations", "derive_step", "enumerate_proof_skeletons", "enumerate_skeletons", "frontier",
    "head_atom", "is_proper_skeleton", "is_typable", "is_typed_substitution",
    "judge", "load_corpus", "make_partition", "mgu_terms", "mgu_types",
    "monitored_answers", "most_general_derivation_tree", "most_general_type",
    "most_general_type_wrt", "node_atoms", "parse_clause", "parse_program",
    "parse_query", "parse_term", "render", "same_shape", "search_partition",
    "skeleton_of", "subject_reduction", "tp_fixpoint", "type_skeleton_of",
    "validate_signature", "variant", "wrap_query",
]
