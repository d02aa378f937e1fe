"""Distinct squares, Rauzy graphs and small circuits of finite words.

The package proves the square bound S(w) <= |w| - |Alph(w)| + 1
constructively on any given word: it enumerates the distinct square
factors, groups them into conjugacy classes, builds an explicit
injection into the small circuits of the Rauzy graphs, and checks
every step.  `sqcirc.verifier.analyze` is the one-call entry point;
the CLI (`sqcirc`) wraps it.
"""
from .circuits import (
    CircuitRealization,
    SmallCircuit,
    all_small_circuits,
    cao_less,
    circuit_counts_by_order,
    circuit_order_ranges,
    independence_rank,
    maximal_edge,
    realize,
    small_circuits,
    vector_cycle,
)
from .injection import InjectionReport, build_injection, inject_class
from .rauzy import (
    RauzyEdge,
    RauzyGraph,
    VectorCycle,
    build_rauzy,
    cyclomatic_number,
    is_weakly_connected,
)
from .squares import (
    Square,
    SquareClass,
    class_representative,
    distinct_squares,
    rebuild_from_coordinates,
    square_classes,
)
from .verifier import (
    CorpusError,
    SearchSummary,
    TheoremReport,
    WordAnalysis,
    analyze,
    canonical_count,
    canonical_words,
    corpus_analyze,
    dot_digraph,
    exhaustive_search,
    json_document,
    theorem_check,
    verify_word,
)
from .words import (
    NATURAL,
    RationalExponent,
    SymbolOrder,
    alphabet,
    common_root,
    complexity,
    complexity_profile,
    conjugacy_class,
    extremal_rotation,
    factors,
    fractional_power,
    has_period,
    is_primitive,
    least_rotation,
    longest_repeated_factor,
    primitive_root,
    rotation,
    smallest_period,
    three_words_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitRealization", "SmallCircuit", "all_small_circuits", "cao_less",
    "circuit_counts_by_order", "circuit_order_ranges", "independence_rank",
    "maximal_edge", "realize", "small_circuits", "vector_cycle",
    "InjectionReport", "build_injection", "inject_class",
    "RauzyEdge", "RauzyGraph", "VectorCycle", "build_rauzy",
    "cyclomatic_number", "is_weakly_connected",
    "Square", "SquareClass", "class_representative", "distinct_squares",
    "rebuild_from_coordinates", "square_classes",
    "CorpusError", "SearchSummary", "TheoremReport", "WordAnalysis",
    "analyze", "canonical_count", "canonical_words", "corpus_analyze",
    "dot_digraph", "exhaustive_search", "json_document", "theorem_check",
    "verify_word",
    "NATURAL", "RationalExponent", "SymbolOrder", "alphabet", "common_root",
    "complexity", "complexity_profile", "conjugacy_class",
    "extremal_rotation", "factors", "fractional_power", "has_period",
    "is_primitive", "least_rotation", "longest_repeated_factor",
    "primitive_root", "rotation", "smallest_period",
    "three_words_decomposition",
]
