"""Permutation pattern matching through bounded-width rectangle decompositions.

The package decides whether a pattern occurs in a target permutation in
time linear in the target for every fixed pattern length, plus the
supporting machinery: merge-sequence decompositions of bounded width,
dense-grid extraction, exhaustive oracles for small inputs, and a
monotone-partition fast path with polynomial working memory.
"""

from .core import (
    Embedding,
    GridWitness,
    MergeSequence,
    ParseError,
    Permutation,
    Point,
    SizeCapError,
    ValidationError,
    canonical_grid,
    format_embedding,
    format_grid_witness,
    format_merge_sequence,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    validate_merge_sequence,
    verify_embedding,
    verify_grid,
)
from .decompose import (
    DecompositionResult,
    build_decomposition,
    first_violation,
    verify_wide,
    width_of_decomposition,
)
from .griddetect import (
    Columns,
    f_bound,
    find_grid,
)
from .matcher import (
    find_pattern,
    match_auto,
)
from .monotone import (
    MonotonePartition,
    greedy_monotone_partition,
    parse_monotone_partition,
    poly_space_match,
    t_monotone_match,
    validate_monotone_partition,
)
from .oracle import (
    brute_force_grid,
    brute_force_match,
    exact_width,
    grid_search,
)

__version__ = "0.1.0"

__all__ = [
    "Columns",
    "DecompositionResult",
    "Embedding",
    "GridWitness",
    "MergeSequence",
    "MonotonePartition",
    "ParseError",
    "Permutation",
    "Point",
    "SizeCapError",
    "ValidationError",
    "brute_force_grid",
    "brute_force_match",
    "build_decomposition",
    "canonical_grid",
    "exact_width",
    "f_bound",
    "find_grid",
    "find_pattern",
    "first_violation",
    "format_embedding",
    "format_grid_witness",
    "format_merge_sequence",
    "greedy_monotone_partition",
    "grid_search",
    "match_auto",
    "parse_merge_sequence",
    "parse_monotone_partition",
    "parse_permutation",
    "poly_space_match",
    "random_permutation",
    "random_separable",
    "t_monotone_match",
    "validate_merge_sequence",
    "validate_monotone_partition",
    "verify_embedding",
    "verify_grid",
    "verify_wide",
    "width_of_decomposition",
    "__version__",
]
