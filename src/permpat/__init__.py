"""Exact pattern avoidance for permutations and multiset words, with the
matching 0-1 matrix extremal function and bipartite-graph contraction."""

from .bigraphs import (BipartiteGraph, bounds, census_avoiding_graphs,
                       contract, fiber_size, graph_of_word, ordered_contains)
from .counting import (catalan, count_avoiders, count_multiset_avoiders,
                       records_to_csv, records_to_json, regular_spec,
                       sequence, stirling_count, total_words)
from .errors import BudgetExceeded, ParseError
from .matrices import (BinaryMatrix, extremal_f, extremal_table,
                       perm_to_matrix)
from .verify import RunManifest, run_suite
from .words import (MultisetSpec, Word, complement, contained_patterns,
                    contains, find_occurrence, reverse)

# The operations the CLI and the README use; everything else is reached
# through its module.
__all__ = [
    "BinaryMatrix", "BipartiteGraph", "BudgetExceeded", "MultisetSpec",
    "ParseError", "RunManifest", "Word", "bounds", "catalan",
    "census_avoiding_graphs", "complement", "contained_patterns", "contains",
    "contract", "count_avoiders", "count_multiset_avoiders", "extremal_f",
    "extremal_table", "fiber_size", "find_occurrence", "graph_of_word",
    "ordered_contains", "perm_to_matrix", "records_to_csv", "records_to_json",
    "regular_spec", "reverse", "run_suite", "sequence", "stirling_count",
    "total_words",
]
