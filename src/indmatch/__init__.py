"""Certified induced matchings in near-regular graphs.

The pipeline takes a matching with at least m/(Δ+1) edges (greedy, with a
Misra-Gries edge coloring's largest class as fallback), contracts it, finds
an independent set of the contraction by randomized triangle
sparsification, and pulls the set back to an induced matching with a
verifiable certificate.
"""

from .graph import (
    Graph,
    Matching,
    VertexSet,
    enumerate_triangles,
    from_edge_list,
    induced_subgraph,
    is_induced_matching,
    read_edge_list,
    write_edge_list,
)
from .generators import (
    GenerationError,
    build_graph,
    named_fixture,
    polarity_graph,
    projective_incidence_graph,
    random_regular,
)
from .matching import (
    ContractedGraph,
    EdgeColoring,
    contract_matching,
    extract_matching,
    greedy_matching,
    is_proper_edge_coloring,
    misra_gries_edge_color,
    pull_back_matching,
)
from .sparsify import (
    AttemptStats,
    IndependentSetResult,
    RetriesExhausted,
    TriangleBudgetExceeded,
    break_triangles,
    sample_vertices,
    sparsify_independent_set,
    triangle_budget,
    triangle_free_independent_set,
)
from .pipeline import (
    EmptyMatchingError,
    InducedMatchingResult,
    PipelineConfig,
    greedy_induced_matching,
    induced_matching,
    prepare_pipeline,
    run_prepared,
)
from .seeds import mix64

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Matching",
    "VertexSet",
    "from_edge_list",
    "read_edge_list",
    "write_edge_list",
    "enumerate_triangles",
    "induced_subgraph",
    "is_induced_matching",
    "GenerationError",
    "build_graph",
    "named_fixture",
    "polarity_graph",
    "projective_incidence_graph",
    "random_regular",
    "EdgeColoring",
    "ContractedGraph",
    "misra_gries_edge_color",
    "is_proper_edge_coloring",
    "extract_matching",
    "greedy_matching",
    "contract_matching",
    "pull_back_matching",
    "sample_vertices",
    "break_triangles",
    "triangle_free_independent_set",
    "sparsify_independent_set",
    "IndependentSetResult",
    "AttemptStats",
    "RetriesExhausted",
    "TriangleBudgetExceeded",
    "PipelineConfig",
    "InducedMatchingResult",
    "EmptyMatchingError",
    "induced_matching",
    "prepare_pipeline",
    "run_prepared",
    "greedy_induced_matching",
    "triangle_budget",
    "mix64",
]
