"""End-to-end certified induced matchings.

The run decomposes into a deterministic stage (a matching with at least
m/(Δ+1) edges: greedy, with Misra-Gries as fallback; contraction; triangle
budget check) and a seeded stage (sparsified independent set on the
contraction, pull-back, certification). The split is exposed so sweeps over
seeds can reuse the deterministic part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import (
    Graph,
    Matching,
    Triangle,
    enumerate_triangles,
    is_induced_matching,
)
from .matching import (
    ContractedGraph,
    contract_matching,
    extract_matching,
    greedy_matching,
    misra_gries_edge_color,
    pull_back_matching,
)
from .sparsify import (
    DEFAULT_DEGREE_CUTOFF,
    DEFAULT_MAX_RETRIES,
    TriangleBudgetExceeded,
    check_run_limits,
    sparsify_independent_set,
    triangle_budget,
)

# Calibrated floor for size / ((n/d) * ln d) on regular, budget-respecting
# corpus inputs with default configuration; see tests for the measurement.
# The binding case is the sampled path on the densest corpus contractions.
PIPELINE_RATIO_FLOOR = 0.015


class EmptyMatchingError(ValueError):
    """The input graph has no edges, so no matching exists."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run. A run whose ``max_retries`` sampling
    attempts all fail raises ``RetriesExhausted``; no other path is taken.

    ``B`` declares the forbidden complete bipartite subgraph K_{B,B}; it is
    not detected, only used to derive the triangle-budget exponent
    ``epsilon = 1 / (2B)`` when ``epsilon`` is not given explicitly. The
    global triangle budget does not detect a denser input at that
    exponent: a quotient of max degree d has at most ``n*d*(d-1)/6``
    triangles against a budget of ``n * d**(2 - epsilon)``, so it can fire
    only when ``d**epsilon > 6``, that is ``d > 6**(2B)`` (1296 at B=2).
    A per-vertex check that can fire is ROADMAP item 4.
    """

    B: int = 2
    epsilon: float | None = None
    degree_cutoff: int = DEFAULT_DEGREE_CUTOFF
    max_retries: int = DEFAULT_MAX_RETRIES
    seed: int = 0

    def __post_init__(self):
        if self.B < 2:
            raise ValueError(f"B must be >= 2, got {self.B}")
        if self.epsilon is not None and not 0 < self.epsilon < 3:
            raise ValueError(f"epsilon must be in (0, 3), got {self.epsilon}")
        check_run_limits(self.degree_cutoff, self.max_retries)

    def effective_epsilon(self) -> float:
        return self.epsilon if self.epsilon is not None else 1 / (2 * self.B)


@dataclass(frozen=True)
class PipelineStats:
    match_size: int  # the prepared matching: >= m/(Δ+1) edges
    contracted_n: int
    contracted_max_degree: int
    contracted_triangles: int
    budget: float
    attempts: int
    ratio: float | None  # size / ((n/d) * ln d), natural log; None when d < 2
    matching_below_quarter: bool  # flagged on irregular inputs
    bypassed: bool


@dataclass(frozen=True)
class InducedMatchingResult:
    matching: Matching
    size: int
    certificate: bool
    stats: PipelineStats


@dataclass(frozen=True)
class PreparedPipeline:
    """Deterministic prefix of a run: a matching with at least m/(Δ+1)
    edges (greedy, with Misra-Gries as fallback), its contraction, and the
    triangle budget check, all independent of the seed.

    The contraction's graph caches its triangles, enumerated once here, so a
    sweep over seeds pays for the enumeration once.
    """

    graph: Graph
    config: PipelineConfig
    matching: Matching
    contracted: ContractedGraph

    @property
    def epsilon(self) -> float:
        return self.config.effective_epsilon()

    @property
    def contracted_max_degree(self) -> int:
        return self.contracted.graph.degree_profile[1]

    @property
    def budget(self) -> float:
        """The quotient's triangle budget at this config's epsilon."""
        return triangle_budget(
            self.contracted.graph.n, self.contracted_max_degree, self.epsilon
        )

    @property
    def matching_below_quarter(self) -> bool:
        return len(self.matching) < math.ceil(self.graph.n / 4)

    @property
    def triangles(self) -> tuple[Triangle, ...]:
        return self.contracted.graph.triangles

    @property
    def contracted_triangles(self) -> int:
        return len(self.triangles)


def prepare_pipeline(graph: Graph, config: PipelineConfig) -> PreparedPipeline:
    if graph.n == 0:
        raise ValueError("input graph has no vertices")
    _, dmax, _ = graph.degree_profile
    if dmax == 0:
        raise EmptyMatchingError("input graph has no edges; empty matching")
    matching = greedy_matching(graph)
    if len(matching) * (dmax + 1) < graph.m:
        # short of Vizing's ceil(m/(Δ+1)); a largest class of a (Δ+1)-edge
        # coloring meets it
        matching = extract_matching(graph, misra_gries_edge_color(graph))
    prep = PreparedPipeline(
        graph=graph,
        config=config,
        matching=matching,
        contracted=contract_matching(graph, matching),
    )
    triangles = enumerate_triangles(prep.contracted.graph)
    if len(triangles) > prep.budget:
        raise TriangleBudgetExceeded(len(triangles), prep.budget)
    return prep


def greedy_induced_matching(graph: Graph) -> Matching:
    """Host baseline, not a pipeline stage: repeatedly take the lowest
    remaining edge and delete both endpoints' closed neighborhoods. The
    benchmark reports its size as ``pipeline.greedy_im_size``; it is what a
    greedy extension to a maximal induced matching of the host (ROADMAP
    item 3) gives from the empty matching.

    One forward pass suffices: a vertex with no remaining higher neighbor
    never regains one, so the scan never has to restart.
    """
    alive = [True] * graph.n
    chosen: list[tuple[int, int]] = []
    for u in range(graph.n):
        if not alive[u]:
            continue
        v = next((v for v in graph.adjacency[u] if v > u and alive[v]), None)
        if v is None:
            continue
        chosen.append((u, v))
        for x in (u, v):
            alive[x] = False
            for w in graph.adjacency[x]:
                alive[w] = False
    return tuple(chosen)


def run_prepared(prep: PreparedPipeline, seed: int) -> InducedMatchingResult:
    """Seeded stage: sparsify the contraction, pull back, certify.
    ``RetriesExhausted`` propagates with its attempt trail."""
    config = prep.config
    found = sparsify_independent_set(
        prep.contracted.graph,
        prep.epsilon,
        seed,
        degree_cutoff=config.degree_cutoff,
        max_retries=config.max_retries,
    )
    matching = pull_back_matching(prep.contracted, found.vertices)
    certificate = is_induced_matching(prep.graph, matching)
    _, dmax, _ = prep.graph.degree_profile
    ratio = None
    if dmax >= 2:
        ratio = len(matching) / ((prep.graph.n / dmax) * math.log(dmax))
    stats = PipelineStats(
        match_size=len(prep.matching),
        contracted_n=prep.contracted.graph.n,
        contracted_max_degree=prep.contracted_max_degree,
        contracted_triangles=prep.contracted_triangles,
        budget=prep.budget,
        attempts=found.attempts,
        ratio=ratio,
        matching_below_quarter=prep.matching_below_quarter,
        bypassed=found.bypassed,
    )
    return InducedMatchingResult(
        matching=matching,
        size=len(matching),
        certificate=certificate,
        stats=stats,
    )


def induced_matching(graph: Graph, config: PipelineConfig | None = None) -> InducedMatchingResult:
    """Full pipeline: a matching with at least m/(Δ+1) edges (greedy, with
    Misra-Gries as fallback), contract, sparsify, pull back, certify.
    Deterministic in ``(graph, config, config.seed)``."""
    config = config or PipelineConfig()
    prep = prepare_pipeline(graph, config)
    return run_prepared(prep, config.seed)
