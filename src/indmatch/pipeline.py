"""End-to-end certified induced matchings.

The run decomposes into a deterministic stage (a matching with at least
m/(Δ+1) edges: greedy, with Misra-Gries as fallback; contraction; triangle
budget check) and a seeded stage (sparsified independent set on the
contraction, pull-back, certification). A run is deterministic in
``(graph, config, seed)``; the seed is read by the seeded stage only. The
split is exposed so sweeps over seeds can reuse the deterministic part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph, Matching, enumerate_triangles, is_induced_matching
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
    IndependentSetResult,
    TriangleBudgetExceeded,
    _integer,
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
    ``B``, ``degree_cutoff`` and ``max_retries`` must pass ``operator.index``.

    ``B`` declares the forbidden complete bipartite subgraph K_{B,B}; it is
    not detected, only used to derive the triangle-budget exponent
    ``epsilon = 1 / (2B)`` when ``epsilon`` is not given explicitly. The
    global triangle budget does not detect a denser input at that
    exponent: a quotient of max degree d has at most ``n*d*(d-1)/6``
    triangles against a budget of ``n * d**(2 - epsilon)``, so it can fire
    only when ``d**epsilon > 6``, that is ``d > 6**(2B)`` (1296 at B=2).
    A per-vertex check that can fire is ROADMAP's "hypothesis check" item.

    A graph of max codegree t is K_{2,t+1}-free, so by Kővári–Sós–Turán
    B=2 claims for it the s=2 exponent with a t-dependent constant. The
    random-regular benchmark graphs hold C4: codegree 4 at (n, d) =
    (10**4, 20), 5 at (2 * 10**4, 40), 2 on the sparse-file graph.
    """

    B: int = 2
    epsilon: float | None = None
    degree_cutoff: int = DEFAULT_DEGREE_CUTOFF
    max_retries: int = DEFAULT_MAX_RETRIES

    def __post_init__(self):
        if _integer("B", self.B) < 2:
            raise ValueError(f"B must be >= 2, got {self.B}")
        check_run_limits(self.effective_epsilon(), self.degree_cutoff, self.max_retries)

    def effective_epsilon(self) -> float:
        return self.epsilon if self.epsilon is not None else 1 / (2 * self.B)


@dataclass(frozen=True)
class PreparedPipeline:
    """Deterministic prefix of a run: the contraction of a matching with at
    least m/(Δ+1) edges (greedy, with Misra-Gries as fallback), independent
    of the seed. The matching is the contraction's ``rep``, held once.
    Building one, also by ``dataclasses.replace``, runs the run's only
    triangle budget check.

    The contraction's graph caches its triangles, enumerated once here, so a
    sweep over seeds pays for the enumeration once.
    """

    graph: Graph
    config: PipelineConfig
    contracted: ContractedGraph

    def __post_init__(self):
        measured = len(enumerate_triangles(self.contracted.graph))
        if measured > self.budget:
            raise TriangleBudgetExceeded(measured, self.budget)

    @property
    def matching(self) -> Matching:
        return self.contracted.rep

    @property
    def match_size(self) -> int:  # >= m/(Δ+1) edges
        return len(self.matching)

    @property
    def contracted_n(self) -> int:
        return self.contracted.graph.n

    @property
    def contracted_max_degree(self) -> int:
        return self.contracted.graph.degree_profile[1]

    @cached_property
    def budget(self) -> float:
        """The quotient's triangle budget at this config's epsilon, computed
        once per instance (``dataclasses.replace`` builds a new one)."""
        return triangle_budget(
            self.contracted.graph.n,
            self.contracted_max_degree,
            self.config.effective_epsilon(),
        )

    @property
    def contracted_triangles(self) -> int:
        return len(self.contracted.graph.triangles)


@dataclass(frozen=True)
class InducedMatchingResult:
    """One seeded run: the pulled-back ``matching``, its ``certificate``,
    and what it was built from, held and not copied: the ``prepared``
    pipeline and the independent set ``found`` on its contraction."""

    matching: Matching
    certificate: bool
    prepared: PreparedPipeline
    found: IndependentSetResult

    @property
    def size(self) -> int:
        return len(self.matching)

    @property
    def ratio(self) -> float | None:
        """``size / ((n/d) * ln d)`` on the host; ``None`` when d < 2."""
        host = self.prepared.graph
        d = host.degree_profile[1]
        return None if d < 2 else self.size / ((host.n / d) * math.log(d))

    @property
    def stats(self) -> PreparedPipeline:
        # only for perfbench/spans.py::_run_tags, until ROADMAP item 1
        # retargets that reader to ``prepared``; then delete it
        return self.prepared


def prepare_pipeline(graph: Graph, config: PipelineConfig) -> PreparedPipeline:
    _, dmax, _ = graph.degree_profile
    if dmax == 0:
        raise EmptyMatchingError("input graph has no edges; empty matching")
    matching = greedy_matching(graph)
    if len(matching) * (dmax + 1) < graph.m:
        # short of Vizing's ceil(m/(Δ+1)); a largest class of a (Δ+1)-edge
        # coloring meets it
        matching = extract_matching(graph, misra_gries_edge_color(graph))
    contracted = contract_matching(graph, matching)
    return PreparedPipeline(graph=graph, config=config, contracted=contracted)


def greedy_induced_matching(graph: Graph) -> Matching:
    """Host baseline, not a pipeline stage: repeatedly take the lowest
    remaining edge and delete both endpoints' closed neighborhoods. The
    benchmark reports its size as ``pipeline.greedy_im_size``; it is what a
    greedy extension to a maximal induced matching of the host (ROADMAP's
    "extend the paper's matching" item) gives from the empty matching.

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
    """Seeded stage: sparsify the contraction, pull back, certify; the
    result holds ``prep`` and the found independent set. ``RetriesExhausted``
    propagates with its attempt trail."""
    config = prep.config
    found = sparsify_independent_set(
        prep.contracted.graph,
        config.effective_epsilon(),
        seed,
        degree_cutoff=config.degree_cutoff,
        max_retries=config.max_retries,
    )
    matching = pull_back_matching(prep.contracted, found.vertices)
    certificate = is_induced_matching(prep.graph, matching)
    return InducedMatchingResult(matching, certificate, prep, found)


def induced_matching(
    graph: Graph, config: PipelineConfig | None = None, seed: int = 0
) -> InducedMatchingResult:
    """Full pipeline: a matching with at least m/(Δ+1) edges (greedy, with
    Misra-Gries as fallback), contract, sparsify, pull back, certify.
    Deterministic in ``(graph, config, seed)``."""
    return run_prepared(prepare_pipeline(graph, config or PipelineConfig()), seed)
