"""Independent sets in graphs with few triangles, via randomized sparsification.

The driver keeps each vertex with probability ``p = d**(a-1)`` (``a`` is a
third of the triangle-budget exponent ``epsilon``), marks one vertex of
every surviving triangle removed, and checks three concentration thresholds;
when they pass, a min-degree greedy pass over the sample minus that mask
yields the independent set, which is mapped back to the input graph.
Low-degree inputs skip sampling entirely: the same masked greedy pass on
all of ``g`` already meets the target size there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .graph import (
    Graph,
    VertexSet,
    degree_profile,
    enumerate_triangles,
    induced_subgraph,
)
from .seeds import mix64

DEFAULT_DEGREE_CUTOFF = 16
DEFAULT_MAX_RETRIES = 50

# Coefficient of the n*ln(davg)/davg guarantee of the min-degree greedy pass
# on triangle-free inputs; calibrated once on the generated corpus (see
# tests) and frozen here.
SHEARER_CONSTANT = 0.75


class TriangleBudgetExceeded(ValueError):
    """Input has more triangles than the sparsification budget allows."""

    def __init__(self, measured: int, budget: float):
        super().__init__(
            f"triangle count {measured} exceeds budget {budget:.3f} "
            "(n * d**(2 - epsilon))"
        )
        self.measured = measured
        self.budget = budget


@dataclass(frozen=True)
class AttemptStats:
    """Outcome of one sampling attempt."""

    index: int
    sampled: int
    triangles: int  # triangles among sampled vertices, before breaking
    edges: int  # edges of the sample with no endpoint removed by breaking
    outcome: str  # "pass" | "vertex-count" | "triangles" | "edges"


class RetriesExhausted(RuntimeError):
    """Every sampling attempt failed a concentration threshold."""

    def __init__(self, attempts: tuple[AttemptStats, ...]):
        super().__init__(
            f"all {len(attempts)} sampling attempts failed threshold checks"
        )
        self.attempts = attempts


def triangle_budget(n_contracted: int, d_contracted: int, epsilon: float) -> float:
    """Largest triangle count the sparsification stage tolerates:
    ``n * d**(2 - epsilon)``."""
    if n_contracted < 0 or d_contracted < 0:
        raise ValueError("sizes must be nonnegative")
    if not 0 < epsilon < 3:
        raise ValueError(f"epsilon must be in (0, 3), got {epsilon}")
    return n_contracted * float(d_contracted) ** (2 - epsilon)


@dataclass(frozen=True)
class Thresholds:
    v_lo: float  # n*p/2
    v_hi: float  # 3*n*p/2
    tri_max: float  # n*p/4
    edge_max: float  # 5*n*d*p*p


@dataclass(frozen=True)
class SparsifyParams:
    """Parameter bundle for :func:`sparsify_independent_set`.

    ``a = epsilon / 3`` and ``p = d ** (a - 1)`` exactly; the acceptance
    thresholds depend on the input size and are produced by
    :meth:`thresholds_for`.
    """

    d: int
    epsilon: float
    a: float
    p: float
    degree_cutoff: int
    max_retries: int

    def thresholds_for(self, n: int) -> Thresholds:
        np_ = n * self.p
        return Thresholds(
            v_lo=np_ / 2,
            v_hi=3 * np_ / 2,
            tri_max=np_ / 4,
            edge_max=5 * n * self.d * self.p * self.p,
        )


def sparsify_params(
    d: int,
    epsilon: float,
    degree_cutoff: int | None = None,
    max_retries: int | None = None,
) -> SparsifyParams:
    """Build the parameter bundle: ``a = epsilon/3``, ``p = d**(a-1)``.

    ``epsilon`` must lie in the open interval (0, 3) so that ``p <= 1`` and
    the triangle budget ``n * d**(2-epsilon)`` stays meaningful.
    """
    if d < 1:
        raise ValueError(f"max degree must be >= 1, got {d}")
    if not 0 < epsilon < 3:
        raise ValueError(f"epsilon must be in (0, 3), got {epsilon}")
    degree_cutoff = DEFAULT_DEGREE_CUTOFF if degree_cutoff is None else degree_cutoff
    max_retries = DEFAULT_MAX_RETRIES if max_retries is None else max_retries
    check_run_limits(degree_cutoff, max_retries)
    a = epsilon / 3
    return SparsifyParams(
        d=d,
        epsilon=epsilon,
        a=a,
        p=float(d) ** (a - 1),
        degree_cutoff=degree_cutoff,
        max_retries=max_retries,
    )


def check_run_limits(degree_cutoff: int, max_retries: int) -> None:
    """Reject a negative degree cutoff and fewer than one sampling attempt."""
    if degree_cutoff < 0:
        raise ValueError(f"degree cutoff must be >= 0, got {degree_cutoff}")
    if max_retries < 1:
        raise ValueError(f"max retries must be >= 1, got {max_retries}")


def sample_vertices(g: Graph, p: float, rng: random.Random) -> VertexSet:
    """Keep each vertex independently with probability ``p``.

    One 53-bit uniform draw per vertex, in vertex order, so the sample is a
    deterministic function of the generator state.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    draw = rng.random
    return frozenset([v for v in range(g.n) if draw() < p])


def break_triangles(g: Graph) -> VertexSet:
    """Vertices to delete so that ``g`` minus them has no triangle.

    The canonical triangle list is processed once; from each still-alive
    triangle the endpoint of highest current degree goes (lowest id on
    ties), which empirically preserves the most vertices. At most one
    vertex per triangle is removed, none when ``g`` is triangle-free.
    """
    deg = [len(nbrs) for nbrs in g.adjacency]
    alive = [True] * g.n
    removed = []
    for a, b, c in enumerate_triangles(g):
        if alive[a] and alive[b] and alive[c]:
            victim = min((-deg[v], v) for v in (a, b, c))[1]
            alive[victim] = False
            removed.append(victim)
            for w in g.adjacency[victim]:
                if alive[w]:
                    deg[w] -= 1
    return frozenset(removed)


def triangle_free_independent_set(g: Graph, removed: VertexSet = frozenset()) -> VertexSet:
    """Independent set of ``g`` minus ``removed`` by min-degree greedy.

    The live graph must be triangle-free: no cached triangle of ``g`` may
    avoid ``removed``. Repeatedly takes a live vertex of minimum live degree
    (lowest id on ties) and deletes its closed neighborhood. On the live
    graph the output always has size at least ``ceil(n / (davg + 1))``; with
    average degree ``davg >= 2`` it additionally attains
    ``SHEARER_CONSTANT * n * ln(davg) / davg`` on the whole test corpus
    (the classical Shearer-type scaling).
    """
    n, adjacency = g.n, g.adjacency
    bad = [v for v in removed if not 0 <= v < n]
    if bad:
        raise ValueError(f"vertex {min(bad)} out of range for n={n}")
    deg = [len(nbrs) for nbrs in adjacency]
    alive = [True] * n
    for v in removed:
        alive[v] = False
        for w in adjacency[v]:
            deg[w] -= 1
    if any(alive[a] and alive[b] and alive[c] for a, b, c in enumerate_triangles(g)):
        raise ValueError("input graph contains a triangle")
    heap = [(deg[v], v) for v in range(n) if alive[v]]
    heapify(heap)
    chosen = []
    while heap:
        d, v = heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        chosen.append(v)
        alive[v] = False
        for w in adjacency[v]:
            if not alive[w]:
                continue
            alive[w] = False
            for x in adjacency[w]:
                if alive[x]:
                    deg[x] -= 1
                    heappush(heap, (deg[x], x))
    return frozenset(chosen)


@dataclass(frozen=True)
class IndependentSetResult:
    """Independent set plus the per-attempt audit trail."""

    vertices: VertexSet
    attempts: int  # sampling attempts consumed (0 on the low-degree path)
    attempt_stats: tuple[AttemptStats, ...]
    bypassed: bool  # low-degree path: no sampling


def sparsify_independent_set(
    g: Graph, params: SparsifyParams, seed: int = 0
) -> IndependentSetResult:
    """Find an independent set of ``g`` under a triangle budget.

    Preconditions: ``params.d`` is at least the max degree of ``g`` (the
    pipeline passes the exact degree) and the triangle count is at most
    ``n * params.d**(2 - epsilon)``, else :class:`TriangleBudgetExceeded`.

    When the max degree is at most ``params.degree_cutoff`` the sampling
    stage is skipped: triangles are broken directly and the greedy pass runs
    on all of ``g``. Otherwise up to ``max_retries`` attempts run, each on
    the sub-seed ``mix64(seed, index)``, and the first attempt to pass all
    three thresholds produces the result; attempts are independent, so they
    could run concurrently with the same first-pass selection rule. Raises
    :class:`RetriesExhausted` (with the audit trail) if none passes.
    """
    _, dmax, _ = degree_profile(g)
    if params.d < dmax:
        raise ValueError(
            f"params built for max degree {params.d} but graph has {dmax}"
        )
    triangles = enumerate_triangles(g)
    budget = triangle_budget(g.n, params.d, params.epsilon)
    if len(triangles) > budget:
        raise TriangleBudgetExceeded(len(triangles), budget)

    if dmax <= params.degree_cutoff:
        return IndependentSetResult(
            vertices=triangle_free_independent_set(g, break_triangles(g)),
            attempts=0,
            attempt_stats=(),
            bypassed=True,
        )

    thresholds = params.thresholds_for(g.n)
    trail: list[AttemptStats] = []
    for index in range(params.max_retries):
        rng = random.Random(mix64(seed, index))
        sampled = sample_vertices(g, params.p, rng)
        subgraph, kept = induced_subgraph(g, sampled)
        sub_triangles = enumerate_triangles(subgraph)
        removed = break_triangles(subgraph)
        rows = subgraph.adjacency
        edges = subgraph.m - sum(
            1 for v in removed for w in rows[v] if w not in removed or w > v
        )

        if not thresholds.v_lo <= len(sampled) <= thresholds.v_hi:
            outcome = "vertex-count"
        elif len(sub_triangles) > thresholds.tri_max:
            outcome = "triangles"
        elif edges > thresholds.edge_max:
            outcome = "edges"
        else:
            outcome = "pass"
        stats = AttemptStats(
            index=index,
            sampled=len(sampled),
            triangles=len(sub_triangles),
            edges=edges,
            outcome=outcome,
        )
        trail.append(stats)
        if outcome != "pass":
            continue

        chosen = triangle_free_independent_set(subgraph, removed)
        return IndependentSetResult(
            vertices=frozenset([kept[v] for v in chosen]),
            attempts=index + 1,
            attempt_stats=tuple(trail),
            bypassed=False,
        )
    raise RetriesExhausted(tuple(trail))
