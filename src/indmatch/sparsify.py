"""Independent sets in graphs with few triangles, via randomized sparsification.

The driver keeps each vertex with probability ``p = d**(epsilon/3 - 1)``,
where ``epsilon`` lies in (0, 3) and ``d`` is read from the input graph as
its max degree, as are ``n`` and ``d`` in the thresholds.
It marks one vertex of every surviving triangle removed, and checks three
concentration thresholds; when they pass, a min-degree greedy pass over the
sample minus that mask yields the independent set, which is mapped back to
the input graph.
Low-degree inputs skip sampling entirely: the same masked greedy pass on
all of ``g`` already meets the target size there.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from math import log, log1p
from numbers import Real

from .graph import Graph, VertexSet, _ids, _vertex_ids, enumerate_triangles, induced_subgraph
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
    ``n * d**(2 - epsilon)``, and 0 for an edgeless graph when
    ``epsilon > 2``, where that power is undefined."""
    if n_contracted < 0 or d_contracted < 0:
        raise ValueError("sizes must be nonnegative")
    _check_epsilon(epsilon)
    if d_contracted == 0 and epsilon > 2:
        return 0.0  # no edges, so no triangles
    return n_contracted * float(d_contracted) ** (2 - epsilon)


def _integer(name: str, value) -> int:
    """``operator.index(value)``, or a ``ValueError`` naming the knob."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_epsilon(epsilon) -> None:
    """Reject an ``epsilon`` that is not a real number (a string is not
    converted) or lies outside (0, 3), with a ``ValueError`` naming it."""
    if not isinstance(epsilon, Real):
        raise ValueError(f"epsilon must be a real number, got {epsilon!r}")
    if not 0 < epsilon < 3:
        raise ValueError(f"epsilon must be in (0, 3), got {epsilon}")


def check_run_limits(epsilon: float, degree_cutoff: int, max_retries: int) -> None:
    """Reject an ``epsilon`` that is not a real in (0, 3), a degree cutoff
    that is not an integer >= 0 and a retry count that is not one >= 1, in
    that order."""
    _check_epsilon(epsilon)
    if _integer("degree cutoff", degree_cutoff) < 0:
        raise ValueError(f"degree cutoff must be >= 0, got {degree_cutoff}")
    if _integer("max retries", max_retries) < 1:
        raise ValueError(f"max retries must be >= 1, got {max_retries}")


def sample_vertices(g: Graph, p: float, rng: random.Random) -> VertexSet:
    """Keep each vertex independently with probability ``p``.

    Geometric skipping: with ``U = 1 - rng.random()``, the next
    ``floor(log(U) / log1p(-p))`` vertices are skipped and the one after
    them is kept, until the skips pass vertex ``n - 1``. That is one draw
    per kept vertex plus one, none when ``p`` is 0 or 1, and the sample is a
    deterministic function of the generator state wherever ``math.log``
    and ``math.log1p`` round alike.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    n = g.n
    if p == 0:
        return frozenset()
    if p == 1:
        return frozenset(range(n))
    draw, log_q = rng.random, log1p(-p)
    kept = []
    v = 0  # next vertex not yet skipped or kept
    while True:
        skip = log(1.0 - draw()) / log_q  # may be inf for a tiny p
        if skip >= n - v:
            return frozenset(kept)
        v += int(skip)
        kept.append(v)
        v += 1


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
    (the classical Shearer-type scaling). An id in ``removed`` that
    ``operator.index`` rejects, or one outside ``[0, n)``, raises
    ``ValueError`` (:func:`~indmatch.graph._vertex_ids`).
    """
    n, adjacency = g.n, g.adjacency
    removed = _vertex_ids(removed, n)
    deg = [len(nbrs) for nbrs in adjacency]
    alive = [True] * n
    for v in removed:
        alive[v] = False
        for w in adjacency[v]:
            deg[w] -= 1
    if any(alive[a] and alive[b] and alive[c] for a, b, c in enumerate_triangles(g)):
        raise ValueError("input graph contains a triangle")
    # one heap of ids per degree; a live vertex's current entry is the one in
    # heaps[deg[v]], since degrees only fall. Ids enter in ascending order,
    # so each list starts out as a heap. They are the id table's objects.
    heaps: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, live in zip(_ids(n), alive):
        if live:
            heaps[deg[v]].append(v)
    chosen = []
    d = 0  # no live vertex has degree below d
    while d < len(heaps):
        heap = heaps[d]
        if not heap:
            d += 1
            continue
        v = heappop(heap)
        if not alive[v] or deg[v] != d:
            continue
        chosen.append(v)
        alive[v] = False
        for w in adjacency[v]:
            if not alive[w]:
                continue
            alive[w] = False
            for x in adjacency[w]:
                if alive[x]:
                    k = deg[x] = deg[x] - 1
                    heappush(heaps[k], x)
                    if k < d:
                        d = k
    return frozenset(chosen)


@dataclass(frozen=True)
class IndependentSetResult:
    """Independent set plus the per-attempt audit trail, which is empty on
    the low-degree path."""

    vertices: VertexSet
    attempt_stats: tuple[AttemptStats, ...]

    @property
    def attempts(self) -> int:  # sampling attempts consumed
        return len(self.attempt_stats)

    @property
    def bypassed(self) -> bool:  # low-degree path: no sampling
        return not self.attempt_stats


def _attempt(
    g: Graph, d: int, p: float, index: int, seed: int
) -> tuple[AttemptStats, Graph, tuple[int, ...], VertexSet]:
    """Sampling attempt ``index`` on the sub-seed ``mix64(seed, index)``:
    its stats, plus the sample, its map back to ``g`` and the breaking mask
    that the greedy pass takes when the attempt passes."""
    sampled = sample_vertices(g, p, random.Random(mix64(seed, index)))
    subgraph, kept = induced_subgraph(g, sampled)
    triangles = len(enumerate_triangles(subgraph))
    removed = break_triangles(subgraph)
    rows = subgraph.adjacency
    edges = subgraph.m - sum(
        1 for v in removed for w in rows[v] if w not in removed or w > v
    )
    np_ = g.n * p
    if not np_ / 2 <= len(sampled) <= 3 * np_ / 2:
        outcome = "vertex-count"
    elif triangles > np_ / 4:
        outcome = "triangles"
    elif edges > 5 * g.n * d * p * p:
        outcome = "edges"
    else:
        outcome = "pass"
    stats = AttemptStats(
        index=index,
        sampled=len(sampled),
        triangles=triangles,
        edges=edges,
        outcome=outcome,
    )
    return stats, subgraph, kept, removed


def sparsify_independent_set(
    g: Graph,
    epsilon: float,
    seed: int = 0,
    degree_cutoff: int = DEFAULT_DEGREE_CUTOFF,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> IndependentSetResult:
    """Find an independent set of ``g``.

    ``epsilon`` lies in the open interval (0, 3), so that ``p <= 1``. The
    caller checks the triangle budget (``PreparedPipeline`` does).

    When ``d``, the max degree of ``g``, is at most ``degree_cutoff`` the
    sampling stage is skipped: triangles are broken directly and the greedy
    pass runs on all of ``g``. Otherwise each vertex is kept with
    probability ``p = d**(epsilon/3 - 1)`` in up to ``max_retries``
    attempts, each on the sub-seed ``mix64(seed, index)``, and the first
    attempt to pass all three thresholds produces the result; attempts are
    independent, so they could run concurrently with the same first-pass
    selection rule. Raises :class:`RetriesExhausted` (with the audit trail)
    if none passes.
    """
    check_run_limits(epsilon, degree_cutoff, max_retries)
    _, d, _ = g.degree_profile
    if d <= degree_cutoff:
        vertices = triangle_free_independent_set(g, break_triangles(g))
        return IndependentSetResult(vertices=vertices, attempt_stats=())

    p = float(d) ** (epsilon / 3 - 1)
    trail: list[AttemptStats] = []
    for index in range(max_retries):
        stats, subgraph, kept, removed = _attempt(g, d, p, index, seed)
        trail.append(stats)
        if stats.outcome == "pass":
            chosen = triangle_free_independent_set(subgraph, removed)
            vertices = frozenset([kept[v] for v in chosen])
            return IndependentSetResult(vertices=vertices, attempt_stats=tuple(trail))
    raise RetriesExhausted(tuple(trail))
