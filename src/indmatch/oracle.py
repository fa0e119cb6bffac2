"""Brute-force reference implementations and structural checkers.

Everything here is deliberately slow and obviously correct; the fast paths
are validated against these on small instances. Size caps keep accidental
exponential blowups from hanging a test run; callers may override them.
"""

from __future__ import annotations

import random
import sys
from collections import defaultdict
from itertools import combinations
from operator import index
from pathlib import Path
from typing import IO, Iterable

from . import generators
from .generators import GenerationError, _projective_points, _require_prime
from .graph import (
    Graph,
    Matching,
    VertexSet,
    _not_an_id,
    from_edge_list,
    ordered_edge,
)
from .matching import ContractedGraph, EdgeColoring


# Instance-size caps for the exponential searches; ``limit=`` overrides them.
SUBSET_SEARCH_LIMIT = 16  # induced matching / independent set
TRIANGLE_COUNT_LIMIT = 64
KBB_SEARCH_LIMIT = 20


class OracleLimitError(ValueError):
    pass


def validate_graph(g: Graph) -> None:
    """Walk every representation invariant, raising ``ValueError`` on the
    first violation. Used by tests on graphs produced by other modules."""
    if g.n < 0:
        raise ValueError("negative vertex count")
    if len(g.adjacency) != g.n:
        raise ValueError("adjacency length differs from vertex count")
    total = 0
    for v, nbrs in enumerate(g.adjacency):
        if list(nbrs) != sorted(set(nbrs)):
            raise ValueError(f"adjacency of {v} not sorted or has duplicates")
        for w in nbrs:
            if not 0 <= w < g.n:
                raise ValueError(f"neighbor {w} of {v} out of range")
            if w == v:
                raise ValueError(f"self-loop at {v}")
            if v not in g.adjacency[w]:
                raise ValueError(f"asymmetric edge ({v}, {w})")
        total += len(nbrs)
    if g.m != total // 2:
        raise ValueError("edge count inconsistent with adjacency")


def is_independent_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``vertices``."""
    chosen = set(vertices)
    for v in chosen:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        if not chosen.isdisjoint(g.adjacency[v]):
            return False
    return True


def _check_size(n: int, cap: int | None, default: int, what: str) -> None:
    bound = default if cap is None else cap
    if bound <= 0:
        raise ValueError("oracle limit must be positive")
    if n > bound:
        raise OracleLimitError(f"{what} limited to n <= {bound}, got n = {n}")


def _max_weight_subset(conflict: list[int], count: int) -> tuple[int, int]:
    """Branch-and-bound maximum independent set over conflict bitmasks.

    Returns ``(size, chosen_mask)``. Deterministic: branches on the item
    with most conflicts among the remaining ones, lowest index first.
    """
    best_size = 0
    best_mask = 0

    def rec(avail: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_mask
        if size + avail.bit_count() <= best_size:
            return
        if avail == 0:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        pick = -1
        pick_deg = -1
        a = avail
        while a:
            bit = a & -a
            v = bit.bit_length() - 1
            a ^= bit
            deg = (conflict[v] & avail).bit_count()
            if deg > pick_deg:
                pick_deg, pick = deg, v
        if pick_deg == 0:
            size += avail.bit_count()
            if size > best_size:
                best_size, best_mask = size, chosen | avail
            return
        bit = 1 << pick
        rec(avail & ~(conflict[pick] | bit), size + 1, chosen | bit)
        rec(avail & ~bit, size, chosen)

    rec((1 << count) - 1, 0, 0)
    return best_size, best_mask


def max_independent_set_bf(g: Graph, limit: int | None = None) -> tuple[int, VertexSet]:
    """Maximum independent set size with a witness, by exhaustive search."""
    _check_size(g.n, limit, SUBSET_SEARCH_LIMIT, "independent-set search")
    masks = [sum(1 << w for w in g.adjacency[v]) for v in range(g.n)]
    size, mask = _max_weight_subset(masks, g.n)
    witness = frozenset(v for v in range(g.n) if mask >> v & 1)
    return size, witness


def max_induced_matching_bf(g: Graph, limit: int | None = None) -> tuple[int, Matching]:
    """Maximum induced matching size with a witness.

    Searches edge subsets with include/exclude branching; two edges conflict
    when they share a vertex or any graph edge joins their endpoints.
    """
    _check_size(g.n, limit, SUBSET_SEARCH_LIMIT, "induced-matching search")
    edges = sorted(g.edges())
    closed = []
    for u, v in edges:
        closed.append({u, v} | set(g.adjacency[u]) | set(g.adjacency[v]))
    conflict = [0] * len(edges)
    for i, j in combinations(range(len(edges)), 2):
        x, y = edges[j]
        if x in closed[i] or y in closed[i]:
            conflict[i] |= 1 << j
            conflict[j] |= 1 << i
    size, mask = _max_weight_subset(conflict, len(edges))
    witness = tuple(edges[i] for i in range(len(edges)) if mask >> i & 1)
    return size, witness


def count_triangles_bf(g: Graph, limit: int | None = None) -> int:
    """Exact triangle count by scanning all vertex triples."""
    _check_size(g.n, limit, TRIANGLE_COUNT_LIMIT, "triangle count")
    nbr = [set(row) for row in g.adjacency]
    total = 0
    for a, b, c in combinations(range(g.n), 3):
        if b in nbr[a] and c in nbr[a] and c in nbr[b]:
            total += 1
    return total


def contains_kbb_bf(g: Graph, b: int, limit: int | None = None) -> bool:
    """True iff some pair of disjoint ``b``-sets is completely joined.

    Equivalent formulation used here: some ``b``-set of vertices has at
    least ``b`` common neighbors (common neighbors are automatically
    disjoint from the set because the graph has no self-loops).
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    _check_size(g.n, limit, KBB_SEARCH_LIMIT, "complete-bipartite search")
    if g.n < 2 * b:
        return False
    nbr = [set(row) for row in g.adjacency]
    for side in combinations(range(g.n), b):
        common = nbr[side[0]]
        for v in side[1:]:
            common = common & nbr[v]
            if len(common) < b:
                break
        if len(common) >= b:
            return True
    return False


def is_c4_free_bf(g: Graph, limit: int | None = None) -> bool:
    """True iff ``g`` has no 4-cycle; a 4-cycle is exactly a complete
    bipartite pair of 2-sets."""
    return not contains_kbb_bf(g, 2, limit=limit)


def from_edge_list_bf(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Set-per-vertex twin of :func:`indmatch.graph.from_edge_list`, with
    the same checks in the same order and the same messages."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"vertex count must be at most {sys.maxsize}, got {n}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise _not_an_id(u, v) from None
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def read_edge_list_bf(source: str | Path | IO[str]) -> Graph:
    """Whole-text twin of :func:`indmatch.graph.read_edge_list`: reads the
    text at once (``read_text`` on a path), splits it at each LF, and
    builds the graph with :func:`from_edge_list_bf` from a lazy parse of
    the nonblank lines after the header, so the checks run in file order.
    The first fault wins, with the same messages: the header, a vertex
    count that is negative or past ``sys.maxsize``, the first edge line
    that is not two integers or the first bad pair, and last the count of
    edge lines."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    lines = enumerate(map(str.split, text.split("\n")), 1)
    for lineno, tokens in lines:
        if tokens:
            try:
                n, m = map(int, tokens)  # exactly two tokens
            except ValueError as exc:
                raise ValueError(f"line {lineno}: expected header 'n m'") from exc
            break
    else:
        raise ValueError("empty edge-list file")
    edge_lines = [(lineno, tokens) for lineno, tokens in lines if tokens]

    def pairs():
        for lineno, tokens in edge_lines:
            try:
                u, v = tokens
                u, v = int(u), int(v)
            except ValueError:
                raise ValueError(f"line {lineno}: expected two integers") from None
            yield u, v

    g = from_edge_list_bf(n, pairs())
    if len(edge_lines) != m:
        raise ValueError(f"expected {m} edge lines, found {len(edge_lines)}")
    return g


def canonical_matching_bf(edges: Iterable[tuple[int, int]]) -> Matching:
    """Set-and-sort twin of :func:`indmatch.graph.canonical_matching`,
    which always builds a new tuple: each pair is checked and ordered,
    then the set of pairs is sorted."""
    seen = set()
    for u, v in edges:
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise _not_an_id(u, v) from None
        if u == v:
            raise ValueError(f"degenerate matching edge ({u}, {v})")
        seen.add(ordered_edge(u, v))
    return tuple(sorted(seen))


def is_induced_matching_bf(g: Graph, matching) -> bool:
    """Exhaustive recheck of the induced-matching property.

    Independent of :func:`indmatch.graph.is_induced_matching`: compares the
    full edge set over all endpoint pairs instead of walking adjacency.
    """
    edges = canonical_matching_bf(matching)
    all_edges = set(g.edges())
    for e in edges:
        if e not in all_edges:
            raise ValueError(f"matching edge {e} not present in graph")
    endpoints = [v for e in edges for v in e]
    if len(endpoints) != len(set(endpoints)):
        return False
    induced = {
        ordered_edge(u, v)
        for u, v in combinations(sorted(set(endpoints)), 2)
        if ordered_edge(u, v) in all_edges
    }
    return induced == set(edges)


def greedy_matching_bf(g: Graph) -> Matching:
    """Edge-order twin of :func:`indmatch.matching.greedy_matching`: keep
    each edge of ``sorted(g.edges())`` whose ends are both still free."""
    matched: set[int] = set()
    chosen = []
    for u, v in sorted(g.edges()):
        if u not in matched and v not in matched:
            matched.update((u, v))
            chosen.append((u, v))
    return tuple(chosen)


def contract_matching_bf(g: Graph, matching) -> ContractedGraph:
    """Dict-and-set twin of :func:`indmatch.matching.contract_matching`,
    with its own checks and the same messages: edges are looked up in the
    host's edge set, and an overlap leaves the dict from matched host
    vertex to edge index short of two keys per edge. Each row probes that
    dict for every neighbor of both endpoints."""
    edges = canonical_matching_bf(matching)
    host_edges = set(g.edges())
    for u, v in edges:  # canonical, so u < v; checked in that order
        if (u, v) not in host_edges:
            fault = "not present in graph" if 0 <= u < v < g.n else f"out of range for n={g.n}"
            raise ValueError(f"matching edge ({u}, {v}) {fault}")
    inv_rep = {x: idx for idx, e in enumerate(edges) for x in e}
    if len(inv_rep) < 2 * len(edges):
        raise ValueError("edges do not form a matching")
    adjacency = g.adjacency
    rows = []
    for idx, e in enumerate(edges):
        row = {inv_rep[w] for x in e for w in adjacency[x] if w in inv_rep}
        row.discard(idx)
        rows.append(tuple(sorted(row)))
    return ContractedGraph(graph=Graph(len(edges), tuple(rows)), rep=edges)


def min_degree_greedy_bf(g: Graph, removed=frozenset()) -> VertexSet:
    """Rescanning twin of :func:`indmatch.sparsify.triangle_free_independent_set`,
    without its triangle guard: rescan every live vertex for the least
    (live degree, id), take it and delete its closed neighborhood."""
    nbr = [set(row) for row in g.adjacency]
    live = set(range(g.n)) - set(removed)
    chosen = set()
    while live:
        v = min(live, key=lambda x: (len(nbr[x] & live), x))
        chosen.add(v)
        live -= nbr[v] | {v}
    return frozenset(chosen)


def is_proper_edge_coloring_bf(g: Graph, coloring: EdgeColoring) -> bool:
    """Set-based twin of :func:`indmatch.matching.is_proper_edge_coloring`."""
    if set(coloring.colors) != set(g.edges()):
        return False
    seen: list[set[int]] = [set() for _ in range(g.n)]
    for (u, v), c in coloring.colors.items():
        # a key equal to an edge may still hold floats, such as (0.0, 1.0)
        if not all(isinstance(x, int) for x in (u, v, c)):
            return False
        if not 0 <= c < coloring.num_colors or c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    return True


def _dot(u: tuple[int, int, int], v: tuple[int, int, int], q: int) -> int:
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % q


def projective_incidence_graph_bf(q: int) -> Graph:
    """Dot-product twin of
    :func:`indmatch.generators.projective_incidence_graph`: tests every
    point-line pair, O(q^4)."""
    _require_prime(q)
    pts = _projective_points(q)
    n = len(pts)
    edges = [
        (i, n + j)
        for i in range(n)
        for j in range(n)
        if _dot(pts[i], pts[j], q) == 0
    ]
    return from_edge_list(2 * n, edges)


def polarity_graph_bf(q: int) -> Graph:
    """Dot-product twin of :func:`indmatch.generators.polarity_graph`:
    tests every pair of distinct points, O(q^4)."""
    _require_prime(q)
    pts = _projective_points(q)
    n = len(pts)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if _dot(pts[i], pts[j], q) == 0
    ]
    return from_edge_list(n, edges)


def _pairing_suitable_bf(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
    # A stuck pairing round can still finish iff some pair of leftover stubs
    # joins non-adjacent distinct vertices.
    if not leftover:
        return True
    nodes = list(leftover)
    for i, s1 in enumerate(nodes):
        for s2 in nodes[i + 1 :]:
            pair = (s1, s2) if s1 < s2 else (s2, s1)
            if pair not in edges:
                return True
    return False


def _try_pairing_bf(n: int, d: int, rng: random.Random) -> set[tuple[int, int]] | None:
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        leftover: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] += 1
                leftover[s2] += 1
        if not leftover:
            return edges
        if not _pairing_suitable_bf(edges, leftover):
            return None
        stubs = [v for v, cnt in leftover.items() for _ in range(cnt)]
    return edges


def random_regular_bf(n: int, d: int, seed: int) -> Graph:
    """Edge-set twin of :func:`indmatch.generators.random_regular`: the
    same pairing model and restarts, with the stubs shuffled by
    ``random.Random.shuffle``, the accepted pairs kept in a set of edge
    tuples and the graph built by :func:`from_edge_list`. Reads
    ``generators.PAIRING_RESTART_BUDGET`` at call time."""
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError(f"degree {d} requires more than {n} vertices")
    if n * d % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = random.Random(seed)
    budget = generators.PAIRING_RESTART_BUDGET
    for _ in range(budget):
        edges = _try_pairing_bf(n, d, rng)
        if edges is not None:
            # drained while the rows fill, so the pairs and the graph never
            # coexist in full; the rows are sorted, so the order is moot
            return from_edge_list(n, (edges.pop() for _ in range(len(edges))))
    raise GenerationError(
        f"no simple {d}-regular pairing on {n} vertices after {budget} restarts"
    )
