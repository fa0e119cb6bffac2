"""Matchings of linear size, and matching contraction.

The rest of the pipeline builds on a matching with at least
``m / (max_degree + 1)`` edges, which for d-regular graphs is linear in n.
:func:`greedy_matching` is an O(m) maximal matching that usually meets
that bound. A proper edge coloring with at most ``max_degree + 1`` colors
(:func:`misra_gries_edge_color`, kept as one map from color to neighbor
per vertex) always has a color class of that size (Vizing), and
:func:`extract_matching` takes it. The pipeline runs these two only when
the greedy matching is short: on 22 of the 519 acceptance-corpus graphs,
and on no benchmark graph. Contracting a matching produces the quotient
graph whose independent sets pull back to induced matchings of the host.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Edge, Graph, Matching, _ids, _present_edges, _vertex_ids


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring: ``colors`` maps each canonical edge to a color
    id in ``[0, num_colors)``. Its items are the contract; its iteration
    order is not."""

    colors: dict[Edge, int]
    num_colors: int


def is_proper_edge_coloring(g: Graph, coloring: EdgeColoring) -> bool:
    """Every edge colored, ids in range, and no color repeated at a vertex.
    Keys are the edge set iff there are ``m`` of them, each an edge of ``g``.
    A key that is not a pair of ints, or a color that is not an int, gives
    ``False``. The colors seen are held as ``(vertex, color)`` pairs, two
    per edge, so the memory is bounded by the edge count and not by the
    largest color."""
    if len(coloring.colors) != g.m:
        return False
    n, num_colors = g.n, coloring.num_colors
    used = set()  # (v, c) for each c-colored edge at v
    for key, c in coloring.colors.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            return False
        u, v = key
        if not all(isinstance(x, int) for x in (u, v, c)):
            return False
        if not (0 <= u < v < n and g.has_edge(u, v) and 0 <= c < num_colors):
            return False
        if (u, c) in used or (v, c) in used:
            return False
        used.add((u, c))
        used.add((v, c))
    return True


def misra_gries_edge_color(g: Graph) -> EdgeColoring:
    """Proper edge coloring with at most ``max_degree + 1`` colors by the
    Misra-Gries fan rotation procedure (Misra & Gries, Inform. Process.
    Lett. 41, 1992).

    The state is one map per vertex: ``at[v][c]`` is the neighbor across
    v's c-colored edge. Edges are colored one by one in canonical order. For
    an uncolored edge (u, v) the procedure grows a maximal fan of u from v,
    takes the lowest color c free at u and d free at the fan tip, and, when
    d is not free at u, flips the d/c path from u. It then rotates the fan
    up to its first vertex missing d and colors that vertex's edge to u
    with d. Every choice takes the lowest admissible color, so the result
    is deterministic. The colors are read off the maps and renumbered
    ``0..k-1`` in order. Its items are the contract; its iteration order is
    not.

    The pipeline runs this only where the greedy matching is short of
    ``m / (max_degree + 1)``: on 22 of the 519 acceptance-corpus graphs, and
    on no benchmark graph. The benchmark's tracer wraps it by name, so it
    keeps its name until the benchmark stops doing so.
    """
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v in g.edges():
        # fan[i + 1] is u's neighbor across color fan_cols[i], which is free
        # at fan[i]; each step takes the lowest such color not yet in the fan
        fan, fan_cols = [v], []
        while free := at[u].keys() - at[fan[-1]].keys() - set(fan_cols):
            col = min(free)
            fan_cols.append(col)
            fan.append(at[u][col])
        # the lowest colors free at u and at the tip
        c = min(range(len(at[u]) + 1) - at[u].keys())
        d = min(range(len(at[fan[-1]]) + 1) - at[fan[-1]].keys())

        if d in at[u]:  # then d != c, which is free at u
            # flip the path from u alternating d, c: swap the two entries at
            # each vertex on it. It cannot come back to u, where c is free.
            path, x, col = [u], u, d
            while col in at[x]:
                x = at[x][col]
                path.append(x)
                col = c + d - col
            for x in path:
                old = {col: at[x].pop(col) for col in (c, d) if col in at[x]}
                at[x].update({c + d - col: y for col, y in old.items()})
            # u's d-edge, which may be a fan edge, is now colored c
            fan_cols = [c if col == d else col for col in fan_cols]

        # rotate the fan up to its first vertex missing d: (u, fan[j]) takes
        # the color of (u, fan[j + 1]), and (u, fan[w]) takes d
        w = next(i for i, x in enumerate(fan) if d not in at[x])
        for j, (x, col) in enumerate(zip(fan, fan_cols[:w] + [d])):
            if j:
                del at[x][fan_cols[j - 1]]  # the old color of (u, x)
            at[x][col] = u
            at[u][col] = x

    colors = {(x, y): col for x, row in enumerate(at) for col, y in row.items() if x < y}
    rank = {col: i for i, col in enumerate(sorted(set(colors.values())))}
    return EdgeColoring({e: rank[col] for e, col in colors.items()}, len(rank))


def greedy_matching(g: Graph) -> Matching:
    """Lexicographic greedy maximal matching, in one O(m) pass: each
    unmatched vertex u, in increasing order, takes its lowest unmatched
    neighbor above u. Equal to keeping each edge of ``sorted(g.edges())``
    whose ends are both free. Maximal, so it has at least
    ``m / (2 * max_degree - 1)`` edges, but it can fall short of
    ``m / (max_degree + 1)``. Each ``u`` is read from the id table
    (:func:`~indmatch.graph._ids`) and each ``v`` from ``u``'s row."""
    free = [True] * g.n
    chosen: list[Edge] = []
    for u, row in zip(_ids(g.n), g.adjacency):
        if free[u]:
            for v in row:
                if v > u and free[v]:
                    free[u] = free[v] = False
                    chosen.append((u, v))
                    break
    return tuple(chosen)


def extract_matching(g: Graph, coloring: EdgeColoring) -> Matching:
    """Largest color class of a proper edge coloring (lowest color id on
    ties). For a d-regular graph with a (d+1)-coloring this has size at
    least ``ceil(n*d / (2*(d+1))) >= ceil(n/4)``."""
    if not is_proper_edge_coloring(g, coloring):
        raise ValueError("coloring is not a proper edge coloring of the graph")
    if not coloring.colors:
        return ()
    sizes = Counter(coloring.colors.values())
    best = max(sizes, key=lambda c: (sizes[c], -c))
    return tuple(sorted(e for e, c in coloring.colors.items() if c == best))


@dataclass(frozen=True)
class ContractedGraph:
    """Quotient of a host graph by a matching.

    ``graph`` has one vertex per matching edge, and ``rep[x]`` is the
    matching edge behind contracted vertex ``x``. Distinct contracted
    vertices are adjacent iff some host edge joins their endpoint pairs;
    the matching edge itself never produces a loop.
    """

    graph: Graph
    rep: tuple[Edge, ...]


def contract_matching(g: Graph, matching) -> ContractedGraph:
    """Quotient of ``g`` by ``matching``, whose edges become vertices
    ``0..k-1`` in canonical order.

    The matching is canonicalized and checked once: an endpoint outside
    ``[0, n)`` or a pair that is not an edge of ``g`` raises ``ValueError``
    (:func:`~indmatch.graph._present_edges`), and so do two edges sharing
    an endpoint, but only once every edge has passed the first two checks.
    The overlap check fills a flat owner list: entry ``v`` is the index of
    the edge at endpoint ``v``, read from the id table
    (:func:`~indmatch.graph._ids`), and ``-1`` at every unmatched host
    vertex.
    The row of vertex ``idx`` is the sorted set of owners of the host
    neighbors of either endpoint of ``rep[idx]``, minus ``idx`` and ``-1``.
    """
    edges = _present_edges(g, matching)
    owner = [-1] * g.n
    for idx, (u, v) in zip(_ids(len(edges)), edges):
        if owner[u] >= 0 or owner[v] >= 0:
            raise ValueError("edges do not form a matching")
        owner[u] = owner[v] = idx
    get, adjacency = owner.__getitem__, g.adjacency
    # host adjacency is symmetric, so these sorted rows are too
    rows = []
    for idx, (a, b) in enumerate(edges):
        row = set(map(get, adjacency[a] + adjacency[b]))
        row.discard(idx)
        row.discard(-1)
        rows.append(tuple(sorted(row)))
    return ContractedGraph(graph=Graph(len(edges), tuple(rows)), rep=edges)


def pull_back_matching(contracted: ContractedGraph, vertices) -> Matching:
    """Map an independent set of the quotient back to host edges; the result
    is an induced matching of the host. An id that ``operator.index``
    rejects, or a vertex outside ``[0, n)`` of the quotient, raises
    ``ValueError`` (:func:`~indmatch.graph._vertex_ids`). A frozenset, which
    is what ``sparsify_independent_set`` returns, is read as given, not
    copied, and its plain ints are checked by C-level passes."""
    rep = contracted.rep
    return tuple(sorted(map(rep.__getitem__, _vertex_ids(vertices, len(rep)))))
