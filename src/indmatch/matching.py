"""Edge coloring, matching extraction, and matching contraction.

A proper edge coloring with at most ``max_degree + 1`` colors always has a
color class of size ``m / (max_degree + 1)``, which for d-regular graphs is
the linear-size matching the rest of the pipeline builds on. Contracting a
matching produces the quotient graph whose independent sets pull back to
induced matchings of the host.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Edge, Graph, Matching, _matching_owner, degree_profile, ordered_edge


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring: ``colors`` maps each canonical edge to a color
    id in ``[0, num_colors)``."""

    colors: dict[Edge, int]
    num_colors: int


def is_proper_edge_coloring(g: Graph, coloring: EdgeColoring) -> bool:
    """Every edge colored, ids in range, and no color repeated at a vertex.
    Keys are the edge set iff there are ``m`` of them, each an edge of ``g``."""
    if len(coloring.colors) != g.m:
        return False
    n, num_colors = g.n, coloring.num_colors
    used = [0] * n  # bit c of used[v] is set iff v has a c-colored edge
    for (u, v), c in coloring.colors.items():
        if not (0 <= u < v < n and g.has_edge(u, v) and 0 <= c < num_colors):
            return False
        bit = 1 << c
        if (used[u] | used[v]) & bit:
            return False
        used[u] |= bit
        used[v] |= bit
    return True


def misra_gries_edge_color(g: Graph) -> EdgeColoring:
    """Proper edge coloring with at most ``max_degree + 1`` colors by the
    Misra-Gries fan rotation procedure.

    Works edge by edge in canonical order. For an uncolored edge (u, v) it
    grows a maximal fan of u starting at v, picks a color c free at u and d
    free at the fan tip, flips the alternating c/d path through u, then
    rotates a fan prefix and colors its last edge d. All choices (fan
    extension, free colors, prefix) take the lowest-numbered admissible
    color, so the result is deterministic; colors at u are distinct, so a
    fan color names its vertex and no tie between vertices arises.
    """
    _, delta, _ = degree_profile(g)
    palette = delta + 1
    # at[v][c] = neighbor across the c-colored edge at v; bit c of used[v]
    # is set iff v has a c-colored edge
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]
    used = [0] * g.n
    ecolor: dict[Edge, int] = {}

    def free_color(v: int) -> int:
        return (~used[v] & (used[v] + 1)).bit_length() - 1

    def assign(x: int, y: int, c: int) -> None:
        at[x][c] = y
        at[y][c] = x
        used[x] |= 1 << c
        used[y] |= 1 << c
        ecolor[ordered_edge(x, y)] = c

    def unassign(x: int, y: int) -> int:
        c = ecolor.pop(ordered_edge(x, y))
        del at[x][c]
        del at[y][c]
        used[x] ^= 1 << c
        used[y] ^= 1 << c
        return c

    for u, v in sorted(g.edges()):
        # maximal fan of u starting at v: next is the lowest color at u
        # that is free at the tip and not yet in the fan
        fan = [v]
        fan_colors = 0
        while candidates := used[u] & ~used[fan[-1]] & ~fan_colors:
            low = candidates & -candidates
            fan_colors |= low
            fan.append(at[u][low.bit_length() - 1])

        c = free_color(u)
        d = free_color(fan[-1])
        if c != d:
            # invert the maximal path through u alternating d, c
            path: list[tuple[int, int, int]] = []
            x, col = u, d
            while col in at[x]:
                y = at[x][col]
                path.append((x, y, col))
                x, col = y, (c if col == d else d)
            for x, y, _ in path:
                unassign(x, y)
            for x, y, col in path:
                assign(x, y, c if col == d else d)

        # shortest fan prefix that is still a fan and whose tip misses d
        w_idx = None
        for i, fi in enumerate(fan):
            if i > 0 and ecolor[ordered_edge(u, fi)] in at[fan[i - 1]]:
                break
            if d not in at[fi]:
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan rotation failed; coloring bug")

        shifted = [unassign(u, fan[j]) for j in range(1, w_idx + 1)]
        for j in range(w_idx):
            assign(u, fan[j], shifted[j])
        assign(u, fan[w_idx], d)

    colors = sorted(set(ecolor.values()))
    if colors and colors[-1] >= palette:
        raise AssertionError("degree exceeded palette")
    remap = {c: i for i, c in enumerate(colors)}
    return EdgeColoring({e: remap[c] for e, c in ecolor.items()}, len(colors))


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

    ``graph`` has one vertex per matching edge; ``rep[x]`` is the matching
    edge behind contracted vertex ``x`` and ``inv_rep`` sends each matched
    host vertex to its contracted vertex. Distinct contracted vertices are
    adjacent iff some host edge joins their endpoint pairs; the matching
    edge itself never produces a loop.
    """

    graph: Graph
    rep: tuple[Edge, ...]
    inv_rep: dict[int, int]


def contract_matching(g: Graph, matching) -> ContractedGraph:
    edges, inv_rep = _matching_owner(g, matching)
    if inv_rep is None:
        raise ValueError("edges do not form a matching")
    # host adjacency is symmetric, so these sorted rows are too
    adjacency = g.adjacency
    rows = []
    for idx, e in enumerate(edges):
        row = {inv_rep[w] for x in e for w in adjacency[x] if w in inv_rep}
        row.discard(idx)
        rows.append(tuple(sorted(row)))
    return ContractedGraph(graph=Graph(len(edges), tuple(rows)), rep=edges, inv_rep=inv_rep)


def pull_back_matching(contracted: ContractedGraph, vertices) -> Matching:
    """Map an independent set of the quotient back to host edges; the result
    is an induced matching of the host."""
    return tuple(sorted(contracted.rep[x] for x in set(vertices)))
