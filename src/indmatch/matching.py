"""Matchings of linear size, and matching contraction.

The rest of the pipeline builds on a matching with at least
``m / (max_degree + 1)`` edges, which for d-regular graphs is linear in n.
:func:`greedy_matching` is an O(m) maximal matching that usually meets
that bound. A proper edge coloring with at most ``max_degree + 1`` colors
(:func:`misra_gries_edge_color`) always has a color class of that size
(Vizing), and :func:`extract_matching` takes it; the pipeline runs these
two only when the greedy matching is short. Contracting a matching
produces the quotient graph whose independent sets pull back to induced
matchings of the host.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Edge, Graph, Matching, _matching_owner


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring: ``colors`` maps each canonical edge to a color
    id in ``[0, num_colors)``. Its items are the contract; its iteration
    order is not."""

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

    State is two flat tables. Bit c of ``used[v]`` is set iff v has a
    c-colored edge, and then ``at[v * palette + c]`` is the neighbor across
    it; a slot whose bit is clear is stale and never read. The fan keeps
    its edges' colors, the flip and the rotation rewrite slots in place, and
    ``colors`` is read off the tables once at the end. Its items are the
    contract; its iteration order is not.
    """
    n = g.n
    _, delta, _ = g.degree_profile
    palette = delta + 1
    at = [0] * (n * palette)
    used = [0] * n

    for u, v in g.edges():
        # maximal fan of u starting at v: next is the lowest color at u
        # that is free at the tip and not yet in the fan; fan_cols[i] is the
        # color of edge (u, fan[i + 1])
        base_u = u * palette
        fan = [v]
        fan_cols: list[int] = []
        fan_mask = 0
        while candidates := used[u] & ~used[fan[-1]] & ~fan_mask:
            low = candidates & -candidates
            fan_mask |= low
            col = low.bit_length() - 1
            fan_cols.append(col)
            fan.append(at[base_u + col])

        c = (~used[u] & (used[u] + 1)).bit_length() - 1
        tip = used[fan[-1]]
        d = (~tip & (tip + 1)).bit_length() - 1
        if c != d and used[u] >> d & 1:
            # invert the maximal path from u alternating d, c; interior
            # vertices keep both colors, so only the two ends change ``used``
            path = [u]
            x, col = u, d
            while used[x] >> col & 1:
                x = at[x * palette + col]
                path.append(x)
                col ^= c ^ d
            col = c  # the new color of the path's first edge, at u
            for x, y in zip(path, path[1:]):
                at[x * palette + col] = y
                at[y * palette + col] = x
                col ^= c ^ d
            swap = (1 << c) | (1 << d)
            used[u] ^= swap
            used[path[-1]] ^= swap
            # the flip recolored u's d-edge, which may be a fan edge
            if fan_mask >> d & 1:
                fan_cols[fan_cols.index(d)] = c

        # shortest fan prefix that is still a fan and whose tip misses d
        w_idx = None
        for i, fi in enumerate(fan):
            if i > 0 and used[fan[i - 1]] >> fan_cols[i - 1] & 1:
                break
            if not used[fi] >> d & 1:
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan rotation failed; coloring bug")

        # rotate: edge (u, fan[j]) takes the color of (u, fan[j + 1]), and
        # (u, fan[w_idx]) takes d; u keeps its other colors and gains d
        fan_cols[w_idx:] = [d]
        for j in range(w_idx + 1):
            x, col = fan[j], fan_cols[j]
            at[base_u + col] = x
            at[x * palette + col] = u
            if j:
                used[x] ^= 1 << fan_cols[j - 1]
            used[x] |= 1 << col
        used[u] |= 1 << d

    all_used = 0
    for mask in used:
        all_used |= mask
    if all_used.bit_length() > palette:
        raise AssertionError("degree exceeded palette")
    colors: dict[Edge, int] = {}
    for x in range(n):
        mask, base = used[x], x * palette
        for col in range(mask.bit_length()):
            if mask >> col & 1 and x < (y := at[base + col]):
                colors[(x, y)] = col
    num_colors = all_used.bit_count()
    if all_used.bit_length() != num_colors:  # used colors are not 0..k-1
        present = [col for col in range(all_used.bit_length()) if all_used >> col & 1]
        remap = {col: i for i, col in enumerate(present)}
        colors = {e: remap[col] for e, col in colors.items()}
    return EdgeColoring(colors, num_colors)


def greedy_matching(g: Graph) -> Matching:
    """Lexicographic greedy maximal matching, in one O(m) pass: each
    unmatched vertex u, in increasing order, takes its lowest unmatched
    neighbor above u. Equal to keeping each edge of ``sorted(g.edges())``
    whose ends are both free. Maximal, so it has at least
    ``m / (2 * max_degree - 1)`` edges, but it can fall short of
    ``m / (max_degree + 1)``."""
    free = [True] * g.n
    chosen: list[Edge] = []
    for u, row in enumerate(g.adjacency):
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
    ``[0, n)`` or a pair that is not an edge of ``g`` raises ``ValueError``,
    and so do two edges sharing an endpoint, but only once every edge has
    passed the first two checks. The row of vertex ``idx`` is the sorted
    set of contracted vertices owning a host neighbor of either endpoint of
    ``rep[idx]``, minus ``idx`` itself. Owners are read from the flat list
    of :func:`~indmatch.graph._matching_owner`, which holds ``-1`` at every
    unmatched host vertex, and ``-1`` is dropped from each row.
    """
    edges, owner = _matching_owner(g, matching)
    if owner is None:
        raise ValueError("edges do not form a matching")
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
    is an induced matching of the host. A vertex outside ``[0, n)`` of the
    quotient raises ``ValueError``. A frozenset, which is what
    ``sparsify_independent_set`` returns, is read as given, not copied."""
    rep = contracted.rep
    chosen = frozenset(vertices)
    for x in chosen:
        if not 0 <= x < len(rep):
            raise ValueError(f"vertex {x} out of range for n={len(rep)}")
    return tuple(sorted(rep[x] for x in chosen))
