"""Immutable simple undirected graphs and the structural checks built on them.

Vertices are dense integers ``0..n-1`` and adjacency is kept as sorted
tuples, which makes triangle enumeration by neighbor intersection cheap and
lets graph values be shared freely across threads. An induced subgraph is
a new graph together with its kept vertices; vertex deletion elsewhere is a
mask over the unchanged graph.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, starmap
from operator import index, lt
from pathlib import Path
from typing import IO, Iterable, Iterator

VertexSet = frozenset[int]
Edge = tuple[int, int]
Triangle = tuple[int, int, int]
Matching = tuple[Edge, ...]


def ordered_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def _not_an_id(u, v) -> ValueError:
    """The error naming ``u``, or else ``v``, as an id that
    ``operator.index`` rejects."""
    try:
        index(u)
    except TypeError:
        return ValueError(f"vertex id {u!r} is not an integer")
    return ValueError(f"vertex id {v!r} is not an integer")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``. Untrusted
    pairs enter through :func:`from_edge_list`, which enforces the invariants
    (no self-loops, symmetric adjacency, no duplicates); :func:`induced_subgraph`,
    ``contract_matching`` and the projective, polarity and ``random_regular``
    generators build such rows directly, checked by ``oracle.validate_graph``
    in tests. Derived facts (``m``, ``degree_profile``, ``triangles``) are
    computed on first use and cached on the graph.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @cached_property
    def degree_profile(self) -> tuple[int, int, bool]:
        """``(min_degree, max_degree, is_regular)``; ``(0, 0, True)`` for
        the empty graph."""
        if self.n == 0:
            return (0, 0, True)
        degs = [len(nbrs) for nbrs in self.adjacency]
        lo, hi = min(degs), max(degs)
        return (lo, hi, lo == hi)

    @cached_property
    def triangles(self) -> tuple[Triangle, ...]:
        """All triangles, each exactly once as a sorted tuple, in sorted order.

        Neighbor intersection over the (degree, id) order: ``w`` follows
        ``v`` iff ``(deg[w], w) > (deg[v], v)``, read off one list of the
        degrees (small cached ints), so no rank is computed per vertex. Each
        vertex keeps the tuple of its later neighbors, and every triangle is
        reported from its first vertex in that order, so no deduplication
        pass is needed, and the listing takes O(m^1.5) time.
        """
        adjacency = self.adjacency
        deg = [len(row) for row in adjacency]
        forward = [
            tuple([w for w in row if deg[w] > d or (deg[w] == d and w > v)])
            for v, (row, d) in enumerate(zip(adjacency, deg))
        ]
        triangles: list[Triangle] = []
        for u, fu in enumerate(forward):
            if len(fu) < 2:  # u is the first vertex of its triangles
                continue
            later = set(fu)
            for v in fu:
                for w in later.intersection(forward[v]):
                    a, b, c = sorted((u, v, w))
                    triangles.append((a, b, c))
        triangles.sort()
        return tuple(triangles)

    def has_edge(self, u: int, v: int) -> bool:
        """False whenever ``u`` or ``v`` lies outside ``[0, n)``. Scans the
        sorted row of ``u``, so no per-vertex set is built."""
        return 0 <= u < self.n and v in self.adjacency[u]

    def edges(self) -> Iterator[Edge]:
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a :class:`Graph` from vertex pairs, read in one pass.

    Duplicate pairs (in either orientation) collapse to one edge. Self-loops,
    out-of-range endpoints and ids that are not integers (``operator.index``
    rejects floats and strings) raise ``ValueError``, for the first bad
    pair in order. Neighbors collect in one list per vertex, and each list
    is replaced in place by its sorted, deduplicated row, so the buffers
    and the finished rows never coexist in full.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    rows: list = [[] for _ in range(n)]
    for u, v in edges:
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise _not_an_id(u, v) from None
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u].append(v)
        rows[v].append(u)
    for v, row in enumerate(rows):
        rows[v] = tuple(sorted(set(row)))
    return Graph(n, tuple(rows))


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of ``g``, each exactly once as a sorted tuple, in sorted
    order. Computed once per graph and cached on it."""
    return g.triangles


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices`` plus ``kept``, the selected vertices
    sorted, so new vertex ``i`` is old vertex ``kept[i]``. A selected
    vertex outside ``[0, n)`` raises ``ValueError`` naming the smallest one.
    """
    chosen = sorted(set(vertices))
    if chosen and (chosen[0] < 0 or chosen[-1] >= g.n):
        bad = chosen[0] if chosen[0] < 0 else chosen[bisect_left(chosen, g.n)]
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    mapping = dict(zip(chosen, range(len(chosen))))
    get, has, rows = mapping.__getitem__, mapping.__contains__, g.adjacency
    adjacency = tuple([tuple(map(get, filter(has, rows[old]))) for old in chosen])
    return Graph(len(chosen), adjacency), tuple(chosen)


def canonical_matching(edges: Iterable[tuple[int, int]]) -> Matching:
    """Normalize edges to sorted ``(u, v)`` pairs with ``u < v``, deduplicated
    and sorted. Rejects degenerate pairs ``(u, u)`` and ids that are not
    integers. An input that is already canonical (a ``tuple`` of
    ``(int, int)`` tuples, each with ``u < v``, strictly increasing) is
    returned itself, not copied; that test is one C-level pass per
    condition, with no Python code run per edge."""
    if (
        type(edges) is tuple
        and set(map(type, edges)) <= {tuple}
        and set(map(len, edges)) <= {2}
        and set(map(type, chain.from_iterable(edges))) <= {int}
        and all(starmap(lt, edges))
        and all(map(lt, edges, islice(edges, 1, None)))
    ):
        return edges
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


def _present_edges(g: Graph, matching) -> Matching:
    """Canonical edges of ``matching``. Any edge out of range or absent from
    ``g`` raises ``ValueError``, wherever it stands in the matching; edges
    sharing an endpoint are left to the caller."""
    edges = canonical_matching(matching)
    n, adjacency = g.n, g.adjacency
    for u, v in edges:
        if u < 0 or v >= n:  # canonical: u < v
            raise ValueError(f"matching edge ({u}, {v}) out of range for n={n}")
        if v not in adjacency[u]:
            raise ValueError(f"matching edge ({u}, {v}) not present in graph")
    return edges


def _matching_owner(g: Graph, matching) -> tuple[Matching, list[int] | None]:
    """Canonical edges of ``matching`` and the flat owner list: entry ``v``
    is the index of the edge at endpoint ``v``, and ``-1`` at every other
    host vertex. The list is ``None`` when two edges share an endpoint; any
    edge out of range or absent from ``g`` raises ``ValueError`` first,
    wherever it stands in the matching."""
    edges = _present_edges(g, matching)
    owner = [-1] * g.n
    for idx, (u, v) in enumerate(edges):
        if owner[u] >= 0 or owner[v] >= 0:
            return edges, None
        owner[u] = owner[v] = idx
    return edges, owner


def is_induced_matching(g: Graph, matching: Iterable[tuple[int, int]]) -> bool:
    """True iff ``matching`` is a matching of ``g`` and the subgraph induced
    on its endpoints contains no edge beyond the matching itself.

    Raises ``ValueError`` when a listed endpoint lies outside ``[0, n)`` or
    a listed edge is absent from ``g``, wherever it stands in the matching.
    Beyond the canonical edges, the only temporary is the set of their
    endpoints: no list or mask of size ``n`` is built.
    """
    edges = _present_edges(g, matching)
    endpoints = set(chain.from_iterable(edges))
    if len(endpoints) != 2 * len(edges):  # two edges share an endpoint
        return False
    # every endpoint has its partner as a matched neighbor, so the counts
    # sum to len(endpoints) iff none has another
    rows = map(g.adjacency.__getitem__, endpoints)
    return sum(map(len, map(endpoints.intersection, rows))) == len(endpoints)


# Edge-list text format: first line "n m", then m lines "u v" (0-indexed,
# whitespace separated). Readers accept either endpoint order and collapse
# duplicate lines.


def write_edge_list(g: Graph, target: str | Path | IO[str]) -> None:
    """Write the header, then the edge lines in ``g.edges()`` order, joined
    1024 lines to a ``write``: the text of the whole file is never built,
    and the per-call cost of one ``write`` per line is not paid either."""
    opened = isinstance(target, (str, Path))
    with open(target, "w", encoding="utf-8") if opened else nullcontext(target) as out:
        out.write(f"{g.n} {g.m}\n")
        edges = g.edges()
        while chunk := "".join([f"{u} {v}\n" for u, v in islice(edges, 1024)]):
            out.write(chunk)


def edge_line_columns(
    lines: Iterable[str], start: int = 1
) -> tuple[list[int], list[int], list[int]]:
    """The two int columns of edge lines ``u v``, and the numbers of the
    lines that are not two integers. Lines are numbered from ``start`` and
    read as given, one at a time: a file opened with universal newlines
    ends a line at LF, CRLF or a lone CR, and a form feed or U+2028 is
    whitespace inside a line. Blank lines are skipped."""
    us: list[int] = []
    vs: list[int] = []
    bad_lines: list[int] = []
    for lineno, tokens in enumerate(map(str.split, lines), start):
        if not tokens:
            continue
        try:
            u, v = tokens
            u, v = int(u), int(v)
        except ValueError:
            bad_lines.append(lineno)
            continue
        us.append(u)
        vs.append(v)
    return us, vs, bad_lines


def _edge_columns(source: str | Path | IO[str]) -> tuple[int, list[int], list[int]]:
    """The vertex count and the two endpoint columns of an edge-list file.
    One pass over the lines, streamed: a path is opened with universal
    newlines, and an IO source is iterated as given, so neither the text
    nor a list of its lines is ever held. The header is the first line
    that is not blank; :func:`edge_line_columns` reads the rest, and errors
    name the original line. Checked in order: header, line count, the
    first edge line that is not two integers."""
    opened = isinstance(source, (str, Path))
    with open(source, encoding="utf-8") if opened else nullcontext(source) as text:
        for lineno, line in enumerate(text, 1):
            if tokens := line.split():
                try:
                    n, m = map(int, tokens)  # exactly two tokens
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: expected header 'n m'") from exc
                break
        else:
            raise ValueError("empty edge-list file")
        us, vs, bad_lines = edge_line_columns(text, lineno + 1)
    found = len(us) + len(bad_lines)
    if found != m:
        raise ValueError(f"expected {m} edge lines, found {found}")
    if bad_lines:
        raise ValueError(f"line {bad_lines[0]}: expected two integers")
    return n, us, vs


def read_edge_list(source: str | Path | IO[str]) -> Graph:
    """Parse an edge-list file into two endpoint columns, then build the
    graph from their pairs. The line checks of the parse come first, then
    :func:`from_edge_list`'s checks.

    Each parsed id is its own int object. When every id lies in ``[0, n)``,
    both columns are mapped onto one shared object per vertex id before
    the build, so the graph's rows hold ``n`` ids and not one per edge end;
    other files reach :func:`from_edge_list` as parsed, for its messages.
    """
    n, us, vs = _edge_columns(source)
    if us and min(min(us), min(vs)) >= 0 and max(max(us), max(vs)) < n:
        get = list(range(n)).__getitem__
        us = list(map(get, us))
        vs = list(map(get, vs))
    return from_edge_list(n, zip(us, vs))
