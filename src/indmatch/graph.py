"""Immutable simple undirected graphs and the structural checks built on them.

Vertices are dense integers ``0..n-1`` and adjacency is kept as sorted
tuples, so graph values can be shared freely across threads. A dense graph,
one with ``n**2 <= 128 * m``, also gets one int bitmask per row on first
use; its triangles and induced subgraphs are then found by ANDing masks,
and any other graph's by intersecting neighbor sets. An induced subgraph
is a new graph together with its kept vertices; vertex deletion elsewhere
is a mask over the unchanged graph.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat, starmap
from operator import index, lshift, lt
from pathlib import Path
from threading import Lock
from typing import IO, Iterable, Iterator

VertexSet = frozenset[int]
Edge = tuple[int, int]
Triangle = tuple[int, int, int]
Matching = tuple[Edge, ...]


def ordered_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


_ID_TABLE: list[int] = []
_ID_LOCK = Lock()


def _ids(n: int) -> list[int]:
    """The process-wide id table, grown to at least ``n`` entries: entry
    ``k`` is the one int object that stands for vertex id ``k`` in every
    graph, matching and quotient the builders make. It grows under a lock
    and is never shrunk or reordered, so an entry read once stays valid;
    it may be longer than ``n``, and callers only read it. It retains
    about 40 bytes per id (a pointer and an int) up to the largest id any
    graph has named."""
    if len(_ID_TABLE) < n:
        with _ID_LOCK:
            _ID_TABLE.extend(range(len(_ID_TABLE), n))
    return _ID_TABLE


def _not_an_id(*ids) -> ValueError:
    """The error naming the first of ``ids`` that ``operator.index``
    rejects; called once it has rejected one."""
    for x in ids:
        try:
            index(x)
        except TypeError:
            break
    return ValueError(f"vertex id {x!r} is not an integer")


def _out_of_range(what: str, n: int) -> ValueError:
    """The error for ``what`` (a vertex or an edge) outside ``[0, n)``."""
    return ValueError(f"{what} out of range for n={n}")


def _vertex_ids(ids: Iterable[int], n: int) -> VertexSet:
    """``frozenset(ids)``, checked to hold vertices of an ``n``-vertex
    graph; a frozenset is read as given, not copied. Plain ints are checked
    by C-level passes (one over their types, one ``min``, one ``max``), and
    only other ids go through ``operator.index``, in one ``map``. An id
    that ``operator.index`` rejects raises ``ValueError`` naming it
    (:func:`_not_an_id`), and so does an id outside ``[0, n)``: the error
    names the smallest such id."""
    members = frozenset(ids)
    if not set(map(type, members)) <= {int}:
        try:
            members = frozenset(map(index, members))
        except TypeError:
            raise _not_an_id(*members) from None
    if members and not (0 <= min(members) and max(members) < n):
        bad = min(x for x in members if not 0 <= x < n)
        raise _out_of_range(f"vertex {bad}", n)
    return members


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``. Untrusted
    pairs enter through :func:`from_edge_list` and :func:`read_edge_list`,
    which share one pair loop (:func:`_graph_of_pairs`) that enforces the
    invariants (no self-loops, symmetric adjacency, no duplicates);
    :func:`induced_subgraph`, ``contract_matching`` and the projective,
    polarity and ``random_regular`` generators build such rows directly,
    checked by ``oracle.validate_graph`` in tests. Every builder fills the
    rows from the process-wide id table (:func:`_ids`): one int object per
    vertex id, shared by every graph, matching and quotient, so a row entry
    costs a pointer and not a 32-byte int of its own. The table grows under
    a lock and keeps about 40 bytes per id up to the largest id any graph
    has named. Derived facts (``m``, ``degree_profile``, ``triangles`` and
    the private row masks) are computed on first use and cached on the
    graph. The masks exist only while ``n**2 <= 128 * m``: past that the
    masks (``n`` bits a row) would outweigh the rows' pointers (64 bits a
    neighbor), so the bound is a fact about the graph's size, and nothing
    sets it.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    @cached_property
    def degree_profile(self) -> tuple[int, int, bool]:
        """``(min_degree, max_degree, is_regular)``; ``(0, 0, True)`` for
        the empty graph. No list of degrees is built."""
        lo = min(map(len, self.adjacency), default=0)
        hi = max(map(len, self.adjacency), default=0)
        return (lo, hi, lo == hi)

    @cached_property
    def _row_masks(self) -> tuple[int, ...] | None:
        """Bit ``w`` of ``_row_masks[v]`` is set iff ``w`` is a neighbor of
        ``v``; ``None`` when ``n**2 > 128 * m``."""
        if self.n * self.n > 128 * self.m:
            return None
        return _masks_of(self.adjacency)

    @cached_property
    def triangles(self) -> tuple[Triangle, ...]:
        """All triangles, each exactly once as a sorted tuple, in sorted order.

        A graph with row masks ANDs them (:func:`_mask_triangles`); any
        other lists by neighbor sets (:func:`_set_triangles`).
        """
        masks = self._row_masks
        if masks is None:
            return _set_triangles(self.adjacency)
        return _mask_triangles(self.adjacency, masks)

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


def _masks_of(adjacency: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """One int per row, with bit ``w`` set for each neighbor ``w``. The
    neighbors are distinct, so the sum of their bits is their OR."""
    bits = list(map(lshift, repeat(1, len(adjacency)), range(len(adjacency))))
    return tuple([sum(map(bits.__getitem__, row)) for row in adjacency])


def _set_triangles(adjacency: tuple[tuple[int, ...], ...]) -> tuple[Triangle, ...]:
    """Neighbor intersection over the (degree, id) order: ``w`` follows
    ``v`` iff ``(deg[w], w) > (deg[v], v)``, read off one list of the
    degrees (small cached ints), so no rank is computed per vertex. Each
    vertex keeps the tuple of its later neighbors, and every triangle is
    reported from its first vertex in that order, so no deduplication pass
    is needed, and the listing takes O(m^1.5) time. Each first vertex is
    read from the id table (:func:`_ids`), as the others are from the rows.
    """
    deg = [len(row) for row in adjacency]
    forward = [
        tuple([w for w in row if deg[w] > d or (deg[w] == d and w > v)])
        for v, (row, d) in enumerate(zip(adjacency, deg))
    ]
    triangles: list[Triangle] = []
    for u, fu in zip(_ids(len(forward)), forward):
        if len(fu) < 2:  # u is the first vertex of its triangles
            continue
        later = set(fu)
        for v in fu:
            for w in later.intersection(forward[v]):
                a, b, c = sorted((u, v, w))
                triangles.append((a, b, c))
    triangles.sort()
    return tuple(triangles)


def _mask_triangles(
    adjacency: tuple[tuple[int, ...], ...], masks: tuple[int, ...]
) -> tuple[Triangle, ...]:
    """For each edge ``u < v``, the common neighbors ``w > v`` are the set
    bits of ``(masks[u] & masks[v]) >> (v + 1)``, one AND per edge and one
    bit extraction per triangle. ``u``, ``v`` and then ``w`` ascend, so
    the triangles come out sorted. Each ``u`` and ``w`` is read from the
    id table (:func:`_ids`), so the triangles share one int object per
    vertex."""
    ids = _ids(len(adjacency))
    triangles: list[Triangle] = []
    append = triangles.append
    for u, row, mu in zip(ids, adjacency, masks):
        if len(row) < 2:  # u is in no triangle
            continue
        for v in row[bisect_right(row, u):]:
            x = (mu & masks[v]) >> (v + 1)
            while x:
                low = x & -x
                append((u, v, ids[v + low.bit_length()]))
                x ^= low
    return tuple(triangles)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a :class:`Graph` from vertex pairs, read in one pass.

    Duplicate pairs (in either orientation) collapse to one edge. Ids that
    are not integers (``operator.index`` rejects floats and strings),
    self-loops and out-of-range endpoints raise ``ValueError``, for the
    first bad pair in order. The graph is built by :func:`_graph_of_pairs`,
    so the rows hold the id table's objects, not the ones given.
    """
    return _graph_of_pairs(n, map(_int_pair, edges))


def _int_pair(pair) -> Edge:
    """``pair`` with both ids through ``operator.index``; an id it rejects
    raises ``ValueError`` (:func:`_not_an_id`)."""
    u, v = pair
    try:
        return index(u), index(v)
    except TypeError:
        raise _not_an_id(u, v) from None


def _graph_of_pairs(n: int, pairs: Iterable[Edge]) -> Graph:
    """The ``n``-vertex graph of the int pairs ``pairs``, read in one pass:
    the one home of the edge checks, for :func:`from_edge_list` and
    :func:`read_edge_list`. A negative ``n``, an ``n`` past ``sys.maxsize``
    (no tuple has that many rows), and then the first pair that is a
    self-loop or names an id outside ``[0, n)``, raise ``ValueError``.

    Neighbors collect in one list per vertex up to the largest id a pair
    names, as id table objects (:func:`_ids`); each list is then replaced
    in place by its sorted, deduplicated tuple, so lists and tuples never
    coexist in full, and every vertex past that id shares the empty tuple.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"vertex count must be at most {sys.maxsize}, got {n}")
    rows: list = []
    top = -1  # the largest id named so far; rows has top + 1 entries
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise _out_of_range(f"edge ({u}, {v})", n)
        if u > top or v > top:
            top = max(u, v)
            rows.extend([] for _ in range(top + 1 - len(rows)))
            ids = _ids(top + 1)
        rows[u].append(ids[v])
        rows[v].append(ids[u])
    for v, row in enumerate(rows):
        rows[v] = tuple(sorted(set(row)))
    # a tuple plus () is that tuple, not a copy
    return Graph(n, tuple(rows) + ((),) * (n - len(rows)))


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of ``g``, each exactly once as a sorted tuple, in sorted
    order. Computed once per graph and cached on it."""
    return g.triangles


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices`` plus ``kept``, the selected vertices
    sorted, so new vertex ``i`` is old vertex ``kept[i]``. A selected id
    that ``operator.index`` rejects, or a selected vertex outside
    ``[0, n)``, raises ``ValueError`` (:func:`_vertex_ids`). A graph with
    row masks is induced by :func:`_induce_by_masks`, any other by
    :func:`_induce_by_sets`.
    """
    members = _vertex_ids(vertices, g.n)
    chosen = sorted(members)
    masks = g._row_masks
    if masks is None:
        adjacency = _induce_by_sets(g.adjacency, members, chosen)
    else:
        adjacency = _induce_by_masks(masks, chosen)
    return Graph(len(chosen), adjacency), tuple(chosen)


def _induce_by_sets(
    adjacency: tuple[tuple[int, ...], ...], members: VertexSet, chosen: list[int]
) -> tuple[tuple[int, ...], ...]:
    """The rows induced on ``chosen`` (sorted, in range, the elements of
    ``members``), renumbered: each kept row is its set intersection with
    the sample, met in C."""
    get = dict(zip(chosen, _ids(len(chosen)))).__getitem__
    meet = members.intersection
    return tuple([tuple(map(get, sorted(meet(adjacency[old])))) for old in chosen])


def _induce_by_masks(masks: tuple[int, ...], chosen: list[int]) -> tuple[tuple[int, ...], ...]:
    """The rows induced on ``chosen`` (sorted, distinct, in range),
    renumbered: each kept row is its mask ANDed with the sample's, read
    off from the lowest bit up, so each row comes out sorted."""
    get = dict(zip(chosen, _ids(len(chosen)))).__getitem__
    sample = sum(map(lshift, repeat(1, len(chosen)), chosen))
    rows = []
    for old in chosen:
        x = masks[old] & sample
        row = []
        while x:
            low = x & -x
            row.append(get(low.bit_length() - 1))
            x ^= low
        rows.append(tuple(row))
    return tuple(rows)


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
    for u, v in map(_int_pair, edges):
        if u == v:
            raise ValueError(f"degenerate matching edge ({u}, {v})")
        seen.add(ordered_edge(u, v))
    return tuple(sorted(seen))


def _present_edges(g: Graph, matching) -> Matching:
    """Canonical edges of ``matching``. Any edge out of range or absent from
    ``g`` raises ``ValueError``, wherever it stands in the matching. Two
    edges sharing an endpoint pass: ``contract_matching`` raises on them,
    and :func:`is_induced_matching` answers ``False``."""
    edges = canonical_matching(matching)
    n, adjacency = g.n, g.adjacency
    for u, v in edges:
        if u < 0 or v >= n:  # canonical: u < v
            raise _out_of_range(f"matching edge ({u}, {v})", n)
        if v not in adjacency[u]:
            raise ValueError(f"matching edge ({u}, {v}) not present in graph")
    return edges


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


class EdgeLineError(ValueError):
    """An edge line or certificate line that is not two integers."""


class EdgeLines:
    """The int pairs of edge lines ``u v``, in graph files and certificates.
    ``lines`` are read one at a time, numbered from ``start``: a file opened
    with universal newlines ends a line at LF, CRLF or a lone CR, and a
    form feed or U+2028 is whitespace inside a line. Iterating, once,
    yields the pair of each nonblank line; the first line that is not two
    integers raises :class:`EdgeLineError` naming it, and no line past it
    is read. Once every line has been parsed, ``count`` is the number of
    nonblank lines.
    """

    def __init__(self, lines: Iterable[str], start: int = 1):
        self.count = 0
        self._start = start
        self._numbered = enumerate(map(str.split, lines), start)

    def __iter__(self) -> Iterator[Edge]:
        # the lines read less the blank ones, so an edge line adds no count
        lineno, blank = self._start - 1, 0
        for lineno, tokens in self._numbered:
            if not tokens:
                blank += 1
                continue
            try:
                u, v = tokens
                u, v = int(u), int(v)
            except ValueError:
                raise EdgeLineError(f"line {lineno}: expected two integers") from None
            yield u, v
        self.count = lineno + 1 - self._start - blank


def read_edge_list(source: str | Path | IO[str]) -> Graph:
    """Parse an edge-list file straight into adjacency rows, in one pass
    over its lines: a path is opened with universal newlines, and an IO
    source is iterated as given, so neither the text, a list of its lines
    nor a column of its ids is ever held.

    The header is the first line that is not blank; the lines after it
    go through :class:`EdgeLines` into :func:`_graph_of_pairs`, so the
    rows grow only to the largest id named (a huge edgeless header costs
    one pointer per vertex) and hold the id table's objects. The first
    fault in file order wins, and no line past it is read: the header, a
    vertex count that is negative or past ``sys.maxsize``, then in file
    order the first edge line that is not two integers or the first
    self-loop or out-of-range pair, each naming the original line or
    pair; last, the count of edge lines.
    """
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
        lines = EdgeLines(text, lineno + 1)
        graph = _graph_of_pairs(n, lines)
    if lines.count != m:
        raise ValueError(f"expected {m} edge lines, found {lines.count}")
    return graph
