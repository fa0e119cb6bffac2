import gc
import io
import operator
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmatch import (
    contract_matching,
    enumerate_triangles,
    from_edge_list,
    greedy_matching,
    induced_subgraph,
    is_induced_matching,
    named_fixture,
    polarity_graph,
    projective_incidence_graph,
    pull_back_matching,
    random_regular,
    read_edge_list,
    write_edge_list,
)
from indmatch.graph import (
    Graph,
    _ids,
    _induce_by_masks,
    _induce_by_sets,
    _mask_triangles,
    _masks_of,
    _set_triangles,
    canonical_matching,
    edge_line_columns,
)
from indmatch.oracle import (
    canonical_matching_bf,
    count_triangles_bf,
    from_edge_list_bf,
    is_independent_set,
    read_edge_list_bf,
    validate_graph,
)

from conftest import graphs


def test_from_edge_list_triangle():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert g.degree_profile == (2, 2, True)
    validate_graph(g)


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        from_edge_list(2, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(3, [(0, 3)])


def test_from_edge_list_rejects_non_integer_ids():
    with pytest.raises(ValueError, match=r"vertex id 0\.7 is not an integer"):
        from_edge_list(3, [(0.7, 1.2)])  # int() would build the edge (0, 1)
    with pytest.raises(ValueError, match=r"vertex id '1' is not an integer"):
        from_edge_list(3, [(0, "1")])
    # bools and other __index__ types are integers
    assert from_edge_list(3, [(False, True)]).adjacency == ((1,), (0,), ())


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(4, [(0, 1), (0, 1), (1, 0), (2, 3)])
    assert g.m == 2


_odd_ids = st.one_of(st.integers(-2, 10), st.booleans(), st.floats(), st.text(max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 8), st.data())
def test_from_edge_list_matches_set_twin(n, data):
    vertex = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    if pairs:  # repeat some pairs in the other orientation
        pairs += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=4))]
    # at most one pair that may be out of range or not of integers, anywhere
    odd = data.draw(st.none() | st.tuples(_odd_ids, _odd_ids))
    if odd is not None:
        pairs.insert(data.draw(st.integers(0, len(pairs))), odd)

    def outcome(build):
        try:
            return build(n, pairs).adjacency
        except ValueError as exc:
            return str(exc)

    assert outcome(from_edge_list) == outcome(from_edge_list_bf)


def _traced_bytes(build):
    """``(peak, retained, result)``: bytes allocated by ``build()`` at its
    peak, and those its result still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained, result


def _rows_and_ids_bytes(g):
    """``sys.getsizeof`` summed over ``g``'s row tuple, its distinct rows
    and the distinct id objects they reference: what a builder that made
    its own ids would retain, whether or not the id table held them
    already."""
    rows = g.adjacency
    objects = {id(x): x for x in (rows, *rows, *chain.from_iterable(rows))}
    return sum(map(sys.getsizeof, objects.values()))


def test_graph_building_peaks_near_the_retained_size(tmp_path):
    g = random_regular(20000, 4, 1)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    peak, graph_bytes, again = _traced_bytes(lambda: read_edge_list(path))
    assert again == g
    assert peak <= 2.0 * graph_bytes, (peak, graph_bytes)
    # the ids are shared with g, so only the rows are retained here
    peak, retained, again = _traced_bytes(lambda: from_edge_list(g.n, g.edges()))
    assert again == g
    assert peak <= 1.6 * retained, (peak, retained)
    # the writer streams its lines, so it never holds the file's text
    copy = tmp_path / "copy.txt"
    peak, _, _ = _traced_bytes(lambda: write_edge_list(g, copy))
    assert copy.read_bytes() == path.read_bytes()
    assert peak <= 0.1 * graph_bytes, (peak, graph_bytes)


def test_certify_builds_no_vertex_sized_temporary():
    # only the matching's endpoints are held, however many vertices g has
    g = from_edge_list(10**5, [(0, 1)])
    peak, _, ok = _traced_bytes(lambda: is_induced_matching(g, ((0, 1),)))
    assert ok
    assert peak < 64 * 1024, peak


def test_triangle_listing_peaks_below_the_quotient_size():
    # the order reads a list of degrees, not one rank int per vertex, and
    # the forward rows are tuples
    g = random_regular(20000, 4, 1)
    q = contract_matching(g, greedy_matching(g)).graph
    assert q._row_masks is None  # n**2 > 128 * m: the set kernel lists it
    quotient_bytes = _rows_and_ids_bytes(q)
    peak, _, _ = _traced_bytes(lambda: Graph.triangles.func(q))
    assert peak <= 0.8 * quotient_bytes, (peak, quotient_bytes)


def test_mask_triangle_listing_peaks_below_the_quotient_size():
    # the masks (cached on q), their bit table and the listing's
    # temporaries stay below the rows they are built from; the triangles
    # returned outweigh this quotient, so they are counted apart
    g = projective_incidence_graph(31)
    matching = greedy_matching(g)
    _, quotient_bytes, contracted = _traced_bytes(lambda: contract_matching(g, matching))
    q = contracted.graph
    _, mask_bytes, masks = _traced_bytes(lambda: _masks_of(q.adjacency))
    peak, retained, triangles = _traced_bytes(lambda: Graph.triangles.func(q))
    assert q.__dict__["_row_masks"] == masks  # the mask path ran
    assert triangles == _set_triangles(q.adjacency)
    above_result = peak - (retained - mask_bytes)
    assert above_result <= 0.8 * quotient_bytes, (above_result, quotient_bytes)


def test_pull_back_reads_a_frozenset_uncopied():
    # sparsify returns a frozenset; pulling it back must not copy it
    k = 16384
    g = from_edge_list(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    contracted = contract_matching(g, greedy_matching(g))
    chosen = frozenset(range(k))
    peak, _, pulled = _traced_bytes(lambda: pull_back_matching(contracted, chosen))
    assert pulled == contracted.rep
    assert peak < sys.getsizeof(chosen), (peak, sys.getsizeof(chosen))


def test_random_regular_peaks_near_the_retained_size():
    # the pairs go straight into the rows: no edge set is held beside them;
    # the table holds the ids before the window, whatever ran earlier
    _ids(20000)
    peak, _, g = _traced_bytes(lambda: random_regular(20000, 4, 1))
    assert g.degree_profile == (4, 4, True)
    graph_bytes = _rows_and_ids_bytes(g)
    assert peak <= 1.6 * graph_bytes, (peak, graph_bytes)


def _reread(g):
    text = io.StringIO()
    write_edge_list(g, text)
    text.seek(0)
    return read_edge_list(text)


def _induced(g, keep, masked):
    assert (g._row_masks is not None) == masked  # the kernel under test runs
    return induced_subgraph(g, keep)[0]


def _quotient(g):
    return contract_matching(g, greedy_matching(g)).graph


# Each builder that makes its own rows, on graphs whose ids pass 256:
# CPython caches the ints up to 256, so smaller graphs share them anyway.
SHARED_ID_BUILDERS = {
    "projective-13": lambda: projective_incidence_graph(13),
    "projective-31": lambda: projective_incidence_graph(31),
    "polarity-17": lambda: polarity_graph(17),
    "polarity-31": lambda: polarity_graph(31),
    "random-regular": lambda: random_regular(2000, 4, 1),
    "read-edge-list": lambda: _reread(random_regular(2000, 4, 1)),
    "quotient": lambda: _quotient(random_regular(2000, 4, 1)),
    "induced-by-sets": lambda: _induced(random_regular(2000, 4, 1), range(0, 2000, 2), False),
    "induced-by-masks": lambda: _induced(polarity_graph(31), range(0, 993, 2), True),
}


@pytest.mark.parametrize("build", SHARED_ID_BUILDERS.values(), ids=list(SHARED_ID_BUILDERS))
def test_rows_hold_one_int_object_per_vertex(build):
    g = build()
    assert g.n > 257
    assert len({id(x) for row in g.adjacency for x in row}) <= g.n


@pytest.mark.parametrize(
    "build", [projective_incidence_graph, polarity_graph], ids=lambda f: f.__name__
)
def test_projective_families_retain_under_16_bytes_per_edge_end(build):
    # a row entry is a pointer to a shared id, not an int object of its own
    _, retained, g = _traced_bytes(lambda: build(31))
    assert retained <= 16 * 2 * g.m, (retained, 2 * g.m)


def test_graph_is_immutable(petersen):
    with pytest.raises(AttributeError):
        petersen.n = 3


def test_degree_profile_examples(petersen):
    assert petersen.degree_profile == (3, 3, True)
    assert named_fixture("path-3").degree_profile == (1, 2, False)
    assert named_fixture("edgeless-5").degree_profile == (0, 0, True)
    assert from_edge_list(0, []).degree_profile == (0, 0, True)


def test_enumerate_triangles_examples(petersen):
    k4 = named_fixture("complete-4")
    assert len(enumerate_triangles(k4)) == 4
    assert enumerate_triangles(petersen) == ()
    tri = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert enumerate_triangles(tri) == ((0, 1, 2),)


def test_enumerate_triangles_canonical_order():
    k5 = named_fixture("complete-5")
    tris = enumerate_triangles(k5)
    assert tris == tuple(sorted(set(tris)))
    assert all(a < b < c for a, b, c in tris)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_enumerate_triangles_matches_bruteforce(g):
    validate_graph(g)
    # combinations of a sorted range come out sorted, as canonical triples
    brute = tuple(
        t for t in combinations(range(g.n), 3)
        if all(g.has_edge(u, v) for u, v in combinations(t, 2))
    )
    assert enumerate_triangles(g) == brute
    assert enumerate_triangles(g) is enumerate_triangles(g)  # cached on g
    # graphs this small all take the mask path, so each kernel also runs
    # directly, whichever side of the size rule g falls on
    assert len(brute) == count_triangles_bf(g)
    assert _set_triangles(g.adjacency) == brute
    assert _mask_triangles(g.adjacency, _masks_of(g.adjacency)) == brute


def test_row_masks_size_rule_boundary():
    # masks exist iff n**2 <= 128 * m; a cycle has m = n
    at = named_fixture("cycle-128")
    assert at._row_masks == tuple((1 << (v - 1) % 128) | (1 << (v + 1) % 128) for v in range(128))
    assert named_fixture("cycle-129")._row_masks is None
    assert from_edge_list(0, [])._row_masks == ()


def test_enumerate_triangles_matches_bruteforce_up_to_64():
    from indmatch import polarity_graph, projective_incidence_graph, random_regular

    for g in (
        projective_incidence_graph(5),  # n = 62
        polarity_graph(7),  # n = 57
        random_regular(64, 5, 31),
        random_regular(63, 8, 32),
    ):
        assert len(enumerate_triangles(g)) == count_triangles_bf(g)
        assert _set_triangles(g.adjacency) == enumerate_triangles(g)
        assert _mask_triangles(g.adjacency, _masks_of(g.adjacency)) == enumerate_triangles(g)


def test_induced_subgraph_examples(c6):
    sub, kept = induced_subgraph(c6, {0, 1, 3, 4})
    assert sub.n == 4 and sub.m == 2
    assert kept == (0, 1, 3, 4)
    empty, empty_kept = induced_subgraph(c6, set())
    assert empty.n == 0 and empty_kept == ()
    k4sub, _ = induced_subgraph(named_fixture("complete-4"), {0, 1, 2})
    assert k4sub.m == 3


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=10))
def test_induced_subgraph_edge_membership(g):
    keep = set(range(0, g.n, 2))
    sub, kept = induced_subgraph(g, keep)
    validate_graph(sub)
    for u, v in sub.edges():
        assert g.has_edge(kept[u], kept[v])
    expected = sum(1 for u, v in g.edges() if u in keep and v in keep)
    assert sub.m == expected


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12), st.data())
def test_induced_subgraph_matches_edge_list_twin(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    sub, kept = induced_subgraph(g, keep)
    chosen = sorted(keep)
    twin_map = {old: new for new, old in enumerate(chosen)}
    twin = from_edge_list(
        len(chosen),
        ((twin_map[u], twin_map[v]) for u, v in g.edges() if u in keep and v in keep),
    )
    assert kept == tuple(chosen)
    assert sub.adjacency == twin.adjacency
    # both forms of induction, whichever side of the size rule g falls on
    assert _induce_by_sets(g.adjacency, frozenset(keep), chosen) == twin.adjacency
    assert _induce_by_masks(_masks_of(g.adjacency), chosen) == twin.adjacency


def test_induced_subgraph_rejects_out_of_range(c6):
    with pytest.raises(ValueError, match=r"^vertex -1 out of range for n=6$"):
        induced_subgraph(c6, [-1, 7])
    with pytest.raises(ValueError, match=r"^vertex 6 out of range for n=6$"):
        induced_subgraph(c6, [2, 6, 9])
    # several bad ids: the error names the smallest
    with pytest.raises(ValueError, match=r"^vertex -3 out of range for n=6$"):
        induced_subgraph(c6, [8, -1, 3, 6, -3])
    # a graph with row masks checks the range before any shift
    k4 = named_fixture("complete-4")
    assert k4._row_masks is not None
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for n=4$"):
            induced_subgraph(k4, [0, bad, 2])


def test_induced_subgraph_rejects_non_integer_ids(c6):
    # the same error as pull_back_matching gives, before any range check
    with pytest.raises(ValueError, match=r"^vertex id 1\.0 is not an integer$"):
        induced_subgraph(c6, [0, 1.0])
    with pytest.raises(ValueError, match=r"^vertex id 'a' is not an integer$"):
        induced_subgraph(c6, ["a"])
    with pytest.raises(ValueError, match=r"^vertex 6 out of range for n=6$"):
        induced_subgraph(c6, [True, 6])  # bool passes operator.index
    assert induced_subgraph(c6, [True, 2]) == induced_subgraph(c6, [1, 2])


def test_has_edge_out_of_range_ids(c6):
    assert c6.has_edge(0, 5) and c6.has_edge(5, 0)
    # -1 must not alias vertex 5, and 6 must not raise
    for u, v in [(-1, 0), (0, -1), (6, 0), (0, 6), (-1, -1), (6, 6)]:
        assert not c6.has_edge(u, v)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10), st.lists(st.tuples(st.integers(), st.integers()), max_size=20))
def test_has_edge_matches_edge_set(g, extra):
    edge_set = set(g.edges())
    ids = range(-2, g.n + 2)
    queries = [(u, v) for u in ids for v in ids] + extra
    for u, v in queries:
        assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edge_set)


def test_is_independent_set_examples(c6):
    assert is_independent_set(c6, {0, 2, 4})
    assert not is_independent_set(c6, {0, 1})
    assert is_independent_set(c6, set())


def test_is_matching(c6):
    # The matching half of is_induced_matching; on C6, (0, 1) and (3, 4)
    # share no endpoint and no edge joins them.
    assert is_induced_matching(c6, [(0, 1), (3, 4)])
    assert not is_induced_matching(c6, [(0, 1), (1, 2)])  # shared endpoint
    assert is_induced_matching(c6, [])
    assert is_induced_matching(c6, [(0, 1), (1, 0)])  # duplicate collapses


def test_is_induced_matching_examples(c6):
    assert is_induced_matching(c6, [(0, 1), (3, 4)])
    assert not is_induced_matching(c6, [(0, 1), (2, 3)])
    assert is_induced_matching(c6, [])


def test_is_induced_matching_rejects_missing_edge(c6):
    with pytest.raises(ValueError, match="not present"):
        is_induced_matching(c6, [(0, 2)])


def test_is_induced_matching_rejects_non_integer_ids(c6):
    with pytest.raises(ValueError, match=r"vertex id 0\.9 is not an integer"):
        is_induced_matching(c6, [(0.9, 1.9)])  # int() would read (0, 1)
    with pytest.raises(ValueError, match=r"vertex id '0' is not an integer"):
        is_induced_matching(c6, [("0", "1")])
    with pytest.raises(ValueError, match=r"vertex id 1\.5 is not an integer"):
        is_induced_matching(c6, [(3, 1.5)])
    assert is_induced_matching(c6, [(False, True)])


class _Index:
    """An id that is not an int but converts through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


_matching_ids = st.one_of(
    st.integers(-2, 9),
    st.booleans(),
    st.integers(0, 9).map(_Index),
    st.floats(-1, 9),
    st.sampled_from(["0", "1", "x"]),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_matching_matches_set_and_sort_twin(data):
    vertex = st.integers(0, 9)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    if data.draw(st.booleans()):  # sorted tuples, as the pipeline passes them
        pairs = sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]})
    if pairs:  # reversed and duplicate pairs
        pairs += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=3))]
    odd = data.draw(st.none() | st.tuples(_matching_ids, _matching_ids))
    if odd is not None:
        pairs.insert(data.draw(st.integers(0, len(pairs))), odd)
    if data.draw(st.booleans()):
        pairs = [list(e) for e in pairs]
    edges = data.draw(st.sampled_from([tuple, list]))(pairs)

    def outcome(canonical):
        try:
            result = canonical(edges)
        except ValueError as exc:
            return str(exc)
        # the types too: a bool or an __index__ id must come back as an int
        return repr(result), [tuple(map(type, e)) for e in result]

    expected = outcome(canonical_matching_bf)
    assert outcome(canonical_matching) == expected
    if not isinstance(expected, str):  # the twin's output is canonical
        twin = canonical_matching_bf(edges)
        assert canonical_matching(twin) is twin


def test_induced_matching_implies_matching_and_vertex_count(c6):
    m = canonical_matching([(0, 1), (3, 4)])
    assert is_induced_matching(c6, m)
    assert len({v for e in m for v in e}) == 2 * len(m)


def test_edge_list_roundtrip(tmp_path, petersen):
    path = tmp_path / "g.txt"
    write_edge_list(petersen, path)
    again = read_edge_list(path)
    assert again == petersen
    first = path.read_text().splitlines()[0]
    assert first == "10 15"


def test_edge_list_reader_accepts_reversed_and_duplicate_lines():
    text = "3 3\n1 0\n0 1\n2 1\n"
    g = read_edge_list(io.StringIO(text))
    assert g.n == 3 and g.m == 2


def test_edge_list_reader_rejects_malformed():
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list(io.StringIO("2 1\n0 x\n"))
    with pytest.raises(ValueError, match="edge lines"):
        read_edge_list(io.StringIO("2 2\n0 1\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO(""))
    with pytest.raises(ValueError, match="line 1: expected header"):
        read_edge_list(io.StringIO("3 1 0\n0 1\n"))
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list(io.StringIO("3 1\n0 1 2\n"))
    # blank lines are skipped, but errors name the line of the original file
    with pytest.raises(ValueError, match="line 3: expected header"):
        read_edge_list(io.StringIO("\n  \nx y\n"))
    with pytest.raises(ValueError, match="line 5: expected two integers"):
        read_edge_list(io.StringIO("\n\n  \n3 1\n0 x\n"))
    # a lone carriage return does not end a line
    with pytest.raises(ValueError, match="line 1: expected header"):
        read_edge_list(io.StringIO("3 1\r0 1\n"))
    # the line count is checked before any edge line, and every edge line
    # is parsed before any pair is checked for self-loops and range
    with pytest.raises(ValueError, match="expected 3 edge lines, found 2"):
        read_edge_list(io.StringIO("3 3\n0 x\n1 1\n"))
    with pytest.raises(ValueError, match="line 3: expected two integers"):
        read_edge_list(io.StringIO("3 2\n1 1\n0 x\n"))
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        read_edge_list(io.StringIO("3 2\n1 1\n0 5\n"))
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for n=3"):
        read_edge_list(io.StringIO("\r\n3 1\r\n\r\n0 5\r\n"))
    # negative ids are out of range too, not counted from the end
    with pytest.raises(ValueError, match=r"edge \(0, -1\) out of range for n=3"):
        read_edge_list(io.StringIO("3 2\n0 1\n0 -1\n"))
    with pytest.raises(ValueError, match=r"edge \(-3, 2\) out of range for n=3"):
        read_edge_list(io.StringIO("3 1\n-3 2\n"))
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        read_edge_list(io.StringIO("-1 1\n0 1\n"))


def test_edge_line_columns_numbers_every_line():
    lines = ["0 1\n", "\n", "2 x\n", "3 4 5\n", "-1 7\n", "0 1\x0c3 4\n"]
    assert edge_line_columns(lines) == ([0, -1], [1, 7], [3, 4, 6])
    assert edge_line_columns(lines, 10) == ([0, -1], [1, 7], [12, 13, 15])


def test_edge_list_reader_accepts_crlf_and_blank_lines():
    expected = from_edge_list(3, [(0, 1)])
    assert read_edge_list(io.StringIO("3 1\r\n0 1\r\n")) == expected
    assert read_edge_list(io.StringIO("\n\n3 1\n\n1 0\n\n")) == expected


def _spelled(i: int, prefix: str) -> str:
    """``i`` written with ``prefix`` ("", "+" or "0") after any minus sign;
    each spelling parses back to ``i``."""
    return f"-{prefix.lstrip('+')}{-i}" if i < 0 else f"{prefix}{i}"


_prefix = st.sampled_from(["", "", "+", "0"])
_id_token = st.builds(_spelled, st.integers(-3, 13), _prefix)
_odd_token = st.sampled_from(["x", "1.5", "0x1", "1_0", "--1", "\u0663"])
_odd_line = st.one_of(
    st.tuples(_id_token, _id_token),
    st.tuples(_id_token | _odd_token, _id_token | _odd_token),
    st.tuples(_id_token),
    st.tuples(_id_token, _id_token, _id_token),
)


@pytest.fixture(scope="module")
def edge_list_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edge-lists")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_edge_list_reader_matches_whole_text_twin(edge_list_dir, data):
    # a file of edges on [0, n), reversed, repeated or looped at random;
    # then maybe with odd lines inserted (ids out of range, not integers,
    # wrong token counts) or a wrong edge count
    n = data.draw(st.integers(-1, 2) | st.integers(3, 12))
    vertex = st.builds(_spelled, st.integers(0, max(n - 1, 0)), _prefix)
    lines = data.draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    if lines:  # duplicate some lines, as written or reversed
        for u, v in data.draw(st.lists(st.sampled_from(lines), max_size=3)):
            pair = data.draw(st.sampled_from([(u, v), (v, u)]))
            lines.insert(data.draw(st.integers(0, len(lines))), pair)
    if data.draw(st.booleans()):
        for line in data.draw(st.lists(_odd_line, min_size=1, max_size=2)):
            lines.insert(data.draw(st.integers(0, len(lines))), line)
    count = len(lines) + data.draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    header = (str(n), str(max(count, 0)))
    lines.insert(data.draw(st.sampled_from([0, 0, 0, len(lines)])), header)  # mostly first
    if data.draw(st.booleans()):  # blank lines anywhere, header included
        for _ in range(data.draw(st.integers(1, 3))):
            lines.insert(data.draw(st.integers(0, len(lines))), ())
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(
        data.draw(sep).join(tokens) + data.draw(ends) for tokens in lines
    ) + data.draw(st.sampled_from(["", "", " ", "0"]))
    path = edge_list_dir / "g.txt"
    path.write_bytes(text.encode("utf-8"))

    def outcome(read, source):
        try:
            g = read(source)
        except ValueError as exc:
            return str(exc)
        return g.n, g.adjacency

    assert outcome(read_edge_list, path) == outcome(read_edge_list_bf, path)
    assert outcome(read_edge_list, str(path)) == outcome(read_edge_list_bf, path)
    stream = outcome(read_edge_list, io.StringIO(text))
    assert stream == outcome(read_edge_list_bf, io.StringIO(text))


def test_edgeless_header_costs_a_pointer_per_vertex():
    # no row is built for a vertex no line names: every row is the shared
    # (), so the adjacency tuple is the whole cost (measured: 8.0013 B)
    n = 10**6
    peak, _, g = _traced_bytes(lambda: read_edge_list(io.StringIO(f"{n} 0\n")))
    assert (g.n, g.m) == (n, 0)
    assert set(map(id, g.adjacency)) == {id(())}
    assert peak <= 8.01 * n, peak / n


def test_reader_rows_grow_only_to_the_largest_id_named():
    table = _ids(0)
    top = len(table) + 50  # an id the table does not hold yet
    g = read_edge_list(io.StringIO(f"{top + 10**6} 1\n{top} 3\n"))
    assert g.adjacency[top] == (3,) and g.adjacency[3] == (top,)
    assert set(map(id, g.adjacency[top + 1 :])) == {id(())}
    assert len(table) == top + 1
    # a rejected line stops the rows, and the table, where they are
    with pytest.raises(ValueError, match="line 3: expected two integers"):
        read_edge_list(io.StringIO(f"{top + 10**6} 2\n{top + 9} 0\n0 x\n"))
    with pytest.raises(ValueError, match=r"edge \(0, -1\) out of range"):
        read_edge_list(io.StringIO(f"{top + 10**6} 2\n0 -1\n{top + 9} 0\n"))
    assert len(table) == top + 10


def test_rereading_a_file_retains_no_int_objects(tmp_path):
    # a cycle on ids the table does not hold yet: the first read adds them
    # to the table, and the second holds the same objects in new rows
    base = len(_ids(0))
    k = 2000
    path = tmp_path / "cycle.txt"
    path.write_text(
        f"{base + k} {k}\n" + "".join(f"{base + i} {base + (i + 1) % k}\n" for i in range(k)),
        encoding="utf-8",
    )
    _, first_bytes, first = _traced_bytes(lambda: read_edge_list(path))
    new_ids = _ids(0)[base : base + k]
    _, second_bytes, second = _traced_bytes(lambda: read_edge_list(path))
    assert second == first
    assert all(map(operator.is_, chain(*second.adjacency), chain(*first.adjacency)))
    id_bytes = sum(map(sys.getsizeof, new_ids))
    rows = second.adjacency
    row_bytes = sum(map(sys.getsizeof, {id(x): x for x in (rows, *rows)}.values()))
    assert first_bytes - second_bytes >= id_bytes, (first_bytes, second_bytes, id_bytes)
    # beyond its rows the second read keeps only the graph object itself
    assert second_bytes - row_bytes < 0.25 * id_bytes, (second_bytes, row_bytes)


def test_id_table_grows_safely_from_many_threads():
    base = len(_ids(0))
    workers = 8
    barrier = threading.Barrier(workers, timeout=30)

    def grow(worker):
        barrier.wait()
        for step in range(1, 1001):
            if len(_ids(base + 10 * step + worker)) < base + 10 * step + worker:
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            assert all(pool.map(grow, range(workers), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    table = _ids(0)
    assert len(table) == base + 10 * 1000 + workers - 1
    assert table == list(range(len(table)))
    assert set(map(type, table)) == {int}


def test_edge_list_reader_keeps_one_id_object_per_vertex(tmp_path):
    g = random_regular(2000, 4, 3)
    # every edge twice, the second time reversed, so each id is parsed
    # four times over and out of order
    text = f"{g.n} {2 * g.m}\n" + "".join(f"{u} {v}\n{v} {u}\n" for u, v in g.edges())
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    for source in (path, io.StringIO(text)):
        again = read_edge_list(source)
        assert again == g
        assert len({id(w) for row in again.adjacency for w in row}) == g.n


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=10))
def test_edge_list_roundtrip_property(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    assert read_edge_list(buf) == g
