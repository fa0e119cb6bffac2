import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indmatch import (
    is_induced_matching,
    is_proper_edge_coloring,
    misra_gries_edge_color,
    named_fixture,
)
from indmatch.matching import EdgeColoring
from indmatch.oracle import (
    OracleLimitError,
    contains_kbb_bf,
    count_triangles_bf,
    is_c4_free_bf,
    is_independent_set,
    is_induced_matching_bf,
    is_proper_edge_coloring_bf,
    max_independent_set_bf,
    max_induced_matching_bf,
)

from conftest import graphs


def test_max_induced_matching_values(petersen, c6):
    assert max_induced_matching_bf(c6)[0] == 2
    assert max_induced_matching_bf(named_fixture("complete-4"))[0] == 1
    assert max_induced_matching_bf(petersen)[0] == 3


def test_max_independent_set_values(heawood, c6):
    assert max_independent_set_bf(c6)[0] == 3
    assert max_independent_set_bf(heawood)[0] == 7
    assert max_independent_set_bf(named_fixture("complete-4"))[0] == 1


def test_count_triangles_values(heawood):
    assert count_triangles_bf(named_fixture("complete-4")) == 4
    assert count_triangles_bf(named_fixture("complete-5")) == 10
    assert count_triangles_bf(heawood) == 0


def test_contains_kbb(heawood):
    assert contains_kbb_bf(named_fixture("complete-bipartite-2-2"), 2)
    assert not contains_kbb_bf(heawood, 2)
    assert contains_kbb_bf(named_fixture("path-2"), 1)
    assert not contains_kbb_bf(named_fixture("edgeless-3"), 1)
    with pytest.raises(ValueError):
        contains_kbb_bf(heawood, 0)


def test_c4_free(petersen):
    assert is_c4_free_bf(petersen)
    assert not is_c4_free_bf(named_fixture("cycle-4"))
    assert not is_c4_free_bf(named_fixture("complete-4"))


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_c4_free_equals_not_k22(g):
    assert is_c4_free_bf(g) == (not contains_kbb_bf(g, 2))


def test_limits_enforced():
    big = named_fixture("cycle-30")
    with pytest.raises(OracleLimitError):
        max_independent_set_bf(big)
    with pytest.raises(OracleLimitError):
        max_induced_matching_bf(big)
    with pytest.raises(OracleLimitError):
        contains_kbb_bf(big, 2)
    assert max_independent_set_bf(big, limit=30)[0] == 15


def test_witnesses_pass_fast_verifiers(petersen, heawood, c6):
    for g in (petersen, heawood, c6, named_fixture("complete-4")):
        size, witness = max_independent_set_bf(g)
        assert len(witness) == size
        assert is_independent_set(g, witness)
        size, matching = max_induced_matching_bf(g)
        assert len(matching) == size
        assert is_induced_matching(g, matching)
        assert is_induced_matching_bf(g, matching)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, min_n=1), st.data())
def test_fast_and_exhaustive_induced_checks_agree(g, data):
    size, matching = max_induced_matching_bf(g)
    assert is_induced_matching(g, matching) == is_induced_matching_bf(g, matching)
    edges = sorted(g.edges())
    # any subset of g's own edges, some reversed or repeated: every edge is
    # present, so the verdict rests on the disjointness and induced tests
    either_way = st.sampled_from(edges).flatmap(lambda e: st.sampled_from([e, e[::-1]]))
    subset = data.draw(st.lists(either_way, max_size=6)) if edges else []
    assert is_induced_matching(g, subset) == is_induced_matching_bf(g, subset)
    if len(edges) >= 2:
        pair = [edges[0], edges[-1]]
        try:
            fast = is_induced_matching(g, pair)
        except ValueError:
            fast = None
        if fast is not None:
            assert fast == is_induced_matching_bf(g, pair)


def _verdict(check, g, matching):
    try:
        return check(g, matching)
    except ValueError:
        return "rejected"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["cycle-6", "petersen", "complete-4", "path-3", "edgeless-2"]),
    st.lists(
        st.tuples(
            st.one_of(st.integers(-12, 12), st.integers()),
            st.one_of(st.integers(-12, 12), st.integers()),
        ),
        max_size=4,
    ),
)
@example("cycle-6", [(-1, 0)])
@example("cycle-6", [(99, 100)])
@example("cycle-6", [(0, 1), (1, 2), (2, 4)])  # overlap, then a non-edge
def test_fast_and_exhaustive_induced_checks_agree_on_any_ids(name, matching):
    g = named_fixture(name)
    assert _verdict(is_induced_matching, g, matching) == _verdict(
        is_induced_matching_bf, g, matching
    )


KEY_CORRUPTIONS = ("drop", "non-edge", "reversed", "negative-id", "id-n")
COLOR_CORRUPTIONS = ("repeat", "too-large", "negative")


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=9, min_n=2), st.data())
def test_fast_and_set_based_coloring_checks_agree(g, data):
    # Start from a proper coloring and apply at most one corruption; the
    # bitmask check must give the set-based twin's verdict on every input.
    coloring = misra_gries_edge_color(g)
    colors = dict(coloring.colors)
    keys = sorted(colors)
    kind = data.draw(st.sampled_from(("none",) + KEY_CORRUPTIONS + COLOR_CORRUPTIONS))
    if kind in KEY_CORRUPTIONS and keys:
        # a bad key either replaces an edge's key, keeping the count, or is
        # added beside all the edges
        key = data.draw(st.sampled_from(keys))
        non_edges = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        bad = {
            "drop": None,
            "non-edge": data.draw(st.sampled_from(non_edges)) if non_edges else None,
            "reversed": key[::-1],
            "negative-id": (-1, 0),
            "id-n": (g.n - 1, g.n),
        }[kind]
        if kind == "drop" or data.draw(st.booleans()):
            color = colors.pop(key)
        else:
            color = 0
        if bad is not None:
            colors[bad] = color
    elif kind == "repeat":
        by_vertex = [[e for e in keys if v in e] for v in range(g.n)]
        crowded = [edges for edges in by_vertex if len(edges) >= 2]
        if crowded:
            edges = data.draw(st.sampled_from(crowded))
            first, second = data.draw(st.permutations(edges))[:2]
            colors[second] = colors[first]
    elif kind in COLOR_CORRUPTIONS and keys:
        key = data.draw(st.sampled_from(keys))
        colors[key] = coloring.num_colors if kind == "too-large" else -1
    corrupted = EdgeColoring(colors, coloring.num_colors)
    assert is_proper_edge_coloring(g, corrupted) == is_proper_edge_coloring_bf(
        g, corrupted
    )
    if kind == "none":
        assert is_proper_edge_coloring(g, corrupted)
