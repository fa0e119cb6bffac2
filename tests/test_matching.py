import hashlib
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmatch import (
    PipelineConfig,
    contract_matching,
    enumerate_triangles,
    extract_matching,
    greedy_matching,
    is_induced_matching,
    is_proper_edge_coloring,
    misra_gries_edge_color,
    named_fixture,
    polarity_graph,
    prepare_pipeline,
    projective_incidence_graph,
    pull_back_matching,
    random_regular,
    run_prepared,
)
from indmatch import graph as graph_module, matching as matching_module
from indmatch.matching import EdgeColoring
from indmatch.oracle import (
    contract_matching_bf,
    greedy_matching_bf,
    is_independent_set,
    is_proper_edge_coloring_bf,
    max_independent_set_bf,
    validate_graph,
)

from conftest import graphs, regular_corpus


def test_cycle_colorings():
    c5 = named_fixture("cycle-5")
    col5 = misra_gries_edge_color(c5)
    assert is_proper_edge_coloring(c5, col5)
    assert col5.num_colors == 3  # odd cycle needs three colors
    c6 = named_fixture("cycle-6")
    col6 = misra_gries_edge_color(c6)
    assert is_proper_edge_coloring(c6, col6)
    assert col6.num_colors <= 3
    assert len(extract_matching(c6, col6)) >= 2


def test_heawood_coloring(heawood):
    coloring = misra_gries_edge_color(heawood)
    assert is_proper_edge_coloring(heawood, coloring)
    assert coloring.num_colors <= 4


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=12))
def test_coloring_proper_and_delta_plus_one(g):
    coloring = misra_gries_edge_color(g)
    assert is_proper_edge_coloring(g, coloring)
    _, delta, _ = g.degree_profile
    assert coloring.num_colors <= delta + 1
    assert len(coloring.colors) == g.m


def test_coloring_deterministic(petersen):
    a = misra_gries_edge_color(petersen)
    b = misra_gries_edge_color(petersen)
    assert a.colors == b.colors and a.num_colors == b.num_colors


# sha256 of each coloring. The first six were computed with the
# adjacency-scanning colorer, the last two with the dict-table colorer that
# preceded the flat tables. They cover irregular graphs (polarity), long fans
# (degree 20 and 32), long c/d path flips (n = 20000) and complete graphs
# that need max_degree + 1 colors.
FROZEN_COLORINGS = {
    "projective-13": (
        lambda: projective_incidence_graph(13),
        "446def29031140150e1bd0fce8f75a8fa813b7ff18be45e7300857dc3bc2e1cd",
    ),
    "polarity-11": (
        lambda: polarity_graph(11),
        "a3a5874307ac5b3758b3ad75d6e751502ae1d32b43206ccb033623a796718495",
    ),
    "random-regular-2000-4-1": (
        lambda: random_regular(2000, 4, 1),
        "92897e422dc822e7f164e24635d08b377f479f5be367669106a5a23bee2933d3",
    ),
    "random-regular-500-20-3": (
        lambda: random_regular(500, 20, 3),
        "3d76d6a99cddd16585cc140b66f5da60fb9b0584ce9d9bc97de83a50bef29591",
    ),
    "complete-7": (
        lambda: named_fixture("complete-7"),
        "266c3e9711a7bb3da4fd7c45aba94d78a037cfa4c8a907080f577a134e01933d",
    ),
    "complete-8": (
        lambda: named_fixture("complete-8"),
        "23c8356891b9b348f06eae239c0dbc8705ca962ece701842bf740546c1aea0cd",
    ),
    "random-regular-20000-4-7": (
        lambda: random_regular(20000, 4, 7),
        "5e2a6b979b8ce86133a693ae98cc51e03166c30c14fa01a6bcbb0b053dc7ea53",
    ),
    "polarity-31": (
        lambda: polarity_graph(31),
        "6b548fc95c61cedf1786fa6ad722320391d04dc3757d9a44ad0e92ea643e94ac",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_COLORINGS))
def test_frozen_colorings(name):
    build, expected = FROZEN_COLORINGS[name]
    coloring = misra_gries_edge_color(build())
    h = hashlib.sha256()
    h.update(repr(sorted(coloring.colors.items())).encode())
    h.update(f"num_colors {coloring.num_colors}".encode())
    assert h.hexdigest() == expected


def test_coloring_builds_no_edge_tuples(monkeypatch):
    # the maps are keyed by vertex and color, never by an edge tuple
    calls = []

    def counting(u, v, _original=graph_module.ordered_edge):
        calls.append((u, v))
        return _original(u, v)

    monkeypatch.setattr(graph_module, "ordered_edge", counting)
    monkeypatch.setattr(matching_module, "ordered_edge", counting, raising=False)
    coloring = misra_gries_edge_color(random_regular(200, 4, 1))
    assert len(coloring.colors) == 400
    assert calls == []


def test_extract_matching_examples(heawood):
    coloring = misra_gries_edge_color(heawood)
    matching = extract_matching(heawood, coloring)
    assert len(matching) >= math.ceil(21 / 4)
    k2 = named_fixture("complete-2")
    assert extract_matching(k2, misra_gries_edge_color(k2)) == ((0, 1),)
    empty = named_fixture("edgeless-4")
    assert extract_matching(empty, misra_gries_edge_color(empty)) == ()


def test_extract_matching_rejects_improper(c6):
    bad = EdgeColoring({e: 0 for e in c6.edges()}, 1)
    with pytest.raises(ValueError):
        extract_matching(c6, bad)


@pytest.mark.parametrize(
    "key, color",
    [((0, 1), 0.5), ((0, 1), "a"), (("a", "b"), 0), ((0.0, 1.0), 0), ((0, 1, 2), 0)],
    ids=["float-color", "str-color", "str-key", "float-key", "triple-key"],
)
def test_coloring_checks_reject_non_int_keys_and_colors(c6, key, color):
    # the key replaces the edge (0, 1), so the count of keys stays m
    colors = dict(misra_gries_edge_color(c6).colors)
    del colors[(0, 1)]
    colors[key] = color
    bad = EdgeColoring(colors, 3)
    assert is_proper_edge_coloring(c6, bad) is False
    assert is_proper_edge_coloring_bf(c6, bad) is False
    with pytest.raises(ValueError, match="not a proper edge coloring"):
        extract_matching(c6, bad)


def test_regular_matching_guarantee():
    for name, g in regular_corpus(seeds_per_combo=1, n_step=8):
        coloring = misra_gries_edge_color(g)
        _, d, regular = g.degree_profile
        assert regular
        assert coloring.num_colors <= d + 1, name
        matching = extract_matching(g, coloring)
        assert len(matching) >= math.ceil(g.n * d / (2 * (d + 1))), name
        assert len(matching) >= math.ceil(g.n / 4), name


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_greedy_matching_matches_twin_and_is_maximal(g):
    matching = greedy_matching(g)
    assert matching == greedy_matching_bf(g)
    matched = {v for e in matching for v in e}
    assert all(u in matched or v in matched for u, v in g.edges())


def test_contract_examples(c6):
    p4 = named_fixture("path-4")
    cg = contract_matching(p4, [(0, 1), (2, 3)])
    assert cg.graph.n == 2 and cg.graph.m == 1
    k2 = named_fixture("complete-2")
    single = contract_matching(k2, [(0, 1)])
    assert single.graph.n == 1 and single.graph.m == 0
    tri = contract_matching(c6, [(0, 1), (2, 3), (4, 5)])
    assert tri.graph.n == 3 and tri.graph.m == 3
    assert len(enumerate_triangles(tri.graph)) == 1


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12), st.data())
def test_contraction_matches_dict_twin(g, data):
    # any matching, not just the greedy one, so unmatched host neighbors
    # reach the -1 owner sentinel; pairs come in either orientation
    edges = list(g.edges())
    pairs = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    matching, used = [], set()
    for u, v in pairs:
        if u not in used and v not in used:
            used |= {u, v}
            matching.append((v, u) if data.draw(st.booleans()) else (u, v))
    fast, twin = contract_matching(g, matching), contract_matching_bf(g, matching)
    assert fast.graph == twin.graph
    assert fast.rep == twin.rep


def test_contract_rejects_invalid(c6):
    with pytest.raises(ValueError):
        contract_matching(c6, [(0, 2)])  # not an edge
    with pytest.raises(ValueError):
        contract_matching(c6, [(0, 1), (1, 2)])  # shares a vertex
    with pytest.raises(ValueError, match="out of range"):
        contract_matching(c6, [(-1, 0)])  # -1 must not alias vertex 5
    with pytest.raises(ValueError, match="out of range"):
        contract_matching(c6, [(6, 7)])
    # overlap is reported only after every edge has passed the range check
    with pytest.raises(ValueError, match="out of range"):
        contract_matching(c6, [(0, 1), (1, 2), (6, 7)])


def test_pull_back_rejects_out_of_range(c6):
    cg = contract_matching(c6, [(0, 1), (3, 4)])
    assert pull_back_matching(cg, [1]) == ((3, 4),)
    with pytest.raises(ValueError, match=r"vertex -1 out of range for n=2"):
        pull_back_matching(cg, [-1])  # -1 must not alias vertex 1
    with pytest.raises(ValueError, match=r"vertex 2 out of range for n=2"):
        pull_back_matching(cg, [2])


def test_pull_back_rejects_non_integer_ids(c6):
    # the same error as contract_matching and is_induced_matching give
    cg = contract_matching(c6, [(0, 1), (3, 4)])
    with pytest.raises(ValueError, match=r"^vertex id 1\.0 is not an integer$"):
        pull_back_matching(cg, [0, 1.0])
    with pytest.raises(ValueError, match=r"^vertex id 'a' is not an integer$"):
        pull_back_matching(cg, ["a"])
    with pytest.raises(ValueError, match=r"vertex 2 out of range for n=2"):
        pull_back_matching(cg, [True, 2])  # bool passes operator.index
    assert pull_back_matching(cg, frozenset([True])) == ((3, 4),)


def test_contract_degree_bound():
    for name, g in regular_corpus(seeds_per_combo=1, n_step=12):
        _, d, _ = g.degree_profile
        coloring = misra_gries_edge_color(g)
        matching = extract_matching(g, coloring)
        cg = contract_matching(g, matching)
        validate_graph(cg.graph)
        _, d_m, _ = cg.graph.degree_profile
        assert d_m <= 2 * (d - 1), name


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=9, min_n=2))
def test_pull_back_property_exhaustive(g):
    # Every independent set of the contraction pulls back to an induced
    # matching of the host, checked against all subsets.
    matching = extract_matching(g, misra_gries_edge_color(g))
    if not matching:
        return
    cg = contract_matching(g, matching)
    k = cg.graph.n
    for mask in range(1 << k):
        subset = [x for x in range(k) if mask >> x & 1]
        if is_independent_set(cg.graph, subset):
            pulled = pull_back_matching(cg, subset)
            assert is_induced_matching(g, pulled)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=9, min_n=2))
def test_contraction_correspondence_both_directions(g):
    # Subsets of a matching are induced matchings exactly when their
    # contracted vertices form an independent set.
    matching = extract_matching(g, misra_gries_edge_color(g))
    if not matching:
        return
    cg = contract_matching(g, matching)
    validate_graph(cg.graph)
    index_of = {e: i for i, e in enumerate(cg.rep)}
    for r in range(len(matching) + 1):
        for subset in combinations(matching, r):
            indices = [index_of[e] for e in subset]
            assert is_induced_matching(g, subset) == is_independent_set(
                cg.graph, indices
            )


def test_contracted_independent_sets_pull_back_to_oracle_valid(heawood):
    coloring = misra_gries_edge_color(heawood)
    matching = extract_matching(heawood, coloring)
    cg = contract_matching(heawood, matching)
    size, witness = max_independent_set_bf(cg.graph, limit=cg.graph.n)
    pulled = pull_back_matching(cg, witness)
    assert is_induced_matching(heawood, pulled)
    assert len(pulled) == size


@pytest.mark.parametrize(
    "build",
    [lambda: projective_incidence_graph(7), lambda: random_regular(2000, 4, 3)],
    ids=["proj-7", "rr-2000-4-3"],
)
def test_stage_matchings_are_canonical_already(build):
    # every stage hands on a canonical tuple, so no stage after it copies
    g = build()
    canonical = graph_module.canonical_matching
    greedy = greedy_matching(g)
    extracted = extract_matching(g, misra_gries_edge_color(g))
    prep = prepare_pipeline(g, PipelineConfig())
    pulled = pull_back_matching(prep.contracted, range(0, prep.contracted.graph.n, 3))
    certified = run_prepared(prep, 0).matching
    for m in (greedy, extracted, prep.matching, pulled, certified):
        assert m and canonical(m) is m
    assert prep.contracted.rep is prep.matching
