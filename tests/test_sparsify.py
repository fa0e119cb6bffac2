import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmatch import (
    break_triangles,
    enumerate_triangles,
    induced_subgraph,
    named_fixture,
    polarity_graph,
    projective_incidence_graph,
    random_regular,
    sample_vertices,
    sparsify_independent_set,
    triangle_free_independent_set,
)
from indmatch.oracle import is_independent_set, max_independent_set_bf, min_degree_greedy_bf
from indmatch.seeds import mix64
from indmatch.sparsify import RetriesExhausted, SHEARER_CONSTANT

from conftest import graphs, regular_corpus


def test_attempt_trail_follows_the_paper_formulas():
    # p = d**(eps/3 - 1) with d the max degree, and the outcome of every
    # attempt is the first threshold it breaks, recomputed here
    g, eps = polarity_graph(7), 1.0
    _, d, _ = g.degree_profile
    p = d ** (eps / 3 - 1)
    np_ = g.n * p
    outcomes = set()
    for seed in range(300):  # ~3% of attempts fail the vertex count
        try:
            trail = sparsify_independent_set(
                g, eps, seed, degree_cutoff=0, max_retries=8
            ).attempt_stats
        except RetriesExhausted as err:
            trail = err.attempts
        for stats in trail:
            sample = sample_vertices(g, p, random.Random(mix64(seed, stats.index)))
            sub, _ = induced_subgraph(g, sample)
            removed = break_triangles(sub)
            remainder, _ = induced_subgraph(sub, set(range(sub.n)) - removed)
            assert stats.sampled == len(sample)
            assert stats.triangles == len(enumerate_triangles(sub))
            assert stats.edges == remainder.m
            if not np_ / 2 <= stats.sampled <= 3 * np_ / 2:
                expected = "vertex-count"
            elif stats.triangles > np_ / 4:
                expected = "triangles"
            elif stats.edges > 5 * g.n * d * p * p:
                expected = "edges"
            else:
                expected = "pass"
            assert stats.outcome == expected
            outcomes.add(expected)
    assert {"pass", "vertex-count", "triangles"} <= outcomes


def test_params_validation(petersen):
    for eps in (3.5, 3.0, 0.0, -1.0, "0.5", 1 + 0j):
        with pytest.raises(ValueError, match="epsilon"):
            sparsify_independent_set(petersen, eps)
    for bad in (
        {"max_retries": 0},
        {"max_retries": -3},
        {"degree_cutoff": -1},
        {"max_retries": 2.5, "degree_cutoff": 0},
        {"degree_cutoff": 16.0},
    ):
        with pytest.raises(ValueError):
            sparsify_independent_set(petersen, 1.0, **bad)
    # a bad epsilon is reported before a bad cutoff or retry count
    with pytest.raises(ValueError, match="epsilon"):
        sparsify_independent_set(petersen, 3.5, degree_cutoff=-1, max_retries=0)
    edgeless = named_fixture("edgeless-8")
    assert sparsify_independent_set(edgeless, 1.0, degree_cutoff=0, max_retries=1).bypassed


def test_sample_vertices_extremes():
    # no skip overflows: at p = 5e-324, log(U) / log1p(-p) is inf
    for p, kept in ((0.0, False), (5e-324, False), (1 - 2**-53, True), (1.0, True)):
        for n in (0, 10):
            rng = random.Random(0)
            state = rng.getstate()
            sample = sample_vertices(named_fixture(f"edgeless-{n}"), p, rng)
            assert sample == frozenset(range(n) if kept else ()), (p, n)
            if p in (0.0, 1.0):
                assert rng.getstate() == state  # answered without a draw
    for p in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="probability"):
            sample_vertices(named_fixture("edgeless-10"), p, random.Random(0))


def test_sample_vertices_deterministic(petersen):
    a = sample_vertices(petersen, 0.5, random.Random(9))
    b = sample_vertices(petersen, 0.5, random.Random(9))
    assert a == b


def test_sample_vertices_binomial_mean():
    g = random_regular(10_000, 0, 0)  # edgeless, only the vertex count matters
    p = 0.1
    sigma = math.sqrt(g.n * p * (1 - p))
    sizes = [len(sample_vertices(g, p, random.Random(mix64(5, i)))) for i in range(100)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - g.n * p) <= 3 * sigma


@pytest.mark.parametrize("p", [0.0227, 0.5])
def test_sample_vertices_skips_geometrically(p):
    # recompute the skips from a twin generator: each draw U = 1 - random()
    # skips floor(log(U) / log1p(-p)) vertices and keeps the next one
    n, seed = 984, mix64(5, 0)
    g = random_regular(n, 0, 0)  # edgeless, only the vertex count matters
    ref = random.Random(seed)
    expected, v = set(), -1
    while True:
        v += 1 + math.floor(math.log(1 - ref.random()) / math.log1p(-p))
        if v >= n:
            break
        expected.add(v)
    rng = random.Random(seed)
    sample = sample_vertices(g, p, rng)
    assert sample == expected
    twin = random.Random(seed)
    for _ in range(len(sample) + 1):
        twin.random()
    assert rng.getstate() == twin.getstate()  # |S| + 1 draws consumed


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_sample_vertices_subset_frequencies(p):
    # each of the 32 subsets of 5 vertices is drawn with probability
    # p^|S| (1-p)^(5-|S|); chi-square below the 0.999 quantile at 31 degrees
    # of freedom, fixed before the run
    g, trials = named_fixture("edgeless-5"), 20_000
    counts = Counter(
        sample_vertices(g, p, random.Random(mix64(11, i))) for i in range(trials)
    )
    chi2 = 0.0
    for k in range(6):
        expected = trials * p**k * (1 - p) ** (5 - k)
        for subset in map(frozenset, combinations(range(5), k)):
            chi2 += (counts[subset] - expected) ** 2 / expected
    assert chi2 < 61.1


def test_break_triangles_returns_input_when_triangle_free(petersen):
    for g in (petersen, projective_incidence_graph(5)):
        assert break_triangles(g) == frozenset()
    assert len(break_triangles(named_fixture("complete-3"))) == 1


def test_break_triangles_examples(petersen):
    tri = named_fixture("complete-3")
    removed = break_triangles(tri)
    assert len(removed) == 1 and tri.n - len(removed) == 2
    assert break_triangles(petersen) == frozenset()
    k4 = named_fixture("complete-4")
    removed_k4 = break_triangles(k4)
    assert k4.n - len(removed_k4) <= 2
    assert all(set(t) & removed_k4 for t in enumerate_triangles(k4))


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=12))
def test_break_triangles_always_triangle_free(g):
    removed = break_triangles(g)
    assert removed <= frozenset(range(g.n))
    assert all(set(t) & removed for t in enumerate_triangles(g))
    assert len(removed) <= len(enumerate_triangles(g))


def test_triangle_free_greedy_examples():
    edgeless = named_fixture("edgeless-9")
    assert triangle_free_independent_set(edgeless) == frozenset(range(9))
    star = named_fixture("complete-bipartite-1-5")
    assert triangle_free_independent_set(star) == frozenset(range(1, 6))
    c6 = named_fixture("cycle-6")
    found = triangle_free_independent_set(c6)
    assert len(found) >= 2
    assert max_independent_set_bf(c6)[0] == 3
    assert is_independent_set(c6, found)


def test_triangle_free_greedy_rejects_triangles():
    with pytest.raises(ValueError, match="triangle"):
        triangle_free_independent_set(named_fixture("complete-3"))
    k4 = named_fixture("complete-4")
    with pytest.raises(ValueError, match="triangle"):
        triangle_free_independent_set(k4, frozenset({2}))
    assert triangle_free_independent_set(k4, frozenset({0, 3})) == frozenset({1})


def test_triangle_free_greedy_rejects_out_of_range_removed():
    c6 = named_fixture("cycle-6")
    # -1 must not alias vertex 5 through list indexing
    with pytest.raises(ValueError, match=r"^vertex -1 out of range for n=6$"):
        triangle_free_independent_set(c6, frozenset({-1}))
    with pytest.raises(ValueError, match=r"^vertex 6 out of range for n=6$"):
        triangle_free_independent_set(c6, frozenset({6}))
    # several bad ids: the error names the smallest
    with pytest.raises(ValueError, match=r"^vertex 7 out of range for n=6$"):
        triangle_free_independent_set(c6, frozenset({9, 2, 7, 12}))


def test_triangle_free_greedy_rejects_non_integer_removed():
    c6 = named_fixture("cycle-6")
    with pytest.raises(ValueError, match=r"^vertex id 1\.0 is not an integer$"):
        triangle_free_independent_set(c6, {1.0})
    assert triangle_free_independent_set(c6, frozenset({True})) == (
        triangle_free_independent_set(c6, frozenset({1}))
    )


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12), st.data())
def test_masked_greedy_matches_greedy_on_induced_remainder(g, data):
    extra = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    removed = break_triangles(g) | extra
    survivors = [v for v in range(g.n) if v not in removed]
    remainder, kept = induced_subgraph(g, survivors)
    expected = {kept[v] for v in triangle_free_independent_set(remainder)}
    assert triangle_free_independent_set(g, removed) == expected


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12), st.data())
def test_masked_greedy_matches_rescanning_twin(g, data):
    extra = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    removed = break_triangles(g) | extra
    assert triangle_free_independent_set(g, removed) == min_degree_greedy_bf(g, removed)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12))
def test_triangle_free_greedy_turan_floor(g):
    removed = break_triangles(g)
    found = triangle_free_independent_set(g, removed)
    assert is_independent_set(g, found) and not found & removed
    n = g.n - len(removed)
    m = sum(1 for u, v in g.edges() if u not in removed and v not in removed)
    if n:
        davg = 2 * m / n
        assert len(found) >= math.ceil(n / (davg + 1))


def test_triangle_free_greedy_log_guarantee_on_corpus():
    # The calibrated coefficient must hold on every triangle-free corpus
    # graph with average degree at least 2.
    corpus = [projective_incidence_graph(q) for q in (2, 3, 5, 7, 11, 13)]
    corpus += [named_fixture("heawood"), named_fixture("petersen")]
    corpus += [named_fixture(f"cycle-{k}") for k in (6, 9, 15)]
    corpus += [named_fixture("complete-bipartite-3-3"), named_fixture("complete-bipartite-7-7")]
    for n, d, s in [(30, 4, 1), (64, 5, 2), (100, 8, 3), (200, 12, 4)]:
        g = random_regular(n, d, s)
        removed = break_triangles(g)
        corpus.append(induced_subgraph(g, set(range(n)) - removed)[0])
    for g in corpus:
        davg = 2 * g.m / g.n
        if davg < 2:
            continue
        found = triangle_free_independent_set(g)
        assert len(found) >= SHEARER_CONSTANT * g.n * math.log(davg) / davg


def test_sparsify_bypass_on_low_degree(heawood):
    res = sparsify_independent_set(heawood, 1.0, seed=0)
    assert res.bypassed and res.attempts == 0
    assert len(res.vertices) >= math.ceil(14 / 4)
    assert is_independent_set(heawood, res.vertices)
    assert max_independent_set_bf(heawood)[0] == 7


def test_sparsify_edgeless_returns_everything():
    g = named_fixture("edgeless-8")
    # d = 0 takes the low-degree path at every eps, so no d**(eps/3 - 1)
    for eps in (1.0, 2.0, 2.5):
        res = sparsify_independent_set(g, eps, seed=3)
        assert res.bypassed and res.vertices == frozenset(range(8))


def test_sparsify_leaves_the_budget_to_the_caller():
    # 56 triangles against a budget of 8 * 7**(2 - 2.9) < 56: the pipeline
    # rejects this input, but the stage itself checks no budget
    k8 = named_fixture("complete-8")
    res = sparsify_independent_set(k8, 2.9, seed=0)
    assert res.bypassed and len(res.vertices) == 1


def test_sparsify_sampling_path_statistics():
    g = projective_incidence_graph(13)
    # run on the graph itself (degree 14 exceeds the cutoff): sampling path
    res = sparsify_independent_set(g, 1.0, seed=5, degree_cutoff=8)
    assert not res.bypassed and res.attempts >= 1
    assert res.attempt_stats[-1].outcome == "pass"
    assert is_independent_set(g, res.vertices)
    for stats in res.attempt_stats[:-1]:
        assert stats.outcome in ("vertex-count", "triangles", "edges")


def test_attempt_edges_count_the_remainder():
    # AttemptStats.edges is the edge count of the sample minus the vertices
    # breaking removed, computed without building that remainder
    g = random_regular(120, 12, 3)
    p = 12 ** (1.0 / 3 - 1)
    try:
        trail = sparsify_independent_set(g, 1.0, 4, degree_cutoff=0, max_retries=8).attempt_stats
    except RetriesExhausted as err:
        trail = err.attempts
    assert any(stats.triangles for stats in trail)
    for stats in trail:
        rng = random.Random(mix64(4, stats.index))
        sub, _ = induced_subgraph(g, sample_vertices(g, p, rng))
        removed = break_triangles(sub)
        remainder, _ = induced_subgraph(sub, set(range(sub.n)) - removed)
        assert stats.edges == remainder.m


def test_sparsify_deterministic():
    g = projective_incidence_graph(7)
    a = sparsify_independent_set(g, 1.0, seed=21, degree_cutoff=4)
    b = sparsify_independent_set(g, 1.0, seed=21, degree_cutoff=4)
    assert a == b


def test_sparsify_retries_exhausted_carries_stats():
    g = named_fixture("cycle-9")
    with pytest.raises(RetriesExhausted) as err:
        sparsify_independent_set(g, 0.1, seed=2, degree_cutoff=0, max_retries=1)
    assert len(err.value.attempts) == 1
    assert err.value.attempts[0].outcome != "pass"


def test_sparsify_results_independent_over_corpus():
    for name, g in regular_corpus(seeds_per_combo=1, n_step=16):
        res = sparsify_independent_set(g, 1.0, seed=2)
        assert is_independent_set(g, res.vertices), name
