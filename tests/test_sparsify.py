import math
import random

import pytest
from hypothesis import given, settings

from indmatch import (
    break_triangles,
    degree_profile,
    enumerate_triangles,
    is_independent_set,
    named_fixture,
    projective_incidence_graph,
    random_regular,
    sample_vertices,
    sparsify_independent_set,
    sparsify_params,
    triangle_free_independent_set,
)
from indmatch.oracle import max_independent_set_bf
from indmatch.seeds import mix64
from indmatch.sparsify import (
    RetriesExhausted,
    SHEARER_CONSTANT,
    TriangleBudgetExceeded,
)

from conftest import graphs, regular_corpus


def test_params_formulas():
    p = sparsify_params(100, 1.5)
    assert p.a == pytest.approx(0.5)
    assert p.p == pytest.approx(0.1)
    assert sparsify_params(10_000, 1.5).p == pytest.approx(0.01)
    th = p.thresholds_for(200)
    np_ = 200 * p.p
    assert th.v_lo == pytest.approx(np_ / 2)
    assert th.v_hi == pytest.approx(3 * np_ / 2)
    assert th.tri_max == pytest.approx(np_ / 4)
    assert th.edge_max == pytest.approx(5 * 200 * 100 * p.p**2)


def test_params_validation():
    with pytest.raises(ValueError):
        sparsify_params(8, 3.5)
    with pytest.raises(ValueError):
        sparsify_params(8, 0.0)
    with pytest.raises(ValueError):
        sparsify_params(0, 1.0)
    for bad in ({"max_retries": 0}, {"max_retries": -3}, {"degree_cutoff": -1}):
        with pytest.raises(ValueError):
            sparsify_params(8, 1.0, **bad)
    assert sparsify_params(8, 1.0, degree_cutoff=0, max_retries=1).max_retries == 1


def test_sample_vertices_extremes(petersen):
    rng = random.Random(0)
    assert sample_vertices(petersen, 1.0, rng) == frozenset(range(10))
    assert sample_vertices(petersen, 0.0, rng) == frozenset()
    with pytest.raises(ValueError):
        sample_vertices(petersen, 1.5, rng)


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


@pytest.mark.parametrize("p", [0.0, 0.0227, 0.5, 1.0])
def test_sample_vertices_one_draw_per_vertex_in_order(p):
    g = random_regular(984, 0, 0)  # edgeless, only the vertex count matters
    rng, ref = random.Random(mix64(5, 0)), random.Random(mix64(5, 0))
    assert sample_vertices(g, p, rng) == {v for v in range(g.n) if ref.random() < p}
    assert rng.getstate() == ref.getstate()  # exactly n draws consumed


def test_break_triangles_returns_input_when_triangle_free(petersen):
    for g in (petersen, projective_incidence_graph(5)):
        rem, removed, mapping = break_triangles(g)
        assert rem is g
        assert removed == frozenset()
        assert mapping == {v: v for v in range(g.n)}
    tri = named_fixture("complete-3")
    assert break_triangles(tri)[0] is not tri


def test_break_triangles_examples(petersen):
    tri = named_fixture("complete-3")
    rem, removed, mapping = break_triangles(tri)
    assert rem.n == 2 and len(removed) == 1
    rem_p, removed_p, _ = break_triangles(petersen)
    assert removed_p == frozenset() and rem_p.n == 10
    rem_k4, _, _ = break_triangles(named_fixture("complete-4"))
    assert rem_k4.n <= 2
    assert enumerate_triangles(rem_k4) == ()


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=12))
def test_break_triangles_always_triangle_free(g):
    rem, removed, mapping = break_triangles(g)
    assert enumerate_triangles(rem) == ()
    assert len(removed) <= len(enumerate_triangles(g))
    assert rem.n == g.n - len(removed)
    inverse = {new: old for old, new in mapping.items()}
    for u, v in rem.edges():
        assert g.has_edge(inverse[u], inverse[v])


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


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12))
def test_triangle_free_greedy_turan_floor(g):
    rem, _, _ = break_triangles(g)
    found = triangle_free_independent_set(rem)
    assert is_independent_set(rem, found)
    if rem.n:
        davg = 2 * rem.m / rem.n
        assert len(found) >= math.ceil(rem.n / (davg + 1))


def test_triangle_free_greedy_log_guarantee_on_corpus():
    # The calibrated coefficient must hold on every triangle-free corpus
    # graph with average degree at least 2.
    corpus = [projective_incidence_graph(q) for q in (2, 3, 5, 7, 11, 13)]
    corpus += [named_fixture("heawood"), named_fixture("petersen")]
    corpus += [named_fixture(f"cycle-{k}") for k in (6, 9, 15)]
    corpus += [named_fixture("complete-bipartite-3-3"), named_fixture("complete-bipartite-7-7")]
    for n, d, s in [(30, 4, 1), (64, 5, 2), (100, 8, 3), (200, 12, 4)]:
        rem, _, _ = break_triangles(random_regular(n, d, s))
        corpus.append(rem)
    for g in corpus:
        davg = 2 * g.m / g.n
        if davg < 2:
            continue
        found = triangle_free_independent_set(g)
        assert len(found) >= SHEARER_CONSTANT * g.n * math.log(davg) / davg


def test_sparsify_bypass_on_low_degree(heawood):
    params = sparsify_params(3, 1.0)
    res = sparsify_independent_set(heawood, params, seed=0)
    assert res.bypassed and res.attempts == 0
    assert len(res.vertices) >= math.ceil(14 / 4)
    assert is_independent_set(heawood, res.vertices)
    assert max_independent_set_bf(heawood)[0] == 7


def test_sparsify_edgeless_returns_everything():
    g = named_fixture("edgeless-8")
    params = sparsify_params(5, 1.0)
    res = sparsify_independent_set(g, params, seed=3)
    assert res.vertices == frozenset(range(8))


def test_sparsify_rejects_understated_degree(petersen):
    with pytest.raises(ValueError, match="max degree"):
        sparsify_independent_set(petersen, sparsify_params(2, 1.0), seed=0)


def test_sparsify_triangle_budget_error():
    k8 = named_fixture("complete-8")
    params = sparsify_params(7, 2.9)
    with pytest.raises(TriangleBudgetExceeded) as err:
        sparsify_independent_set(k8, params, seed=0)
    assert err.value.measured == 56
    assert err.value.budget < 56


def test_sparsify_sampling_path_statistics():
    g = projective_incidence_graph(13)
    # run on the graph itself (degree 14 exceeds the cutoff): sampling path
    params = sparsify_params(14, 1.0, degree_cutoff=8)
    res = sparsify_independent_set(g, params, seed=5)
    assert not res.bypassed and res.attempts >= 1
    assert res.attempt_stats[-1].outcome == "pass"
    assert is_independent_set(g, res.vertices)
    for stats in res.attempt_stats[:-1]:
        assert stats.outcome in ("vertex-count", "triangles", "edges")


def test_sparsify_deterministic():
    g = projective_incidence_graph(7)
    params = sparsify_params(8, 1.0, degree_cutoff=4)
    a = sparsify_independent_set(g, params, seed=21)
    b = sparsify_independent_set(g, params, seed=21)
    assert a == b


def test_sparsify_retries_exhausted_carries_stats():
    g = named_fixture("cycle-9")
    params = sparsify_params(2, 0.1, degree_cutoff=0, max_retries=1)
    with pytest.raises(RetriesExhausted) as err:
        sparsify_independent_set(g, params, seed=3)
    assert len(err.value.attempts) == 1
    assert err.value.attempts[0].outcome != "pass"


def test_sparsify_results_independent_over_corpus():
    for name, g in regular_corpus(seeds_per_combo=1, n_step=16):
        _, d, _ = degree_profile(g)
        res = sparsify_independent_set(g, sparsify_params(d, 1.0), seed=2)
        assert is_independent_set(g, res.vertices), name
