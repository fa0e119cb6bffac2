import dataclasses
import hashlib
import math
import subprocess
import sys
from itertools import chain

import pytest
from hypothesis import example, given, settings

from indmatch import (
    AttemptStats,
    EmptyMatchingError,
    Graph,
    PipelineConfig,
    extract_matching,
    from_edge_list,
    greedy_induced_matching,
    induced_matching,
    is_induced_matching,
    misra_gries_edge_color,
    named_fixture,
    prepare_pipeline,
    projective_incidence_graph,
    random_regular,
    read_edge_list,
    run_prepared,
    triangle_budget,
    write_edge_list,
)
from indmatch import pipeline, sparsify
from indmatch.graph import _ids, induced_subgraph
from indmatch.oracle import max_induced_matching_bf
from indmatch.pipeline import PIPELINE_RATIO_FLOOR
from indmatch.seeds import mix64
from indmatch.sparsify import (
    RetriesExhausted,
    TriangleBudgetExceeded,
    break_triangles,
    triangle_free_independent_set,
)

from conftest import graphs, regular_corpus, subprocess_env


def test_single_edge():
    k2 = named_fixture("complete-2")
    result = induced_matching(k2)
    assert result.matching == ((0, 1),)
    assert result.size == 1
    assert result.certificate is True
    assert result.stats.ratio is None  # max degree below 2


def test_heawood_matches_oracle(heawood):
    result = induced_matching(heawood, seed=4)
    assert result.certificate is True
    assert result.size >= 2
    best, witness = max_induced_matching_bf(heawood)
    assert is_induced_matching(heawood, witness)
    assert result.size <= best


def test_projective_run_records_ratio():
    g = projective_incidence_graph(13)
    result = induced_matching(g, seed=1)
    assert result.certificate is True
    assert result.stats.ratio is not None
    assert result.stats.ratio >= PIPELINE_RATIO_FLOOR
    assert result.stats.contracted_n >= math.ceil(g.n / 4)
    assert result.stats.match_size >= math.ceil(g.n / 4)


def test_triangle_budget_examples():
    assert triangle_budget(100, 10, 1.0) == pytest.approx(1000.0)
    assert triangle_budget(50, 1, 2.0) == pytest.approx(50.0)
    assert triangle_budget(7, 0, 1.0) == 0.0
    with pytest.raises(ValueError):
        triangle_budget(10, 10, 3.5)


def test_budget_violation_signals_density():
    k12 = named_fixture("complete-12")
    with pytest.raises(TriangleBudgetExceeded):
        induced_matching(k12, PipelineConfig(epsilon=2.5))


def test_prepare_triangle_budget_error():
    # K8's perfect matching contracts to K4: 4 triangles against
    # 4 * 3**(2 - 2.9)
    k8 = named_fixture("complete-8")
    with pytest.raises(TriangleBudgetExceeded) as err:
        prepare_pipeline(k8, PipelineConfig(epsilon=2.9))
    assert err.value.measured == 4
    assert err.value.budget == pytest.approx(1.488, abs=1e-3)


def test_empty_matching_error():
    with pytest.raises(EmptyMatchingError):
        induced_matching(named_fixture("edgeless-5"))
    with pytest.raises(ValueError):
        induced_matching(named_fixture("edgeless-0"))


def test_certificate_recheck_roundtrip(c6):
    result = induced_matching(c6, seed=2)
    assert is_induced_matching(c6, result.matching) is True
    assert is_induced_matching(c6, ((0, 1), (2, 3))) is False  # tampered
    assert is_induced_matching(c6, ()) is True
    for ids in [((0.9, 1.9),), (("0", "1"),)]:  # not integers, not vertices 0, 1
        with pytest.raises(ValueError, match="is not an integer"):
            is_induced_matching(c6, ids)


def test_budget_follows_a_replaced_config():
    prep = prepare_pipeline(projective_incidence_graph(7), PipelineConfig())
    assert prep.budget == pytest.approx(5674.297, abs=1e-3)
    changed = dataclasses.replace(prep, config=PipelineConfig(epsilon=1.0))
    expected = triangle_budget(prep.contracted.graph.n, prep.contracted_max_degree, 1.0)
    assert expected == 784.0
    assert changed.budget == expected
    assert run_prepared(changed, 0).stats.budget == expected
    # the replaced config's budget is enforced when the copy is built
    with pytest.raises(TriangleBudgetExceeded) as err:
        dataclasses.replace(prep, config=PipelineConfig(epsilon=2.0))
    assert (err.value.measured, err.value.budget) == (96, 56.0)
    # the matching is read off the contraction, so no copy can disagree
    assert [f.name for f in dataclasses.fields(prep)] == ["graph", "config", "contracted"]


def test_budget_is_computed_once_per_prepared_pipeline(monkeypatch):
    calls = []

    def counting(*args, _original=pipeline.triangle_budget):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(pipeline, "triangle_budget", counting)
    prep = prepare_pipeline(projective_incidence_graph(7), PipelineConfig())
    results = [run_prepared(prep, seed) for seed in range(5)]
    assert len(calls) == 1
    assert {r.stats.budget for r in results} == {prep.budget}


def test_determinism_byte_for_byte():
    g = projective_incidence_graph(7)
    a = induced_matching(g, seed=123)
    b = induced_matching(g, PipelineConfig(), 123)
    assert a == b
    assert repr(a) == repr(b)
    c = induced_matching(g, seed=124)
    assert c.certificate is True  # different seed still sound


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(B=1)
    with pytest.raises(ValueError):
        PipelineConfig(epsilon=3.0)
    for bad in (
        {"max_retries": 0},
        {"max_retries": -3},
        {"degree_cutoff": -1},
        # a knob that is not an integer fails here, not in run_prepared
        {"max_retries": 2.5, "degree_cutoff": 0},
        {"degree_cutoff": 16.0},
        {"B": 3.0},
        # an epsilon that is not a real number: a string is not converted
        {"epsilon": "0.5"},
        {"epsilon": 1 + 0j},
    ):
        with pytest.raises(ValueError):
            PipelineConfig(**bad)
    assert PipelineConfig(max_retries=1, degree_cutoff=0).max_retries == 1
    assert PipelineConfig(B=4).effective_epsilon() == pytest.approx(1 / 8)
    assert PipelineConfig(B=2, epsilon=1.0).effective_epsilon() == 1.0


@pytest.mark.parametrize("cutoff", [16, 0], ids=["bypass", "sampled"])
def test_every_id_is_the_id_table_object(tmp_path, cutoff):
    # the host rows, the matching, the quotient (rows and triangles), an
    # induced sample, the greedy independent set and the result hold one
    # object per id: the table's
    path = tmp_path / "g.txt"
    write_edge_list(random_regular(3000, 4, 5), path)
    host = read_edge_list(path)
    prep = prepare_pipeline(host, PipelineConfig(degree_cutoff=cutoff))
    result = run_prepared(prep, 2)
    assert result.certificate and result.stats.bypassed == (cutoff == 16)
    quotient = prep.contracted.graph
    sample, _ = induced_subgraph(quotient, range(0, quotient.n, 2))
    table = _ids(0)
    for ids in (
        chain.from_iterable(host.adjacency),
        chain.from_iterable(prep.matching),
        chain.from_iterable(quotient.adjacency),
        chain.from_iterable(quotient.triangles),
        chain.from_iterable(sample.adjacency),
        triangle_free_independent_set(quotient, break_triangles(quotient)),
        chain.from_iterable(result.matching),
    ):
        assert all(x is table[x] for x in ids)


def test_the_seed_is_not_a_config_field():
    # a run's seed is an argument of the seeded stage only
    with pytest.raises(TypeError):
        PipelineConfig(seed=1)


def test_retries_exhausted_carries_the_trail():
    g = named_fixture("cycle-25")
    failing = PipelineConfig(epsilon=0.1, degree_cutoff=0, max_retries=1)
    with pytest.raises(RetriesExhausted) as caught:
        induced_matching(g, failing, seed=15)
    (attempt,) = caught.value.attempts
    assert isinstance(attempt, AttemptStats)
    assert attempt.outcome != "pass"


def test_greedy_induced_matching_direct(petersen):
    m = greedy_induced_matching(petersen)
    assert is_induced_matching(petersen, m)
    assert len(m) >= 1
    assert greedy_induced_matching(named_fixture("edgeless-3")) == ()
    # pinned output, computed with the restarting scan it replaced
    pinned = greedy_induced_matching(random_regular(5000, 4, 1))
    assert hashlib.sha256(
        "".join(f"{u} {v}\n" for u, v in pinned).encode()
    ).hexdigest() == "1d204b5e7933908aaf7f379d16c9c61d3a3c917ad4ba25ec5c5d33e0c76e40eb"


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=12))
def test_greedy_induced_matching_is_maximal(g):
    m = greedy_induced_matching(g)
    assert is_induced_matching(g, m)
    # maximal: every host edge touches the closed neighbourhood of a chosen endpoint
    covered = {v for e in m for x in e for v in (x, *g.adjacency[x])}
    assert all(u in covered or v in covered for u, v in g.edges())


def test_staged_api_equivalent_to_combined():
    g = projective_incidence_graph(5)
    cfg = PipelineConfig()
    prep = prepare_pipeline(g, cfg)
    assert run_prepared(prep, 77) == induced_matching(g, cfg, seed=77)


def test_soundness_and_ratio_floor_on_regular_corpus():
    for name, g in regular_corpus(seeds_per_combo=1, n_step=8):
        result = induced_matching(g, seed=5)
        assert result.certificate is True, name
        _, d, _ = g.degree_profile
        if d >= 2:
            assert result.stats.ratio >= PIPELINE_RATIO_FLOOR, name


def test_irregular_input_flagged_but_sound():
    # a star is maximally irregular; the guarantee is void but validity holds
    star = named_fixture("complete-bipartite-1-9")
    result = induced_matching(star)
    assert result.certificate is True
    assert result.size == 1
    assert result.stats.match_size < math.ceil(star.n / 4)


def test_seeded_runs_reuse_the_quotient_triangles(monkeypatch):
    sizes = []  # vertex count of every graph whose triangles are enumerated
    enumerate_once = Graph.triangles.func

    def counting(g):
        sizes.append(g.n)
        return enumerate_once(g)

    monkeypatch.setattr(Graph.triangles, "func", counting)
    prep = prepare_pipeline(projective_incidence_graph(13), PipelineConfig())
    quotient_n = prep.contracted.graph.n
    assert sizes == [quotient_n]  # once, in the deterministic stage
    assert prep.contracted_triangles == len(prep.contracted.graph.triangles) > 0
    sizes.clear()
    found = []  # sparsify results, for the per-attempt triangle counts

    def recording(*args, _original=pipeline.sparsify_independent_set, **kwargs):
        found.append(_original(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(pipeline, "sparsify_independent_set", recording)
    results = [run_prepared(prep, seed) for seed in range(5)]
    assert not any(r.stats.bypassed for r in results)  # sampled path
    # each attempt enumerates its sample exactly once: breaking and the
    # greedy pass's guard read that cache. Never the quotient.
    assert len(sizes) == sum(f.attempts for f in found)
    assert quotient_n not in sizes


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
# K4 minus an edge: the greedy pass takes (0, 1) only, short of ceil(5/4) = 2
@example(from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
def test_prepared_matching_meets_vizing_bound(g):
    # irregular graphs included: the greedy matching or, when it is short,
    # the colorer's largest class has at least ceil(m/(Δ+1)) edges
    _, dmax, _ = g.degree_profile
    if dmax == 0:
        return
    matching = prepare_pipeline(g, PipelineConfig()).matching
    assert len({v for e in matching for v in e}) == 2 * len(matching)
    assert all(g.has_edge(u, v) for u, v in matching)
    assert len(matching) >= math.ceil(g.m / (dmax + 1))


def test_prepared_matching_falls_back_to_coloring():
    g = random_regular(8, 4, mix64(2024, 8, 4, 1))
    assert len(pipeline.greedy_matching(g)) == 3  # ceil(16 / 5) = 4
    prep = prepare_pipeline(g, PipelineConfig())
    assert prep.matching == extract_matching(g, misra_gries_edge_color(g))


def test_greedy_matching_suffices_on_benchmark_graphs(monkeypatch):
    calls = []

    def counting(g, _original=pipeline.misra_gries_edge_color):
        calls.append(g)
        return _original(g)

    monkeypatch.setattr(pipeline, "misra_gries_edge_color", counting)
    for g in (projective_incidence_graph(13), random_regular(2000, 4, 1)):
        prep = prepare_pipeline(g, PipelineConfig())
        assert prep.matching == pipeline.greedy_matching(g)
    assert calls == []


def test_tracer_patch_points_see_every_call(monkeypatch):
    # The benchmark's tracer times stages by replacing these module
    # globals, so each must be looked up when it is called.
    calls = {}  # "module.name" -> vertex count of each call's graph
    for module, name in [
        (sparsify, "sample_vertices"),
        (sparsify, "induced_subgraph"),
        (sparsify, "enumerate_triangles"),
        (sparsify, "break_triangles"),
        (pipeline, "enumerate_triangles"),
    ]:
        key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"

        def counting(g, *args, _fn=getattr(module, name), _key=key):
            calls.setdefault(_key, []).append(g.n)
            return _fn(g, *args)

        monkeypatch.setattr(module, name, counting)
    prep = prepare_pipeline(projective_incidence_graph(7), PipelineConfig(degree_cutoff=0))
    quotient_n = prep.contracted.graph.n
    assert calls == {"pipeline.enumerate_triangles": [quotient_n]}
    calls.clear()
    result = run_prepared(prep, 0)
    assert not result.stats.bypassed
    assert sorted(calls) == [
        "sparsify.break_triangles",
        "sparsify.enumerate_triangles",
        "sparsify.induced_subgraph",
        "sparsify.sample_vertices",
    ]
    # only the attempts' samples are listed, never the quotient
    assert max(calls["sparsify.enumerate_triangles"]) < quotient_n


def test_bypass_run_enumerates_no_triangles(monkeypatch):
    enumerated = []  # every graph whose triangles are enumerated
    enumerate_once = Graph.triangles.func

    def counting(g):
        enumerated.append(g)
        return enumerate_once(g)

    monkeypatch.setattr(Graph.triangles, "func", counting)
    prep = prepare_pipeline(random_regular(2000, 4, 1), PipelineConfig())
    assert (prep.contracted.graph.n, prep.contracted_triangles) == (888, 15)
    enumerated.clear()
    result = run_prepared(prep, 0)
    assert result.stats.bypassed and result.certificate is True
    # breaking and the greedy guard read the quotient's cached triangles
    assert enumerated == []



def _certificates_digest(results) -> str:
    h = hashlib.sha256()
    for seed, result in results:
        h.update(f"seed {seed}\n".encode())
        h.update("".join(f"{u} {v}\n" for u, v in result.matching).encode())
    return h.hexdigest()


def test_frozen_certificates():
    # Pinned outputs of fixed (graph, config, seed): the sampled path on
    # projective q=13 and the bypass path on a random-regular graph.
    prep = prepare_pipeline(projective_incidence_graph(13), PipelineConfig())
    sampled = [(seed, run_prepared(prep, seed)) for seed in range(50)]
    assert not any(r.stats.bypassed for _, r in sampled)
    assert _certificates_digest(sampled) == (
        "e40ae874daa4538c56e17d6364c4b21cd4727ce8036a8f574e29e8b3d0d5b794"
    )
    prep = prepare_pipeline(random_regular(2000, 4, 1), PipelineConfig())
    bypass = run_prepared(prep, 0)
    assert bypass.stats.bypassed
    assert _certificates_digest([(0, bypass)]) == (
        "fde14032c85729b284b379e6fe5b394c86e06bad8aaaa92e8b653e95973b16e2"
    )


def test_package_runs_without_numpy():
    # Poison the numpy import; the package must import and run without it.
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import indmatch\n"
        "r = indmatch.induced_matching(indmatch.projective_incidence_graph(7))\n"
        "assert r.certificate is True and r.size > 0, r\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-400:]
