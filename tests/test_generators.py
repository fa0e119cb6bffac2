import hashlib
import random
import re
from collections import Counter, deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmatch import (
    GenerationError,
    build_graph,
    enumerate_triangles,
    named_fixture,
    polarity_graph,
    projective_incidence_graph,
    random_regular,
)
from indmatch import generators, oracle
from indmatch.oracle import (
    is_c4_free_bf,
    polarity_graph_bf,
    projective_incidence_graph_bf,
    random_regular_bf,
    validate_graph,
)

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# sha256 of repr(adjacency), computed with the O(q^4) dot-product builders.
FROZEN_ADJACENCY_31 = {
    projective_incidence_graph: (
        "cd5fdbcd59d1028e5bfa8bc4db08b4080eaef8fdfa470c7814397c57a85d73c1"
    ),
    polarity_graph: (
        "b2a6ef5dcad55b568dec753c0bb0be73d0f4f29e1ae6c952e8ebe9ad455d33aa"
    ),
}


def girth(g):
    """Shortest cycle length by BFS from every vertex; None if acyclic."""
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def shares_two_neighbors(g):
    """True iff some two vertices have two common neighbors, i.e. ``g``
    contains a 4-cycle. Each vertex marks every pair of its neighbors, so
    this is O(n * d^2) and runs where ``is_c4_free_bf`` cannot."""
    seen = set()
    for nbrs in g.adjacency:
        for pair in combinations(nbrs, 2):
            if pair in seen:
                return True
            seen.add(pair)
    return False


@pytest.mark.parametrize("q,n,d", [(2, 14, 3), (3, 26, 4), (5, 62, 6)])
def test_projective_incidence_structure(q, n, d):
    g = projective_incidence_graph(q)
    validate_graph(g)
    assert g.n == n
    assert g.m == n * d // 2
    assert g.degree_profile == (d, d, True)
    assert enumerate_triangles(g) == ()
    assert is_c4_free_bf(g, limit=g.n)


def test_projective_incidence_structure_q31():
    g = projective_incidence_graph(31)
    validate_graph(g)
    assert (g.n, g.m) == (1986, 31776)
    assert g.degree_profile == (32, 32, True)
    assert enumerate_triangles(g) == ()
    assert not shares_two_neighbors(g)


def test_shares_two_neighbors_finds_four_cycles(petersen):
    assert shares_two_neighbors(named_fixture("cycle-4"))
    assert shares_two_neighbors(named_fixture("complete-bipartite-2-3"))
    assert not shares_two_neighbors(petersen)
    assert not shares_two_neighbors(named_fixture("cycle-5"))


@pytest.mark.parametrize("q", PRIMES_TO_31)
def test_projective_families_match_dot_product_twins(q):
    fast, slow = projective_incidence_graph(q), projective_incidence_graph_bf(q)
    assert fast.adjacency == slow.adjacency
    assert polarity_graph(q).adjacency == polarity_graph_bf(q).adjacency


@pytest.mark.parametrize("build", list(FROZEN_ADJACENCY_31), ids=lambda f: f.__name__)
def test_frozen_adjacency_q31(build):
    digest = hashlib.sha256(repr(build(31).adjacency).encode()).hexdigest()
    assert digest == FROZEN_ADJACENCY_31[build]


def test_projective_incidence_girth_six():
    assert girth(projective_incidence_graph(2)) == 6
    assert girth(projective_incidence_graph(3)) == 6


def test_projective_heawood_equivalent(heawood):
    g = projective_incidence_graph(2)
    assert (g.n, g.m, g.degree_profile) == (heawood.n, heawood.m, heawood.degree_profile)


@pytest.mark.parametrize("q", [1, 4, 6, 9])
def test_projective_rejects_non_prime(q):
    with pytest.raises(ValueError):
        projective_incidence_graph(q)
    with pytest.raises(ValueError):
        polarity_graph(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_polarity_structure(q):
    g = polarity_graph(q)
    validate_graph(g)
    assert g.n == q * q + q + 1
    degrees = Counter(len(g.adjacency[v]) for v in range(g.n))
    assert degrees[q] == q + 1  # self-orthogonal points
    assert degrees[q + 1] == g.n - (q + 1)
    assert is_c4_free_bf(g, limit=g.n)


def test_polarity_structure_q31():
    g = polarity_graph(31)
    validate_graph(g)
    assert g.n == 993
    degrees = Counter(len(g.adjacency[v]) for v in range(g.n))
    assert degrees == {31: 32, 32: 961}
    assert not shares_two_neighbors(g)


def test_random_regular_basic():
    g = random_regular(10, 3, 7)
    validate_graph(g)
    assert g.degree_profile == (3, 3, True)


def test_random_regular_deterministic():
    assert random_regular(24, 5, 99) == random_regular(24, 5, 99)
    assert random_regular(24, 5, 99) != random_regular(24, 5, 100)


def test_random_regular_parity_error():
    with pytest.raises(ValueError, match="even"):
        random_regular(5, 3, 0)


def test_random_regular_degree_bound():
    with pytest.raises(ValueError):
        random_regular(4, 4, 0)


def test_random_regular_k4():
    g = random_regular(4, 3, 12345)
    assert g.m == 6  # unique 3-regular graph on 4 vertices


def test_random_regular_d0_and_large_degree():
    g = random_regular(6, 0, 1)
    assert g.m == 0
    big = random_regular(100, 20, 5)
    assert big.degree_profile == (20, 20, True)


@pytest.mark.parametrize("seed", [0, 1, 7, 99, -3, 2**70 + 5])
def test_shuffle_draws_as_random_shuffle(seed):
    for length in range(65):
        r1, r2 = random.Random(seed), random.Random(seed)
        a, b = list(range(length)), list(range(length))
        generators._shuffle(a, r1)
        r2.shuffle(b)
        assert a == b, length
        assert r1.getstate() == r2.getstate(), length


def _generated(build, n, d, seed):
    """The rows ``build`` returns, checked, or its ``GenerationError`` text."""
    try:
        g = build(n, d, seed)
    except GenerationError as exc:
        return str(exc)
    validate_graph(g)
    return g.adjacency


@st.composite
def _regular_params(draw):
    n = draw(st.integers(0, 40))
    d = draw(st.integers(0, max(n - 1, 0)))
    if n * d % 2:
        d -= 1
    return n, d, draw(st.integers())


@settings(max_examples=120, deadline=None)
@given(_regular_params())
def test_random_regular_matches_edge_set_twin(params):
    n, d, seed = params
    got = _generated(random_regular, n, d, seed)
    assert got == _generated(random_regular_bf, n, d, seed)
    if not isinstance(got, str):
        assert {len(row) for row in got} <= {d}


@pytest.mark.parametrize("n,d,seed,pairings", [(12, 5, 2, 8), (20, 3, 10, 5)])
def test_random_regular_restarts_match_the_twin(monkeypatch, n, d, seed, pairings):
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    count(generators, "_try_pairing")
    count(oracle, "_try_pairing_bf")
    g = random_regular(n, d, seed)
    validate_graph(g)
    assert g == random_regular_bf(n, d, seed)
    assert counts == {"_try_pairing": pairings, "_try_pairing_bf": pairings}


def test_random_regular_raises_after_the_restart_budget(monkeypatch):
    monkeypatch.setattr(generators, "PAIRING_RESTART_BUDGET", 2)
    message = "no simple 5-regular pairing on 12 vertices after 2 restarts"
    for build in (random_regular, random_regular_bf):
        with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
            build(12, 5, 2)


def test_fixture_examples(petersen):
    from indmatch.oracle import count_triangles_bf

    assert count_triangles_bf(petersen) == 0
    c6 = named_fixture("cycle-6")
    assert c6.degree_profile == (2, 2, True)
    k22 = named_fixture("complete-bipartite-2-2")
    assert (k22.n, k22.m) == (4, 4)
    assert girth(k22) == 4


def test_fixture_unknown_name_lists_supported():
    supported = (
        "petersen, heawood, cycle-<k>, path-<k>, complete-<k>, "
        "complete-bipartite-<a>-<b>, edgeless-<k>"
    )
    message = f"unknown fixture 'dodecahedron'; supported: {supported}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        named_fixture("dodecahedron")
    # sizes are numerals of ASCII digits: no underscore, sign, space or
    # digit of another script (Arabic-Indic three and two here)
    for name in (
        "cycle-3_0", "cycle-+4", "cycle- 4", "edgeless--1", "complete",
        "complete-bipartite", "complete-bipartite-2", "complete-bipartite-2-+3",
        "cycle-\u0663", "complete-bipartite-\u0662-3",
    ):
        with pytest.raises(ValueError, match="^unknown fixture "):
            named_fixture(name)
    with pytest.raises(ValueError, match="^cycle needs k >= 3, got 2$"):
        named_fixture("cycle-2")
    for kind, (smallest, _) in generators.SIZED_FIXTURES.items():
        assert named_fixture(f"{kind}-{smallest}").n == smallest
        if smallest:
            with pytest.raises(ValueError, match=f"^{kind} needs k >= {smallest}, got 0$"):
                named_fixture(f"{kind}-0")
    with pytest.raises(ValueError, match="^complete bipartite needs both sides >= 1$"):
        named_fixture("complete-bipartite-0-3")


def test_heawood_structure(heawood):
    validate_graph(heawood)
    assert heawood.degree_profile == (3, 3, True)
    assert enumerate_triangles(heawood) == ()
    assert is_c4_free_bf(heawood, limit=14)
    assert girth(heawood) == 6


def test_build_graph_dispatch():
    assert build_graph("projective", q=2).n == 14
    assert build_graph("polarity", q=2).n == 7
    assert build_graph("random-regular", n=8, d=3, seed=1).n == 8
    assert build_graph("fixture", name="petersen").n == 10
    for family, needs in (
        ("projective", "q"), ("polarity", "q"), ("random-regular", "n and d"),
        ("fixture", "a name"),
    ):
        with pytest.raises(ValueError, match=f"^{family} family requires {needs}$"):
            build_graph(family, d=3)
    with pytest.raises(ValueError, match="^unknown family 'nope'$"):
        build_graph("nope")
