import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indmatch import is_induced_matching, is_independent_set, named_fixture
from indmatch.oracle import (
    OracleLimitError,
    contains_kbb_bf,
    count_triangles_bf,
    is_c4_free_bf,
    is_induced_matching_bf,
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
@given(graphs(max_n=8, min_n=1))
def test_fast_and_exhaustive_induced_checks_agree(g):
    size, matching = max_induced_matching_bf(g)
    assert is_induced_matching(g, matching) == is_induced_matching_bf(g, matching)
    edges = sorted(g.edges())
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
def test_fast_and_exhaustive_induced_checks_agree_on_any_ids(name, matching):
    g = named_fixture(name)
    assert _verdict(is_induced_matching, g, matching) == _verdict(
        is_induced_matching_bf, g, matching
    )
