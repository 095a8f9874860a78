"""Dynamic multigraph: id stability, multi-edges, swap removal."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachbench.graph import DiGraph


def test_empty_graph():
    g = DiGraph()
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert g.edges() == []


def test_add_vertex_returns_dense_ids():
    g = DiGraph()
    assert g.add_vertex() == 0
    assert g.add_vertex() == 1
    assert g.add_vertex() == 2
    assert g.vertex_count == 3


def test_add_vertex_extends_preallocated_graph():
    g = DiGraph(3)
    assert g.add_vertex() == 3
    assert g.vertex_count == 4


def test_many_vertices():
    g = DiGraph()
    for i in range(100_000):
        assert g.add_vertex() == i
    assert g.vertex_count == 100_000


def test_parallel_edges_get_distinct_ids():
    g = DiGraph(2)
    e1 = g.add_edge(0, 1)
    e2 = g.add_edge(0, 1)
    assert e1 != e2
    assert g.edge_count == 2
    assert g.endpoints(e1) == (0, 1)
    assert g.endpoints(e2) == (0, 1)


def test_self_loop():
    g = DiGraph(1)
    e = g.add_edge(0, 0)
    assert g.is_live(e)
    assert g.out_degree(0) == 1
    assert g.in_degree(0) == 1
    assert g.degree(0) == 2


def test_find_edge_returns_most_recent_live():
    g = DiGraph(2)
    e1 = g.add_edge(0, 1)
    e2 = g.add_edge(0, 1)
    assert g.find_edge(0, 1) == e2
    g.remove_edge(e2)
    assert g.find_edge(0, 1) == e1
    g.remove_edge(e1)
    assert g.find_edge(0, 1) is None


def test_remove_edge_returns_endpoints():
    g = DiGraph(3)
    e = g.add_edge(1, 2)
    assert g.remove_edge(e) == (1, 2)
    assert not g.is_live(e)
    assert g.edge_count == 0


def test_edge_ids_never_reused():
    g = DiGraph(2)
    e1 = g.add_edge(0, 1)
    g.remove_edge(e1)
    e2 = g.add_edge(0, 1)
    assert e2 != e1
    assert not g.is_live(e1)
    assert g.is_live(e2)


def test_add_edge_rejects_out_of_range_endpoints():
    g = DiGraph(2)
    with pytest.raises(ValueError):
        g.add_edge(0, 2)
    with pytest.raises(ValueError):
        g.add_edge(-1, 0)


def test_dead_edge_lookups_raise():
    g = DiGraph(2)
    e = g.add_edge(0, 1)
    g.remove_edge(e)
    with pytest.raises(ValueError):
        g.remove_edge(e)
    with pytest.raises(ValueError):
        g.endpoints(e)


def test_incidence_entries_pair_id_with_other_endpoint():
    g = DiGraph(3)
    e1 = g.add_edge(0, 1)
    e2 = g.add_edge(0, 2)
    assert g.out_edges(0) == [(e1, 1), (e2, 2)]
    assert g.in_edges(1) == [(e1, 0)]
    assert g.in_edges(2) == [(e2, 0)]


def test_swap_removal_moves_last_entry_into_hole():
    g = DiGraph(4)
    e1 = g.add_edge(0, 1)
    e2 = g.add_edge(0, 2)
    e3 = g.add_edge(0, 3)
    g.remove_edge(e1)
    assert g.out_edges(0) == [(e3, 3), (e2, 2)]
    g.check_invariants()


@pytest.mark.parametrize("table", ["_out_pos", "_in_pos"])
def test_check_invariants_catches_stale_position_of_dead_edge(table):
    g = DiGraph(2)
    g.add_edge(0, 1)
    dead = g.add_edge(1, 0)
    g.remove_edge(dead)
    g.check_invariants()
    getattr(g, table)[dead] = 0
    with pytest.raises(AssertionError):
        g.check_invariants()


def test_edges_listing_sorted_by_id():
    g = DiGraph(3)
    e1 = g.add_edge(2, 0)
    e2 = g.add_edge(0, 1)
    e3 = g.add_edge(1, 1)
    g.remove_edge(e2)
    assert g.edges() == [(e1, 2, 0), (e3, 1, 1)]


@st.composite
def edit_scripts(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pair = st.tuples(st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=60))


@given(edit_scripts())
@settings(max_examples=200)
def test_random_interleaving_matches_naive_model(script):
    """Arbitrary add/remove mixes tracked against a per-pair id-stack model."""
    n, steps = script
    g = DiGraph(n)
    live: dict[tuple[int, int], list[int]] = defaultdict(list)
    for is_add, u, v in steps:
        if is_add:
            live[(u, v)].append(g.add_edge(u, v))
        elif live[(u, v)]:
            e = live[(u, v)][-1]
            assert g.find_edge(u, v) == e
            assert g.remove_edge(e) == (u, v)
            live[(u, v)].pop()
        else:
            assert g.find_edge(u, v) is None
    g.check_invariants()
    assert g.edge_count == sum(len(ids) for ids in live.values())
    for (u, v), ids in live.items():
        assert g.find_edge(u, v) == (ids[-1] if ids else None)
    for v in range(n):
        assert g.out_degree(v) == sum(len(ids) for (a, _), ids in live.items() if a == v)
        assert g.in_degree(v) == sum(len(ids) for (_, b), ids in live.items() if b == v)
