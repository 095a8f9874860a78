"""Dynamic multigraph: id stability, multi-edges, swap removal."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import live_edges

from reachbench.graph import DiGraph


def test_empty_graph():
    g = DiGraph()
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert live_edges(g) == []


def test_many_vertices():
    g = DiGraph(100_000)
    assert g.vertex_count == 100_000
    assert len(g.out_lists) == len(g.in_lists) == 100_000


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
    assert len(g.out_lists[0]) == 1
    assert len(g.in_lists[0]) == 1


@pytest.mark.parametrize("u,v", [(0, 1.0), (1.0, 0)])
def test_add_edge_with_non_int_endpoint_leaves_the_graph_alone(u, v):
    g = DiGraph(3)
    with pytest.raises(TypeError):
        g.add_edge(u, v)
    assert g.edge_count == 0
    assert live_edges(g) == []
    assert g.out_lists == g.in_lists == [[], [], []]
    g.check_invariants()
    assert g.add_edge(0, 1) == 0  # no edge id was used up


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


@pytest.mark.parametrize("bad", [1, -1, -2, 3, None], ids=["dead", "minus-one", "negative",
                                                          "out-of-range", "none"])
def test_ids_that_are_not_live_raise_and_leave_the_graph_alone(bad):
    g = DiGraph(2)
    g.add_edge(0, 1)
    g.remove_edge(g.add_edge(1, 0))
    g.add_edge(1, 1)
    before = live_edges(g)
    assert not g.is_live(bad)
    with pytest.raises(ValueError, match="is not live"):
        g.endpoints(bad)
    with pytest.raises(ValueError, match="is not live"):
        g.remove_edge(bad)
    assert live_edges(g) == before
    g.check_invariants()


def test_find_edge_outside_the_vertex_range_is_none():
    g = DiGraph(2)
    g.add_edge(1, 0)
    g.add_edge(0, 1)
    assert g.find_edge(-1, 0) is None
    assert g.find_edge(1, -2) is None
    assert g.find_edge(2, 0) is None
    assert g.find_edge(0, 2) is None


def test_incidence_entries_pair_id_with_other_endpoint():
    """Entries are bare edge ids; heads and tails pair each with the other
    endpoint."""
    g = DiGraph(3)
    e1 = g.add_edge(0, 1)
    e2 = g.add_edge(0, 2)
    assert g.out_lists[0] == [e1, e2]
    assert g.in_lists[1] == [e1]
    assert g.in_lists[2] == [e2]
    assert [g.heads[e] for e in g.out_lists[0]] == [1, 2]
    assert [g.tails[e] for e in g.in_lists[1] + g.in_lists[2]] == [0, 0]


def test_swap_removal_moves_last_entry_into_hole():
    g = DiGraph(4)
    e1 = g.add_edge(0, 1)
    e2 = g.add_edge(0, 2)
    e3 = g.add_edge(0, 3)
    g.remove_edge(e1)
    assert g.out_lists[0] == [e3, e2]
    g.check_invariants()


def test_out_heads_follow_out_lists_through_swap_removal():
    g = DiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (0, 2)])
    assert g.out_heads[0] == [1, 2, 3, 2]
    assert g.pop_edge(0, 1) == 0
    assert g.out_lists[0] == [3, 1, 2]
    assert g.out_heads[0] == [2, 2, 3]
    assert g.find_edge(0, 2) == 3  # the newer of the two, now in slot 0
    g.add_edge(0, 1)
    assert g.out_heads[0] == [2, 2, 3, 1]
    g.check_invariants()


def _plant_dead_id(g, dead):
    g.out_lists[1].append(dead)


def _plant_wrong_head(g, dead):
    g.heads[0] = 0


def _plant_live_count(g, dead):
    g.edge_count += 1


def _plant_head_table_drift(g, dead):
    g.out_heads[0][0] = 0


def _plant_vertex_count(g, dead):
    g.vertex_count += 1


@pytest.mark.parametrize("corrupt", [_plant_dead_id, _plant_wrong_head, _plant_live_count,
                                     _plant_head_table_drift, _plant_vertex_count],
                         ids=["dead-id-listed", "endpoint-disagrees", "live-count-off",
                              "head-table-drifts", "vertex-count-off"])
def test_check_invariants_catches_corruption(corrupt):
    g = DiGraph(2)
    g.add_edge(0, 1)
    dead = g.add_edge(1, 0)
    g.remove_edge(dead)
    g.check_invariants()
    corrupt(g, dead)
    with pytest.raises(AssertionError):
        g.check_invariants()


def test_no_operation_rebinds_a_table():
    g = DiGraph.from_edges(3, [(0, 1), (1, 2), (0, 1)])
    names = ("out_lists", "out_heads", "in_lists", "heads", "tails")
    tables = [getattr(g, name) for name in names]
    e = g.add_edge(2, 0)
    assert g.pop_edge(0, 1) is not None
    g.remove_edge(e)
    assert all(getattr(g, name) is table for name, table in zip(names, tables))


def _state(g):
    return (g.vertex_count, g.edge_count, live_edges(g), g.out_lists, g.in_lists)


@pytest.mark.parametrize("n,edges", [
    (1, []),
    (3, []),
    (1, [(0, 0), (0, 0)]),
    (3, [(0, 1), (0, 1), (1, 2), (2, 2), (0, 1), (2, 0)]),
    (4, [(3, 0), (1, 2), (0, 3), (3, 0), (2, 2), (1, 2)]),
    (20, [(i % 20, (7 * i + 3) % 20) for i in range(300)]),
], ids=["n1-empty", "empty", "self-loops", "parallel", "mixed", "300-edges"])
def test_from_edges_equals_add_edge_loop(n, edges):
    loop = DiGraph(n)
    for u, v in edges:
        loop.add_edge(u, v)
    bulk = DiGraph.from_edges(n, edges)
    bulk.check_invariants()
    assert _state(bulk) == _state(loop)
    # one int object per edge id in both incidence tables, as add_edge
    # makes them (CPython shares only the ints up to 256)
    for e, u, v in live_edges(bulk):
        assert bulk.out_lists[u][bulk.out_lists[u].index(e)] is \
            bulk.in_lists[v][bulk.in_lists[v].index(e)]
    assert bulk.add_edge(0, 0) == loop.add_edge(0, 0)
    for e, _, _ in live_edges(loop)[::2]:
        assert bulk.remove_edge(e) == loop.remove_edge(e)
    assert _state(bulk) == _state(loop)


def _tables(g):
    return (g.vertex_count, g.edge_count, g.out_lists, g.out_heads, g.in_lists,
            g.tails, g.heads)


def _lists(g):
    return [g.out_lists, g.out_heads, g.in_lists, g.tails, g.heads,
            *g.out_lists, *g.out_heads, *g.in_lists]


@pytest.mark.parametrize("removed", [0, 2], ids=["fresh", "with-dead-ids"])
@pytest.mark.parametrize("n,edges", [
    (1, []),
    (1, [(0, 0), (0, 0)]),
    (4, [(3, 0), (1, 2), (0, 3), (3, 0), (2, 2), (1, 2)]),
    (20, [(i % 20, (7 * i + 3) % 20) for i in range(300)]),
], ids=["n1-empty", "self-loops", "mixed", "300-edges"])
def test_from_grouping_rebuilds_the_graph(n, edges, removed):
    """from_grouping(g.grouping()) equals g table for table, dead ids
    included, keeps one int object per edge id in both incidence tables,
    and shares no list with g, the grouping or another rebuild; a rebuild
    mutated afterwards leaves the next one as it was."""
    g = DiGraph.from_edges(n, edges)
    for e, _, _ in live_edges(g)[:removed]:
        g.remove_edge(e)
    grouping = g.grouping()
    a, b = DiGraph.from_grouping(grouping), DiGraph.from_grouping(grouping)
    for rebuilt in (a, b):
        rebuilt.check_invariants()
        assert _tables(rebuilt) == _tables(g)
        for e, u, v in live_edges(rebuilt):
            assert rebuilt.out_lists[u][rebuilt.out_lists[u].index(e)] is \
                rebuilt.in_lists[v][rebuilt.in_lists[v].index(e)]
    everything = _lists(g) + _lists(a) + _lists(b) + list(grouping)
    assert len(set(map(id, everything))) == len(everything)
    a.add_edge(0, 0)
    if edges:
        a.pop_edge(*edges[-1])
    assert _tables(DiGraph.from_grouping(grouping)) == _tables(b) == _tables(g)


def test_no_collector_tracked_object_per_edge():
    """Incidence entries are bare ints, which the collector does not track:
    a bulk build adds the 3n per-vertex lists (out-ids, out-heads, in-ids)
    and a few containers, and add_edge adds nothing."""
    n, m = 200, 3000
    edges = [(i % n, (7 * i + 3) % n) for i in range(m)]
    gc.disable()
    try:
        before = len(gc.get_objects())
        g = DiGraph.from_edges(n, edges)
        built = len(gc.get_objects())
        for u, v in edges:
            g.add_edge(u, v)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert built - before <= 3 * n + 10
    assert after == built


@pytest.mark.parametrize("bad", [(1, 3), (3, 1), (-1, 0), (0, -1)])
def test_from_edges_rejects_out_of_range_edge_like_add_edge(bad):
    edges = [(0, 1), (2, 2), bad, (1, 0)]
    with pytest.raises(ValueError) as want:
        DiGraph(3).add_edge(*bad)
    with pytest.raises(ValueError) as got:
        DiGraph.from_edges(3, edges)
    assert str(got.value) == str(want.value)


def test_edges_listing_sorted_by_id():
    g = DiGraph(3)
    e1 = g.add_edge(2, 0)
    e2 = g.add_edge(0, 1)
    e3 = g.add_edge(1, 1)
    g.remove_edge(e2)
    assert live_edges(g) == [(e1, 2, 0), (e3, 1, 1)]


@st.composite
def edit_scripts(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    vertex = st.integers(0, n - 1)
    step = st.one_of(st.tuples(st.just("add"), vertex, vertex),
                     st.tuples(st.just("remove_pair"), vertex, vertex),
                     st.tuples(st.just("remove_id"), st.integers(0, 1000)))
    return n, draw(st.lists(step, max_size=60))


def _swap_remove(lst, entry):
    pos = lst.index(entry)
    last = lst.pop()
    if pos < len(lst):
        lst[pos] = last


@given(edit_scripts())
@settings(max_examples=200)
def test_random_interleaving_matches_naive_model(script):
    """Arbitrary add/remove mixes tracked against a model of every incidence
    list under the swap-remove rule, compared in order after each step.
    Removals take the newest (u, v) edge, as replay does, or any live id."""
    n, steps = script
    g = DiGraph(n)
    out = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    ends: dict[int, tuple[int, int]] = {}  # live id -> (tail, head)
    heads = []  # head by id, dead ones included
    next_id = 0
    for kind, *args in steps:
        if kind == "add":
            u, v = args
            assert g.add_edge(u, v) == next_id
            ends[next_id] = (u, v)
            heads.append(v)
            out[u].append(next_id)
            inc[v].append(next_id)
            next_id += 1
            continue
        if kind == "remove_pair":
            ids = [e for e, uv in ends.items() if uv == tuple(args)]
            e = max(ids) if ids else None
            assert g.find_edge(*args) == e
        else:
            e = sorted(ends)[args[0] % len(ends)] if ends else None
        if e is None:
            continue
        u, v = ends.pop(e)
        assert g.remove_edge(e) == (u, v)
        assert not g.is_live(e)
        _swap_remove(out[u], e)
        _swap_remove(inc[v], e)
        assert g.out_lists == out
        assert g.in_lists == inc
    g.check_invariants()
    assert g.edge_count == len(ends)
    assert live_edges(g) == [(e, *ends[e]) for e in sorted(ends)]
    assert g.tails == [ends[e][0] if e in ends else -1 for e in range(next_id)]
    assert g.heads == heads
    assert g.out_lists == out
    assert g.in_lists == inc
    for u in range(n):
        for v in range(n):
            ids = [e for e, uv in ends.items() if uv == (u, v)]
            assert g.find_edge(u, v) == (max(ids) if ids else None)


@st.composite
def pop_scripts(draw):
    """Adds weighted towards parallel edges and self-loops, then pops of any
    pair, out-of-range endpoints included."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertex = st.integers(0, n - 1)
    pair = st.one_of(st.tuples(vertex, vertex), vertex.map(lambda x: (x, x)),
                     st.sampled_from([(0, n - 1)]))
    anywhere = st.integers(-2, n + 1)
    step = st.one_of(st.tuples(st.just("add"), pair),
                     st.tuples(st.just("add_twice"), pair),
                     st.tuples(st.just("pop"), pair),
                     st.tuples(st.just("pop"), st.tuples(anywhere, anywhere)))
    return n, draw(st.lists(step, max_size=50))


@given(pop_scripts())
@settings(max_examples=300)
def test_pop_edge_matches_find_edge_then_remove_edge(script):
    """pop_edge(u, v) removes the same id as remove_edge(find_edge(u, v)),
    leaves the same lists in the same order, and is None on a miss."""
    n, steps = script
    popped, twostep = DiGraph(n), DiGraph(n)
    for kind, (u, v) in steps:
        if kind == "pop":
            e = twostep.find_edge(u, v)
            if e is not None:
                assert twostep.remove_edge(e) == (u, v)
            assert popped.pop_edge(u, v) == e
        else:
            for _ in range(1 + (kind == "add_twice")):
                assert popped.add_edge(u, v) == twostep.add_edge(u, v)
        popped.check_invariants()
        assert _state(popped) == _state(twostep)
        assert popped.tails == twostep.tails
        assert popped.heads == twostep.heads
