"""Incremental reachability tree with threshold-guarded deletion repair."""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import apply_add, apply_remove, delta, lenient_scripts, make_algorithm, sweep

from reachbench.core import (
    ADD,
    QUERY,
    REMOVE,
    Operation,
    OperationSequence,
    WorkCounters,
    iterate_replay,
    oracle_reach_set,
    replay,
    verify_against_oracle,
)
from reachbench.generators import ErSpec, gen_er_instance, shuffle_sequence
from reachbench.graph import DiGraph
from reachbench.reach_tree import REACHABLE, UNKNOWN, UNREACHABLE, IncrementalReachTree

ALL_FLAGS = [(r, f) for r in (False, True) for f in (False, True)]


def si(ratio=0.25, reverse_order=False, forward_search=True):
    return partial(IncrementalReachTree, reverse_order=reverse_order,
                   forward_search=forward_search, ratio=ratio)


def test_ratio_validation():
    g = DiGraph(1)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            IncrementalReachTree(g, 0, WorkCounters(), ratio=bad)


def test_initialize_builds_bfs_tree_on_chain():
    g, alg, _ = make_algorithm(si(), 3, 0, [(0, 1), (1, 2)])
    assert sweep(alg, 3) == [True, True, True]
    assert alg.tree_edge[1] == g.find_edge(0, 1)
    assert alg.tree_edge[2] == g.find_edge(1, 2)
    alg.check_invariants()


def test_initialize_with_no_out_edges():
    _, alg, _ = make_algorithm(si(), 3, 0, [(1, 2)])
    assert sweep(alg, 3) == [True, False, False]


def test_initial_reachable_set_matches_oracle():
    seq = gen_er_instance(ErSpec(n=32, d=2.0, sigma=0, seed=3))
    g, alg, _ = make_algorithm(si(), seq.n, seq.source, seq.initial_edges)
    assert bytearray(sweep(alg, seq.n)) == oracle_reach_set(g, seq.source)


def test_insertion_claims_isolated_head():
    g, alg, _ = make_algorithm(si(), 3, 0, [(0, 1)])
    e = apply_add(g, alg, 0, 2)
    assert alg.query(2)
    assert alg.tree_edge[2] == e
    alg.check_invariants()


def test_insertion_with_reachable_head_is_constant_time():
    g, alg, c = make_algorithm(si(), 3, 0, [(0, 1), (1, 2)])
    before = c.snapshot()
    apply_add(g, alg, 0, 2)
    apply_add(g, alg, 2, 0)  # head already reachable
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.tree_edge[2] == g.find_edge(1, 2)


def test_insertion_from_unreachable_tail_is_constant_time():
    g, alg, c = make_algorithm(si(), 4, 0, [(2, 3)])
    before = c.snapshot()
    apply_add(g, alg, 2, 3)
    assert delta(c, before) == (0, 0, 0, 0)
    assert not alg.query(3)


def test_bridge_insertion_claims_whole_component():
    # vertices 1..10 form an unreachable chain; one bridge claims all ten
    edges = [(i, i + 1) for i in range(1, 10)]
    g, alg, c = make_algorithm(si(), 11, 0, edges)
    assert sweep(alg, 11) == [True] + [False] * 10
    before = c.snapshot()
    apply_add(g, alg, 0, 1)
    v, e, _, _ = delta(c, before)
    assert v == 10
    assert e == 9
    assert all(alg.query(t) for t in range(11))
    alg.check_invariants()


def test_deleting_nontree_edge_is_free():
    g, alg, c = make_algorithm(si(), 2, 0, [(0, 1), (0, 1)])
    before = c.snapshot()
    # find_edge resolves to the younger parallel edge, which is not in the tree
    apply_remove(g, alg, 0, 1)
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.query(1)


def test_deletion_reanchors_via_backward_search():
    g, alg, _ = make_algorithm(si(ratio=1.0), 3, 0, [(0, 1), (1, 2)])
    apply_add(g, alg, 0, 2)  # non-tree shortcut
    apply_remove(g, alg, 1, 2)
    assert alg.query(2)
    assert alg.tree_edge[2] == g.find_edge(0, 2)
    assert alg.state[2] == REACHABLE
    alg.check_invariants()


def test_deletion_exhausted_backward_search_marks_unreachable():
    g, alg, _ = make_algorithm(si(ratio=1.0), 4, 0, [(0, 1), (1, 2), (2, 3)])
    apply_remove(g, alg, 1, 2)
    assert sweep(alg, 4) == [True, True, False, False]
    alg.check_invariants()


@pytest.mark.parametrize("forward_search,cost,anchor_of_4", [
    (True, (6, 7, 0, 0), 2),
    (False, (6, 5, 0, 0), 3),
])
def test_forward_claim_exact_cost(forward_search, cost, anchor_of_4):
    # 0->1->2 with 2->3->4->0 and 2->4; the shortcut 0->2 is a non-tree edge
    g, alg, c = make_algorithm(si(ratio=1.0, forward_search=forward_search), 5, 0,
                               [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 4)])
    apply_add(g, alg, 0, 2)
    before = c.snapshot()
    apply_remove(g, alg, 1, 2)
    # detach {2, 3, 4}: 3 visits, 2 child links read.  Resolving 2 scans its
    # one live in-edge 0->2 and claims it (1, 1).  SF then sweeps from 2:
    # claims 3 and 4 over 2->3 and 2->4, scans 3->4 and 4->0 (2, 4), leaving
    # nothing unknown.  nSF instead resolves 3 and 4 by backward search,
    # each stopping at its first in-edge, 2->3 and 3->4 (1, 1 each).
    assert delta(c, before) == cost
    assert g.endpoints(alg.tree_edge[4])[0] == anchor_of_4
    assert sweep(alg, 5) == [True] * 5
    alg.check_invariants()


def test_ratio_zero_recomputes_on_every_tree_deletion():
    g, alg, c = make_algorithm(si(ratio=0.0), 3, 0, [(0, 1), (1, 2)])
    apply_remove(g, alg, 1, 2)
    assert c.recomputations == 1
    assert sweep(alg, 3) == [True, True, False]
    alg.check_invariants()


def test_ratio_one_never_recomputes():
    seq = gen_er_instance(ErSpec(n=30, d=2.0, sigma=400, seed=9))
    res = replay(seq, si(ratio=1.0))
    assert sum(r.recomputations for r in res.records if r.kind == REMOVE) == 0


def test_ratio_zero_deletions_stay_within_rebuild_budget():
    seq = gen_er_instance(ErSpec(n=40, d=2.0, sigma=400, seed=2))
    res = replay(seq, si(ratio=0.0))
    m = len(seq.initial_edges)
    for r in res.records:
        if r.kind == ADD:
            m += 1
        elif r.kind == REMOVE:
            m -= 1
            assert r.vertices_visited + r.edges_scanned <= 2 * (seq.n + m)


def test_pure_insertion_sequence_claims_each_vertex_once():
    seq = gen_er_instance(ErSpec(n=60, d=0.5, sigma=200, seed=4,
                                 p_insert=1.0, p_delete=0.0, p_query=0.0))
    res = replay(seq, si())
    assert sum(r.vertices_visited for r in res.records if r.kind == ADD) <= seq.n


@pytest.mark.parametrize("reverse_order,forward_search", ALL_FLAGS)
@pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 1.0])
def test_flag_combinations_agree_with_oracle(reverse_order, forward_search, ratio):
    factory = si(ratio=ratio, reverse_order=reverse_order,
                 forward_search=forward_search)
    for seed in (0, 1):
        seq = gen_er_instance(ErSpec(n=24, d=1.5, sigma=150, seed=seed))
        assert verify_against_oracle(seq, factory) is None


@pytest.mark.parametrize("reverse_order,forward_search", ALL_FLAGS)
def test_tree_stays_valid_through_random_updates(reverse_order, forward_search):
    seq = gen_er_instance(ErSpec(n=20, d=1.5, sigma=120, seed=6))
    for ratio in (0.0, 0.25, 0.5, 1.0):
        factory = si(ratio=ratio, reverse_order=reverse_order,
                     forward_search=forward_search)
        for s in (seq, shuffle_sequence(seq, 1)):
            for _, op, _, alg, _ in iterate_replay(s, factory):
                if op is None or op.kind != QUERY:
                    alg.check_invariants()


def _unknown_left(g, alg):
    alg.state[2] = UNKNOWN


def _dead_tree_edge(g, alg):
    g.remove_edge(alg.tree_edge[2])


def _stale_child(g, alg):
    alg.children[0][2] = None


def _unreachable_with_tree_edge(g, alg):
    alg.state[3] = UNREACHABLE


def _tree_cycle(g, alg):
    # 1 and 2 hang off each other: each tree edge is live, ends at its
    # vertex and leaves a reachable tail, and children agree
    alg.children[0].pop(1)
    alg.tree_edge[1] = g.find_edge(2, 1)
    alg.children[2][1] = None


@pytest.mark.parametrize("corrupt", [_unknown_left, _dead_tree_edge, _stale_child,
                                     _unreachable_with_tree_edge, _tree_cycle],
                         ids=["unknown-left", "dead-tree-edge", "stale-child",
                              "unreachable-with-tree-edge", "tree-cycle"])
def test_check_invariants_catches_corruption(corrupt):
    g, alg, _ = make_algorithm(si(), 4, 0, [(0, 1), (1, 2), (2, 3), (2, 1)])
    alg.check_invariants()
    corrupt(g, alg)
    with pytest.raises(AssertionError):
        alg.check_invariants()


#: Scripts that delete a tree edge whose head stays reachable through
#: another in-edge, so the backward search in `_resolve` must walk from the
#: head to a reachable tail: directly, from a detached child, or through an
#: unknown vertex one step further back.
_REANCHOR_SCRIPTS = [
    OperationSequence(3, 0, [(0, 1), (0, 2), (2, 1)], [Operation(REMOVE, 0, 1)], lenient=True),
    OperationSequence(4, 0, [(0, 1), (1, 2), (0, 3), (3, 2)], [Operation(REMOVE, 0, 1)],
                      lenient=True),
    OperationSequence(5, 0, [(0, 1), (1, 2), (2, 1), (0, 4), (4, 2)],
                      [Operation(REMOVE, 0, 1)], lenient=True),
]


@pytest.mark.parametrize("reverse_order,forward_search", ALL_FLAGS)
@given(seq=lenient_scripts(dense=True), ratio=st.sampled_from([0.0, 0.5, 1.0]))
@example(seq=_REANCHOR_SCRIPTS[0], ratio=1.0)
@example(seq=_REANCHOR_SCRIPTS[1], ratio=1.0)
@example(seq=_REANCHOR_SCRIPTS[2], ratio=1.0)
@settings(max_examples=300, deadline=None)
def test_op_scripts_keep_tree_and_answers(reverse_order, forward_search, seq, ratio):
    """Every step of a lenient op script keeps the tree's invariants, and
    every vertex's answer matches the oracle."""
    factory = si(ratio=ratio, reverse_order=reverse_order, forward_search=forward_search)
    for _, _, g, alg, _ in iterate_replay(seq, factory):
        alg.check_invariants()
        assert bytearray(sweep(alg, seq.n)) == oracle_reach_set(g, seq.source)
