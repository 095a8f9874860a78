"""Static, cached, and lazy traversal variants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import apply_add, apply_remove, delta, lenient_scripts, make_algorithm

from reachbench.core import (
    ADD,
    QUERY,
    REMOVE,
    Divergence,
    Operation,
    OperationSequence,
    iterate_replay,
    oracle_reach_set,
    verify_against_oracle,
)
from reachbench.generators import ErSpec, gen_er_instance, shuffle_sequence
from reachbench.static_search import (
    CachingBfs,
    CachingDfs,
    LazyBfs,
    LazyDfs,
    StaticBfs,
    StaticDfs,
)

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]
ALL_VARIANTS = [StaticBfs, StaticDfs, CachingBfs, CachingDfs, LazyBfs, LazyDfs]


@pytest.mark.parametrize("cls", [StaticBfs, StaticDfs])
def test_static_answers_on_diamond(cls):
    _, alg, _ = make_algorithm(cls, 5, 0, DIAMOND)
    assert [alg.query(t) for t in range(5)] == [True, True, True, True, False]


@pytest.mark.parametrize("cls", [StaticBfs, StaticDfs])
def test_static_query_of_source_is_constant_work(cls):
    _, alg, c = make_algorithm(cls, 4, 0, DIAMOND[:2])
    before = c.snapshot()
    assert alg.query(0)
    assert delta(c, before) == (1, 0, 0, 0)


def test_static_bfs_stops_at_target():
    _, alg, c = make_algorithm(StaticBfs, 3, 0, [(0, 1), (1, 2)])
    before = c.snapshot()
    assert alg.query(1)
    # marks the source and the target, scans only the first chain edge
    assert delta(c, before) == (2, 1, 0, 0)


@pytest.mark.parametrize("cls", [StaticBfs, StaticDfs])
def test_static_unreachable_query_visits_whole_reachable_set(cls):
    edges = [(0, 1), (1, 2), (2, 0), (4, 5)]
    _, alg, c = make_algorithm(cls, 6, 0, edges)
    before = c.snapshot()
    assert not alg.query(3)
    v, e, _, _ = delta(c, before)
    assert v == 3  # everything reachable from 0
    assert e == 3  # every out-edge of the reachable set


@pytest.mark.parametrize("cls", [StaticBfs, StaticDfs])
def test_static_repeats_work_every_query(cls):
    _, alg, c = make_algorithm(cls, 5, 0, DIAMOND)
    alg.query(4)
    first = c.snapshot()
    alg.query(4)
    assert delta(c, first) == first


@pytest.mark.parametrize("cls", [StaticBfs, StaticDfs])
def test_static_updates_are_free(cls):
    g, alg, c = make_algorithm(cls, 3, 0, [(0, 1)])
    before = c.snapshot()
    apply_add(g, alg, 1, 2)
    apply_remove(g, alg, 0, 1)
    assert delta(c, before) == (0, 0, 0, 0)
    assert not alg.query(2)


# ---- cached ----


def test_cached_initialize_is_eager_and_queries_are_free():
    _, alg, c = make_algorithm(CachingBfs, 5, 0, DIAMOND)
    before = c.snapshot()
    assert alg.query(3)
    assert not alg.query(4)
    assert delta(c, before) == (0, 0, 0, 0)


def test_cached_critical_insertion_rebuilds_only_unreached_queries():
    g, alg, c = make_algorithm(CachingBfs, 3, 0, [(0, 1)])
    apply_add(g, alg, 1, 2)
    assert alg.crit_ins
    # a cached-reachable answer stays valid under an insertion
    before = c.snapshot()
    assert alg.query(0)
    assert delta(c, before) == (0, 0, 0, 0)
    # a cached-unreachable one forces the rebuild
    assert alg.query(2)
    assert c.recomputations == 1
    assert not alg.crit_ins and not alg.crit_del
    # flags cleared: the next query is cached again
    before = c.snapshot()
    assert alg.query(2)
    assert delta(c, before) == (0, 0, 0, 0)


def test_cached_noncritical_insertions_raise_no_flag():
    g, alg, _ = make_algorithm(CachingBfs, 4, 0, [(0, 1)])
    apply_add(g, alg, 2, 3)  # unreachable tail
    apply_add(g, alg, 0, 1)  # already reachable head
    assert not alg.crit_ins and not alg.crit_del
    assert not alg.query(3)


def test_cached_critical_deletion_rebuilds_only_reached_queries():
    g, alg, c = make_algorithm(CachingBfs, 3, 0, [(0, 1), (1, 2)])
    apply_remove(g, alg, 1, 2)
    assert alg.crit_del
    assert not alg.query(2)
    assert c.recomputations == 1
    assert not alg.crit_del


def test_cached_deletion_below_unreachable_head_raises_no_flag():
    g, alg, c = make_algorithm(CachingDfs, 4, 0, [(0, 1), (2, 3)])
    apply_remove(g, alg, 2, 3)
    assert not alg.crit_ins and not alg.crit_del
    before = c.snapshot()
    assert not alg.query(3)
    assert delta(c, before) == (0, 0, 0, 0)


def test_cached_unreachable_answer_stays_valid_under_deletion():
    # deletions cannot create reachability, so a cached-unreachable target
    # never triggers the rebuild even while the flag is up
    g, alg, c = make_algorithm(CachingBfs, 4, 0, [(0, 1), (2, 3)])
    apply_remove(g, alg, 0, 1)
    assert alg.crit_del
    before = c.snapshot()
    assert not alg.query(3)
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.crit_del
    # a cached-reachable target does rebuild
    assert alg.query(1) is False
    assert c.recomputations == 1


@pytest.mark.parametrize("cls", [CachingBfs, CachingDfs])
def test_cached_source_query_after_a_critical_deletion_pays_the_whole_rebuild(cls):
    """The source is cached-reachable, so after a critical deletion its
    query rebuilds, and that query's record holds the whole rebuild: the
    traversal runs to its end before the query returns."""
    g, alg, c = make_algorithm(cls, 4, 0, [(0, 1), (1, 2), (2, 3)])
    apply_remove(g, alg, 2, 3)
    before = c.snapshot()
    assert alg.query(0)
    assert delta(c, before) == (3, 2, 0, 1)
    before = c.snapshot()
    assert not alg.query(3)
    assert delta(c, before) == (0, 0, 0, 0)


# ---- lazy ----


def test_lazy_initialize_exhausts_the_traversal():
    _, alg, _ = make_algorithm(LazyBfs, 5, 0, DIAMOND)
    assert alg.exhausted
    assert [alg.query(t) for t in range(5)] == [True, True, True, True, False]


def test_lazy_runs_only_far_enough_to_classify_the_target():
    chain = [(0, 1), (1, 2), (2, 3), (3, 4)]
    g, alg, c = make_algorithm(LazyBfs, 5, 0, chain)
    apply_remove(g, alg, 3, 4)
    assert alg.crit_del
    before = c.snapshot()
    assert alg.query(1)
    # invalidation restarts the traversal and suspends it right at vertex 1
    assert delta(c, before) == (2, 1, 0, 1)
    assert not alg.exhausted

    # resuming picks up the suspended frontier, scanning each edge once
    before = c.snapshot()
    assert alg.query(3)
    assert delta(c, before) == (2, 2, 0, 0)
    assert not alg.exhausted

    before = c.snapshot()
    assert not alg.query(4)
    assert alg.exhausted
    assert delta(c, before)[3] == 0

    # an exhausted unreachable answer is O(1) from then on
    before = c.snapshot()
    assert not alg.query(4)
    assert delta(c, before) == (0, 0, 0, 0)


def test_lazy_reachable_answers_stay_free_under_insertions():
    g, alg, c = make_algorithm(LazyBfs, 4, 0, [(0, 1)])
    apply_add(g, alg, 1, 2)
    assert alg.crit_ins
    before = c.snapshot()
    assert alg.query(1)
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.query(2)
    assert c.recomputations == 1


def test_lazy_never_resumes_after_a_critical_deletion():
    """A suspended frontier may sit in a severed region; resuming it could
    claim dead vertices, so the traversal must restart instead."""
    chain = [(0, 1), (1, 2), (2, 3), (3, 4)]
    g, alg, c = make_algorithm(LazyBfs, 5, 0, chain)
    apply_remove(g, alg, 1, 2)
    assert alg.query(1)  # invalidates, restarts, suspends at vertex 1
    assert not alg.exhausted
    apply_remove(g, alg, 0, 1)
    assert alg.crit_del
    # a resume would walk 1 -> 2 -> 3 and claim them; the restart must not
    assert not alg.query(3)
    assert c.recomputations == 2


def test_lazy_total_query_work_never_exceeds_static():
    seq = gen_er_instance(ErSpec(n=32, d=2.0, sigma=240, seed=7))
    from reachbench.core import QUERY, replay

    static = replay(seq, StaticBfs)
    lazy = replay(seq, LazyBfs)
    assert lazy.answers == static.answers
    scans = lambda res: sum(r.edges_scanned for r in res.records if r.kind == QUERY)
    assert scans(lazy) <= scans(static)


@pytest.mark.parametrize("cls", [CachingBfs, CachingDfs, LazyBfs, LazyDfs])
def test_invariants_hold_after_every_step(cls):
    for seed in (0, 1, 2):
        seq = gen_er_instance(ErSpec(n=30, d=2.0, sigma=300, seed=seed))
        for s in (seq, shuffle_sequence(seq, seed)):
            for _, _, _, alg, _ in iterate_replay(s, cls):
                alg.check_invariants()


@pytest.mark.parametrize("cls", ALL_VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 11])
def test_variants_agree_with_oracle(cls, seed):
    seq = gen_er_instance(ErSpec(n=32, d=2.0, sigma=120, seed=seed))
    assert verify_against_oracle(seq, cls) is None


# ---- lazy resume, traced by hand ----
#
# Each case removes an edge below a reached vertex, so the next query of a
# reached target restarts the traversal and suspends it part-way through the
# source's out-list; later queries resume it from that cursor.


def test_lazy_resume_scans_an_entry_appended_to_the_suspended_list():
    g, alg, c = make_algorithm(LazyBfs, 5, 0, [(0, 1), (0, 2), (0, 3), (3, 4)])
    apply_remove(g, alg, 3, 4)
    before = c.snapshot()
    assert alg.query(1)  # restart: scan (0,1), stop at cursor 1
    assert delta(c, before) == (2, 1, 0, 1)
    apply_add(g, alg, 0, 1)  # parallel edge to a marked head: not critical
    assert not alg.crit_ins and not alg.crit_del
    before = c.snapshot()
    assert alg.query(3)  # resume: scan (0,2), (0,3)
    assert delta(c, before) == (2, 2, 0, 0)
    before = c.snapshot()
    assert not alg.query(4)  # resume: the appended (0,1) once, then 1, 2, 3 are empty
    assert delta(c, before) == (0, 1, 0, 0)
    assert alg.exhausted


@pytest.mark.parametrize("removed,target,unreached", [
    ((0, 2), 3, 2),  # the entry at the cursor; (0,4) swaps into it
    ((0, 3), 4, 3),  # an entry past the cursor; (0,4) swaps into it
    ((0, 4), 3, 4),  # the last entry; nothing moves
])
def test_lazy_resume_after_a_noncritical_swap_removal(removed, target, unreached):
    g, alg, c = make_algorithm(LazyBfs, 6, 0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
    apply_remove(g, alg, 1, 5)
    before = c.snapshot()
    assert alg.query(1)  # restart: scan (0,1), stop at cursor 1
    assert delta(c, before) == (2, 1, 0, 1)
    apply_remove(g, alg, *removed)  # head not yet marked: not critical
    assert not alg.crit_ins and not alg.crit_del
    before = c.snapshot()
    assert alg.query(target)  # resume: the two entries left past the cursor
    assert delta(c, before) == (2, 2, 0, 0)
    before = c.snapshot()
    assert not alg.query(unreached)  # the source's list is done; 1..4 are empty
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.exhausted


def test_lazy_removal_before_the_cursor_is_critical_and_restarts():
    g, alg, c = make_algorithm(LazyBfs, 6, 0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
    apply_remove(g, alg, 1, 5)
    assert alg.query(2)  # restart: scan (0,1), (0,2), stop at cursor 2
    apply_remove(g, alg, 0, 1)  # (0,4) swaps into slot 0, behind the cursor
    assert alg.crit_del  # an entry before the cursor has a marked head
    before = c.snapshot()
    # a resume would scan only (0,3); the restart scans (0,4), (0,2), (0,3)
    assert alg.query(3)
    assert delta(c, before) == (4, 3, 0, 1)
    assert alg.cache[4]


def test_lazy_stop_at_a_target_with_parallel_edges_and_self_loops():
    edges = [(0, 0), (0, 1), (0, 2), (0, 0), (0, 2), (0, 3), (1, 4)]
    g, alg, c = make_algorithm(LazyBfs, 5, 0, edges)
    apply_remove(g, alg, 1, 4)
    before = c.snapshot()
    assert alg.query(2)  # restart: scan (0,0), (0,1), the first (0,2)
    assert delta(c, before) == (3, 3, 0, 1)
    before = c.snapshot()
    assert alg.query(3)  # resume: scan (0,0), the second (0,2), (0,3)
    assert delta(c, before) == (1, 3, 0, 0)
    before = c.snapshot()
    assert not alg.query(4)
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.exhausted


def test_a_drifted_out_heads_entry_shows_as_a_wrong_answer():
    """The oracle reads out_lists and heads, not the out_heads table the
    kernels read, so an out_heads entry that drifts from its edge's head
    is reported, not agreed with."""
    seq = OperationSequence(3, 0, [(0, 1)])

    def drifted(g, source, counters):
        g.out_heads[0][0] = 2  # planted: edge (0, 1) now reads as (0, 2)
        return CachingBfs(g, source, counters)

    assert verify_against_oracle(seq, CachingBfs) is None
    assert verify_against_oracle(seq, drifted) == Divergence(-1, 1, False, True)


# ---- op scripts ----


@st.composite
def queried_scripts(draw) -> OperationSequence:
    """A lenient op script with 0..3 queries before its first update and
    after each one, so lazy traversals stop, meet updates while suspended,
    and resume."""
    seq = draw(lenient_scripts())
    queries = st.lists(st.integers(0, seq.n - 1).map(lambda t: Operation(QUERY, t)),
                       max_size=3)
    ops = draw(queries)
    for op in seq.ops:
        ops += [op, *draw(queries)]
    return OperationSequence(seq.n, seq.source, seq.initial_edges, ops, lenient=True)


def _script(n, initial, ops):
    return OperationSequence(n, 0, initial, [Operation(*op) for op in ops], lenient=True)


_LAZY_SCRIPTS = [
    # lbfs stops at 1 in the source's list; the parallel (0, 1) appended to
    # that list is not critical, and the resumes read it
    _script(5, [(0, 1), (0, 2), (0, 3), (3, 4)],
            [(REMOVE, 3, 4), (QUERY, 1), (ADD, 0, 1), (QUERY, 3), (QUERY, 4), (QUERY, 2)]),
    # lbfs stops at 1; removing the unmarked (0, 3) swaps (0, 4) into the
    # unread part of the suspended list, and the resume must reach 4
    _script(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)],
            [(REMOVE, 1, 5), (QUERY, 1), (REMOVE, 0, 3), (QUERY, 4), (QUERY, 3), (QUERY, 2)]),
    # the stop at 2 lands on the first of two parallel (0, 2) entries, past
    # a self-loop; the resume reads the second one
    _script(5, [(0, 0), (0, 1), (0, 2), (0, 0), (0, 2), (0, 3), (1, 4)],
            [(REMOVE, 1, 4), (QUERY, 2), (QUERY, 3), (REMOVE, 0, 2), (QUERY, 4), (QUERY, 2)]),
]


@pytest.mark.parametrize("cls", ALL_VARIANTS)
@given(seq=queried_scripts())
@example(seq=_LAZY_SCRIPTS[0])
@example(seq=_LAZY_SCRIPTS[1])
@example(seq=_LAZY_SCRIPTS[2])
@settings(max_examples=200, deadline=None)
def test_op_scripts_keep_invariants_and_answers(cls, seq):
    """Every step of a lenient op script keeps the variant's invariants,
    and every query answer matches the oracle."""
    checked = hasattr(cls, "check_invariants")  # the cached and lazy variants
    for _, op, g, alg, ans in iterate_replay(seq, cls):
        if checked:
            alg.check_invariants()
        if ans is not None:
            assert ans == bool(oracle_reach_set(g, seq.source)[op.u])
