"""ES-family trees: exact levels under updates, abort thresholds, repair work."""

import math
from functools import partial

import pytest
from support import apply_add, apply_remove, delta, make_algorithm, sweep

from reachbench.core import (
    ADD,
    REMOVE,
    WorkCounters,
    iterate_replay,
    oracle_levels,
    replay,
    verify_against_oracle,
)
from reachbench.generators import ErSpec, gen_er_instance, shuffle_sequence
from reachbench.graph import DiGraph
from reachbench.level_tree import (
    DeletionStats,
    EvenShiloachTree,
    MultiLevelEsTree,
    SimplifiedEsTree,
)

VARIANTS = [EvenShiloachTree, MultiLevelEsTree, SimplifiedEsTree]
PARAM_SETS = [(5, 0.5), (100, 1.0), (math.inf, math.inf)]

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


def unlimited(cls):
    return partial(cls, beta=math.inf, ratio=math.inf)


def test_parameter_validation():
    g = DiGraph(1)
    for bad_beta in (0, -1, 2.5):
        with pytest.raises(ValueError):
            EvenShiloachTree(g, 0, WorkCounters(), beta=bad_beta)
    for cls in VARIANTS:
        for bad_ratio in (-0.5, math.nan):
            with pytest.raises(ValueError):
                cls(g, 0, WorkCounters(), ratio=bad_ratio)


@pytest.mark.parametrize("cls", VARIANTS)
def test_initialize_levels_on_diamond(cls):
    _, alg, _ = make_algorithm(unlimited(cls), 4, 0, DIAMOND)
    assert alg.levels() == [0, 1, 1, 2]
    copy = alg.levels()
    copy[0] = 99
    assert alg.levels()[0] == 0


@pytest.mark.parametrize("cls", VARIANTS)
def test_initialize_marks_unreachable_with_n(cls):
    _, alg, _ = make_algorithm(unlimited(cls), 4, 0, [(0, 1), (2, 3)])
    assert alg.levels() == [0, 1, 4, 4]
    assert sweep(alg, 4) == [True, True, False, False]


@pytest.mark.parametrize("cls", VARIANTS)
def test_initialize_levels_match_oracle(cls):
    seq = gen_er_instance(ErSpec(n=32, d=2.0, sigma=0, seed=5))
    g, alg, _ = make_algorithm(unlimited(cls), seq.n, seq.source, seq.initial_edges)
    assert alg.levels() == oracle_levels(g, seq.source)


@pytest.mark.parametrize("cls", [EvenShiloachTree, MultiLevelEsTree])
def test_initialize_resets_tree_index_to_zero(cls):
    _, alg, _ = make_algorithm(unlimited(cls), 4, 0, DIAMOND)
    assert [alg.tei[v] for v in range(1, 4)] == [0, 0, 0]


# ---- insertion ----


@pytest.mark.parametrize("cls", VARIANTS)
def test_insert_direct_edge_improves_level(cls):
    g, alg, _ = make_algorithm(unlimited(cls), 4, 0, DIAMOND)
    e = apply_add(g, alg, 0, 3)
    assert alg.levels() == [0, 1, 1, 1]
    if cls is SimplifiedEsTree:
        assert alg.tree_edge[3] == e
    else:
        assert alg.tei[3] == alg.in_pos[e]


@pytest.mark.parametrize("cls", VARIANTS)
def test_insert_between_unreachable_vertices_changes_nothing(cls):
    g, alg, c = make_algorithm(unlimited(cls), 4, 0, [(0, 1), (2, 3)])
    before = c.snapshot()
    apply_add(g, alg, 3, 2)
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.levels() == [0, 1, 4, 4]


def test_insert_equal_level_at_larger_index_changes_nothing():
    g, alg, c = make_algorithm(unlimited(EvenShiloachTree), 4, 0, DIAMOND)
    before = c.snapshot()
    apply_add(g, alg, 2, 3)
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.levels() == [0, 1, 1, 2]
    assert alg.tei[3] == 0


@pytest.mark.parametrize("cls", VARIANTS)
def test_insert_cascades_level_improvements(cls):
    chain = [(0, 1), (1, 2), (2, 3)]
    g, alg, _ = make_algorithm(unlimited(cls), 4, 0, chain)
    assert alg.levels() == [0, 1, 2, 3]
    apply_add(g, alg, 0, 2)
    assert alg.levels() == [0, 1, 1, 2]


# ---- deletion: classic ES ----


def test_es_reanchors_at_same_level():
    g, alg, _ = make_algorithm(unlimited(EvenShiloachTree), 4, 0, DIAMOND)
    apply_remove(g, alg, 1, 3)
    assert alg.levels() == [0, 1, 1, 2]
    assert alg.last_deletion_stats == DeletionStats(0, 1)


def test_es_exhausts_index_then_bumps_level():
    # path 0 -> 1 -> 2 with shortcut (0, 2) as 2's tree edge
    g, alg, _ = make_algorithm(unlimited(EvenShiloachTree), 3, 0,
                               [(0, 1), (1, 2), (0, 2)])
    assert alg.levels() == [0, 1, 1]
    apply_remove(g, alg, 0, 2)
    assert alg.levels() == [0, 1, 2]
    # first pop runs off the list and bumps; second adopts (1, 2)
    assert alg.last_deletion_stats == DeletionStats(1, 2)
    e, x = alg.in_list[2][alg.tei[2]]
    assert x == 1 and e == g.find_edge(1, 2)


def test_es_cut_chain_drains_to_unreachable():
    k = 6
    edges = [(i, i + 1) for i in range(k)]
    g, alg, c = make_algorithm(unlimited(EvenShiloachTree), k + 1, 0, edges)
    before = c.snapshot()
    apply_remove(g, alg, 0, 1)
    assert sweep(alg, k + 1) == [True] + [False] * k
    assert alg.levels() == [0] + [k + 1] * k
    _, _, pops, recomp = delta(c, before)
    assert pops <= k * (k + 1)
    assert recomp == 0


# ---- deletion: MES ----


def test_mes_finds_new_level_in_one_cyclic_scan():
    g, alg, _ = make_algorithm(unlimited(MultiLevelEsTree), 3, 0,
                               [(0, 1), (1, 2), (0, 2)])
    apply_remove(g, alg, 0, 2)
    assert alg.levels() == [0, 1, 2]
    assert alg.last_deletion_stats == DeletionStats(0, 1)


def test_mes_nontree_deletion_is_constant_time():
    g, alg, c = make_algorithm(unlimited(MultiLevelEsTree), 4, 0, DIAMOND)
    before = c.snapshot()
    apply_remove(g, alg, 2, 3)
    assert delta(c, before) == (0, 0, 0, 0)
    assert alg.last_deletion_stats == DeletionStats(0, 0)
    assert alg.levels() == [0, 1, 1, 2]


def star_graph():
    """Vertex 7 sits at level 2 via 8, but its other in-tails are at level 4."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6),
             (4, 7), (5, 7), (6, 7), (0, 8), (8, 7)]
    return 9, edges


def test_mes_skips_levels_in_one_step():
    n, edges = star_graph()
    g, alg, _ = make_algorithm(unlimited(MultiLevelEsTree), n, 0, edges)
    assert alg.levels()[7] == 2
    apply_remove(g, alg, 8, 7)
    assert alg.levels()[7] == 5
    assert alg.levels() == oracle_levels(g, 0)
    assert alg.last_deletion_stats == DeletionStats(0, 1)


def test_es_walks_the_same_drop_level_by_level():
    n, edges = star_graph()
    g, alg, _ = make_algorithm(unlimited(EvenShiloachTree), n, 0, edges)
    apply_remove(g, alg, 8, 7)
    assert alg.levels()[7] == 5
    assert alg.last_deletion_stats == DeletionStats(3, 4)


# ---- deletion: SES ----


def test_ses_reanchors_without_level_change():
    g, alg, _ = make_algorithm(unlimited(SimplifiedEsTree), 4, 0, DIAMOND)
    apply_remove(g, alg, 1, 3)
    assert alg.levels() == [0, 1, 1, 2]
    assert alg.tree_edge[3] == g.find_edge(2, 3)
    assert alg.last_deletion_stats == DeletionStats(0, 1)


def test_ses_last_in_edge_removal_drops_subtree():
    chain = [(0, 1), (1, 2), (2, 3)]
    g, alg, _ = make_algorithm(unlimited(SimplifiedEsTree), 4, 0, chain)
    apply_remove(g, alg, 0, 1)
    assert sweep(alg, 4) == [True, False, False, False]
    assert alg.levels() == [0, 4, 4, 4]


@pytest.mark.parametrize("cls", VARIANTS)
def test_beta_abort_recomputes_once(cls):
    # a 3-cycle fed only by the deleted edge: levels climb three at a time,
    # re-enqueueing each cycle vertex once per round until beta trips
    n = 24
    edges = [(0, 1), (1, 2), (2, 3), (3, 1)]
    g, alg, c = make_algorithm(partial(cls, beta=5, ratio=math.inf), n, 0, edges)
    apply_remove(g, alg, 0, 1)
    assert c.recomputations == 1
    assert alg.levels() == oracle_levels(g, 0)
    assert alg.last_deletion_stats.max_enqueues <= 5


# ---- properties ----


@pytest.mark.parametrize("cls", VARIANTS)
@pytest.mark.parametrize("beta,ratio", PARAM_SETS)
def test_variants_agree_with_oracle(cls, beta, ratio):
    factory = partial(cls, beta=beta, ratio=ratio)
    for seed in (0, 1):
        seq = gen_er_instance(ErSpec(n=24, d=1.5, sigma=150, seed=seed))
        assert verify_against_oracle(seq, factory) is None


@pytest.mark.parametrize("cls", VARIANTS)
@pytest.mark.parametrize("beta,ratio", [(5, 0.5), (math.inf, math.inf)])
def test_levels_stay_exact_after_every_update(cls, beta, ratio):
    seq = gen_er_instance(ErSpec(n=24, d=1.5, sigma=120, seed=0))
    factory = partial(cls, beta=beta, ratio=ratio)
    for _, _, g, alg, _ in iterate_replay(seq, factory):
        assert alg.levels() == oracle_levels(g, seq.source)


def check_structure(g: DiGraph, alg) -> None:
    """The Even-Shiloach invariant: every reachable vertex but the source
    hangs off a live in-edge whose tail is exactly one level up.  ES/MES
    also keep in_list as a copy of the graph's in-edges, with in_pos
    mirroring it."""
    n = g.vertex_count
    level = alg.level
    indexed = not isinstance(alg, SimplifiedEsTree)
    if indexed:
        assert len(alg.in_pos) == g.edge_count
    for v in range(n):
        if indexed:
            lst = alg.in_list[v]
            assert sorted(lst) == sorted(g.in_edges(v)), v
            assert all(alg.in_pos[e] == pos for pos, (e, _) in enumerate(lst)), v
        if v == alg.source or level[v] == n:
            continue
        if indexed:
            tail = lst[alg.tei[v]][1]
        else:
            e = alg.tree_edge[v]
            assert g.is_live(e), v
            tail, head = g.endpoints(e)
            assert head == v
        assert level[tail] == level[v] - 1, v


@pytest.mark.parametrize("cls", VARIANTS)
@pytest.mark.parametrize("beta,ratio", [(1, math.inf), (2, 0.05), (math.inf, 0),
                                        (math.inf, math.inf)])
def test_structure_holds_after_every_step(cls, beta, ratio):
    factory = partial(cls, beta=beta, ratio=ratio)
    for seed in (0, 1):
        seq = gen_er_instance(ErSpec(n=30, d=2.0, sigma=300, seed=seed))
        for s in (seq, shuffle_sequence(seq, seed)):
            for _, _, g, alg, _ in iterate_replay(s, factory):
                check_structure(g, alg)


@pytest.mark.parametrize("cls", VARIANTS)
def test_deletions_never_lower_levels(cls):
    seq = gen_er_instance(ErSpec(n=24, d=1.5, sigma=200, seed=8))
    prev = None
    for _, op, _, alg, _ in iterate_replay(seq, partial(cls, beta=5, ratio=0.5)):
        cur = alg.levels()
        if prev is not None and op is not None and op.kind == REMOVE:
            assert all(b >= a for a, b in zip(prev, cur))
        prev = cur


@pytest.mark.parametrize("cls", VARIANTS)
def test_beta_bounds_reinsertions_per_deletion(cls):
    seq = gen_er_instance(ErSpec(n=24, d=2.0, sigma=200, seed=12))
    for _, op, _, alg, _ in iterate_replay(seq, partial(cls, beta=5, ratio=math.inf)):
        if op is not None and op.kind == REMOVE:
            assert alg.last_deletion_stats.max_enqueues <= 5


@pytest.mark.parametrize("cls", VARIANTS)
def test_ratio_bounds_queue_pops_per_deletion(cls):
    seq = gen_er_instance(ErSpec(n=24, d=2.0, sigma=200, seed=12))
    cap = 0.5 * 24 + 1  # the pop that detects the overflow is included
    for _, op, _, alg, _ in iterate_replay(seq, partial(cls, beta=math.inf, ratio=0.5)):
        if op is not None and op.kind == REMOVE:
            assert alg.last_deletion_stats.queue_pops <= cap


@pytest.mark.parametrize("cls", VARIANTS)
def test_constant_beta_keeps_deletions_linear(cls):
    seq = gen_er_instance(ErSpec(n=30, d=2.0, sigma=300, seed=1))
    res = replay(seq, partial(cls, beta=5, ratio=0.5))
    m = len(seq.initial_edges)
    for r in res.records:
        if r.kind == ADD:
            m += 1
        elif r.kind == REMOVE:
            m -= 1
            assert r.edges_scanned <= 5 * m + m + seq.n


def test_ses_and_mes_levels_match_in_lockstep():
    seq = gen_er_instance(ErSpec(n=20, d=1.5, sigma=150, seed=2))
    paired = zip(iterate_replay(seq, unlimited(SimplifiedEsTree)),
                 iterate_replay(seq, unlimited(MultiLevelEsTree)))
    for (_, _, _, ses_alg, _), (_, _, _, mes_alg, _) in paired:
        assert ses_alg.levels() == mes_alg.levels()


@pytest.mark.parametrize("cls", VARIANTS)
@pytest.mark.parametrize("seed", range(24))
def test_random_soak(cls, seed):
    seq = gen_er_instance(ErSpec(n=16, d=1.5, sigma=120, seed=seed))
    assert verify_against_oracle(seq, unlimited(cls)) is None
