"""Sequence format, BFS oracles, and the replay engine."""

import dataclasses
import gc
import hashlib
import time

import pytest

from reachbench.bench import CANONICAL_SPECS, algorithm_registry
from reachbench.core import (
    ADD,
    INIT,
    MeasurementRecord,
    QUERY,
    REMOVE,
    Divergence,
    Operation,
    OperationSequence,
    ReplayError,
    SequenceFormatError,
    SsrAlgorithm,
    WorkCounters,
    iterate_replay,
    load_sequence,
    oracle_levels,
    oracle_reach_set,
    parse_sequence,
    replay,
    save_sequence,
    serialize_sequence,
    verify_against_oracle,
)
from reachbench.generators import (
    ErSpec,
    KroneckerSpec,
    gen_er_instance,
    gen_kronecker_instance,
    inject_queries,
    shuffle_sequence,
)
from reachbench.graph import DiGraph
from reachbench.static_search import LazyBfs, LazyDfs


def test_operation_constructors():
    assert Operation(ADD, 1, 2) == (ADD, 1, 2)
    assert Operation(REMOVE, 1, 2) == (REMOVE, 1, 2)
    assert Operation(QUERY, 7) == (QUERY, 7, -1)
    assert Operation(QUERY, 7).v == -1


def test_sequences_do_not_share_mutable_defaults():
    a = OperationSequence(n=2, source=0)
    b = OperationSequence(n=2, source=0)
    a.ops.append(Operation(QUERY, 0))
    a.metadata["k"] = "v"
    assert b.ops == [] and b.metadata == {}


# ---- text format ----


def test_serialize_golden_text():
    seq = OperationSequence(
        n=3, source=0, initial_edges=[(0, 1)],
        ops=[Operation(ADD, 1, 2), Operation(REMOVE, 0, 1), Operation(QUERY, 2)],
        metadata={"kind": "demo", "beta": "5"})
    assert serialize_sequence(seq) == (
        "# beta=5\n"
        "# kind=demo\n"
        "n 3 source 0\n"
        "i 0 1\n"
        "a 1 2\n"
        "d 0 1\n"
        "q 2\n")


def test_serialize_lenient_header_token():
    seq = OperationSequence(n=2, source=1, lenient=True)
    assert serialize_sequence(seq) == "n 2 source 1 lenient=1\n"


def test_round_trip_preserves_everything():
    seq = OperationSequence(
        n=5, source=2, initial_edges=[(2, 3), (3, 3), (2, 3)],
        ops=[Operation(ADD, 0, 4), Operation(QUERY, 3), Operation(REMOVE, 2, 3)],
        lenient=True, metadata={"seed": "9", "kind": "er"})
    back = parse_sequence(serialize_sequence(seq))
    assert back == seq
    assert serialize_sequence(back) == serialize_sequence(seq)


def test_parse_skips_blanks_and_ignores_late_comments():
    text = "# kind=demo\n\nn 2 source 0\n# not=metadata anymore\n  q 1 \n"
    seq = parse_sequence(text)
    assert seq.metadata == {"kind": "demo"}
    assert seq.ops == [Operation(QUERY, 1)]


def test_parse_metadata_requires_single_token():
    # a spaced comment before the header is commentary, not metadata
    seq = parse_sequence("# two words=x\nn 1 source 0\n")
    assert seq.metadata == {}


@pytest.mark.parametrize("key, value", [
    ("", "x"),
    ("a=b", "x"),
    ("two words", "x"),
    ("k", "two words"),
    ("k", "tab\there"),
    ("k", "line\nbreak"),
])
def test_serialize_rejects_metadata_that_would_not_read_back(key, value):
    seq = OperationSequence(n=1, source=0, metadata={key: value})
    with pytest.raises(ValueError, match="would not read back"):
        serialize_sequence(seq)


def test_metadata_values_may_hold_equals_and_be_empty():
    seq = OperationSequence(n=1, source=0, metadata={"expr": "a=b", "blank": ""})
    assert parse_sequence(serialize_sequence(seq)) == seq


@pytest.mark.parametrize("text", [
    "",
    "x 3 source 0\n",
    "n 3 origin 0\n",
    "n three source 0\n",
    "n 0 source 0\n",
    "n 3 source 5\n",
    "n 3 source 0 lenient=2\n",
    "n 3 source 0\nq 9\n",
    "n 3 source 0\na 1\n",
    "n 3 source 0\nz 0 1\n",
    "n 3 source 0\ni 0 3\n",
    "n 3 source 0\na 0 1\ni 1 2\n",
])
def test_parse_rejects_malformed_input(text):
    with pytest.raises(SequenceFormatError):
        parse_sequence(text)


def test_save_and_load(tmp_path):
    seq = OperationSequence(n=4, source=0, initial_edges=[(0, 1)],
                            ops=[Operation(QUERY, 1)], metadata={"kind": "t"})
    path = tmp_path / "seq.txt"
    save_sequence(seq, path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    assert load_sequence(path) == seq


# ---- oracles ----


def chain_graph(n: int) -> DiGraph:
    g = DiGraph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def test_oracle_reach_set_on_chain():
    g = chain_graph(3)
    assert bytes(oracle_reach_set(g, 0)) == b"\x01\x01\x01"
    g.remove_edge(g.find_edge(1, 2))
    assert bytes(oracle_reach_set(g, 0)) == b"\x01\x01\x00"
    assert oracle_reach_set(g, 0)[1]
    assert not oracle_reach_set(g, 0)[2]


def test_oracle_levels_uses_n_for_unreachable():
    g = DiGraph(4)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    assert oracle_levels(g, 0) == [0, 1, 1, 2]
    g.remove_edge(g.find_edge(1, 3))
    g.remove_edge(g.find_edge(2, 3))
    assert oracle_levels(g, 0) == [0, 1, 1, 4]


# ---- replay ----


def test_replay_add_then_query():
    seq = OperationSequence(n=2, source=0,
                            ops=[Operation(ADD, 0, 1), Operation(QUERY, 1)])
    res = replay(seq, algorithm_registry("sbfs"))
    assert res.answers == [True]
    assert not res.timed_out


def test_replay_records_init_then_one_per_op():
    seq = OperationSequence(n=3, source=0, initial_edges=[(0, 1)],
                            ops=[Operation(ADD, 1, 2), Operation(QUERY, 2),
                                 Operation(REMOVE, 0, 1), Operation(QUERY, 2)])
    res = replay(seq, algorithm_registry("ses:5:.5"))
    assert [r.op_index for r in res.records] == [-1, 0, 1, 2, 3]
    assert [r.kind for r in res.records] == [INIT, ADD, QUERY, REMOVE, QUERY]
    assert res.answers == [True, False]


def test_replay_mean_live_edges():
    # edge counts sampled after init and after each op: 1, 0, 1
    seq = OperationSequence(n=2, source=0, initial_edges=[(0, 1)],
                            ops=[Operation(REMOVE, 0, 1), Operation(ADD, 0, 1)])
    res = replay(seq, algorithm_registry("sbfs"))
    assert res.mean_edges == pytest.approx(2 / 3)


def test_mean_live_edges_after_a_lenient_skipped_removal():
    # the skipped removal leaves the count as it was: 2, 2, 3, 2, 2
    seq = OperationSequence(n=3, source=0, initial_edges=[(0, 1), (1, 2)],
                            ops=[Operation(REMOVE, 2, 0), Operation(ADD, 0, 1),
                                 Operation(REMOVE, 0, 1), Operation(QUERY, 2)],
                            lenient=True)
    factory = algorithm_registry("sbfs")
    res = replay(seq, factory)
    assert [g.edge_count for _, _, g, _, _ in iterate_replay(seq, factory)] == [2, 2, 3, 2, 2]
    assert res.mean_edges == 11 / 5
    assert res.records[1][2:] == (0, 0, 0, 0, 0)


def test_mean_live_edges_over_the_records_a_timeout_keeps(monkeypatch):
    # a clock that ticks one second per read: replay reads it once to set
    # the deadline (3.0) and once before each op, so three ops run
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    seq = OperationSequence(n=2, source=0, initial_edges=[(0, 1)],
                            ops=[Operation(ADD, 1, 0), Operation(ADD, 0, 0),
                                 Operation(REMOVE, 0, 1), Operation(ADD, 0, 1),
                                 Operation(ADD, 0, 1)])
    res = replay(seq, algorithm_registry("sbfs"), timeout=3.0)
    assert res.timed_out
    assert [r.op_index for r in res.records] == [-1, 0, 1, 2]
    # live counts 1, 2, 3, 2
    assert res.mean_edges == 8 / 4


def test_mean_live_edges_around_a_replay_error_part_way():
    """A strict sequence raises at its first unmatched removal and returns
    nothing; the same ops up to the error, replayed on their own, count
    their live edges as the steps before the error saw them."""
    ops = [Operation(ADD, 1, 0), Operation(REMOVE, 0, 1), Operation(ADD, 0, 1),
           Operation(REMOVE, 1, 1), Operation(QUERY, 1)]
    seq = OperationSequence(n=2, source=0, initial_edges=[(0, 1)], ops=ops)
    factory = algorithm_registry("sbfs")
    with pytest.raises(ReplayError, match=r"op 3: no live edge \(1, 1\)"):
        replay(seq, factory)
    seen = []
    with pytest.raises(ReplayError, match="op 3"):
        for _, _, g, _, _ in iterate_replay(seq, factory):
            seen.append(g.edge_count)
    assert seen == [1, 2, 1, 2]
    prefix = dataclasses.replace(seq, ops=ops[:3])
    assert replay(prefix, factory).mean_edges == sum(seen) / 4
    lenient = dataclasses.replace(seq, lenient=True)
    assert replay(lenient, factory).mean_edges == (sum(seen) + 2 + 2) / 6


def test_a_record_is_a_plain_tuple_of_its_fields():
    seq = OperationSequence(n=3, source=0, initial_edges=[(0, 1)],
                            ops=[Operation(ADD, 1, 2), Operation(QUERY, 2)])
    rec = replay(seq, algorithm_registry("cbfs")).records[2]
    fields = ("op_index", "kind", "wall_time_ns", "vertices_visited", "edges_scanned",
              "queue_pops", "recomputations")
    row = tuple(getattr(rec, name) for name in fields)
    assert isinstance(rec, tuple) and len(rec) == 7
    assert rec == row and hash(rec) == hash(row)
    op_index, kind, wall, visited, scanned, pops, recomputations = rec
    assert (op_index, kind, wall, visited, scanned, pops, recomputations) == row
    assert (op_index, kind) == (1, QUERY)
    # the cached search rebuilds on this query: 3 vertices, 2 edges
    assert (visited, scanned, pops, recomputations) == (3, 2, 0, 1)
    assert rec[1:3] == (kind, wall)
    assert MeasurementRecord((0, ADD, 5, 1, 2, 3, 4)).queue_pops == 3


def test_no_collector_tracked_object_per_operation_beyond_its_record():
    """A replay of N operations keeps N + 1 records, and the engine adds no
    other container per operation: a no-op algorithm's replay adds at most
    N + 1 collector-tracked objects beyond the graph's 3n per-vertex lists
    and a few fixed ones."""
    class Nop(SsrAlgorithm):
        def query(self, t: int) -> bool:
            return t == self.source

    n, ops = 50, []
    for i in range(1000):
        u, v = i % n, (7 * i + 3) % n
        ops += [Operation(ADD, u, v), Operation(QUERY, v), Operation(REMOVE, u, v),
                Operation(REMOVE, u, v)]
    seq = OperationSequence(n=n, source=0, initial_edges=[(0, 1)] * 20, ops=ops,
                            lenient=True)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        res = replay(seq, Nop)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert len(res.records) == len(ops) + 1
    assert after - before <= len(ops) + 1 + 3 * n + 20


def test_strict_replay_rejects_unmatched_removal():
    seq = OperationSequence(n=2, source=0, ops=[Operation(REMOVE, 0, 1)])
    with pytest.raises(ReplayError):
        replay(seq, algorithm_registry("sbfs"))


def test_lenient_replay_skips_unmatched_removal_with_zero_work():
    seq = OperationSequence(n=2, source=0,
                            ops=[Operation(REMOVE, 0, 1), Operation(QUERY, 0)],
                            lenient=True)
    factory = algorithm_registry("cbfs")
    res = replay(seq, factory)
    skip = res.records[1]
    assert skip.kind == REMOVE
    assert (skip.wall_time_ns, skip.vertices_visited, skip.edges_scanned,
            skip.queue_pops, skip.recomputations) == (0, 0, 0, 0, 0)
    assert res.answers == [True]
    steps = [(i, op, ans) for i, op, _, _, ans in iterate_replay(seq, factory)]
    assert steps == [(-1, None, None), (0, seq.ops[0], None), (1, seq.ops[1], True)]
    assert verify_against_oracle(seq, factory) is None


@pytest.mark.parametrize("drive", [
    lambda seq, f: replay(seq, f),
    lambda seq, f: list(iterate_replay(seq, f)),
    lambda seq, f: verify_against_oracle(seq, f),
], ids=["replay", "iterate_replay", "verify_against_oracle"])
def test_unknown_op_kind_is_rejected_by_every_entry_point(drive):
    seq = OperationSequence(n=2, source=0, ops=[Operation("x", 0, 1)])
    with pytest.raises(ReplayError, match="unknown kind 'x'"):
        drive(seq, algorithm_registry("cbfs"))


def test_replay_timeout_flags_and_keeps_partial_records():
    seq = OperationSequence(n=2, source=0, ops=[Operation(QUERY, 0)] * 5)
    res = replay(seq, algorithm_registry("sbfs"), timeout=0.0)
    assert res.timed_out
    assert len(res.records) == 1 and res.records[0].op_index == -1


def test_removal_resolves_to_most_recent_parallel_edge():
    class Spy(SsrAlgorithm):
        deleted: list[int] = []

        def query(self, t: int) -> bool:
            return t == self.source

        def edge_deleted(self, u: int, v: int, e: int) -> None:
            Spy.deleted.append(e)

    Spy.deleted.clear()
    seq = OperationSequence(n=2, source=0, initial_edges=[(0, 1), (0, 1)],
                            ops=[Operation(REMOVE, 0, 1), Operation(REMOVE, 0, 1)])
    replay(seq, Spy)
    # initial edges get ids 0 and 1; the younger edge goes first
    assert Spy.deleted == [1, 0]


def test_all_configs_answer_identically():
    seq = gen_er_instance(ErSpec(n=50, d=2.0, sigma=1000, seed=42))
    baseline = None
    for spec in CANONICAL_SPECS:
        res = replay(seq, algorithm_registry(spec))
        if baseline is None:
            baseline = res.answers
        assert res.answers == baseline, spec
    assert baseline and len(baseline) > 100


def test_replay_is_deterministic():
    seq = gen_er_instance(ErSpec(n=30, d=1.5, sigma=300, seed=5))
    for spec in ("sdfs", "si:R:SF:.5", "mes:5:.5"):
        a = replay(seq, algorithm_registry(spec))
        b = replay(seq, algorithm_registry(spec))
        assert a.answers == b.answers
        ka = [(r.op_index, r.kind, r.vertices_visited, r.edges_scanned,
               r.queue_pops, r.recomputations) for r in a.records]
        kb = [(r.op_index, r.kind, r.vertices_visited, r.edges_scanned,
               r.queue_pops, r.recomputations) for r in b.records]
        assert ka == kb


def _er_instance():
    return gen_er_instance(ErSpec(n=40, d=2.0, sigma=400, seed=17))


def _kron_query_instance():
    spec = KroneckerSpec.growing(((0.9, 0.5), (0.5, 0.1)), 5, 8, seed=1)
    seq = gen_kronecker_instance(spec)
    return inject_queries(seq, len(seq.ops), seed=2)


#: SHA-256 of every canonical config's replay of the ER instance and of its
#: shuffled (lenient) variant.  A change here means a refactor changed the
#: counters, answers or timeout flag; fix the code, not the constant.
REPLAY_FINGERPRINT = "821b97835ce7fc0d559ee22774c70a2fc3a5e4b2fd2f2cd9b2c84a41ec7c910d"

#: The same over ES-family configs that sit at their abort bounds (beta 1,
#: a tiny queue cap, ratio 0), with each step's DeletionStats hashed too.
ABORT_SPECS = tuple(f"{fam}:{bounds}" for fam in ("es", "mes", "ses")
                    for bounds in ("1:inf", "2:.05", "inf:0"))
ABORT_FINGERPRINT = "519bb53fa87064a0f4897864a9c90b829b93dd1045df39bb066e2e5fcc29785b"

#: The six static searches on a growing Kronecker stream with a query per
#: update, where cache rebuilds, lazy stops and resumes are dense, with each
#: step's lazy `exhausted` flag hashed too (None for the other four).
STATIC_SPECS = ("sbfs", "sdfs", "cbfs", "cdfs", "lbfs", "ldfs")
QUERY_FINGERPRINT = "30f3094141b69e0e7fd0def3067009cac1e41d9a7a242bddb5c5fb55aa25653d"

#: si and ses configs that rebuild often (si ratio 0, ses queue cap 0, ses
#: beta 1) or that lean on the SF forward claim, with each step's state or
#: levels, tree edges and (si) tree children in order hashed too.
REBUILD_SPECS = ("si:R:SF:0", "si:nR:SF:0", "si:R:nSF:.25", "si:R:SF:1",
                 "ses:inf:0", "ses:1:inf")
REBUILD_FINGERPRINT = "ecf88289438e1efad09339443a3b8427c55da7b8d95966d037db95dc4b3f1c1c"

#: The two lazy searches on the same Kronecker stream, with each step's
#: suspended frontier hashed too: lbfs's (head, pos, order) cursor and
#: ldfs's [vertex, cursor] stack.
LAZY_SPECS = ("lbfs", "ldfs")
LAZY_CURSOR_FINGERPRINT = "3ca79b33f6f1ddaf7d38b7a3757ae27cc1178f61099ad1ad3f54dd4a8f1dfcb2"

#: es and mes at the canonical bounds and at the abort bounds, with each
#: step's private structure hashed too: levels, tree-edge indices and every
#: vertex's in-list in order.
ES_STRUCTURE_SPECS = tuple(f"{fam}:{bounds}" for fam in ("es", "mes")
                           for bounds in ("5:.5", "1:inf", "2:.05", "inf:0"))
ES_STRUCTURE_FINGERPRINT = "51f0022bd0f6cbb11826c20c5759b903245a7f582f837f9684ede802cc9f0707"


def _lazy_exhausted(alg):
    # cbfs/cdfs are LazyBfs/LazyDfs subclasses whose flag is always True
    return alg.exhausted if type(alg) in (LazyBfs, LazyDfs) else None


def _tree_state(alg):
    if hasattr(alg, "children"):
        return bytes(alg.state), tuple(alg.tree_edge), [tuple(k) for k in alg.children]
    return alg.levels(), tuple(alg.tree_edge)


def _es_structure(alg):
    return alg.levels(), tuple(alg.tei), [tuple(lst) for lst in alg.in_list]


def _lazy_cursor(alg):
    if hasattr(alg, "order"):
        return alg.head, alg.pos, tuple(alg.order)
    return [tuple(cursor) for cursor in alg.stack]


@pytest.mark.parametrize("instance,specs,step_state,fingerprint", [
    pytest.param(_er_instance, CANONICAL_SPECS, None, REPLAY_FINGERPRINT, id="canonical"),
    pytest.param(_er_instance, ABORT_SPECS, lambda alg: alg.last_deletion_stats,
                 ABORT_FINGERPRINT, id="abort-heavy"),
    pytest.param(_kron_query_instance, STATIC_SPECS, _lazy_exhausted, QUERY_FINGERPRINT,
                 id="query-heavy"),
    pytest.param(_er_instance, REBUILD_SPECS, _tree_state, REBUILD_FINGERPRINT,
                 id="rebuild-heavy"),
    pytest.param(_kron_query_instance, LAZY_SPECS, _lazy_cursor, LAZY_CURSOR_FINGERPRINT,
                 id="lazy-cursor"),
    pytest.param(_er_instance, ES_STRUCTURE_SPECS, _es_structure, ES_STRUCTURE_FINGERPRINT,
                 id="es-structure"),
])
def test_replay_fingerprint_is_unchanged(instance, specs, step_state, fingerprint):
    seq = instance()
    h = hashlib.sha256()
    for s in (seq, shuffle_sequence(seq, 3)):
        for spec in specs:
            res = replay(s, algorithm_registry(spec))
            for r in res.records:
                h.update(repr((r.op_index, r.kind, r.vertices_visited, r.edges_scanned,
                               r.queue_pops, r.recomputations)).encode())
            h.update(repr((res.answers, res.timed_out, res.mean_edges)).encode())
            if step_state is not None:
                states = [step_state(alg)
                          for _, _, _, alg, _ in iterate_replay(s, algorithm_registry(spec))]
                h.update(repr(states).encode())
    assert h.hexdigest() == fingerprint


def test_at_most_one_recomputation_per_operation():
    seq = gen_er_instance(ErSpec(n=40, d=2.0, sigma=500, seed=11))
    for spec in ("cbfs", "ldfs", "si:nR:SF:0", "ses:5:.5"):
        res = replay(seq, algorithm_registry(spec))
        assert all(r.recomputations <= 1 for r in res.records), spec


def test_iterate_replay_yields_init_then_steps():
    seq = OperationSequence(n=2, source=0,
                            ops=[Operation(ADD, 0, 1), Operation(QUERY, 1)])
    steps = list(iterate_replay(seq, algorithm_registry("es:5:.5")))
    assert [(i, ans) for i, _, _, _, ans in steps] == [(-1, None), (0, None), (1, True)]
    assert steps[0][1] is None
    assert steps[2][2].edge_count == 1


def test_query_source_is_always_reachable():
    seq = OperationSequence(n=3, source=2, ops=[Operation(QUERY, 2)])
    for spec in CANONICAL_SPECS:
        assert replay(seq, algorithm_registry(spec)).answers == [True], spec


def test_verify_accepts_correct_algorithm():
    seq = gen_er_instance(ErSpec(n=20, d=1.0, sigma=200, seed=3))
    assert verify_against_oracle(seq, algorithm_registry("es:inf:inf")) is None


def test_verify_flags_broken_algorithm():
    class AlwaysYes(SsrAlgorithm):
        def query(self, t: int) -> bool:
            return True

    seq = OperationSequence(n=2, source=0)
    div = verify_against_oracle(seq, AlwaysYes)
    assert div == Divergence(-1, 1, True, False)


def test_verify_catches_missed_deletion():
    class StaleCache(SsrAlgorithm):
        """Correct at init, blind to every update."""

        def initialize(self) -> None:
            self.cache = oracle_reach_set(self.graph, self.source)

        def query(self, t: int) -> bool:
            return bool(self.cache[t])

    seq = OperationSequence(n=2, source=0, initial_edges=[(0, 1)],
                            ops=[Operation(REMOVE, 0, 1)])
    div = verify_against_oracle(seq, StaleCache)
    assert div == Divergence(0, 1, True, False)


def test_counters_snapshot():
    c = WorkCounters()
    assert c.snapshot() == (0, 0, 0, 0)
    c.vertices_visited += 2
    c.edges_scanned += 5
    c.queue_pops += 1
    c.recomputations += 1
    assert c.snapshot() == (2, 5, 1, 1)
