"""Sequence format, BFS oracles, and the replay engine."""

import hashlib

import pytest

from reachbench.bench import CANONICAL_SPECS, algorithm_registry
from reachbench.core import (
    ADD,
    INIT,
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
    oracle_reachable,
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


def test_operation_constructors():
    assert Operation.add(1, 2) == Operation(ADD, 1, 2)
    assert Operation.remove(1, 2) == Operation(REMOVE, 1, 2)
    assert Operation.query(7) == Operation(QUERY, 7)
    assert Operation.query(7).v == -1


def test_sequences_do_not_share_mutable_defaults():
    a = OperationSequence(n=2, source=0)
    b = OperationSequence(n=2, source=0)
    a.ops.append(Operation.query(0))
    a.metadata["k"] = "v"
    assert b.ops == [] and b.metadata == {}


# ---- text format ----


def test_serialize_golden_text():
    seq = OperationSequence(
        n=3, source=0, initial_edges=[(0, 1)],
        ops=[Operation.add(1, 2), Operation.remove(0, 1), Operation.query(2)],
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
        ops=[Operation.add(0, 4), Operation.query(3), Operation.remove(2, 3)],
        lenient=True, metadata={"seed": "9", "kind": "er"})
    back = parse_sequence(serialize_sequence(seq))
    assert back == seq
    assert serialize_sequence(back) == serialize_sequence(seq)


def test_parse_skips_blanks_and_ignores_late_comments():
    text = "# kind=demo\n\nn 2 source 0\n# not=metadata anymore\n  q 1 \n"
    seq = parse_sequence(text)
    assert seq.metadata == {"kind": "demo"}
    assert seq.ops == [Operation.query(1)]


def test_parse_metadata_requires_single_token():
    # a spaced comment before the header is commentary, not metadata
    seq = parse_sequence("# two words=x\nn 1 source 0\n")
    assert seq.metadata == {}


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
                            ops=[Operation.query(1)], metadata={"kind": "t"})
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
    assert oracle_reachable(g, 0, 1)
    assert not oracle_reachable(g, 0, 2)


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
                            ops=[Operation.add(0, 1), Operation.query(1)])
    res = replay(seq, algorithm_registry("sbfs"))
    assert res.answers == [True]
    assert not res.timed_out


def test_replay_records_init_then_one_per_op():
    seq = OperationSequence(n=3, source=0, initial_edges=[(0, 1)],
                            ops=[Operation.add(1, 2), Operation.query(2),
                                 Operation.remove(0, 1), Operation.query(2)])
    res = replay(seq, algorithm_registry("ses:5:.5"))
    assert [r.op_index for r in res.records] == [-1, 0, 1, 2, 3]
    assert [r.kind for r in res.records] == [INIT, ADD, QUERY, REMOVE, QUERY]
    assert res.answers == [True, False]


def test_replay_mean_live_edges():
    # edge counts sampled after init and after each op: 1, 0, 1
    seq = OperationSequence(n=2, source=0, initial_edges=[(0, 1)],
                            ops=[Operation.remove(0, 1), Operation.add(0, 1)])
    res = replay(seq, algorithm_registry("sbfs"))
    assert res.mean_edges == pytest.approx(2 / 3)


def test_strict_replay_rejects_unmatched_removal():
    seq = OperationSequence(n=2, source=0, ops=[Operation.remove(0, 1)])
    with pytest.raises(ReplayError):
        replay(seq, algorithm_registry("sbfs"))


def test_lenient_replay_skips_unmatched_removal_with_zero_work():
    seq = OperationSequence(n=2, source=0,
                            ops=[Operation.remove(0, 1), Operation.query(0)],
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


def test_strict_override_beats_sequence_flag():
    seq = OperationSequence(n=2, source=0, ops=[Operation.remove(0, 1)])
    res = replay(seq, algorithm_registry("sbfs"), strict=False)
    assert not res.timed_out and len(res.records) == 2


def test_replay_timeout_flags_and_keeps_partial_records():
    seq = OperationSequence(n=2, source=0, ops=[Operation.query(0)] * 5)
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
                            ops=[Operation.remove(0, 1), Operation.remove(0, 1)])
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
#: step's lazy `exhausted` flag hashed too.
STATIC_SPECS = ("sbfs", "sdfs", "cbfs", "cdfs", "lbfs", "ldfs")
QUERY_FINGERPRINT = "30f3094141b69e0e7fd0def3067009cac1e41d9a7a242bddb5c5fb55aa25653d"

#: si and ses configs that rebuild often (si ratio 0, ses queue cap 0, ses
#: beta 1) or that lean on the SF forward claim, with each step's state or
#: levels, tree edges and (si) tree children in order hashed too.
REBUILD_SPECS = ("si:R:SF:0", "si:nR:SF:0", "si:R:nSF:.25", "si:R:SF:1",
                 "ses:inf:0", "ses:1:inf")
REBUILD_FINGERPRINT = "ecf88289438e1efad09339443a3b8427c55da7b8d95966d037db95dc4b3f1c1c"


def _tree_state(alg):
    if hasattr(alg, "children"):
        return bytes(alg.state), tuple(alg.tree_edge), [tuple(k) for k in alg.children]
    return alg.levels(), tuple(alg.tree_edge)


@pytest.mark.parametrize("instance,specs,step_state,fingerprint", [
    pytest.param(_er_instance, CANONICAL_SPECS, None, REPLAY_FINGERPRINT, id="canonical"),
    pytest.param(_er_instance, ABORT_SPECS, lambda alg: alg.last_deletion_stats,
                 ABORT_FINGERPRINT, id="abort-heavy"),
    pytest.param(_kron_query_instance, STATIC_SPECS,
                 lambda alg: getattr(alg, "exhausted", None), QUERY_FINGERPRINT,
                 id="query-heavy"),
    pytest.param(_er_instance, REBUILD_SPECS, _tree_state, REBUILD_FINGERPRINT,
                 id="rebuild-heavy"),
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
                            ops=[Operation.add(0, 1), Operation.query(1)])
    steps = list(iterate_replay(seq, algorithm_registry("es:5:.5")))
    assert [(i, ans) for i, _, _, _, ans in steps] == [(-1, None), (0, None), (1, True)]
    assert steps[0][1] is None
    assert steps[2][2].edge_count == 1


def test_query_source_is_always_reachable():
    seq = OperationSequence(n=3, source=2, ops=[Operation.query(2)])
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
                            ops=[Operation.remove(0, 1)])
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
