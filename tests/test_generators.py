"""Seeded instance generators and sequence transforms."""

import hashlib
import random

import pytest

from reachbench.core import (ADD, QUERY, REMOVE, Operation, OperationSequence, load_sequence,
                             parse_sequence, replay, save_sequence, serialize_sequence)
from reachbench.generators import (
    ErSpec,
    KroneckerSpec,
    _draws,
    gen_er_instance,
    gen_kronecker_instance,
    gen_kronecker_snapshot,
    inject_queries,
    shuffle_sequence,
    snapshots_to_sequence,
)
from reachbench.ingest import ingest_snapshots, ingest_temporal
from reachbench.static_search import CachingBfs, StaticBfs


@pytest.mark.parametrize("kwargs", [
    {"n": 0, "d": 1.0, "sigma": 0},
    {"n": 4, "d": -0.5, "sigma": 0},
    {"n": 4, "d": 1.0, "sigma": -1},
    {"n": 4, "d": 1.0, "sigma": 0, "batch": 0},
    {"n": 4, "d": 1.0, "sigma": 0, "p_insert": 0.5, "p_delete": 0.5, "p_query": 0.5},
    {"n": 4, "d": 1.0, "sigma": 0, "p_insert": -0.2, "p_delete": 0.6, "p_query": 0.6},
    {"n": 4, "d": 1.0, "sigma": 0, "p_insert": float("nan")},
    {"n": 4, "d": float("nan"), "sigma": 0},
    {"n": 4, "d": float("inf"), "sigma": 0},
])
def test_er_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ErSpec(**kwargs)


def test_er_edge_count_and_empty_ops():
    seq = gen_er_instance(ErSpec(n=4, d=0.5, sigma=0, seed=1))
    assert len(seq.initial_edges) == 2
    assert seq.ops == []
    assert seq.source == 0
    assert seq.metadata["initial_m"] == "2"
    assert seq.metadata["final_m"] == "2"
    assert all(0 <= u < 4 and 0 <= v < 4 for u, v in seq.initial_edges)


def test_er_operations_come_in_homogeneous_batches():
    seq = gen_er_instance(ErSpec(n=100, d=2.0, sigma=30, seed=7))
    assert len(seq.ops) == 30
    for i in range(0, 30, 10):
        kinds = {op.kind for op in seq.ops[i:i + 10]}
        assert len(kinds) == 1


def test_er_generation_is_deterministic():
    spec = ErSpec(n=50, d=1.5, sigma=200, seed=13)
    a = serialize_sequence(gen_er_instance(spec))
    b = serialize_sequence(gen_er_instance(spec))
    assert a == b
    assert serialize_sequence(gen_er_instance(ErSpec(n=50, d=1.5, sigma=200, seed=14))) != a


def test_er_metadata_matches_operation_tally():
    seq = gen_er_instance(ErSpec(n=30, d=1.0, sigma=240, seed=3))
    adds = sum(op.kind == ADD for op in seq.ops)
    dels = sum(op.kind == REMOVE for op in seq.ops)
    assert int(seq.metadata["final_m"]) == int(seq.metadata["initial_m"]) + adds - dels
    assert abs(int(seq.metadata["final_m"]) - int(seq.metadata["initial_m"])) <= 240


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_er_deletions_always_hit_live_edges(seed):
    # deletion-heavy mix: a replay of a non-lenient sequence proves every
    # removal had a target
    spec = ErSpec(n=20, d=0.5, sigma=200, seed=seed,
                  p_insert=0.2, p_delete=0.6, p_query=0.2)
    seq = gen_er_instance(spec)
    assert not seq.lenient
    replay(seq, StaticBfs)


def test_er_redraws_kind_while_nothing_is_deletable():
    seq = gen_er_instance(ErSpec(n=5, d=0.0, sigma=40, seed=0,
                                 p_insert=0.5, p_delete=0.5, p_query=0.0))
    assert len(seq.ops) == 40
    assert seq.ops[0].kind == ADD
    assert not seq.lenient
    replay(seq, StaticBfs)


def test_er_rejects_deletion_only_mix_on_empty_graph():
    with pytest.raises(ValueError):
        gen_er_instance(ErSpec(n=5, d=0.0, sigma=10, seed=0,
                               p_insert=0.0, p_delete=1.0, p_query=0.0))


#: 1, 2, 3 and each power of two up to 2^20 with its two neighbours, so
#: every bit width is drawn both with and without rejections
DRAW_BOUNDS = sorted({1, 2, 3} | {(1 << k) + d for k in range(2, 21) for d in (-1, 0, 1)})


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
def test_draws_follow_randrange(seed):
    rng = random.Random(seed)
    ref = random.Random(seed)
    for m in DRAW_BOUNDS:
        for count in (1, 2, 37):
            assert _draws(rng, m, count) == [ref.randrange(m) for _ in range(count)], (m, count)
            assert rng.getstate() == ref.getstate(), (m, count)


# ---- Kronecker ----


def test_kronecker_all_zero_initiator_is_empty():
    assert gen_kronecker_snapshot(((0.0, 0.0), (0.0, 0.0)), 3, seed=1) == set()


def test_kronecker_all_one_initiator_fills_k1():
    edges = gen_kronecker_snapshot(((1.0, 1.0), (1.0, 1.0)), 1, seed=5)
    assert edges == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_kronecker_validation():
    with pytest.raises(ValueError):
        gen_kronecker_snapshot(((1.2, 0.0), (0.0, 0.0)), 2, seed=0)
    with pytest.raises(ValueError):
        gen_kronecker_snapshot(((0.5, 0.5), (0.5, 0.5)), 0, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kronecker_draws_target_count_inside_vertex_range(seed):
    edges = gen_kronecker_snapshot(((0.9, 0.5), (0.5, 0.1)), 6, seed=seed)
    assert len(edges) == 64  # round(2.0 ** 6)
    assert all(0 <= u < 64 and 0 <= v < 64 for u, v in edges)
    assert edges == gen_kronecker_snapshot(((0.9, 0.5), (0.5, 0.1)), 6, seed=seed)


def test_kronecker_spec_schedules():
    spec = KroneckerSpec.constant(((0.9, 0.5), (0.5, 0.1)), k=4, snapshots=3)
    assert spec.iterations == (4, 4, 4)
    grown = KroneckerSpec.growing(((0.9, 0.5), (0.5, 0.1)), 5, 8)
    assert grown.iterations == (5, 6, 7, 8)
    with pytest.raises(ValueError):
        KroneckerSpec.growing(((0.9, 0.5), (0.5, 0.1)), 8, 5)
    with pytest.raises(ValueError):
        KroneckerSpec(((0.9, 0.5), (0.5, 0.1)), (4,))
    with pytest.raises(ValueError):
        KroneckerSpec(((0.9, 0.5), (0.5, 0.1)), (4, 0))


def test_kronecker_instance_has_power_of_two_universe():
    spec = KroneckerSpec.constant(((0.9, 0.5), (0.5, 0.1)), k=4, snapshots=3, seed=2)
    seq = gen_kronecker_instance(spec)
    assert seq.n == 16
    assert seq.metadata["kind"] == "kron"
    assert all(op.kind != QUERY for op in seq.ops)
    assert serialize_sequence(seq) == serialize_sequence(gen_kronecker_instance(spec))
    assert not seq.lenient
    replay(seq, CachingBfs)


def test_kronecker_metadata_survives_save_and_load(tmp_path):
    spec = KroneckerSpec.growing(((0.9, 0.5), (0.5, 0.1)), 3, 4, seed=1)
    seq = gen_kronecker_instance(spec)
    assert seq.metadata["initiator"] == "0.9,0.5,0.5,0.1"
    path = tmp_path / "kron.seq"
    save_sequence(seq, path)
    assert load_sequence(path).metadata == seq.metadata


# ---- snapshot differencing ----


def test_identical_snapshots_produce_no_updates():
    seq = snapshots_to_sequence([{(0, 1)}, {(0, 1)}])
    assert seq.ops == []
    assert seq.initial_edges == [(0, 1)]
    assert seq.source == 0


def test_single_pair_diff():
    seq = snapshots_to_sequence([{(0, 1)}, {(1, 2)}], seed=4)
    assert sorted(seq.ops) == [Operation(ADD, 1, 2), Operation(REMOVE, 0, 1)]
    assert seq.n == 3


def test_diff_blocks_preserve_snapshot_order():
    first = {(0, 1)}
    second = {(0, 2), (0, 3), (0, 4), (0, 5)}
    third = {(1, 2), (1, 3), (1, 4)}
    seq = snapshots_to_sequence([first, second, third], seed=9)
    assert len(seq.ops) == 12
    block1 = {Operation(ADD, 0, v) for v in (2, 3, 4, 5)} | {Operation(REMOVE, 0, 1)}
    block2 = ({Operation(ADD, 1, v) for v in (2, 3, 4)}
              | {Operation(REMOVE, 0, v) for v in (2, 3, 4, 5)})
    assert set(seq.ops[:5]) == block1
    assert set(seq.ops[5:]) == block2
    assert not seq.lenient
    replay(seq, StaticBfs)


def test_source_ranking_by_out_degree_then_id():
    snaps = [{(0, 1), (0, 2), (2, 3), (2, 4), (1, 3)}, {(0, 1)}]
    assert snapshots_to_sequence(snaps).source == 0
    assert snapshots_to_sequence(snaps, source_rank=1).source == 2
    assert snapshots_to_sequence(snaps, source_rank=2).source == 1
    with pytest.raises(ValueError):
        snapshots_to_sequence(snaps, source_rank=3)


def test_snapshot_validation():
    with pytest.raises(ValueError):
        snapshots_to_sequence([{(0, 1)}])
    with pytest.raises(ValueError):
        snapshots_to_sequence([set(), {(0, 1)}])
    with pytest.raises(ValueError):
        snapshots_to_sequence([{(0, 1)}, {(0, 5)}], n=3)


def test_diff_shuffle_is_seeded():
    snaps = [{(0, 1)}, {(i, i + 1) for i in range(6)}]
    a = snapshots_to_sequence(snaps, seed=0)
    b = snapshots_to_sequence(snaps, seed=0)
    assert a.ops == b.ops
    assert sorted(a.ops) == sorted(snapshots_to_sequence(snaps, seed=1).ops)


# ---- shuffling and query injection ----


def test_shuffle_single_update_is_identity():
    seq = OperationSequence(n=2, source=0, ops=[Operation(ADD, 0, 1)])
    assert shuffle_sequence(seq, seed=3).ops == seq.ops


def test_shuffle_permutes_updates_and_flags_lenient():
    ops = [Operation(ADD, 0, i % 4) for i in range(5)] + [Operation(REMOVE, 0, 1)]
    seq = OperationSequence(n=4, source=0, ops=ops)
    s0 = shuffle_sequence(seq, seed=0)
    s1 = shuffle_sequence(seq, seed=1)
    assert sorted(s0.ops) == sorted(ops) == sorted(s1.ops)
    assert s0.ops != s1.ops
    assert s0.lenient and s1.lenient
    assert s0.metadata["shuffle_seed"] == "0"


def test_shuffle_keeps_queries_in_their_slots():
    ops = [Operation(ADD, 0, 1), Operation(QUERY, 3), Operation(REMOVE, 0, 1),
           Operation(QUERY, 2), Operation(ADD, 1, 2)]
    seq = OperationSequence(n=4, source=0, ops=ops)
    shuffled = shuffle_sequence(seq, seed=8)
    assert shuffled.ops[1] == Operation(QUERY, 3)
    assert shuffled.ops[3] == Operation(QUERY, 2)
    updates = [op for op in shuffled.ops if op.kind != QUERY]
    assert sorted(updates) == sorted(op for op in ops if op.kind != QUERY)


def test_shuffled_stream_replays_leniently():
    seq = gen_er_instance(ErSpec(n=20, d=1.0, sigma=200, seed=6))
    shuffled = shuffle_sequence(seq, seed=1)
    res = replay(shuffled, StaticBfs)
    assert len(res.answers) == sum(op.kind == QUERY for op in seq.ops)


def test_inject_queries_splices_batches():
    seq = gen_er_instance(ErSpec(n=20, d=1.0, sigma=50, seed=2,
                                 p_insert=0.5, p_delete=0.5, p_query=0.0))
    out = inject_queries(seq, count=25, seed=4, batch=10)
    assert len(out.ops) == 75
    assert sum(op.kind == QUERY for op in out.ops) == 25
    assert [op for op in out.ops if op.kind != QUERY] == seq.ops
    assert out.ops == inject_queries(seq, count=25, seed=4, batch=10).ops
    assert inject_queries(seq, count=0, seed=4).ops == seq.ops
    with pytest.raises(ValueError):
        inject_queries(seq, count=-1, seed=0)
    with pytest.raises(ValueError):
        inject_queries(seq, count=5, seed=0, batch=0)


# ---- pinned instances ----


KRON_INITIATOR = ((0.9, 0.5), (0.5, 0.1))


def _er(seed):
    return lambda tmp: gen_er_instance(ErSpec(1000, 5.0, 2000, seed=seed))


def _kron_with_queries(tmp):
    seq = gen_kronecker_instance(KroneckerSpec.growing(KRON_INITIATOR, 5, 8, seed=1))
    return inject_queries(seq, len(seq.ops), seed=2)


def _snapshot_files(tmp):
    # Kronecker edge sets as relationship files, every fourth line a peer pair
    paths = []
    for k, seed in ((5, 11), (6, 12), (6, 13)):
        edges = sorted(gen_kronecker_snapshot(KRON_INITIATOR, k, seed))
        path = tmp / f"snap-{seed}.txt"
        path.write_text("".join(f"v{u} v{v} {'0' if i % 4 == 3 else '-1'}\n"
                                for i, (u, v) in enumerate(edges)), encoding="ascii")
        paths.append(path)
    return ingest_snapshots(paths, seed=5)[0]


def _temporal_file(tmp):
    # 400 events over 40 labels, eight per timestamp, a third of them deletions
    rng = random.Random(7)
    lines = ["% tail head sign timestamp", ""]
    for i in range(400):
        lines.append(f"u{rng.randrange(40)} u{rng.randrange(40)} "
                     f"{rng.choice((1, 1, -1))} {i // 8}")
    path = tmp / "stream.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return ingest_temporal(path)[0]


#: SHA-256 of serialize_sequence's text of each instance: the ER instances of
#: the er-updates shape, a growing Kronecker stream with a query per update
#: spliced in (and its shuffle), and the two ingest paths.  A change here
#: means the generators or the ingest lowering drew a different instance.
INSTANCE_FINGERPRINTS = {
    "er-0": "0987b52aca954ab37454c64ff735e13cee4226a1340a70470f71c535696b4b97",
    "er-1": "30807f15da754f5e8035889246fd112cd84dd11823ace73cb3c94d1777330e90",
    "er-2": "c24518c0a7ec45a9ec5ea2280406415757d6b30f59f4dec4fe8062aae68a9f86",
    "kron-queries": "940cf67b9bf6f0d939f284cb1636de1b7d359463bec98420169d8df48a6c0ad3",
    "kron-queries-shuffled": "7211b0a6b43e05ba0105952fee9d6fcb7efc2b624d94abb598b9c21b712f745c",
    "snapshots": "a3df3881d602a01e0379bfd0bd432db15e4671d41b9b2df466f18de9746bb07d",
    "temporal": "67aa14cd10ab5cf97935002ec469ce591c3b4898f191507af458baf7cc360d2c",
}

INSTANCES = {
    "er-0": _er(0),
    "er-1": _er(1),
    "er-2": _er(2),
    "kron-queries": _kron_with_queries,
    "kron-queries-shuffled": lambda tmp: shuffle_sequence(_kron_with_queries(tmp), 3),
    "snapshots": _snapshot_files,
    "temporal": _temporal_file,
}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_instance_fingerprint_is_unchanged(name, tmp_path):
    text = serialize_sequence(INSTANCES[name](tmp_path))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == INSTANCE_FINGERPRINTS[name]


@pytest.mark.parametrize("name", list(INSTANCES))
def test_every_op_is_an_operation(name, tmp_path):
    # a plain tuple compares equal to an Operation, so equality alone would
    # not catch a builder that returns one
    seq = INSTANCES[name](tmp_path)
    for s in (seq, parse_sequence(serialize_sequence(seq))):
        assert s.ops
        for op in s.ops:
            assert type(op) is Operation
            assert (op.kind, op.u, op.v) == op
            assert op.kind in (ADD, REMOVE) or (op.kind == QUERY and op.v == -1)
