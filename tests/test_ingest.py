"""Temporal streams and relationship snapshots onto operation sequences."""

from pathlib import Path

import pytest

from reachbench.core import ADD, REMOVE, Operation, replay, serialize_sequence
from reachbench.ingest import (
    IngestError,
    TemporalEdgeEvent,
    VertexLabels,
    events_to_sequence,
    ingest_snapshots,
    ingest_temporal,
    parse_snapshot_file,
    parse_temporal_stream,
)
from reachbench.static_search import StaticBfs

DATA = Path(__file__).parent / "data"


def ev(tail, head, sign, ts):
    return TemporalEdgeEvent(tail, head, sign, ts)


def test_parse_temporal_line():
    assert parse_temporal_stream("1 2 +1 100\n") == [ev("1", "2", 1, 100)]


def test_parse_temporal_normalizes_signs():
    events = parse_temporal_stream("a b 5 1\nb c -3 2\n")
    assert [e.sign for e in events] == [1, -1]


def test_parse_temporal_skips_comments_and_blanks():
    assert parse_temporal_stream("% header\n\n# note\n") == []


@pytest.mark.parametrize("line,fragment", [
    ("1 2 +1\n", "expected"),
    ("1 2 one 5\n", "sign"),
    ("1 2 0 5\n", "nonzero"),
    ("1 2 +1 later\n", "timestamp"),
])
def test_parse_temporal_errors_carry_position(line, fragment):
    with pytest.raises(IngestError, match=rf"stream\.txt:3: .*{fragment}"):
        parse_temporal_stream("% x\n1 2 +1 1\n" + line, filename="stream.txt")


def test_vertex_labels_round_trip():
    labels = VertexLabels()
    assert labels.intern("x") == 0
    assert labels.intern("y") == 1
    assert labels.intern("x") == 0
    assert len(labels) == 2
    assert labels.label_of(1) == "y"


def test_events_to_sequence_basics():
    seq, labels = events_to_sequence([ev("a", "b", 1, 1), ev("b", "c", 1, 2)])
    assert seq.n == 3 and seq.source == 0
    assert seq.initial_edges == [(0, 1)]
    assert seq.ops == [Operation(ADD, 1, 2)]
    assert seq.lenient
    assert seq.metadata == {"kind": "temporal", "events": "2"}
    assert labels.label_of(seq.source) == "a"


def test_min_group_deletion_cancels_youngest_insertion():
    events = [ev("a", "b", 1, 1), ev("a", "b", 1, 1), ev("a", "b", -1, 1)]
    seq, _ = events_to_sequence(events)
    assert seq.initial_edges == [(0, 1)]
    assert seq.ops == []


def test_min_group_targetless_deletion_is_dropped():
    events = [ev("a", "b", 1, 1), ev("x", "y", -1, 1)]
    seq, labels = events_to_sequence(events)
    assert seq.initial_edges == [(0, 1)]
    assert len(labels) == 4  # x and y still claim ids


def test_no_initial_insertion_is_an_error():
    with pytest.raises(IngestError, match="no source"):
        events_to_sequence([ev("a", "b", -1, 1), ev("b", "c", 1, 2)])
    with pytest.raises(IngestError, match="empty"):
        events_to_sequence([])


def test_equal_timestamps_keep_file_order():
    events = [ev("a", "b", 1, 5), ev("c", "d", 1, 3), ev("e", "f", 1, 3)]
    seq, labels = events_to_sequence(events)
    assert labels.label_of(seq.source) == "c"
    assert [(labels.label_of(u), labels.label_of(v)) for u, v in seq.initial_edges] == [
        ("c", "d"), ("e", "f")]
    assert seq.ops == [Operation(ADD, 0, 1)]


def test_ingest_temporal_toy_stream_matches_golden_file():
    seq, labels = ingest_temporal(DATA / "toy_temporal.txt")
    golden = (DATA / "toy_temporal_golden.txt").read_text(encoding="ascii")
    assert serialize_sequence(seq) == golden
    assert labels.label_of(seq.source) == "1"
    assert len(labels) == 6
    res = replay(seq, StaticBfs)
    assert not res.timed_out


# ---- snapshots ----


def test_parse_snapshot_relationships():
    labels = VertexLabels()
    edges = parse_snapshot_file("A B -1\nB C p2c\nC A 0\n", labels)
    assert edges == {(0, 1), (1, 2), (2, 0), (0, 2)}
    more = parse_snapshot_file("C D sibling\n", labels)
    assert more == {(2, 3), (3, 2)}  # ids shared through the label map


@pytest.mark.parametrize("text,fragment", [
    ("A B\n", "expected"),
    ("A B friend\n", "relationship"),
    ("% only comments\n", "no edges"),
])
def test_parse_snapshot_errors(text, fragment):
    with pytest.raises(IngestError, match=fragment):
        parse_snapshot_file(text, VertexLabels(), filename="snap.txt")


def test_snapshots_from_files_share_ids():
    seq, labels = ingest_snapshots([DATA / "snap_a.txt", DATA / "snap_b.txt",
                                    DATA / "snap_c.txt"])
    assert [labels.label_of(i) for i in range(len(labels))] == ["A", "B", "C", "D"]
    # each file's edge set, read off the stream: the initial graph, then the
    # graph after each diff block (4 updates, then 5)
    edges = set(seq.initial_edges)
    after = []
    for kind, u, v in seq.ops:
        if kind == ADD:
            edges.add((u, v))
        else:
            edges.remove((u, v))
        after.append(set(edges))
    assert set(seq.initial_edges) == {(0, 1), (1, 2), (2, 0), (0, 2)}
    assert after[3] == {(0, 1), (2, 3), (1, 2), (2, 1)}
    assert after[8] == {(0, 1), (3, 0), (0, 3)}


def test_ingest_snapshots_lowers_diff_blocks():
    seq, labels = ingest_snapshots([DATA / "snap_a.txt", DATA / "snap_b.txt",
                                    DATA / "snap_c.txt"], seed=3)
    assert seq.n == 4
    assert labels.label_of(seq.source) == "A"
    assert seq.initial_edges == sorted({(0, 1), (1, 2), (2, 0), (0, 2)})
    assert len(seq.ops) == 9
    assert set(seq.ops[:4]) == {Operation(ADD, 2, 3), Operation(ADD, 2, 1),
                                Operation(REMOVE, 2, 0), Operation(REMOVE, 0, 2)}
    assert set(seq.ops[4:]) == {Operation(ADD, 3, 0), Operation(ADD, 0, 3),
                                Operation(REMOVE, 1, 2), Operation(REMOVE, 2, 3),
                                Operation(REMOVE, 2, 1)}
    assert not seq.lenient
    replay(seq, StaticBfs)


def test_ingest_identical_snapshots_yield_no_updates():
    seq, _ = ingest_snapshots([DATA / "snap_a.txt", DATA / "snap_a.txt"])
    assert seq.ops == []


def test_ingest_snapshots_needs_two_files():
    with pytest.raises(IngestError):
        ingest_snapshots([DATA / "snap_a.txt"])


def test_ingest_snapshots_is_deterministic():
    paths = [DATA / "snap_a.txt", DATA / "snap_b.txt", DATA / "snap_c.txt"]
    a, _ = ingest_snapshots(paths, seed=5)
    b, _ = ingest_snapshots(paths, seed=5)
    assert serialize_sequence(a) == serialize_sequence(b)
