"""Real-world graph streams: timestamped edge events and relationship
snapshot files, relabeled onto dense vertex ids and lowered to operation
sequences."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .core import ADD, REMOVE, Operation, OperationSequence
from .generators import snapshots_to_sequence


class IngestError(ValueError):
    pass


class TemporalEdgeEvent(NamedTuple):
    tail: str
    head: str
    sign: int  # +1 insertion, -1 deletion
    timestamp: int


class VertexLabels:
    """Bijection between external string labels and dense ids, assigned in
    first-seen order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._labels: list[str] = []

    def __len__(self) -> int:
        return len(self._labels)

    def intern(self, label: str) -> int:
        i = self._ids.get(label)
        if i is None:
            i = len(self._labels)
            self._ids[label] = i
            self._labels.append(label)
        return i

    def label_of(self, i: int) -> str:
        return self._labels[i]


def parse_temporal_stream(text: str, *, filename: str = "<stream>") -> list[TemporalEdgeEvent]:
    """Parse `<tail> <head> <sign> <timestamp>` lines.

    Blank lines and lines starting with % or # are skipped.  Any nonzero
    integer sign is accepted; the result normalizes to +1/-1.
    """
    events: list[TemporalEdgeEvent] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] in "%#":
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise IngestError(
                f"{filename}:{lineno}: expected '<tail> <head> <sign> <timestamp>', got {line!r}")
        tail, head, sign_tok, ts_tok = tokens
        try:
            sign = int(sign_tok)
        except ValueError:
            raise IngestError(f"{filename}:{lineno}: sign {sign_tok!r} is not an integer") from None
        if sign == 0:
            raise IngestError(f"{filename}:{lineno}: sign must be nonzero")
        try:
            ts = int(ts_tok)
        except ValueError:
            raise IngestError(f"{filename}:{lineno}: timestamp {ts_tok!r} is not an integer") from None
        events.append(TemporalEdgeEvent(tail, head, 1 if sign > 0 else -1, ts))
    return events


def events_to_sequence(events: list[TemporalEdgeEvent]) -> tuple[OperationSequence, VertexLabels]:
    """Lower a temporal event stream to a lenient operation sequence.

    The vertex universe is fixed up front (dense ids in file order).  Events
    are stably sorted by timestamp; the minimum-timestamp group forms the
    initial graph, with deletions inside it cancelling the youngest matching
    insertion and targetless ones dropped.  The source is the tail of the
    group's first insertion.  Everything later becomes updates, replayed
    leniently since real streams delete edges they never inserted.
    """
    if not events:
        raise IngestError("empty event stream")
    labels = VertexLabels()
    intern = labels.intern
    # (timestamp, sign, tail id, head id), interned in file order
    rows = [(ev.timestamp, ev.sign, intern(ev.tail), intern(ev.head)) for ev in events]
    rows.sort(key=lambda row: row[0])
    min_ts = rows[0][0]
    source: int | None = None
    initial: list[tuple[int, int]] = []
    i = 0
    while i < len(rows) and rows[i][0] == min_ts:
        _, sign, u, v = rows[i]
        if sign > 0:
            if source is None:
                source = u
            initial.append((u, v))
        else:
            for j in range(len(initial) - 1, -1, -1):
                if initial[j] == (u, v):
                    del initial[j]
                    break
        i += 1
    if source is None:
        raise IngestError("no insertion among the minimum-timestamp events; no source derivable")
    ops = [Operation(ADD if sign > 0 else REMOVE, u, v) for _, sign, u, v in rows[i:]]
    metadata = {"kind": "temporal", "events": str(len(events))}
    seq = OperationSequence(n=len(labels), source=source, initial_edges=initial,
                            ops=ops, lenient=True, metadata=metadata)
    return seq, labels


def ingest_temporal(path: str | Path) -> tuple[OperationSequence, VertexLabels]:
    path = Path(path)
    events = parse_temporal_stream(path.read_text(encoding="ascii"), filename=path.name)
    return events_to_sequence(events)


_SINGLE_RELATIONSHIPS = {"-1", "p2c"}
_PAIR_RELATIONSHIPS = {"0", "peer", "2", "sibling"}


def parse_snapshot_file(text: str, labels: VertexLabels, *,
                        filename: str = "<snapshot>") -> set[tuple[int, int]]:
    """Parse `<tail> <head> <relationship>` lines into an edge set.

    Relationships -1/p2c yield the single edge tail -> head; 0/peer and
    2/sibling yield the anti-parallel pair.  Labels are interned into the
    shared map so ids stay consistent across a snapshot stream.
    """
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] in "%#":
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise IngestError(
                f"{filename}:{lineno}: expected '<tail> <head> <relationship>', got {line!r}")
        tail, head, rel = tokens
        u = labels.intern(tail)
        v = labels.intern(head)
        if rel in _SINGLE_RELATIONSHIPS:
            edges.add((u, v))
        elif rel in _PAIR_RELATIONSHIPS:
            edges.add((u, v))
            edges.add((v, u))
        else:
            raise IngestError(f"{filename}:{lineno}: unknown relationship {rel!r}")
    if not edges:
        raise IngestError(f"{filename}: snapshot has no edges")
    return edges


def ingest_snapshots(paths: list[str | Path], *, seed: int = 0,
                     source_rank: int = 0) -> tuple[OperationSequence, VertexLabels]:
    """Read relationship snapshot files in stream order and lower them to a
    sequence of diff blocks; ids are shared across all files."""
    if len(paths) < 2:
        raise IngestError("need at least two snapshot files")
    labels = VertexLabels()
    snapshots = []
    for p in paths:
        p = Path(p)
        snapshots.append(parse_snapshot_file(p.read_text(encoding="ascii"),
                                             labels, filename=p.name))
    seq = snapshots_to_sequence(snapshots, seed=seed, source_rank=source_rank,
                                n=len(labels))
    return seq, labels
