"""Shared single-source reachability contract: operation sequences and their
text format, work counters, the reference oracle, and the replay engine that
owns all graph mutation."""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .graph import DiGraph

ADD = "a"
REMOVE = "d"
QUERY = "q"
INIT = "init"


class Operation(NamedTuple):
    """One sequence entry: insert/remove an edge by endpoints, or query a vertex."""

    kind: str
    u: int
    v: int = -1


@dataclass
class OperationSequence:
    """A replayable instance: vertex count, source, initial edges, then ops.

    lenient means removals with no live (u, v) match are skipped at replay
    instead of raising.  metadata carries generator/ingest bookkeeping as
    string key/value pairs; it is serialized as leading comment lines.
    """

    n: int
    source: int
    initial_edges: list[tuple[int, int]] = field(default_factory=list)
    ops: list[Operation] = field(default_factory=list)
    lenient: bool = False
    metadata: dict[str, str] = field(default_factory=dict)


class SequenceFormatError(ValueError):
    pass


def serialize_sequence(seq: OperationSequence) -> str:
    """Render the line-oriented text form (ASCII, LF line ends).

    Layout: `# key=value` metadata comments (sorted), a `n <n> source <s>`
    header with an optional `lenient=1` token, one `i <u> <v>` line per
    initial edge, then one line per operation (`a <u> <v>`, `d <u> <v>`,
    `q <t>`).  Raises ValueError on metadata that parse_sequence would not
    read back.
    """
    for k, v in seq.metadata.items():
        if not k or "=" in k or any(c.isspace() for c in k + v):
            raise ValueError(f"metadata {k!r}={v!r} would not read back: a key must be "
                             "non-empty without '=', and neither may contain whitespace")
    lines = [f"# {k}={seq.metadata[k]}" for k in sorted(seq.metadata)]
    header = f"n {seq.n} source {seq.source}"
    if seq.lenient:
        header += " lenient=1"
    lines.append(header)
    for u, v in seq.initial_edges:
        lines.append(f"i {u} {v}")
    for op in seq.ops:
        if op.kind == QUERY:
            lines.append(f"q {op.u}")
        else:
            lines.append(f"{op.kind} {op.u} {op.v}")
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> OperationSequence:
    seq: OperationSequence | None = None
    metadata: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if seq is None and "=" in body and " " not in body:
                k, _, v = body.partition("=")
                metadata[k] = v
            continue
        tokens = line.split()
        if seq is None:
            if len(tokens) not in (4, 5) or tokens[0] != "n" or tokens[2] != "source":
                raise SequenceFormatError(
                    f"line {lineno}: expected header 'n <n> source <s>', got {line!r}")
            try:
                n = int(tokens[1])
                source = int(tokens[3])
            except ValueError:
                raise SequenceFormatError(f"line {lineno}: malformed header {line!r}") from None
            lenient = False
            if len(tokens) == 5:
                if tokens[4] not in ("lenient=0", "lenient=1"):
                    raise SequenceFormatError(f"line {lineno}: bad header token {tokens[4]!r}")
                lenient = tokens[4] == "lenient=1"
            if n <= 0 or not (0 <= source < n):
                raise SequenceFormatError(f"line {lineno}: invalid n/source in {line!r}")
            seq = OperationSequence(n, source, lenient=lenient, metadata=metadata)
            continue
        kind = tokens[0]
        try:
            if kind == QUERY:
                if len(tokens) != 2:
                    raise ValueError
                t = int(tokens[1])
                if not 0 <= t < seq.n:
                    raise SequenceFormatError(f"line {lineno}: vertex {t} out of range")
                seq.ops.append(Operation(QUERY, t))
                continue
            if kind not in ("i", ADD, REMOVE) or len(tokens) != 3:
                raise ValueError
            u, v = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise SequenceFormatError(f"line {lineno}: malformed line {line!r}") from None
        if not (0 <= u < seq.n and 0 <= v < seq.n):
            raise SequenceFormatError(f"line {lineno}: endpoint out of range in {line!r}")
        if kind == "i":
            if seq.ops:
                raise SequenceFormatError(
                    f"line {lineno}: initial edge after first operation")
            seq.initial_edges.append((u, v))
        else:
            seq.ops.append(Operation(kind, u, v))
    if seq is None:
        raise SequenceFormatError("missing header line")
    return seq


def save_sequence(seq: OperationSequence, path: str | Path) -> None:
    Path(path).write_text(serialize_sequence(seq), encoding="ascii")


def load_sequence(path: str | Path) -> OperationSequence:
    return parse_sequence(Path(path).read_text(encoding="ascii"))


# ---- instrumentation ----


class WorkCounters:
    """Shared sink the algorithms increment; counting is always on.

    Conventions: vertices_visited counts vertices claimed/marked/improved by
    a traversal, edges_scanned counts edges examined (dead-end probes and
    rebuild sweeps included), queue_pops counts dequeues of a deletion repair
    queue, recomputations counts from-scratch rebuilds triggered by an update
    or query (at most one per operation).  O(1) bookkeeping is uncounted.
    """

    __slots__ = ("vertices_visited", "edges_scanned", "queue_pops", "recomputations")

    def __init__(self) -> None:
        self.vertices_visited = 0
        self.edges_scanned = 0
        self.queue_pops = 0
        self.recomputations = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.vertices_visited, self.edges_scanned,
                self.queue_pops, self.recomputations)


class MeasurementRecord(NamedTuple):
    """Per-operation costs; op_index is -1 for the initialize record."""

    op_index: int
    kind: str
    wall_time_ns: int
    vertices_visited: int
    edges_scanned: int
    queue_pops: int
    recomputations: int


class SsrAlgorithm:
    """Base contract: four routines over a replay-owned graph.

    The replay engine mutates the graph first and then notifies the
    algorithm: the edge is already present when edge_inserted(u, v, e) runs
    and already gone when edge_deleted(u, v, e) runs.  query(t) returns True
    iff t is reachable from the fixed source.  Constructors must not read the
    graph; all state is built in initialize().
    """

    def __init__(self, graph: DiGraph, source: int, counters: WorkCounters):
        self.graph = graph
        self.source = source
        self.counters = counters

    def initialize(self) -> None:
        pass

    def edge_inserted(self, u: int, v: int, e: int) -> None:
        pass

    def edge_deleted(self, u: int, v: int, e: int) -> None:
        pass

    def query(self, t: int) -> bool:
        raise NotImplementedError


AlgorithmFactory = Callable[[DiGraph, int, WorkCounters], SsrAlgorithm]


# ---- oracle ----


def oracle_reach_set(graph: DiGraph, source: int) -> bytearray:
    """Reachability from source by plain BFS; independent of the algorithms."""
    reached = bytearray(graph.vertex_count)
    reached[source] = 1
    queue = deque([source])
    out, heads = graph.out_lists, graph.heads
    while queue:
        x = queue.popleft()
        for e in out[x]:
            w = heads[e]
            if not reached[w]:
                reached[w] = 1
                queue.append(w)
    return reached


def oracle_levels(graph: DiGraph, source: int) -> list[int]:
    """BFS distances from source; unreachable vertices get n."""
    n = graph.vertex_count
    level = [n] * n
    level[source] = 0
    queue = deque([source])
    out, heads = graph.out_lists, graph.heads
    while queue:
        x = queue.popleft()
        lx = level[x] + 1
        for e in out[x]:
            w = heads[e]
            if level[w] == n:
                level[w] = lx
                queue.append(w)
    return level


# ---- replay ----


class ReplayError(RuntimeError):
    pass


@dataclass
class ReplayResult:
    records: list[MeasurementRecord]
    answers: list[bool]
    algorithm: SsrAlgorithm
    timed_out: bool
    mean_edges: float


def _steps(seq: OperationSequence, g: DiGraph, alg: SsrAlgorithm, counters: WorkCounters,
           answers: list[bool], deadline: float | None = None) -> Iterator[MeasurementRecord]:
    """The one mutate-then-notify loop behind every replay entry point.

    Takes the graph built from seq's initial edges and a fresh algorithm
    on it that counts into counters.  The first step initializes the
    algorithm, and each later step applies one op: edges are added to the
    graph before edge_inserted and removed before edge_deleted; a removal
    takes the most recent live (u, v) edge.  Each step yields its
    MeasurementRecord, built once where the routine is timed:
    wall_time_ns times the routine call alone, and the counters are the
    step's deltas, read straight off the WorkCounters slots.  A query's
    bool answer is appended to answers.  A removal with no live match
    raises ReplayError unless the sequence is flagged lenient, in which
    case it is skipped and recorded with zero time and work.  Once
    deadline (a time.perf_counter value) has passed, stops before the
    next op.
    """
    add_edge, find_edge, remove_edge = g.add_edge, g.find_edge, g.remove_edge
    clock = time.perf_counter_ns
    pv = counters.vertices_visited
    pe = counters.edges_scanned
    pq = counters.queue_pops
    pr = counters.recomputations
    t0 = clock()
    alg.initialize()
    t1 = clock()
    cv = counters.vertices_visited
    ce = counters.edges_scanned
    cq = counters.queue_pops
    cr = counters.recomputations
    yield MeasurementRecord(-1, INIT, t1 - t0, cv - pv, ce - pe, cq - pq, cr - pr)
    inserted, deleted, query = alg.edge_inserted, alg.edge_deleted, alg.query
    lenient = seq.lenient
    for i, op in enumerate(seq.ops):
        if deadline is not None and time.perf_counter() > deadline:
            return
        kind, u, v = op
        pv = cv
        pe = ce
        pq = cq
        pr = cr
        if kind == ADD:
            e = add_edge(u, v)
            t0 = clock()
            inserted(u, v, e)
            t1 = clock()
        elif kind == REMOVE:
            e = find_edge(u, v)
            if e is not None:
                remove_edge(e)
                t0 = clock()
                deleted(u, v, e)
                t1 = clock()
            elif not lenient:
                raise ReplayError(f"op {i}: no live edge ({u}, {v}) to remove")
            else:
                t0 = t1 = 0
        elif kind == QUERY:
            t0 = clock()
            ans = query(u)
            t1 = clock()
            answers.append(bool(ans))
        else:
            raise ReplayError(f"op {i}: unknown kind {kind!r}")
        cv = counters.vertices_visited
        ce = counters.edges_scanned
        cq = counters.queue_pops
        cr = counters.recomputations
        yield MeasurementRecord(i, kind, t1 - t0, cv - pv, ce - pe, cq - pq, cr - pr)


def replay(seq: OperationSequence, factory: AlgorithmFactory, *,
           timeout: float | None = None) -> ReplayResult:
    """Drive a fresh algorithm instance through seq, recording each
    routine's time and work.

    Only a sequence flagged lenient may remove an edge that is not live;
    such a removal is skipped and recorded with zero work, and in any other
    sequence it raises ReplayError.  A timeout (seconds) aborts between
    operations, flags the result timed_out, and keeps partial records.
    """
    deadline = None if timeout is None else time.perf_counter() + timeout
    g = DiGraph.from_edges(seq.n, seq.initial_edges)
    counters = WorkCounters()
    alg = factory(g, seq.source, counters)
    records: list[MeasurementRecord] = []
    answers: list[bool] = []
    append = records.append
    edge_sum = 0
    for rec in _steps(seq, g, alg, counters, answers, deadline):
        append(rec)
        edge_sum += g.edge_count
    timed_out = len(records) <= len(seq.ops)
    return ReplayResult(records, answers, alg, timed_out, edge_sum / len(records))


def iterate_replay(seq: OperationSequence, factory: AlgorithmFactory
                   ) -> Iterator[tuple[int, Operation | None, DiGraph, SsrAlgorithm, bool | None]]:
    """Step-by-step replay for tests and verification drivers.

    Yields (op_index, op, graph, algorithm, answer) after initialize
    (op_index -1, op None) and after each operation.  Lenient-skipped
    removals are yielded with answer None like updates.
    """
    g = DiGraph.from_edges(seq.n, seq.initial_edges)
    counters = WorkCounters()
    alg = factory(g, seq.source, counters)
    answers: list[bool] = []
    ops = seq.ops
    for rec in _steps(seq, g, alg, counters, answers):
        i = rec.op_index
        if i < 0:
            yield i, None, g, alg, None
        else:
            op = ops[i]
            yield i, op, g, alg, answers[-1] if op.kind == QUERY else None


class Divergence(NamedTuple):
    op_index: int       # -1 means right after initialize
    vertex: int
    got: bool
    want: bool


def verify_against_oracle(seq: OperationSequence,
                          factory: AlgorithmFactory) -> Divergence | None:
    """Replay seq, sweeping all vertices against a BFS oracle after
    initialize and every applied update and checking each query answer;
    returns the first divergence or None if the algorithm agrees everywhere."""
    source = seq.source
    live = -1
    for i, op, g, alg, ans in iterate_replay(seq, factory):
        if ans is not None:
            want = bool(oracle[op.u])
            if ans != want:
                return Divergence(i, op.u, ans, want)
            continue
        if g.edge_count == live:
            continue  # a lenient-skipped removal left the graph as it was
        live = g.edge_count
        oracle = oracle_reach_set(g, source)
        query = alg.query
        for t in range(seq.n):
            got = bool(query(t))
            if got != oracle[t]:
                return Divergence(i, t, got, bool(oracle[t]))
    return None
