"""Shared single-source reachability contract: operation sequences and their
text format, work counters, the reference oracle, and the replay engine that
owns all graph mutation."""

from __future__ import annotations

import re
import time
from collections import _tuplegetter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .graph import DiGraph

ADD = "a"
REMOVE = "d"
QUERY = "q"
INIT = "init"


class Operation(NamedTuple):
    """One sequence entry: insert/remove an edge by endpoints, or query a vertex.

    The generators, ingest and parse_sequence build theirs with tuple's C
    constructor, tuple.__new__(Operation, (kind, u, v)), which skips
    NamedTuple's Python-level __new__ and its default: a query passes v=-1
    itself.
    """

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


def _is_metadata(key: str, value: str) -> bool:
    """Whether a `# key=value` line before the header is metadata, for
    parse_sequence and serialize_sequence alike: the key is non-empty
    without '=', and neither holds whitespace of any kind."""
    return bool(key) and "=" not in key and not any(c.isspace() for c in key + value)


def serialize_sequence(seq: OperationSequence) -> str:
    """Render the line-oriented text form (ASCII, LF line ends).

    Layout: `# key=value` metadata comments (sorted), a `n <n> source <s>`
    header with an optional `lenient=1` token, one `i <u> <v>` line per
    initial edge, then one line per operation (`a <u> <v>`, `d <u> <v>`,
    `q <t>`).  Raises ValueError on metadata that parse_sequence would not
    read back.
    """
    for k, v in seq.metadata.items():
        if not _is_metadata(k, v):
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


_EDGE_KINDS = frozenset(("i", ADD, REMOVE))

#: The one spelling of a vertex id, `n` and `source`: a canonical ASCII
#: decimal, without sign, leading zero, `_` or other digits int would take.
_is_decimal = re.compile(r"0|[1-9][0-9]*").fullmatch


def parse_sequence(text: str) -> OperationSequence:
    """Read serialize_sequence's text form back.

    Blank lines are skipped and lines whose first token starts with `#` are
    comments; before the header, a `# key=value` comment is metadata when
    _is_metadata holds, and a plain comment otherwise.  Tokens may be
    separated by any whitespace and lines may end in CRLF.  Raises
    SequenceFormatError naming the line (counted from 1, comments and
    blanks included) and quoting it stripped.

    Every vertex id, and the header's source, is read through one table
    per parse, {str(i): i for i in range(n)}: a token that is not a key is
    out of range when it is a canonical decimal and malformed otherwise.
    So each id has one spelling, and every endpoint and target of the
    result is the one int object the table holds for its vertex, not a
    fresh int per token.  The table holds n strings during the parse and
    is freed afterwards, the same order as the DiGraph(n) each replay of
    the sequence allocates.
    """
    metadata: dict[str, str] = {}
    numbered = enumerate(text.splitlines(), start=1)
    for lineno, raw in numbered:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            k, eq, v = line[1:].strip().partition("=")
            if eq and _is_metadata(k, v):
                metadata[k] = v
            continue
        tokens = line.split()
        if len(tokens) not in (4, 5) or tokens[0] != "n" or tokens[2] != "source":
            raise SequenceFormatError(
                f"line {lineno}: expected header 'n <n> source <s>', got {line!r}")
        if not (_is_decimal(tokens[1]) and _is_decimal(tokens[3])):
            raise SequenceFormatError(f"line {lineno}: malformed header {line!r}")
        n = int(tokens[1])
        lenient = False
        if len(tokens) == 5:
            if tokens[4] not in ("lenient=0", "lenient=1"):
                raise SequenceFormatError(f"line {lineno}: bad header token {tokens[4]!r}")
            lenient = tokens[4] == "lenient=1"
        ids = {str(i): i for i in range(n)}
        source = ids.get(tokens[3])
        if source is None:
            raise SequenceFormatError(f"line {lineno}: invalid n/source in {line!r}")
        break
    else:
        raise SequenceFormatError("missing header line")
    initial: list[tuple[int, int]] = []
    ops: list[Operation] = []
    new = tuple.__new__
    vertex = ids.get
    # each line is split once (which also strips it); the stripped line is
    # rebuilt only to quote it in an error
    for lineno, raw in numbered:
        tokens = raw.split()
        width = len(tokens)
        if width == 3 and tokens[0] in _EDGE_KINDS:
            kind, a, b = tokens
            u = vertex(a)
            v = vertex(b)
            if u is None or v is None:
                raise _unknown_ids(lineno, raw, tokens[1:], "endpoint")
            if kind != "i":
                ops.append(new(Operation, (kind, u, v)))
            elif ops:
                raise SequenceFormatError(f"line {lineno}: initial edge after first operation")
            else:
                initial.append((u, v))
        elif width == 2 and tokens[0] == QUERY:
            t = vertex(tokens[1])
            if t is None:
                raise _unknown_ids(lineno, raw, tokens[1:], "query target")
            ops.append(new(Operation, (QUERY, t, -1)))
        elif width and tokens[0][0] != "#":
            raise _malformed(lineno, raw)
    return OperationSequence(n, source, initial, ops, lenient, metadata)


def _unknown_ids(lineno: int, raw: str, tokens: list[str], what: str) -> SequenceFormatError:
    """The error for a line whose id tokens are not all vertex ids: out of
    range when every one is a canonical decimal, malformed otherwise."""
    if all(map(_is_decimal, tokens)):
        return SequenceFormatError(f"line {lineno}: {what} out of range in {raw.strip()!r}")
    return _malformed(lineno, raw)


def _malformed(lineno: int, raw: str) -> SequenceFormatError:
    return SequenceFormatError(f"line {lineno}: malformed line {raw.strip()!r}")


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


class MeasurementRecord(tuple):
    """Per-operation costs; op_index is -1 for the initialize record.

    A plain 7-tuple (op_index, kind, wall_time_ns, vertices_visited,
    edges_scanned, queue_pops, recomputations) whose fields also read by
    name.  MeasurementRecord(row) builds one from its row tuple in tuple's
    own C constructor, about half the cost of a NamedTuple's Python-level
    __new__.  The fields are the C getters NamedTuple itself uses
    (collections._tuplegetter), which read as fast as an index and faster
    than property(itemgetter(i)).
    """

    __slots__ = ()
    op_index = _tuplegetter(0, "op index, -1 for initialize")
    kind = _tuplegetter(1, "operation kind")
    wall_time_ns = _tuplegetter(2, "routine wall time (ns)")
    vertices_visited = _tuplegetter(3, "counter delta")
    edges_scanned = _tuplegetter(4, "counter delta")
    queue_pops = _tuplegetter(5, "counter delta")
    recomputations = _tuplegetter(6, "counter delta")


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


def oracle_levels(graph: DiGraph, source: int) -> list[int]:
    """BFS distances from source; unreachable vertices get n.  The one
    reference BFS, independent of the algorithms."""
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


def oracle_reach_set(graph: DiGraph, source: int) -> bytearray:
    """Reachability from source: 1 for each vertex oracle_levels puts
    below n, else 0."""
    return bytearray(map(graph.vertex_count.__gt__, oracle_levels(graph, source)))


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
           answers: list[bool], edge_sums: list[int],
           deadline: float | None = None) -> Iterator[MeasurementRecord]:
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
    next op.  When the steps run out, or the deadline stops them, the sum
    over all steps of the live edge count after the step is appended to
    edge_sums.
    """
    add_edge, pop_edge = g.add_edge, g.pop_edge
    clock = time.perf_counter_ns
    live = edge_sum = g.edge_count
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
    yield MeasurementRecord((-1, INIT, t1 - t0, cv - pv, ce - pe, cq - pq, cr - pr))
    inserted, deleted, query = alg.edge_inserted, alg.edge_deleted, alg.query
    lenient = seq.lenient
    for i, op in enumerate(seq.ops):
        if deadline is not None and time.perf_counter() > deadline:
            break
        kind, u, v = op
        pv = cv
        pe = ce
        pq = cq
        pr = cr
        if kind == ADD:
            e = add_edge(u, v)
            live += 1
            t0 = clock()
            inserted(u, v, e)
            t1 = clock()
        elif kind == REMOVE:
            e = pop_edge(u, v)
            if e is not None:
                live -= 1
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
        edge_sum += live
        cv = counters.vertices_visited
        ce = counters.edges_scanned
        cq = counters.queue_pops
        cr = counters.recomputations
        yield MeasurementRecord((i, kind, t1 - t0, cv - pv, ce - pe, cq - pq, cr - pr))
    edge_sums.append(edge_sum)


def replay(seq: OperationSequence, factory: AlgorithmFactory, *,
           timeout: float | None = None) -> ReplayResult:
    """Drive a fresh algorithm instance through seq, recording each
    routine's time and work.

    Only a sequence flagged lenient may remove an edge that is not live;
    such a removal is skipped and recorded with zero work, and in any other
    sequence it raises ReplayError.  A timeout (seconds) aborts between
    operations, flags the result timed_out, and keeps partial records;
    it must be >= 0 (nan is a ValueError).
    """
    if timeout is not None and not timeout >= 0:
        raise ValueError(f"timeout must be >= 0 seconds, got {timeout}")
    deadline = None if timeout is None else time.perf_counter() + timeout
    g = DiGraph.from_edges(seq.n, seq.initial_edges)
    counters = WorkCounters()
    alg = factory(g, seq.source, counters)
    answers: list[bool] = []
    edge_sums: list[int] = []
    records = list(_steps(seq, g, alg, counters, answers, edge_sums, deadline))
    timed_out = len(records) <= len(seq.ops)
    return ReplayResult(records, answers, alg, timed_out, edge_sums[0] / len(records))


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
    for rec in _steps(seq, g, alg, counters, answers, []):
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
