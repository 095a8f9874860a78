"""Seeded workloads: fixtures built through the program's generators and
ingest, the BFS-oracle answer gate, and the timed passes.

Every input is generated here from the workload seed; the program only sees
those generated sequences, after a serialize -> parse round trip.  See
README.md in this directory for why each workload and config list was
chosen.

Each timed part runs with the garbage collector paused and ends with a
timed collection of what it allocated, so a part pays for its own cyclic
garbage and no collection triggered by an allocation count lands on an
unrelated operation.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import tempfile
import time
import tracemalloc
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from reachbench import (ADD, QUERY, REMOVE, AggregateRow, DiGraph, ErSpec,
                        OperationSequence, ReplayError, WorkCounters,
                        algorithm_registry, gen_er_instance,
                        gen_kronecker_snapshot, ingest_snapshots,
                        inject_queries, oracle_reach_set, parse_sequence,
                        render_csv, replay, serialize_sequence)
from reachbench.bench import aggregate_replay

from tracing import GcWatch, Tracer

ER_CONFIGS = ("si:nR:SF:.5", "es:5:.5", "mes:5:.5", "ses:5:.5")
KRON_CONFIGS = ("cbfs", "lbfs", "si:nR:SF:.5", "mes:5:.5", "ses:5:.5")
KRON_INITIATOR = ((0.9, 0.5), (0.5, 0.1))

#: workload name -> configs replayed
WORKLOADS = {
    "er-updates": ER_CONFIGS,
    "kron-stream": KRON_CONFIGS,
}

_STATIC_HEADS = {"sbfs", "sdfs", "cbfs", "cdfs", "lbfs", "ldfs"}


@dataclass(frozen=True)
class Sizes:
    er_n: int = 1_000
    er_d: float = 5.0
    er_sigma: int = 2_000
    er_instances: int = 24
    kron_k: tuple[int, int] = (10, 12)
    # set-ups per run: at least this many, and for at least this long
    setups: int = 4
    setup_min_s: float = 2.0
    passes: int = 4  # at least; more while --seconds last


FULL = Sizes()
TOY = Sizes(er_n=300, er_sigma=600, er_instances=2, kron_k=(5, 7), setups=2,
            setup_min_s=0.0, passes=2)


def layer_of(cfg: str) -> str:
    head = cfg.split(":")[0]
    if head in _STATIC_HEADS:
        return "static_search"
    return "reach_tree" if head == "si" else "level_tree"


def metric_prefix(cfg: str) -> str:
    """`level_tree.es-5-.5` for `es:5:.5`."""
    return f"{layer_of(cfg)}.{cfg.replace(':', '-')}"


def timed(fn, *args):
    """Run fn(*args) with the collector paused, then collect the youngest
    generation, which holds every container object fn made: the cost of
    the collection follows what fn allocated, not the size of the heap.

    Returns (result, run_ns, gc_ns)."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        result = fn(*args)
        t1 = time.perf_counter_ns()
    finally:
        gc.enable()
    gc.collect(0)
    return result, t1 - t0, time.perf_counter_ns() - t1


# ---- set-up ----


@dataclass
class Case:
    label: str
    seq: OperationSequence
    expected: list[bool] = field(default_factory=list)


def _reach_count(seq: OperationSequence) -> int:
    """Vertices the source reaches in the initial graph (plain BFS over an
    adjacency list, so the instance filter costs no graph build)."""
    adj: list[list[int]] = [[] for _ in range(seq.n)]
    for u, v in seq.initial_edges:
        adj[u].append(v)
    seen = bytearray(seq.n)
    seen[seq.source] = 1
    queue = deque([seq.source])
    while queue:
        for w in adj[queue.popleft()]:
            if not seen[w]:
                seen[w] = 1
                queue.append(w)
    return sum(seen)


def _er_draw(rng: random.Random, sizes: Sizes,
             tracer: Tracer) -> tuple[str, OperationSequence]:
    # An instance whose source starts out reaching under half the vertices
    # gives every config almost nothing to do (ER at d=2.5 with seed 0
    # reaches nothing), and one such draw moves a seed's cost; it is
    # replaced by the next seed drawn from the same stream.
    while True:
        spec = ErSpec(sizes.er_n, sizes.er_d, sizes.er_sigma, seed=rng.randrange(2 ** 31))
        with tracer.span("generators.gen_er_instance", f"seed={spec.seed}"):
            seq = gen_er_instance(spec)
        if 2 * _reach_count(seq) >= seq.n:
            return f"er-{spec.seed}", seq


def _kron_sequence(seed: int, sizes: Sizes, tracer: Tracer,
                   scratch: Path) -> tuple[str, OperationSequence]:
    rng = random.Random(seed)
    ks = range(sizes.kron_k[0], sizes.kron_k[1] + 1)
    snap_seeds = [rng.randrange(2 ** 62) for _ in ks]
    diff_seed = rng.randrange(2 ** 62)
    query_seed = rng.randrange(2 ** 62)
    folder = Path(tempfile.mkdtemp(prefix="kron-", dir=scratch))
    try:
        paths = []
        for k, s in zip(ks, snap_seeds):
            with tracer.span("generators.gen_kronecker_snapshot", f"k={k}"):
                edges = gen_kronecker_snapshot(KRON_INITIATOR, k, s)
            path = folder / f"snapshot-k{k}.txt"
            path.write_text("".join(f"{u} {v} -1\n" for u, v in sorted(edges)),
                            encoding="ascii")
            paths.append(path)
        with tracer.span("ingest.ingest_snapshots"):
            seq, _ = ingest_snapshots(paths, seed=diff_seed)
    finally:
        shutil.rmtree(folder)
    with tracer.span("generators.inject_queries"):
        seq = inject_queries(seq, len(seq.ops), query_seed, batch=10)
    return f"kron-{seed}", seq


def build_graph(seq: OperationSequence) -> DiGraph:
    g = DiGraph(seq.n)
    for u, v in seq.initial_edges:
        g.add_edge(u, v)
    return g


@dataclass
class SetupResult:
    cases: list[Case]
    texts: list[str]
    # per timed part (an instance's generation, its text round trip, one
    # config's graph build plus initialize), its collection included
    part_ns: list[int]


def set_up(workload: str, seed: int, sizes: Sizes, tracer: Tracer,
           scratch: Path) -> SetupResult:
    """Everything before the first operation: for each instance, generate
    or ingest it, the text round trip, then a graph build plus initialize()
    for each config."""
    configs = WORKLOADS[workload]
    rng = random.Random(seed)
    if workload == "er-updates":
        draws = [lambda: _er_draw(rng, sizes, tracer)] * sizes.er_instances
    else:
        draws = [lambda: _kron_sequence(seed, sizes, tracer, scratch)]
    out = SetupResult([], [], [])

    def part(fn, *args):
        result, run_ns, gc_ns = timed(fn, *args)
        out.part_ns.append(run_ns + gc_ns)
        return result

    with tracer.span("benchmark.setup"):
        for draw in draws:
            label, seq = part(draw)
            text, case = part(_round_trip, label, seq, tracer)
            out.cases.append(case)
            out.texts.append(text)
            for cfg in configs:
                part(_initialize, cfg, case, tracer)
    return out


def _round_trip(label: str, seq: OperationSequence, tracer: Tracer) -> tuple[str, Case]:
    with tracer.span("core.serialize_sequence", label):
        text = serialize_sequence(seq)
    with tracer.span("core.parse_sequence", label):
        return text, Case(label, parse_sequence(text))


def _initialize(cfg: str, case: Case, tracer: Tracer) -> None:
    with tracer.span("graph.build", case.label):
        g = build_graph(case.seq)
    with tracer.span(f"{layer_of(cfg)}.initialize", cfg):
        algorithm_registry(cfg)(g, case.seq.source, WorkCounters()).initialize()


def oracle_gate(cases: list[Case], tracer: Tracer) -> None:
    """Fill each case's expected query answers from the BFS oracle, one BFS
    per run of consecutive queries."""
    for case in cases:
        seq = case.seq
        g = build_graph(seq)
        reach = None
        expected = []
        for op in seq.ops:
            if op.kind == QUERY:
                if reach is None:
                    with tracer.span("core.oracle_reach_set", case.label):
                        reach = oracle_reach_set(g, seq.source)
                expected.append(bool(reach[op.u]))
                continue
            if op.kind == ADD:
                g.add_edge(op.u, op.v)
            else:
                g.remove_edge(g.find_edge(op.u, op.v))
            reach = None
        case.expected = expected


# ---- timed passes ----


#: (config, case label, "update"/"query") -> each routine call's best time
#: in ns over the passes so far, in call order
BestTimes = dict[tuple[str, str, str], array]


@dataclass
class Unit:
    """One replay of one config over one case."""

    run_ns: int     # the replay() call
    gc_ns: int      # the collection after it
    init_ns: int
    loop_ns: int    # the call after initialize() returned: the operation loop
    update_ns: int
    query_ns: int
    counters: tuple[int, int, int, int]


@dataclass
class PassResult:
    units: dict[tuple[str, str], Unit] = field(default_factory=dict)  # (config, case label)
    rest_ns: int = 0  # render_csv over the pass's rows
    ops: int = 0      # operations replayed
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    gc_collections: int = 0
    gc_pause_ns: int = 0

    @property
    def wall_ns(self) -> int:
        return sum(u.run_ns + u.gc_ns for u in self.units.values()) + self.rest_ns


def _aggregate_row(label: str, cfg: str, seq: OperationSequence, result) -> AggregateRow:
    agg = aggregate_replay(result)
    return AggregateRow(
        instance=label, algorithm=cfg, n=seq.n, d_avg=agg.live_edge_mean / seq.n,
        sigma=len(seq.ops), init_us=agg.init_ns / 1000, ins_us=agg.ins_ns / 1000,
        del_us=agg.del_ns / 1000, upd_us=(agg.ins_ns + agg.del_ns) / 1000,
        qry_us=agg.qry_ns / 1000, vertices_visited=agg.vertices_visited,
        edges_scanned=agg.edges_scanned, queue_pops=agg.queue_pops,
        recomputations=agg.recomputations, timed_out=agg.timed_out)


def run_pass(workload: str, cases: list[Case], tracer: Tracer, watch: GcWatch,
             best: BestTimes) -> PassResult:
    """One workload run: a replay of every config over every case, each a
    timed part, checked against the oracle answers and aggregated into CSV
    rows.  `watch` must be installed; it gives the pass's collections and
    their pause time.  Each routine call's time is folded into `best` after
    its part."""
    out = PassResult()
    gc.collect()  # what earlier passes left in the older generations, untimed
    gc_before = (watch.collections, watch.pause_ns)
    with tracer.span("benchmark.pass"):
        rows: list[AggregateRow] = []
        for cfg in WORKLOADS[workload]:
            factory = algorithm_registry(cfg)
            for case in cases:
                ops = len(case.seq.ops)
                out.attempted += ops
                (unit, times), _, gc_ns = timed(_replay_part, cfg, factory, case, tracer,
                                                out, rows)
                if unit is None:
                    continue
                unit.gc_ns = gc_ns
                out.ops += ops
                out.units[cfg, case.label] = unit
                for kind, ts in times.items():
                    key = (cfg, case.label, kind)
                    old = best.get(key)
                    best[key] = ts if old is None else array("q", map(min, old, ts))
        with tracer.span("bench.render_csv"):
            _, run_ns, gc_ns = timed(render_csv, rows)
        out.rest_ns = run_ns + gc_ns
    out.gc_collections = watch.collections - gc_before[0]
    out.gc_pause_ns = watch.pause_ns - gc_before[1]
    return out


class _LoopClock:
    """Wraps a factory.  Each algorithm it makes is handed to replay()
    behind a stand-in that notes when initialize() returns, which is where
    the operation loop starts.  The stand-in refers to the algorithm and
    not the other way round, so a finished replay is freed by reference
    counting, as it is without it."""

    def __init__(self, factory) -> None:
        self.factory = factory
        self.loop_start = 0

    def __call__(self, g, source, counters):
        return _StandIn(self.factory(g, source, counters), self)


class _StandIn:
    def __init__(self, alg, clock: _LoopClock) -> None:
        self._alg = alg
        self._clock = clock
        self.edge_inserted, self.edge_deleted, self.query = (
            alg.edge_inserted, alg.edge_deleted, alg.query)

    def initialize(self) -> None:
        self._alg.initialize()
        self._clock.loop_start = time.perf_counter_ns()

    def __getattr__(self, name):
        return getattr(self._alg, name)


def _replay_part(cfg, factory, case: Case, tracer: Tracer, out: PassResult, rows):
    clock = _LoopClock(factory)
    try:
        a = time.perf_counter_ns()
        with tracer.span("core.replay", cfg):
            result = replay(case.seq, clock)
        end = time.perf_counter_ns()
    except ReplayError as exc:
        out.failed += len(case.seq.ops)
        out.failures.append(f"{cfg} on {case.label}: {exc}")
        return None, {}
    wrong = sum(1 for got, want in zip(result.answers, case.expected) if got != want)
    wrong += abs(len(result.answers) - len(case.expected))
    if wrong:
        out.failed += wrong
        out.failures.append(f"{cfg} on {case.label}: {wrong} answers differ from the oracle")
    with tracer.span("bench.aggregate_replay", cfg):
        rows.append(_aggregate_row(case.label, cfg, case.seq, result))
    recs = result.records
    upd = array("q", (r.wall_time_ns for r in recs[1:] if r.kind != QUERY))
    qry = array("q", (r.wall_time_ns for r in recs[1:] if r.kind == QUERY))
    unit = Unit(end - a, 0, recs[0].wall_time_ns, end - clock.loop_start,
                sum(upd), sum(qry), result.algorithm.counters.snapshot())
    return unit, {"update": upd, "query": qry}


# ---- layer probes (traced runs only) ----


def graph_apply_ns(cases: list[Case]) -> int:
    """The sequences' updates applied straight to the graph, no algorithm."""
    total = 0
    for case in cases:
        g = build_graph(case.seq)
        add, find, remove = g.add_edge, g.find_edge, g.remove_edge
        a = time.perf_counter_ns()
        for op in case.seq.ops:
            if op.kind == ADD:
                add(op.u, op.v)
            elif op.kind == REMOVE:
                remove(find(op.u, op.v))
        total += time.perf_counter_ns() - a
    return total


def graph_bytes_per_edge(case: Case) -> float:
    """Heap bytes the initial edges add to an empty DiGraph, per edge."""
    tracemalloc.start()
    try:
        g = DiGraph(case.seq.n)
        base = tracemalloc.get_traced_memory()[0]
        for u, v in case.seq.initial_edges:
            g.add_edge(u, v)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / max(1, len(case.seq.initial_edges))


# ---- statistics ----


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a sorted sequence; 0 if empty."""
    if not values:
        return 0.0
    rank = min(len(values), max(1, math.ceil(q * len(values))))
    return float(values[rank - 1])
