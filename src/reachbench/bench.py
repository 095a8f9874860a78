"""Benchmark harness: algorithm config strings, timed replays with
per-aggregate medians, and deterministic CSV output."""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from .core import (ADD, QUERY, REMOVE, AlgorithmFactory, OperationSequence,
                   ReplayResult, load_sequence, replay)
from .level_tree import EvenShiloachTree, MultiLevelEsTree, SimplifiedEsTree
from .reach_tree import IncrementalReachTree
from .static_search import (CachingBfs, CachingDfs, LazyBfs, LazyDfs,
                            StaticBfs, StaticDfs)

_STATIC = {
    "sbfs": StaticBfs,
    "sdfs": StaticDfs,
    "cbfs": CachingBfs,
    "cdfs": CachingDfs,
    "lbfs": LazyBfs,
    "ldfs": LazyDfs,
}

_ES_FAMILY = {
    "es": EvenShiloachTree,
    "mes": MultiLevelEsTree,
    "ses": SimplifiedEsTree,
}

#: The configurations every cross-checking test sweeps: the six dynamized
#: static searches, the reach-tree grid (both forward-search settings, three
#: rebuild thresholds), and the three level trees at (beta=5, ratio=0.5).
CANONICAL_SPECS = (
    "sbfs", "sdfs", "cbfs", "cdfs", "lbfs", "ldfs",
    "si:nR:SF:.25", "si:nR:SF:.5", "si:nR:SF:1", "si:nR:nSF:.25",
    "es:5:.5", "mes:5:.5", "ses:5:.5",
)

_FORMS = ("sbfs|sdfs|cbfs|cdfs|lbfs|ldfs, si:<R|nR>:<SF|nSF>:<ratio>, "
          "or es|mes|ses:<beta|inf>:<ratio|inf>")


class AlgorithmSpecError(ValueError):
    pass


def _parse_float(token: str, spec: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise AlgorithmSpecError(f"bad number {token!r} in {spec!r}; valid forms: {_FORMS}") from None


def algorithm_registry(spec: str) -> AlgorithmFactory:
    """Resolve a config string to a factory producing fresh instances."""
    parts = spec.strip().lower().split(":")
    head = parts[0]
    if head in _STATIC:
        if len(parts) != 1:
            raise AlgorithmSpecError(f"{head} takes no parameters; valid forms: {_FORMS}")
        cls = _STATIC[head]
        return lambda g, s, c: cls(g, s, c)
    if head == "si":
        if len(parts) != 4 or parts[1] not in ("r", "nr") or parts[2] not in ("sf", "nsf"):
            raise AlgorithmSpecError(f"bad spec {spec!r}; valid forms: {_FORMS}")
        reverse = parts[1] == "r"
        forward = parts[2] == "sf"
        ratio = _parse_float(parts[3], spec)
        if not 0.0 <= ratio <= 1.0:
            raise AlgorithmSpecError(f"ratio must be in [0, 1] in {spec!r}")
        return lambda g, s, c: IncrementalReachTree(
            g, s, c, reverse_order=reverse, forward_search=forward, ratio=ratio)
    if head in _ES_FAMILY:
        if len(parts) != 3:
            raise AlgorithmSpecError(f"bad spec {spec!r}; valid forms: {_FORMS}")
        if parts[1] == "inf":
            beta = math.inf
        else:
            try:
                beta = int(parts[1])
            except ValueError:
                raise AlgorithmSpecError(
                    f"beta must be an integer or inf in {spec!r}") from None
            if beta < 1:
                raise AlgorithmSpecError(f"beta must be >= 1 in {spec!r}")
        ratio = math.inf if parts[2] == "inf" else _parse_float(parts[2], spec)
        if not ratio >= 0:
            raise AlgorithmSpecError(f"ratio must be >= 0 in {spec!r}")
        cls = _ES_FAMILY[head]
        return lambda g, s, c: cls(g, s, c, beta=beta, ratio=ratio)
    raise AlgorithmSpecError(f"unknown algorithm spec {spec!r}; valid forms: {_FORMS}")


@dataclass(frozen=True)
class RunConfig:
    instance: str | Path
    algorithm: str
    runs: int = 3
    timeout: float | None = None
    mode: str = "auto"  # auto: strict unless the sequence is flagged lenient

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.timeout is not None and not self.timeout >= 0:
            raise ValueError(f"timeout must be >= 0 seconds, got {self.timeout}")
        if self.mode not in ("auto", "strict", "lenient"):
            raise ValueError(f"mode must be auto, strict, or lenient, got {self.mode!r}")


@dataclass(frozen=True)
class RunAggregate:
    """Totals of a single replay, before the across-runs median."""

    init_ns: float
    ins_ns: float
    del_ns: float
    qry_ns: float
    vertices_visited: float
    edges_scanned: float
    queue_pops: float
    recomputations: float
    live_edge_mean: float
    timed_out: bool


@dataclass(frozen=True)
class AggregateRow:
    instance: str
    algorithm: str
    n: int
    d_avg: float
    sigma: int
    init_us: float
    ins_us: float
    del_us: float
    upd_us: float
    qry_us: float
    vertices_visited: int
    edges_scanned: int
    queue_pops: int
    recomputations: int
    timed_out: bool


def aggregate_replay(result: ReplayResult) -> RunAggregate:
    init_ns = ins_ns = del_ns = qry_ns = 0
    for rec in result.records:
        if rec.kind == ADD:
            ins_ns += rec.wall_time_ns
        elif rec.kind == REMOVE:
            del_ns += rec.wall_time_ns
        elif rec.kind == QUERY:
            qry_ns += rec.wall_time_ns
        else:
            init_ns += rec.wall_time_ns
    c = result.algorithm.counters
    return RunAggregate(init_ns, ins_ns, del_ns, qry_ns,
                        c.vertices_visited, c.edges_scanned,
                        c.queue_pops, c.recomputations,
                        result.mean_edges, result.timed_out)


def median_aggregate(samples: list[RunAggregate]) -> RunAggregate:
    """Field-wise medians; timed_out is sticky across runs."""
    med = statistics.median
    return RunAggregate(
        init_ns=med(s.init_ns for s in samples),
        ins_ns=med(s.ins_ns for s in samples),
        del_ns=med(s.del_ns for s in samples),
        qry_ns=med(s.qry_ns for s in samples),
        vertices_visited=med(s.vertices_visited for s in samples),
        edges_scanned=med(s.edges_scanned for s in samples),
        queue_pops=med(s.queue_pops for s in samples),
        recomputations=med(s.recomputations for s in samples),
        live_edge_mean=med(s.live_edge_mean for s in samples),
        timed_out=any(s.timed_out for s in samples),
    )


def strict_for_mode(mode: str) -> bool | None:
    """Map a run/verify mode to replay's strict argument (None: the
    sequence's own flag)."""
    if mode == "strict":
        return True
    if mode == "lenient":
        return False
    return None


def run_benchmark(cfg: RunConfig, sequence: OperationSequence | None = None) -> AggregateRow:
    """Replay the instance `runs` times on fresh algorithm instances and
    report per-aggregate medians.  A run that exceeds the timeout stops
    early and flags the row instead of raising."""
    seq = load_sequence(cfg.instance) if sequence is None else sequence
    factory = algorithm_registry(cfg.algorithm)
    strict = strict_for_mode(cfg.mode)
    samples = [aggregate_replay(replay(seq, factory, strict=strict, timeout=cfg.timeout))
               for _ in range(cfg.runs)]
    med = median_aggregate(samples)
    return AggregateRow(
        instance=str(cfg.instance),
        algorithm=cfg.algorithm,
        n=seq.n,
        d_avg=med.live_edge_mean / seq.n if seq.n else 0.0,
        sigma=len(seq.ops),
        init_us=med.init_ns / 1000.0,
        ins_us=med.ins_ns / 1000.0,
        del_us=med.del_ns / 1000.0,
        upd_us=(med.ins_ns + med.del_ns) / 1000.0,
        qry_us=med.qry_ns / 1000.0,
        vertices_visited=int(round(med.vertices_visited)),
        edges_scanned=int(round(med.edges_scanned)),
        queue_pops=int(round(med.queue_pops)),
        recomputations=int(round(med.recomputations)),
        timed_out=med.timed_out,
    )


CSV_COLUMNS = ("instance", "algorithm", "n", "d_avg", "sigma",
               "init_us", "ins_us", "del_us", "upd_us", "qry_us",
               "vertices_visited", "edges_scanned", "queue_pops",
               "recomputations", "timed_out")


def _format_row(row: AggregateRow) -> list[str]:
    return [
        row.instance,
        row.algorithm,
        str(row.n),
        f"{row.d_avg:.6f}",
        str(row.sigma),
        f"{row.init_us:.3f}",
        f"{row.ins_us:.3f}",
        f"{row.del_us:.3f}",
        f"{row.upd_us:.3f}",
        f"{row.qry_us:.3f}",
        str(row.vertices_visited),
        str(row.edges_scanned),
        str(row.queue_pops),
        str(row.recomputations),
        "1" if row.timed_out else "0",
    ]


def render_csv(rows: list[AggregateRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(_format_row(row))
    return buf.getvalue()


def emit_csv(rows: list[AggregateRow], path: str | Path) -> None:
    Path(path).write_text(render_csv(rows), encoding="ascii")
