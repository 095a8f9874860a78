"""Benchmark harness: algorithm config strings, timed replays with
per-aggregate medians, and deterministic CSV output."""

from __future__ import annotations

import csv
import gc
import io
import math
import re
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .core import (ADD, INIT, QUERY, REMOVE, AlgorithmFactory, OperationSequence,
                   ReplayResult, replay)
from .level_tree import EvenShiloachTree, MultiLevelEsTree, SimplifiedEsTree
from .reach_tree import IncrementalReachTree
from .static_search import (CachingBfs, CachingDfs, LazyBfs, LazyDfs,
                            StaticBfs, StaticDfs)


def _plain(pattern: str, convert: Callable[[str], float]) -> Callable[[str], float]:
    """A converter that takes only tokens matching pattern in full, so each
    value has one spelling (no sign, space, `_`, exponent or non-ASCII
    digit that int or float would also take)."""
    match = re.compile(pattern).fullmatch

    def parse(token: str) -> float:
        if match(token) is None:
            raise ValueError(token)
        return convert(token)

    return parse


#: A parameter: its constructor keyword and the converter that parses its
#: token.  Converters only parse; each constructor checks its own values.
_BETA = ("beta", _plain(r"[0-9]+|inf", lambda token: math.inf if token == "inf" else int(token)))
_RATIO = ("ratio", _plain(r"[0-9]+\.?[0-9]*|\.[0-9]+|inf", float))

#: Config-string head -> (class, its parameters in token order).
_FAMILIES = {
    "sbfs": (StaticBfs, ()),
    "sdfs": (StaticDfs, ()),
    "cbfs": (CachingBfs, ()),
    "cdfs": (CachingDfs, ()),
    "lbfs": (LazyBfs, ()),
    "ldfs": (LazyDfs, ()),
    "si": (IncrementalReachTree, (("reverse_order", {"r": True, "nr": False}.__getitem__),
                                  ("forward_search", {"sf": True, "nsf": False}.__getitem__),
                                  _RATIO)),
    "es": (EvenShiloachTree, (_BETA, _RATIO)),
    "mes": (MultiLevelEsTree, (_BETA, _RATIO)),
    "ses": (SimplifiedEsTree, (_BETA, _RATIO)),
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


def algorithm_registry(spec: str) -> AlgorithmFactory:
    """Resolve a config string to a factory producing fresh instances.

    The factory is built once on no graph, `factory(None, 0, None)`, so the
    constructor's own checks reject a bad value here; this relies on the
    SsrAlgorithm contract that constructors do not read the graph."""
    head, *tokens = spec.strip().lower().split(":")
    cls, params = _FAMILIES.get(head, (None, ()))
    if cls is None or len(tokens) != len(params):
        raise AlgorithmSpecError(f"bad spec {spec!r}; valid forms: {_FORMS}")
    kwargs = {}
    for (name, convert), token in zip(params, tokens):
        try:
            kwargs[name] = convert(token)
        except (KeyError, ValueError):
            raise AlgorithmSpecError(
                f"bad {name} {token!r} in {spec!r}; valid forms: {_FORMS}") from None
    factory = partial(cls, **kwargs)
    try:
        factory(None, 0, None)
    except ValueError as exc:
        raise AlgorithmSpecError(f"{exc} in {spec!r}; valid forms: {_FORMS}") from None
    return factory


class RunAggregate(NamedTuple):
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
    """One CSV row: the columns are the fields in order.  A cell is written
    by its field's type (floats to three places, flags as 0/1) unless the
    field's metadata names a format."""

    instance: str
    algorithm: str
    n: int
    d_avg: float = field(metadata={"format": "{:.6f}".format})
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


_CELL = {"str": str, "int": str, "float": "{:.3f}".format,
         "bool": lambda flag: "1" if flag else "0"}
_COLUMNS = [(f.name, f.metadata.get("format", _CELL[f.type]))
            for f in fields(AggregateRow)]
CSV_COLUMNS = tuple(name for name, _ in _COLUMNS)


def aggregate_replay(result: ReplayResult) -> RunAggregate:
    ns = dict.fromkeys((INIT, ADD, REMOVE, QUERY), 0)
    for rec in result.records:
        ns[rec.kind] += rec.wall_time_ns
    return RunAggregate(*ns.values(), *result.algorithm.counters.snapshot(),
                        result.mean_edges, result.timed_out)


def median_aggregate(samples: list[RunAggregate]) -> RunAggregate:
    """Field-wise medians; timed_out is sticky across runs."""
    *columns, timed_out = zip(*samples)
    return RunAggregate(*map(statistics.median, columns), any(timed_out))


def run_benchmark(sequence: OperationSequence, algorithm: str, instance: str | Path,
                  runs: int = 3, timeout: float | None = None) -> AggregateRow:
    """Replay the sequence `runs` times on fresh instances of the
    `algorithm` config and report per-aggregate medians in a row labelled
    `instance`.  A run that exceeds the timeout (seconds) stops early and
    flags the row instead of raising.

    The collector is paused while the runs replay, so no collection lands
    on a timed routine; it collects what the previous run left before each
    run instead, and is back in its prior state however the runs end."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if timeout is not None and not timeout >= 0:
        raise ValueError(f"timeout must be >= 0 seconds, got {timeout}")
    factory = algorithm_registry(algorithm)
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            gc.collect()
            samples.append(aggregate_replay(replay(sequence, factory, timeout=timeout)))
    finally:
        if enabled:
            gc.enable()
    med = median_aggregate(samples)
    return AggregateRow(
        instance=str(instance),
        algorithm=algorithm,
        n=sequence.n,
        d_avg=med.live_edge_mean / sequence.n,
        sigma=len(sequence.ops),
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


def render_csv(rows: list[AggregateRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([fmt(getattr(row, name)) for name, fmt in _COLUMNS] for row in rows)
    return buf.getvalue()
