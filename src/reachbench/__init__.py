"""Fully dynamic single-source reachability: a directed multigraph substrate,
dynamized static searches, reachability- and level-tree algorithms, seeded
instance generators, real-world stream ingestion, and a benchmark harness.

The package root exports what the README and the benchmark use; everything
else is imported from its submodule."""

from .bench import AggregateRow, algorithm_registry, render_csv
from .core import (ADD, QUERY, REMOVE, OperationSequence, ReplayError,
                   WorkCounters, iterate_replay, oracle_reach_set,
                   parse_sequence, replay, serialize_sequence,
                   verify_against_oracle)
from .generators import (ErSpec, gen_er_instance, gen_kronecker_snapshot,
                         inject_queries)
from .graph import DiGraph
from .ingest import ingest_snapshots

__version__ = "0.1.0"

__all__ = [
    "ADD", "QUERY", "REMOVE",
    "AggregateRow", "DiGraph", "ErSpec", "OperationSequence", "ReplayError",
    "WorkCounters", "algorithm_registry", "gen_er_instance",
    "gen_kronecker_snapshot", "ingest_snapshots", "inject_queries",
    "iterate_replay", "oracle_reach_set", "parse_sequence", "render_csv",
    "replay", "serialize_sequence", "verify_against_oracle",
]
