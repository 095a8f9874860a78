"""Measurement of one workload run: set-ups, the oracle gate, the timed
passes, and the end-to-end and per-layer metrics computed from them.

Import this only after run.load_program() has put the checkout's src/ on
the path.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import workloads as wl
from tracing import GcWatch, Tracer

OUT = Path(__file__).resolve().parent.parent / ".bench_out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "op/s",
    "update_s": "s",
    "query_s": "s",
    "update_us_p99": "us",
    "query_us_p99": "us",
    "peak_rss_mb": "MB",
}

#: configs whose per-layer numbers are published: their union over the
#: workloads
LAYER_CONFIGS = ("cbfs", "lbfs", "si:nR:SF:.5", "es:5:.5", "mes:5:.5", "ses:5:.5")
CONFIG_METRICS = ("init_s", "update_s", "query_s", "update_us_p50", "update_us_p99",
                  "query_us_p50", "query_us_p99", "edges_scanned",
                  "vertices_visited", "queue_pops", "recomputations",
                  "rebuild_share")
COUNTER_NAMES = ("vertices_visited", "edges_scanned", "queue_pops", "recomputations")


def per_layer_names() -> list[str]:
    names = ["graph.build_s", "graph.apply_s", "graph.bytes_per_edge",
             "core.serialize_s", "core.parse_s", "core.engine_s", "core.timer_ns",
             "core.oracle_s"]
    names += [f"{wl.metric_prefix(cfg)}.{m}" for cfg in LAYER_CONFIGS for m in CONFIG_METRICS]
    names += ["generators.er_s", "generators.kron_s", "generators.inject_s",
              "ingest.snapshots_s", "bench.aggregate_s", "runtime.gc_collections",
              "runtime.gc_pause_s", "trace.overhead_s"]
    return names


def layer_unit(name: str) -> str:
    if name.endswith(("_us_p50", "_us_p99")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("timer_ns"):
        return "ns"
    if name.endswith("bytes_per_edge"):
        return "B"
    if name.endswith("rebuild_share"):
        return "ratio"
    return "count"


def timer_cost_ns(pairs: int = 100_000, repeats: int = 5) -> float:
    """Calibrated cost of one perf_counter_ns() pair, loop overhead removed."""
    pc = time.perf_counter_ns
    costs = []
    for _ in range(repeats):
        t0 = pc()
        for _ in range(pairs):
            pc()
            pc()
        t1 = pc()
        for _ in range(pairs):
            pass
        t2 = pc()
        costs.append(((t1 - t0) - (t2 - t1)) / pairs)
    return statistics.median(costs)


def environment(workload: str, seed: int, trace: bool, timer_ns: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "pinning": "set-ups and passes take turns on the usable CPUs",
        "gc": {"threshold": list(gc.get_threshold()),
               "timed_parts": "collector paused, then one timed gc.collect(0)",
               "untimed": "gc.collect() after each set-up and before each pass",
               "fixtures": "frozen with gc.freeze() before the passes"},
        "timer_ns": timer_ns,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, gate and measure one workload; returns the full result.

    The run repeats whole set-ups for sizes.setup_min_s and at least
    sizes.setups times, then whole passes until `seconds` have passed since
    it started, and at least sizes.passes times.  Set-ups and passes take
    turns on the CPUs the process may use (see _on_cpu)."""
    start = time.perf_counter()
    sizes = sizes or wl.FULL
    OUT.mkdir(exist_ok=True)
    untraced = Tracer(False)
    tracer = Tracer(trace)
    timer_ns = timer_cost_ns()

    problems: list[str] = []
    cpus = sorted(os.sched_getaffinity(0))
    setup_parts, setup_totals, first_texts = [], [], None
    setup_start = time.perf_counter()
    while (len(setup_parts) < sizes.setups
           or time.perf_counter() - setup_start < sizes.setup_min_s):
        _on_cpu(cpus, len(setup_parts))
        mark = len(tracer.spans)
        setup = wl.set_up(workload, seed, sizes, tracer, OUT)
        gc.collect()  # what the set-up left in the older generations, untimed
        setup_totals.append(tracer.totals(mark))
        setup_parts.append(setup.part_ns)
        if first_texts is None:
            first_texts = setup.texts
        elif setup.texts != first_texts:
            problems.append("set-ups from one seed produced different sequences")
    cases = setup.cases
    del setup, first_texts

    mark = len(tracer.spans)
    wl.oracle_gate(cases, tracer)
    oracle_totals = tracer.totals(mark)

    gc.collect()
    gc.freeze()
    passes, traced = [], []
    best: wl.BestTimes = {}
    best_traced: wl.BestTimes = {}
    watch = GcWatch()
    with watch.installed():
        while (len(passes) + len(traced) < sizes.passes
               or time.perf_counter() - start < seconds):
            _on_cpu(cpus, len(passes))
            passes.append(wl.run_pass(workload, cases, untraced, watch, best))
            if trace:
                mark = len(tracer.spans)
                traced.append((wl.run_pass(workload, cases, tracer, watch, best_traced),
                               tracer.totals(mark)))
    gc.unfreeze()
    os.sched_setaffinity(0, cpus)
    every = passes + [p for p, _ in traced]

    counters = {key: unit.counters for key, unit in every[0].units.items()}
    for p in every[1:]:
        for key, unit in p.units.items():
            if unit.counters != counters.get(key):
                problems.append(f"{key[0]} on {key[1]}: counters differ between "
                                f"repeats of seed {seed}")
    for p in every:
        problems += p.failures
    per_config = {}
    for (cfg, _), c in counters.items():
        row = per_config.setdefault(cfg, dict.fromkeys(COUNTER_NAMES, 0))
        for name, value in zip(COUNTER_NAMES, c):
            row[name] += value

    result = {
        "env": environment(workload, seed, trace, timer_ns),
        "passes": {"measured": len(passes), "traced": len(traced),
                   "wall_s": [p.wall_ns / 1e9 for p in passes],
                   "setup_s": [sum(parts) / 1e9 for parts in setup_parts],
                   "gc_collections": [p.gc_collections for p in passes],
                   "gc_pause_s": [p.gc_pause_ns / 1e9 for p in passes],
                   "run_s": {f"{cfg} on {label}": [p.units[cfg, label].run_ns / 1e9
                                                   for p in passes if (cfg, label) in p.units]
                             for cfg, label in passes[0].units}},
        "elapsed_s": time.perf_counter() - start,
        "attempted": sum(p.attempted for p in every),
        "failed": sum(p.failed for p in every),
        "problems": sorted(set(problems)),
        "samples": {kind: sum(len(ts) for (_, _, k), ts in best.items() if k == kind)
                    for kind in ("update", "query")},
        "counters": per_config,
        "counters_per_case": {f"{cfg} on {label}": dict(zip(COUNTER_NAMES, c))
                              for (cfg, label), c in counters.items()},
        "end_to_end": _end_to_end(passes, setup_parts, best),
    }
    if trace:
        result["per_layer"] = _per_layer(
            cases, passes, traced, best_traced, setup_totals, oracle_totals, timer_ns,
            per_config)
        tracer.write(OUT / f"{workload}-seed{seed}.spans.json")
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="ascii")
    return result


def _on_cpu(cpus: list[int], turn: int) -> None:
    """Pin this process to one of `cpus`, taking turns.  On a shared VM one
    virtual CPU can run 1.5 times slower than the other for minutes at a
    time, and a process tends to stay where it started; taking turns lets
    each part's best time come from a CPU that was not held back."""
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


def _best(passes, part, cfg: str | None = None) -> float:
    """Sum over the units (of one config, or of all) of each unit's best
    (lowest) value of part(unit) over the passes."""
    return sum(min(part(p.units[key]) for p in passes if key in p.units)
               for key in passes[0].units if cfg in (None, key[0]))


def _pct_us(best: wl.BestTimes, kind: str, qs=(99,), cfg: str | None = None) -> list[float]:
    """Percentiles of the routine calls' best times over the passes, pooled
    over the cases and over the configs (or of one config)."""
    values = sorted(t for (c, _, k), ts in best.items() if k == kind and cfg in (None, c)
                    for t in ts)
    return [wl.percentile(values, q / 100) / 1e3 for q in qs]


def _end_to_end(passes, setup_parts, best: wl.BestTimes) -> dict[str, float]:
    """Each time is a sum over the parts of a pass (each config on each
    case, with the collection after it, and the CSV rendering) of that
    part's best time over the passes: a slow spell of the machine costs only
    the samples it hits, and a part is timed as the machine runs it when
    nothing else gets in the way.  The same holds for setup_s over the
    set-ups, whose parts workloads.set_up times, and for the p99s, which
    are taken over each routine call's best time."""
    rest_ns = min(p.rest_ns for p in passes)
    loop_ns = _best(passes, lambda u: u.loop_ns)
    return {
        "wall_s": (_best(passes, lambda u: u.run_ns + u.gc_ns) + rest_ns) / 1e9,
        "setup_s": sum(min(col) for col in zip(*setup_parts)) / 1e9,
        "ops_per_s": passes[0].ops / (loop_ns / 1e9),
        "update_s": _best(passes, lambda u: u.update_ns) / 1e9,
        "query_s": _best(passes, lambda u: u.query_ns) / 1e9,
        "update_us_p99": _pct_us(best, "update")[0],
        "query_us_p99": _pct_us(best, "query")[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(cases, passes, traced, best: wl.BestTimes, setup_totals, oracle_totals,
               timer_ns, per_config) -> dict[str, float]:
    tpasses = [p for p, _ in traced]

    def span_s(totals_list, *names) -> float:
        return min(sum(ns for (name, _), ns in t.items() if name in names)
                   for t in totals_list) / 1e9

    def wall_ns(ps) -> float:
        return _best(ps, lambda u: u.run_ns + u.gc_ns) + min(p.rest_ns for p in ps)

    deletions = sum(1 for c in cases for op in c.seq.ops if op.kind == wl.REMOVE)
    queries = sum(1 for c in cases for op in c.seq.ops if op.kind == wl.QUERY)
    out = {
        "graph.build_s": span_s(setup_totals, "graph.build"),
        "graph.apply_s": min(wl.graph_apply_ns(cases) for _ in range(3)) / 1e9,
        "graph.bytes_per_edge": wl.graph_bytes_per_edge(cases[0]),
        "core.serialize_s": span_s(setup_totals, "core.serialize_sequence"),
        "core.parse_s": span_s(setup_totals, "core.parse_sequence"),
        "core.engine_s": _best(tpasses, lambda u: u.loop_ns - u.update_ns - u.query_ns) / 1e9,
        "core.timer_ns": timer_ns,
        "core.oracle_s": sum(oracle_totals.values()) / 1e9,
        "generators.er_s": span_s(setup_totals, "generators.gen_er_instance"),
        "generators.kron_s": span_s(setup_totals, "generators.gen_kronecker_snapshot"),
        "generators.inject_s": span_s(setup_totals, "generators.inject_queries"),
        "ingest.snapshots_s": span_s(setup_totals, "ingest.ingest_snapshots"),
        "bench.aggregate_s": span_s([t for _, t in traced], "bench.aggregate_replay",
                                    "bench.render_csv"),
        "runtime.gc_collections": min(p.gc_collections for p in tpasses),
        "runtime.gc_pause_s": min(p.gc_pause_ns for p in tpasses) / 1e9,
        "trace.overhead_s": (wall_ns(tpasses) - wall_ns(passes)) / 1e9,
    }
    for cfg, totals in per_config.items():
        pre = wl.metric_prefix(cfg)
        out[f"{pre}.init_s"] = _best(tpasses, lambda u: u.init_ns, cfg) / 1e9
        out[f"{pre}.update_s"] = _best(tpasses, lambda u: u.update_ns, cfg) / 1e9
        out[f"{pre}.query_s"] = _best(tpasses, lambda u: u.query_ns, cfg) / 1e9
        for kind in ("update", "query"):
            p50, p99 = _pct_us(best, kind, (50, 99), cfg)
            out[f"{pre}.{kind}_us_p50"], out[f"{pre}.{kind}_us_p99"] = p50, p99
        for name, value in totals.items():
            out[f"{pre}.{name}"] = value
        base = queries if wl.layer_of(cfg) == "static_search" else deletions
        out[f"{pre}.rebuild_share"] = totals["recomputations"] / base if base else 0.0
    return out
