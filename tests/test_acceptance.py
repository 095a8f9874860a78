"""Release gates. Every test prints one CRITERION line (visible under -rA)
so a run doubles as the acceptance report.

Criterion 4 is measured honestly and two of its three trend directions do
not hold on this implementation at the pinned sizes: five of its twelve
density gates (c@d=2.5, c@d=5.0, b@d=10.0, b@d=20.0, c@d=20.0) fall below
8/10.  The test states the expectation exactly and is allowed to fail
rather than being loosened.
"""

import time

import pytest

from reachbench.bench import CANONICAL_SPECS, RunConfig, algorithm_registry, render_csv, run_benchmark
from reachbench.core import (
    ADD,
    QUERY,
    REMOVE,
    Operation,
    OperationSequence,
    iterate_replay,
    oracle_levels,
    replay,
    serialize_sequence,
    verify_against_oracle,
)
from reachbench.generators import (
    ErSpec,
    KroneckerSpec,
    gen_er_instance,
    gen_kronecker_instance,
    gen_kronecker_snapshot,
)
from reachbench.ingest import events_to_sequence, ingest_snapshots, parse_temporal_stream

from pathlib import Path

DATA = Path(__file__).parent / "data"

CORPUS_SEEDS = 100
CORPUS_SHAPE = dict(n=64, d=2.0, sigma=512)


@pytest.fixture(scope="module")
def corpus():
    return [gen_er_instance(ErSpec(seed=s, **CORPUS_SHAPE))
            for s in range(CORPUS_SEEDS)]


def report(num, name, ok, detail):
    print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    bad = []
    for spec in CANONICAL_SPECS:
        factory = algorithm_registry(spec)
        for seed, seq in enumerate(corpus):
            div = verify_against_oracle(seq, factory)
            if div is not None:
                bad.append((spec, seed, div))
    took = time.perf_counter() - t0
    detail = (f"{len(CANONICAL_SPECS)} configs x {len(corpus)} seeds, "
              f"divergences={len(bad)}, {took:.0f}s")
    if bad:
        detail += f", first={bad[0]}"
    report(1, "oracle equivalence", not bad, detail)
    assert not bad


def test_criterion_2_level_exactness(corpus):
    mismatches = []
    checked = 0
    for spec in ("es:5:.5", "mes:5:.5", "ses:5:.5"):
        factory = algorithm_registry(spec)
        for seed, seq in enumerate(corpus[:50]):
            for i, op, g, alg, _ans in iterate_replay(seq, factory):
                if op is not None and op.kind == QUERY:
                    continue
                checked += 1
                if alg.levels() != oracle_levels(g, seq.source):
                    mismatches.append((spec, seed, i))
    report(2, "level exactness", not mismatches,
           f"3 variants x 50 seeds, {checked} post-update sweeps, "
           f"mismatches={len(mismatches)}")
    assert not mismatches


def per_deletion(seq, result):
    """Yield (record, live_edge_count_after_the_removal) for every deletion."""
    m = len(seq.initial_edges)
    for op, rec in zip(seq.ops, result.records[1:]):
        if op.kind == ADD:
            m += 1
        elif op.kind == REMOVE:
            m -= 1
            yield rec, m


def test_criterion_3a_rebuild_threshold_zero_is_linear(corpus):
    factory = algorithm_registry("si:nR:SF:0")
    worst = 0.0
    deletions = 0
    for seq in corpus:
        result = replay(seq, factory)
        for rec, m in per_deletion(seq, result):
            deletions += 1
            work = rec.vertices_visited + rec.edges_scanned
            worst = max(worst, work / (2 * (seq.n + m)))
    ok = worst <= 1.0
    report("3a", "reach tree at ratio 0 stays within 2(n+m)", ok,
           f"{deletions} deletions, worst work/bound={worst:.3f}")
    assert ok


def test_criterion_3b_ses_deletion_budget(corpus):
    factory = algorithm_registry("ses:5:.5")
    worst = 0.0
    worst_enqueues = 0
    deletions = 0
    for seq in corpus:
        result = replay(seq, factory)
        for rec, m in per_deletion(seq, result):
            deletions += 1
            worst = max(worst, rec.edges_scanned / (7 * (seq.n + m)))
    for seq in corpus:
        for _i, op, _g, alg, _ans in iterate_replay(seq, factory):
            if op is not None and op.kind == REMOVE:
                worst_enqueues = max(worst_enqueues,
                                     alg.last_deletion_stats.max_enqueues)
    ok = worst <= 1.0 and worst_enqueues <= 5
    report("3b", "ses deletion budget", ok,
           f"{deletions} deletions, worst edges_scanned/7(n+m)={worst:.3f}, "
           f"max re-insertions of one vertex={worst_enqueues}")
    assert ok


def test_criterion_3c_cached_and_lazy_updates_are_free(corpus):
    dirty = []
    for spec in ("cbfs", "cdfs", "lbfs", "ldfs"):
        factory = algorithm_registry(spec)
        for seed, seq in enumerate(corpus):
            result = replay(seq, factory)
            for rec in result.records[1:]:
                if rec.kind == QUERY:
                    continue
                if (rec.vertices_visited or rec.edges_scanned
                        or rec.queue_pops or rec.recomputations):
                    dirty.append((spec, seed, rec.op_index))
    report("3c", "cached and lazy updates do zero traversal work", not dirty,
           f"4 variants x {CORPUS_SEEDS} seeds, nonzero update records={len(dirty)}")
    assert not dirty


def kind_totals(result):
    ins_es = del_es = ins_ns = del_ns = 0
    for r in result.records:
        if r.kind == ADD:
            ins_es += r.edges_scanned
            ins_ns += r.wall_time_ns
        elif r.kind == REMOVE:
            del_es += r.edges_scanned
            del_ns += r.wall_time_ns
    return ins_es, del_es, ins_ns, del_ns


def share(deletion, insertion):
    total = deletion + insertion
    return deletion / total if total else 0.0


def test_criterion_4_update_cost_trends():
    """Insertion-cheap tree vs deletion-cheap level structure at desk scale.

    Gates per density (10 seeds, >= 8 must hold): (a) si insertion work below
    ses, (b) ses deletion work below si, (c) deletion share of update work
    >= 70% for ses and >= 90% for si.  edges_scanned is the gated metric;
    wall time is printed as an advisory.  Known shortfall: (b) flips at
    d in {10, 20} where a replacement edge is almost always adjacent, and
    (c) undershoots for ses on several seeds at this instance size.
    """
    si = algorithm_registry("si:nR:SF:.25")
    ses = algorithm_registry("ses:5:.5")
    t0 = time.perf_counter()
    lines = []
    failed_gates = []
    for d in (2.5, 5.0, 10.0, 20.0):
        tally = {k: 0 for k in ("a", "b", "c", "aw", "bw", "cw")}
        for seed in range(10):
            seq = gen_er_instance(ErSpec(n=10_000, d=d, sigma=10_000, seed=seed))
            r_si = replay(seq, si)
            r_ses = replay(seq, ses)
            si_i, si_d, si_ins_ns, si_del_ns = kind_totals(r_si)
            ses_i, ses_d, ses_ins_ns, ses_del_ns = kind_totals(r_ses)
            tally["a"] += si_i < ses_i
            tally["b"] += ses_d < si_d
            tally["c"] += (share(ses_d, ses_i) >= 0.70
                           and share(si_d, si_i) >= 0.90)
            tally["aw"] += si_ins_ns < ses_ins_ns
            tally["bw"] += ses_del_ns < si_del_ns
            tally["cw"] += (share(ses_del_ns, ses_ins_ns) >= 0.70
                            and share(si_del_ns, si_ins_ns) >= 0.90)
        lines.append(
            f"  d={d:<4} counters: a={tally['a']}/10 b={tally['b']}/10 "
            f"c={tally['c']}/10   wall advisory: a={tally['aw']}/10 "
            f"b={tally['bw']}/10 c={tally['cw']}/10")
        for gate in ("a", "b", "c"):
            if tally[gate] < 8:
                failed_gates.append(f"{gate}@d={d}")
    took = time.perf_counter() - t0
    report(4, "update cost trends", not failed_gates,
           f"{took:.0f}s, gates below 8/10: {failed_gates or 'none'}")
    for line in lines:
        print(line)
    assert not failed_gates, failed_gates


def crafted_wide_cut_instance():
    """A path feeding a dense blob: deleting the first path edge orphans
    nearly every vertex, so the subtree collection hits any fractional
    rebuild threshold while an unbounded search pays for the full blob."""
    path_len, blob = 256, 767
    first = path_len + 1
    n = first + blob
    edges = [(i, i + 1) for i in range(path_len)]
    edges.append((path_len, first))
    for j in range(blob):
        for off in (1, 3, 7, 19):
            edges.append((first + j, first + (j + off) % blob))
    return OperationSequence(n=n, source=0, initial_edges=edges,
                             ops=[Operation.remove(0, 1)])


def test_criterion_5_rebuild_threshold_controls_outliers():
    seq = crafted_wide_cut_instance()
    unbounded = replay(seq, algorithm_registry("si:nR:SF:1")).records[1]
    bounded = replay(seq, algorithm_registry("si:nR:SF:.25")).records[1]
    assert unbounded.recomputations == 0
    assert bounded.recomputations == 1
    factor = unbounded.edges_scanned / bounded.edges_scanned
    ok = factor >= 5.0
    report(5, "rebuild threshold controls outliers", ok,
           f"edges_scanned {unbounded.edges_scanned} vs "
           f"{bounded.edges_scanned}, factor={factor:.1f} (need >= 5)")
    assert ok


def test_criterion_6_temporal_ingestion_golden():
    events = parse_temporal_stream((DATA / "toy_temporal.txt").read_text("ascii"))
    seq, _labels = events_to_sequence(events)
    got = serialize_sequence(seq)
    want = (DATA / "toy_temporal_golden.txt").read_text("ascii")
    report(6, "temporal ingestion golden file", got == want,
           f"{len(got)} bytes, match={got == want}")
    assert got == want


def test_criterion_7_kronecker_edge_count():
    initiator = ((0.9, 0.5), (0.5, 0.1))
    counts = []
    for seed in range(50):
        snap = gen_kronecker_snapshot(initiator, 8, seed)
        assert all(0 <= u < 256 and 0 <= v < 256 for u, v in snap)
        counts.append(len(snap))
    mean = sum(counts) / len(counts)
    seq = gen_kronecker_instance(KroneckerSpec.constant(initiator, 8, 2, seed=0))
    ok = abs(mean - 256.0) <= 25.6 and seq.n == 256
    report(7, "kronecker edge count", ok,
           f"mean={mean:.1f} over 50 seeds (target 256 +- 25.6), n={seq.n}")
    assert seq.n == 256
    assert abs(mean - 256.0) <= 25.6


def test_criterion_8_determinism(tmp_path):
    er = ErSpec(n=50, d=2.0, sigma=300, seed=9)
    gen_twice = [serialize_sequence(gen_er_instance(er)) for _ in range(2)]
    kron_spec = KroneckerSpec.growing(((0.9, 0.5), (0.5, 0.1)), 3, 5, seed=4)
    kron_twice = [serialize_sequence(gen_kronecker_instance(kron_spec))
                  for _ in range(2)]
    snap_paths = [DATA / p for p in ("snap_a.txt", "snap_b.txt", "snap_c.txt")]
    ingest_twice = [serialize_sequence(ingest_snapshots(snap_paths, seed=7)[0])
                    for _ in range(2)]

    seq = gen_er_instance(er)
    cfg = RunConfig(instance="mem", algorithm="es:5:.5", runs=2)
    csv_twice = []
    for _ in range(2):
        row = run_benchmark(cfg, sequence=seq)
        cells = render_csv([row]).splitlines()[1].split(",")
        csv_twice.append([cells[i] for i in (2, 3, 4, 10, 11, 12, 13, 14)])

    ok = (gen_twice[0] == gen_twice[1] and kron_twice[0] == kron_twice[1]
          and ingest_twice[0] == ingest_twice[1]
          and csv_twice[0] == csv_twice[1])
    report(8, "determinism", ok,
           f"generate/ingest byte-identical, counter columns {csv_twice[0]}")
    assert gen_twice[0] == gen_twice[1]
    assert kron_twice[0] == kron_twice[1]
    assert ingest_twice[0] == ingest_twice[1]
    assert csv_twice[0] == csv_twice[1]
