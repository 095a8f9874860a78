"""Config-string registry, aggregation, CSV output, and the CLI verbs."""

import dataclasses
import math
from pathlib import Path

import pytest

from reachbench.bench import (
    CANONICAL_SPECS,
    AggregateRow,
    AlgorithmSpecError,
    RunAggregate,
    RunConfig,
    algorithm_registry,
    emit_csv,
    median_aggregate,
    render_csv,
    run_benchmark,
)
from reachbench.cli import main
from reachbench.core import (
    Divergence,
    Operation,
    OperationSequence,
    WorkCounters,
    save_sequence,
)
from reachbench.generators import ErSpec, gen_er_instance
from reachbench.graph import DiGraph
from reachbench.level_tree import SimplifiedEsTree
from reachbench.reach_tree import IncrementalReachTree


def build(spec, n=1):
    return algorithm_registry(spec)(DiGraph(n), 0, WorkCounters())


def test_canonical_specs_all_resolve():
    assert len(CANONICAL_SPECS) == 13
    for spec in CANONICAL_SPECS:
        assert callable(algorithm_registry(spec))


def test_registry_is_case_insensitive():
    alg = build(" SES:5:.5 ")
    assert isinstance(alg, SimplifiedEsTree)
    assert alg.beta == 5 and alg.ratio == 0.5
    assert isinstance(build("Si:nR:SF:0.25"), IncrementalReachTree)


def test_registry_parses_parameters():
    alg = build("es:inf:inf")
    assert alg.beta == math.inf and alg.ratio == math.inf
    si = build("si:R:nSF:1")
    assert si.reverse_order and not si.forward_search and si.ratio == 1.0
    assert build("sbfs").name == "sbfs"


@pytest.mark.parametrize("spec", [
    "bogus",
    "sbfs:1",
    "si:x:SF:.5",
    "si:nR:SF:2",
    "si:nR:SF:abc",
    "si:nR:SF",
    "es:0:.5",
    "es:5",
    "es:5:-1",
    "es:two:.5",
    "es:5:nan",
    "mes:inf:nan",
    "ses:1:NaN",
])
def test_registry_rejects_malformed_specs(spec):
    with pytest.raises(AlgorithmSpecError, match="valid forms|must be"):
        algorithm_registry(spec)


def sample(init_ns=0.0, timed_out=False):
    return RunAggregate(init_ns, 0, 0, 0, 0, 0, 0, 0, 0.0, timed_out)


def test_median_picks_middle_value_regardless_of_order():
    runs = [sample(5.0), sample(1.0), sample(9.0)]
    assert median_aggregate(runs).init_ns == 5.0
    assert median_aggregate(list(reversed(runs))).init_ns == 5.0


def test_timed_out_is_sticky_across_runs():
    runs = [sample(), sample(timed_out=True), sample()]
    assert median_aggregate(runs).timed_out


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(instance="x", algorithm="sbfs", runs=0)
    with pytest.raises(ValueError):
        RunConfig(instance="x", algorithm="sbfs", mode="fast")
    with pytest.raises(ValueError):
        RunConfig(instance="x", algorithm="sbfs", timeout=-1.0)


def test_run_benchmark_single_run(tmp_path):
    seq = gen_er_instance(ErSpec(n=25, d=1.2, sigma=90, seed=4))
    path = tmp_path / "inst.txt"
    save_sequence(seq, path)
    row = run_benchmark(RunConfig(instance=path, algorithm="ses:5:.5", runs=1))
    assert row.n == 25
    assert row.sigma == 90
    assert row.algorithm == "ses:5:.5"
    assert row.d_avg > 0
    assert not row.timed_out
    assert isinstance(row.edges_scanned, int)


def test_run_benchmark_counters_are_reproducible():
    seq = gen_er_instance(ErSpec(n=25, d=1.2, sigma=90, seed=4))
    cfg = RunConfig(instance="mem", algorithm="mes:5:.5", runs=3)
    a = run_benchmark(cfg, sequence=seq)
    b = run_benchmark(cfg, sequence=seq)
    keys = ("n", "d_avg", "sigma", "vertices_visited", "edges_scanned",
            "queue_pops", "recomputations", "timed_out")
    assert [getattr(a, k) for k in keys] == [getattr(b, k) for k in keys]


HEADER = ("instance,algorithm,n,d_avg,sigma,init_us,ins_us,del_us,upd_us,"
          "qry_us,vertices_visited,edges_scanned,queue_pops,recomputations,"
          "timed_out")


def test_csv_of_no_rows_is_just_the_header():
    assert render_csv([]) == HEADER + "\n"


def test_csv_formatting():
    row = AggregateRow(instance="a.txt", algorithm="es:5:.5", n=10, d_avg=1.5,
                       sigma=20, init_us=1.0, ins_us=2.25, del_us=0.125,
                       upd_us=2.375, qry_us=0.0, vertices_visited=7,
                       edges_scanned=9, queue_pops=3, recomputations=1,
                       timed_out=True)
    text = render_csv([row, row])
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0] == HEADER
    assert lines[1] == ("a.txt,es:5:.5,10,1.500000,20,1.000,2.250,0.125,2.375,"
                        "0.000,7,9,3,1,1")


def test_csv_emission_is_byte_identical(tmp_path):
    seq = gen_er_instance(ErSpec(n=20, d=1.0, sigma=60, seed=8))
    row = run_benchmark(RunConfig(instance="m", algorithm="cbfs", runs=1),
                        sequence=seq)
    scrubbed = dataclasses.replace(row, init_us=0.0, ins_us=0.0, del_us=0.0,
                                   upd_us=0.0, qry_us=0.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv([scrubbed], p1)
    emit_csv([scrubbed], p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


# ---- CLI ----


@pytest.fixture
def er_instance(tmp_path):
    spec = tmp_path / "er.spec"
    spec.write_text("kind=er n=40 d=2 sigma=60 seed=5\n", encoding="ascii")
    out = tmp_path / "er.seq"
    assert main(["generate", "--spec", str(spec), "--output", str(out)]) == 0
    return out


def test_generate_reports_and_writes(er_instance, capsys, tmp_path):
    again = tmp_path / "again.seq"
    spec = tmp_path / "er.spec"
    assert main(["generate", "--spec", str(spec), "--output", str(again)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {again}: n=40 source=0 initial=80 ops=60" in out
    assert again.read_bytes() == er_instance.read_bytes()


def test_generate_kron_growing(tmp_path, capsys):
    spec = tmp_path / "k.spec"
    spec.write_text("kind=kron i00=0.9 i01=0.5 i10=0.5 i11=0.1 kmin=3 kmax=5 seed=2\n",
                    encoding="ascii")
    out = tmp_path / "k.seq"
    assert main(["generate", "--spec", str(spec), "--output", str(out)]) == 0
    assert "n=32" in capsys.readouterr().out


def test_generate_shuffle_and_query_injection(tmp_path):
    spec = tmp_path / "er.spec"
    spec.write_text("kind=er n=10 d=1 sigma=20 seed=1 pi=0.5 pd=0.5 pq=0\n",
                    encoding="ascii")
    out = tmp_path / "s.seq"
    assert main(["generate", "--spec", str(spec), "--output", str(out),
                 "--shuffle-seed", "3", "--inject-queries", "15",
                 "--query-seed", "2", "--query-batch", "5"]) == 0
    from reachbench.core import QUERY, load_sequence

    seq = load_sequence(out)
    assert seq.lenient
    assert sum(op.kind == QUERY for op in seq.ops) == 15
    assert len(seq.ops) == 35


@pytest.mark.parametrize("content,fragment", [
    ("", "empty"),
    ("kind=er n=10 d=1\n", "requires sigma="),
    ("kind=er n=10 n=20 d=1 sigma=5\n", "duplicate"),
    ("kind=er n=10 d=1 sigma=5 magic=7\n", "unknown er spec key"),
    ("kind=xyz n=10\n", "kind must be er or kron"),
    ("kind=er n=ten d=1 sigma=5\n", "bad value"),
    ("kind=er n=10 d=1 sigma=5 pi=nan\n", "kind proportions"),
    ("kind=er n=10 d=inf sigma=5\n", "d must be finite"),
    ("kind=er n 10\n", "expected key=value"),
    ("kind=kron i00=0.9 i01=0.5 i10=0.5 i11=0.1\n", "requires either"),
    ("kind=kron i00=0.9 i01=0.5 i10=0.5 i11=0.1 k=3 kmin=2\n", "requires either"),
])
def test_generate_rejects_bad_spec_files(tmp_path, capsys, content, fragment):
    spec = tmp_path / "bad.spec"
    spec.write_text(content, encoding="ascii")
    assert main(["generate", "--spec", str(spec),
                 "--output", str(tmp_path / "x.seq")]) == 1
    assert fragment in capsys.readouterr().err


def test_ingest_temporal_cli_matches_golden(tmp_path, capsys):
    data = Path(__file__).parent / "data"
    out = tmp_path / "toy.seq"
    assert main(["ingest", "--format", "temporal",
                 "--input", str(data / "toy_temporal.txt"),
                 "--output", str(out)]) == 0
    assert out.read_bytes() == (data / "toy_temporal_golden.txt").read_bytes()
    assert "'1'" in capsys.readouterr().out


def test_ingest_snapshots_cli(tmp_path, capsys):
    data = Path(__file__).parent / "data"
    out = tmp_path / "snaps.seq"
    code = main(["ingest", "--format", "snapshots",
                 "--input", str(data / "snap_a.txt"),
                 "--input", str(data / "snap_b.txt"),
                 "--input", str(data / "snap_c.txt"),
                 "--output", str(out), "--seed", "3"])
    assert code == 0
    assert "'A'" in capsys.readouterr().out
    assert main(["ingest", "--format", "snapshots",
                 "--input", str(data / "snap_a.txt"),
                 "--output", str(tmp_path / "y.seq")]) == 1


def test_run_writes_csv(er_instance, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = main(["run", "--instance", str(er_instance),
                 "--algorithm", "sbfs", "--algorithm", "ses:5:.5",
                 "--runs", "1", "--output", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text(encoding="ascii").splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "sbfs"
    assert lines[2].split(",")[1] == "ses:5:.5"


def test_run_defaults_to_stdout(er_instance, capsys):
    assert main(["run", "--instance", str(er_instance),
                 "--algorithm", "cbfs", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(HEADER)
    assert len(out.splitlines()) == 2


def test_run_rejects_unknown_algorithm(er_instance, capsys):
    assert main(["run", "--instance", str(er_instance),
                 "--algorithm", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_verify_divergence_exits_2(er_instance, capsys, monkeypatch):
    import reachbench.cli as cli

    monkeypatch.setattr(cli, "verify_against_oracle",
                        lambda seq, factory, strict=None: Divergence(3, 1, True, False))
    code = main(["run", "--instance", str(er_instance),
                 "--algorithm", "sbfs", "--verify"])
    assert code == 2
    err = capsys.readouterr().err
    assert "verification failed for sbfs at op 3" in err


def test_run_fail_on_timeout_exits_3(er_instance, capsys):
    code = main(["run", "--instance", str(er_instance),
                 "--algorithm", "sbfs", "--runs", "1",
                 "--timeout", "0", "--fail-on-timeout"])
    assert code == 3
    assert capsys.readouterr().out.splitlines()[1].endswith(",1")


@pytest.mark.parametrize("timeout", ["-1", "-0.5", "nan", "soon"])
def test_run_rejects_bad_timeout_at_parse_time(tmp_path, capsys, timeout):
    # the instance does not exist: rejection must come before it is read
    assert main(["run", "--instance", str(tmp_path / "absent.seq"),
                 "--algorithm", "sbfs", "--timeout", timeout]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--timeout" in captured.err


def test_run_missing_instance_exits_1(tmp_path, capsys):
    assert main(["run", "--instance", str(tmp_path / "absent.seq"),
                 "--algorithm", "sbfs"]) == 1


def test_strict_mode_rejects_lenient_stream(tmp_path, capsys):
    seq = OperationSequence(n=2, source=0, ops=[Operation.remove(0, 1)],
                            lenient=True)
    path = tmp_path / "lenient.seq"
    save_sequence(seq, path)
    assert main(["run", "--instance", str(path), "--algorithm", "sbfs",
                 "--mode", "strict"]) == 1
    assert "replay error" in capsys.readouterr().err
    assert main(["run", "--instance", str(path), "--algorithm", "sbfs"]) == 0


def test_verify_sweeps_canonical_set(tmp_path, capsys):
    seq = gen_er_instance(ErSpec(n=12, d=1.0, sigma=40, seed=3))
    path = tmp_path / "v.seq"
    save_sequence(seq, path)
    assert main(["verify", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 13
    assert main(["verify", "--instance", str(path),
                 "--algorithm", "es:5:.5", "--algorithm", "lbfs"]) == 0
    assert capsys.readouterr().out.count("PASS ") == 2


def test_verify_reports_failures(tmp_path, capsys, monkeypatch):
    import reachbench.cli as cli

    seq = gen_er_instance(ErSpec(n=12, d=1.0, sigma=40, seed=3))
    path = tmp_path / "v.seq"
    save_sequence(seq, path)
    monkeypatch.setattr(cli, "verify_against_oracle",
                        lambda seq, factory, strict=None: Divergence(7, 2, False, True))
    code = main(["verify", "--instance", str(path), "--algorithm", "sbfs"])
    assert code == 2
    assert "FAIL sbfs: op 7, vertex 2, got False, oracle says True" in capsys.readouterr().out


def test_unknown_verb_exits_1(capsys):
    assert main(["explode"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert main([]) == 1
