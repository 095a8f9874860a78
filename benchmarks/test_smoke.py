"""Smoke test of the benchmark at toy sizes: every metric listed in
BENCHMARK.json prints with its unit, no operation fails, the counters repeat
exactly, and a wrong answer or a missing program fails the run.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def _results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "OUT", tmp_path)


def _main(capsys, workload: str, trace: int, seed: int = 1):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace)], sizes=workloads.TOY)
    out = capsys.readouterr().out.splitlines()
    return rc, out, json.loads(out[-1])


def test_workloads_match_the_code():
    assert WORKLOADS == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    rc, out, line = _main(capsys, workload, trace)
    assert rc == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    table = {row.split()[0]: row.split()[1:3] for row in out if row.startswith("  ")}
    for m in listed:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]][1] == m["unit"]
        if not trace:
            assert line["metrics"][m["name"]]["value"] > 0
    assert table["failed_op_share"] == ["0.000000", "ratio"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    first = measure.run_workload(workload, 2, 0, False, workloads.TOY)
    again = measure.run_workload(workload, 2, 0, True, workloads.TOY)
    other = measure.run_workload(workload, 3, 0, False, workloads.TOY)
    assert first["problems"] == again["problems"] == []
    assert first["counters"] == again["counters"]
    assert first["counters"] != other["counters"]


def test_a_wrong_answer_fails_the_run(capsys, monkeypatch):
    registry = workloads.algorithm_registry

    def broken(spec):
        factory = registry(spec)
        if spec != "ses:5:.5":
            return factory

        def make(g, s, c):
            alg = factory(g, s, c)
            alg.query = lambda t: False
            return alg
        return make

    monkeypatch.setattr(workloads, "algorithm_registry", broken)
    rc, out, line = _main(capsys, "er-updates", 0)
    assert rc == 1
    assert not line["correct"] and line["failed"] > 0
    assert any("ses:5:.5" in row and "FAIL" in row for row in out)


def test_no_program_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
