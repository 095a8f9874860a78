"""reachbench benchmark: seeded workloads replayed through the library's public
functions, every answer checked against the BFS oracle.

    python3 benchmarks/run.py --workload er-updates --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 60 --trace 0

The program is imported from `src/` of the checkout this file sits in.
With --trace 0 the last line of output is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, from
spans the benchmark records around its calls into each module.  Full
results (environment, counters per config and case, spans) go to
`.bench_out/` at the checkout root.  Exit codes: 0 ok, 1 a wrong answer,
non-repeating counters or non-deterministic inputs, 2 usage error or the
program could not be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("er-updates", "kron-stream")


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Import reachbench from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "reachbench" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {src / 'reachbench'} is missing")
    sys.path.insert(0, str(src))
    module = importlib.import_module("reachbench")
    if Path(module.__file__).resolve().parent != (src / "reachbench").resolve():
        raise ProgramMissing(f"reachbench was imported from {module.__file__}, not {src}")


def contract_line(result: dict, names: list[str], units) -> dict:
    values = result["per_layer"] if "per_layer" in result else result["end_to_end"]
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values.get(name, 0), "unit": units(name)}
                    for name in names},
    }


def report(result: dict, names: list[str], units) -> None:
    env = result["env"]
    print(f"env: {json.dumps(env, sort_keys=True)}")
    p = result["passes"]
    print(f"{env['workload']} seed {env['seed']}: {len(p['setup_s'])} set-ups, "
          f"{p['measured']} measured and {p['traced']} traced passes "
          f"in {result['elapsed_s']:.1f} s")
    print(f"  gc per measured pass: {min(p['gc_collections'])}-{max(p['gc_collections'])} "
          f"collections, {min(p['gc_pause_s']):.4f}-{max(p['gc_pause_s']):.4f} s paused")
    values = result.get("per_layer", result["end_to_end"])
    for name in names:
        value = values.get(name, 0)
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<44} {shown} {units(name)}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_op_share':<44} {share:>16.6f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  p99 samples per pass: {result['samples']['update']} update and "
          f"{result['samples']['query']} query routine calls")
    for cfg, c in result["counters"].items():
        print(f"  counters {cfg}: " + " ".join(f"{k}={v}" for k, v in c.items()))
    for problem in result["problems"]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    import measure
    result = measure.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), sizes)
    if args.trace:
        names, units = measure.per_layer_names(), measure.layer_unit
    else:
        names, units = list(measure.END_TO_END), measure.END_TO_END.get
    report(result, names, units)
    line = contract_line(result, names, units)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
