"""Command-line front end: generate instances, ingest real-world streams,
run benchmarks, and verify algorithms against the oracle."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import CANONICAL_SPECS, algorithm_registry, render_csv, run_benchmark
from .core import ReplayError, load_sequence, save_sequence, verify_against_oracle
from .generators import (ErSpec, KroneckerSpec, gen_er_instance,
                         gen_kronecker_instance, inject_queries, shuffle_sequence)
from .ingest import ingest_snapshots, ingest_temporal


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _seconds(raw: str) -> float:
    value = float(raw)
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a number of seconds >= 0, got {raw!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="reachbench",
                     description="Fully dynamic single-source reachability benchmark harness.")
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("generate", help="generate a seeded instance from a spec file")
    gen.add_argument("--spec", required=True, help="key=value spec file (kind=er or kind=kron)")
    gen.add_argument("--output", required=True, help="sequence file to write")
    gen.add_argument("--shuffle-seed", type=int, default=None,
                     help="permute the updates with this seed (marks the sequence lenient)")
    gen.add_argument("--inject-queries", type=int, default=0, metavar="COUNT",
                     help="splice uniform-target query batches into the sequence")
    gen.add_argument("--query-seed", type=int, default=0)
    gen.add_argument("--query-batch", type=int, default=10)
    gen.set_defaults(func=_cmd_generate)

    ing = sub.add_parser("ingest", help="convert real-world graph files to a sequence")
    ing.add_argument("--format", required=True, choices=("temporal", "snapshots"))
    ing.add_argument("--input", required=True, action="append",
                     help="input file; repeat for a snapshot stream")
    ing.add_argument("--output", required=True, help="sequence file to write")
    ing.add_argument("--seed", type=int, default=0,
                     help="diff-order seed for snapshot streams")
    ing.add_argument("--source-rank", type=int, default=0,
                     help="which of the top-10 out-degree vertices is the source (snapshots)")
    ing.add_argument("--shuffle-seed", type=int, default=None,
                     help="permute the updates with this seed (marks the sequence lenient)")
    ing.set_defaults(func=_cmd_ingest)

    run = sub.add_parser("run", help="benchmark algorithms on an instance")
    run.add_argument("--instance", required=True)
    run.add_argument("--algorithm", required=True, action="append",
                     help="config string; repeat for a comparison table")
    run.add_argument("--runs", type=int, default=3)
    run.add_argument("--timeout", type=_seconds, default=None, metavar="SECONDS")
    run.add_argument("--output", default=None, help="CSV path (stdout when omitted)")
    run.add_argument("--verify", action="store_true",
                     help="check answers against the oracle before timing")
    run.add_argument("--fail-on-timeout", action="store_true")
    run.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify", help="check algorithms against the oracle")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--algorithm", action="append", default=None,
                     help="config string; default sweeps the canonical set")
    ver.set_defaults(func=_cmd_verify)
    return parser


def _parse_spec_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from None
    pairs: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep or not key or not value:
                raise UsageError(f"bad spec token {token!r}; expected key=value")
            if key in pairs:
                raise UsageError(f"duplicate spec key {key!r}")
            pairs[key] = value
    if not pairs:
        raise UsageError(f"spec file {path} is empty")
    return pairs


def _convert(key: str, raw: str, conv):
    try:
        return conv(raw)
    except ValueError:
        raise UsageError(f"bad value for spec key {key}: {raw!r}") from None


_ER_KEYS = {"n": ("n", int), "d": ("d", float), "sigma": ("sigma", int),
            "pi": ("p_insert", float), "pd": ("p_delete", float),
            "pq": ("p_query", float), "batch": ("batch", int), "seed": ("seed", int)}


def _build_er(pairs: dict[str, str]):
    kwargs = {}
    for key, raw in pairs.items():
        if key not in _ER_KEYS:
            raise UsageError(f"unknown er spec key {key!r}")
        name, conv = _ER_KEYS[key]
        kwargs[name] = _convert(key, raw, conv)
    for req in ("n", "d", "sigma"):
        if req not in kwargs:
            raise UsageError(f"er spec requires {req}=")
    return gen_er_instance(ErSpec(**kwargs))


_KRON_KEYS = {"i00": float, "i01": float, "i10": float, "i11": float,
              "k": int, "snapshots": int, "kmin": int, "kmax": int,
              "seed": int, "source_rank": int}


def _build_kron(pairs: dict[str, str]):
    vals = {}
    for key, raw in pairs.items():
        if key not in _KRON_KEYS:
            raise UsageError(f"unknown kron spec key {key!r}")
        vals[key] = _convert(key, raw, _KRON_KEYS[key])
    for req in ("i00", "i01", "i10", "i11"):
        if req not in vals:
            raise UsageError(f"kron spec requires {req}=")
    initiator = ((vals["i00"], vals["i01"]), (vals["i10"], vals["i11"]))
    seed = vals.get("seed", 0)
    constant = "k" in vals or "snapshots" in vals
    growing = "kmin" in vals or "kmax" in vals
    if constant == growing:
        raise UsageError("kron spec requires either k= and snapshots=, or kmin= and kmax=")
    if constant:
        if "k" not in vals or "snapshots" not in vals:
            raise UsageError("constant kron spec requires both k= and snapshots=")
        spec = KroneckerSpec.constant(initiator, vals["k"], vals["snapshots"], seed)
    else:
        if "kmin" not in vals or "kmax" not in vals:
            raise UsageError("growing kron spec requires both kmin= and kmax=")
        spec = KroneckerSpec.growing(initiator, vals["kmin"], vals["kmax"], seed)
    return gen_kronecker_instance(spec, source_rank=vals.get("source_rank", 0))


def _cmd_generate(args) -> int:
    pairs = _parse_spec_file(args.spec)
    kind = pairs.pop("kind", None)
    if kind == "er":
        seq = _build_er(pairs)
    elif kind == "kron":
        seq = _build_kron(pairs)
    else:
        raise UsageError(f"spec kind must be er or kron, got {kind!r}")
    if args.shuffle_seed is not None:
        seq = shuffle_sequence(seq, args.shuffle_seed)
    if args.inject_queries:
        seq = inject_queries(seq, args.inject_queries, args.query_seed,
                             batch=args.query_batch)
    save_sequence(seq, args.output)
    print(f"wrote {args.output}: n={seq.n} source={seq.source} "
          f"initial={len(seq.initial_edges)} ops={len(seq.ops)}")
    return 0


def _cmd_ingest(args) -> int:
    if args.format == "temporal":
        if len(args.input) != 1:
            raise UsageError("temporal ingestion takes exactly one --input")
        seq, labels = ingest_temporal(args.input[0])
    else:
        seq, labels = ingest_snapshots(args.input, seed=args.seed,
                                       source_rank=args.source_rank)
    if args.shuffle_seed is not None:
        seq = shuffle_sequence(seq, args.shuffle_seed)
    save_sequence(seq, args.output)
    print(f"wrote {args.output}: n={seq.n} source={seq.source} "
          f"({labels.label_of(seq.source)!r}) initial={len(seq.initial_edges)} "
          f"ops={len(seq.ops)}")
    return 0


def _cmd_run(args) -> int:
    seq = load_sequence(args.instance)
    rows = []
    for spec in args.algorithm:
        factory = algorithm_registry(spec)
        if args.verify:
            div = verify_against_oracle(seq, factory)
            if div is not None:
                print(f"verification failed for {spec} at op {div.op_index}: "
                      f"vertex {div.vertex} got {div.got}, oracle says {div.want}",
                      file=sys.stderr)
                return 2
        rows.append(run_benchmark(seq, spec, args.instance, args.runs, args.timeout))
    if args.output:
        Path(args.output).write_text(render_csv(rows), encoding="ascii")
    else:
        sys.stdout.write(render_csv(rows))
    if args.fail_on_timeout and any(row.timed_out for row in rows):
        return 3
    return 0


def _cmd_verify(args) -> int:
    seq = load_sequence(args.instance)
    specs = args.algorithm if args.algorithm else list(CANONICAL_SPECS)
    failed = False
    for spec in specs:
        factory = algorithm_registry(spec)
        div = verify_against_oracle(seq, factory)
        if div is None:
            print(f"PASS {spec}")
        else:
            failed = True
            print(f"FAIL {spec}: op {div.op_index}, vertex {div.vertex}, "
                  f"got {div.got}, oracle says {div.want}")
    return 2 if failed else 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReplayError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
