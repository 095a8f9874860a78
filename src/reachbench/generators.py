"""Seeded instance generators: uniform random update mixes, stochastic
Kronecker snapshot streams, snapshot differencing, and sequence shuffling."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import ADD, QUERY, REMOVE, Operation, OperationSequence

Initiator = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class ErSpec:
    """Uniform random instance: n vertices, round(d * n) uniform initial
    edges (parallels and self-loops allowed), and sigma operations drawn in
    homogeneous batches whose kind follows the given proportions.  Deletions
    pick uniformly among currently live edges.  The source is vertex 0."""

    n: int
    d: float
    sigma: int
    p_insert: float = 1 / 3
    p_delete: float = 1 / 3
    p_query: float = 1 / 3
    batch: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.d < math.inf:
            raise ValueError(f"d must be finite and >= 0, got {self.d}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        probs = (self.p_insert, self.p_delete, self.p_query)
        if not (min(probs) >= 0 and abs(sum(probs) - 1.0) <= 1e-9):
            raise ValueError(f"kind proportions must be >= 0 and sum to 1, got {probs}")


def gen_er_instance(spec: ErSpec) -> OperationSequence:
    rng = random.Random(spec.seed)
    n = spec.n
    randrange = rng.randrange
    initial = [(randrange(n), randrange(n)) for _ in range(int(round(spec.d * n)))]
    live = list(initial)
    ops: list[Operation] = []
    ci = spec.p_insert
    cd = spec.p_insert + spec.p_delete
    while len(ops) < spec.sigma:
        r = rng.random()
        if r < ci:
            kind = ADD
        elif r < cd:
            kind = REMOVE
        else:
            kind = QUERY
        if kind == REMOVE and not live:
            # nothing to delete; redraw the batch kind
            if spec.p_insert + spec.p_query <= 0:
                raise ValueError("no live edges left and deletions are the only enabled kind")
            continue
        count = min(spec.batch, spec.sigma - len(ops))
        if kind == ADD:
            for _ in range(count):
                u = randrange(n)
                v = randrange(n)
                live.append((u, v))
                ops.append(Operation(ADD, u, v))
        elif kind == REMOVE:
            # the batch is cut short if the live set drains mid-batch
            for _ in range(count):
                if not live:
                    break
                i = randrange(len(live))
                u, v = live[i]
                live[i] = live[-1]
                live.pop()
                ops.append(Operation(REMOVE, u, v))
        else:
            for _ in range(count):
                ops.append(Operation(QUERY, randrange(n)))
    metadata = {
        "kind": "er",
        "n": str(n),
        "d": repr(spec.d),
        "sigma": str(spec.sigma),
        "p_insert": repr(spec.p_insert),
        "p_delete": repr(spec.p_delete),
        "p_query": repr(spec.p_query),
        "batch": str(spec.batch),
        "seed": str(spec.seed),
        "initial_m": str(len(initial)),
        "final_m": str(len(live)),
    }
    return OperationSequence(n=n, source=0, initial_edges=initial, ops=ops,
                             metadata=metadata)


def gen_kronecker_snapshot(initiator: Initiator, k: int, seed: int) -> set[tuple[int, int]]:
    """Sample a 2^k-vertex directed graph by recursive descent.

    Draws round((sum of the initiator entries)^k) distinct edges.  Each draw
    picks one of the four cells per level with probability proportional to
    its entry, assembling row bits into the tail and column bits into the
    head.  Duplicate draws are redrawn, with an attempt cap so degenerate
    initiators (e.g. a single nonzero cell) still terminate.
    """
    (a, b), (c, d) = initiator
    for entry in (a, b, c, d):
        if not 0.0 <= entry <= 1.0:
            raise ValueError(f"initiator entries must lie in [0, 1], got {entry}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = a + b + c + d
    if total <= 0:
        return set()
    target = int(round(total ** k))
    if target <= 0:
        return set()
    c1 = a / total
    c2 = c1 + b / total
    c3 = c2 + c / total
    rng = random.Random(seed)
    rand = rng.random
    edges: set[tuple[int, int]] = set()
    attempts = 0
    cap = max(1000, 30 * target)
    while len(edges) < target and attempts < cap:
        attempts += 1
        u = 0
        v = 0
        for _ in range(k):
            r = rand()
            u <<= 1
            v <<= 1
            if r < c1:
                pass
            elif r < c2:
                v |= 1
            elif r < c3:
                u |= 1
            else:
                u |= 1
                v |= 1
        edges.add((u, v))
    return edges


@dataclass(frozen=True)
class KroneckerSpec:
    """A stream of Kronecker snapshots sharing one initiator; iterations
    holds the per-snapshot k, in stream order."""

    initiator: Initiator
    iterations: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.iterations) < 2:
            raise ValueError("need at least two snapshots")
        if any(k < 1 for k in self.iterations):
            raise ValueError(f"every k must be >= 1, got {self.iterations}")

    @classmethod
    def constant(cls, initiator: Initiator, k: int, snapshots: int, seed: int = 0) -> "KroneckerSpec":
        return cls(initiator, (k,) * snapshots, seed)

    @classmethod
    def growing(cls, initiator: Initiator, k_min: int, k_max: int, seed: int = 0) -> "KroneckerSpec":
        if k_max < k_min:
            raise ValueError(f"k_max must be >= k_min, got {k_min}..{k_max}")
        return cls(initiator, tuple(range(k_min, k_max + 1)), seed)


def gen_kronecker_instance(spec: KroneckerSpec, source_rank: int = 0) -> OperationSequence:
    rng = random.Random(spec.seed)
    snap_seeds = [rng.randrange(2 ** 62) for _ in spec.iterations]
    shuffle_seed = rng.randrange(2 ** 62)
    snapshots = [gen_kronecker_snapshot(spec.initiator, k, s)
                 for k, s in zip(spec.iterations, snap_seeds)]
    n = 1 << max(spec.iterations)
    seq = snapshots_to_sequence(snapshots, seed=shuffle_seed,
                                source_rank=source_rank, n=n)
    seq.metadata.update({
        "kind": "kron",
        "initiator": ",".join(repr(x) for row in spec.initiator for x in row),
        "iterations": ",".join(map(str, spec.iterations)),
        "seed": str(spec.seed),
    })
    return seq


def snapshots_to_sequence(snapshots: list[set[tuple[int, int]]], *, seed: int = 0,
                          source_rank: int = 0, n: int | None = None) -> OperationSequence:
    """Lower a stream of at least two edge-set snapshots to a sequence.

    The first snapshot (sorted) is the initial graph.  Each consecutive pair
    contributes one block of updates: the insertions (sorted) followed by
    the deletions (sorted), permuted together by a seeded shuffle; blocks
    stay in stream order.  The source is the source_rank-th vertex of the
    first snapshot by descending out-degree, ties to the smaller id.  No
    queries are emitted.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    first = snapshots[0]
    if not first:
        raise ValueError("first snapshot has no edges, so no source can be derived")
    if n is None:
        n = 1 + max(max(u, v) for snap in snapshots for u, v in snap)
    for snap in snapshots:
        for u, v in snap:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
    out_degree: dict[int, int] = {}
    for u, _ in first:
        out_degree[u] = out_degree.get(u, 0) + 1
    ranked = sorted(out_degree, key=lambda x: (-out_degree[x], x))[:10]
    if not 0 <= source_rank < len(ranked):
        raise ValueError(f"source_rank {source_rank} outside the top-{len(ranked)} ranking")
    source = ranked[source_rank]
    rng = random.Random(seed)
    ops: list[Operation] = []
    prev = first
    for nxt in snapshots[1:]:
        block = [Operation(ADD, u, v) for u, v in sorted(nxt - prev)]
        block += [Operation(REMOVE, u, v) for u, v in sorted(prev - nxt)]
        rng.shuffle(block)
        ops.extend(block)
        prev = nxt
    metadata = {
        "kind": "snapshots",
        "snapshots": str(len(snapshots)),
        "diff_seed": str(seed),
        "source_rank": str(source_rank),
    }
    return OperationSequence(n=n, source=source, initial_edges=sorted(first),
                             ops=ops, metadata=metadata)


def shuffle_sequence(seq: OperationSequence, seed: int) -> OperationSequence:
    """Uniformly permute the updates; queries keep their original slots.

    The result is flagged lenient: a permuted removal may now precede every
    insertion of its edge, and replay skips such removals.
    """
    rng = random.Random(seed)
    updates = [op for op in seq.ops if op.kind != QUERY]
    rng.shuffle(updates)
    it = iter(updates)
    ops = [op if op.kind == QUERY else next(it) for op in seq.ops]
    metadata = dict(seq.metadata)
    metadata["shuffle_seed"] = str(seed)
    return OperationSequence(n=seq.n, source=seq.source,
                             initial_edges=list(seq.initial_edges), ops=ops,
                             lenient=True, metadata=metadata)


def inject_queries(seq: OperationSequence, count: int, seed: int,
                   batch: int = 10) -> OperationSequence:
    """Splice `count` uniform-target queries into the sequence as batches of
    `batch` at seeded positions between existing operations."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    rng = random.Random(seed)
    slots = len(seq.ops) + 1
    at: dict[int, list[Operation]] = {}
    remaining = count
    while remaining > 0:
        size = min(batch, remaining)
        remaining -= size
        pos = rng.randrange(slots)
        bucket = at.setdefault(pos, [])
        for _ in range(size):
            bucket.append(Operation(QUERY, rng.randrange(seq.n)))
    ops: list[Operation] = []
    for i, op in enumerate(seq.ops):
        if i in at:
            ops.extend(at[i])
        ops.append(op)
    if len(seq.ops) in at:
        ops.extend(at[len(seq.ops)])
    metadata = dict(seq.metadata)
    metadata["injected_queries"] = str(count)
    metadata["query_seed"] = str(seed)
    return OperationSequence(n=seq.n, source=seq.source,
                             initial_edges=list(seq.initial_edges), ops=ops,
                             lenient=seq.lenient, metadata=metadata)
