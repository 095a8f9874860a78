"""Shared drivers for exercising algorithms outside the replay engine."""

from hypothesis import strategies as st

from reachbench.core import ADD, REMOVE, Operation, OperationSequence, SsrAlgorithm, WorkCounters
from reachbench.graph import DiGraph


def build_graph(n: int, edges=()) -> DiGraph:
    g = DiGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def live_edges(g: DiGraph) -> list[tuple[int, int, int]]:
    """All live edges of g as (edge_id, tail, head), in id order."""
    return [(e, u, v) for e, (u, v) in enumerate(zip(g.tails, g.heads)) if u >= 0]


def make_algorithm(factory, n: int, source: int, edges=()):
    """Build a graph, initialize one algorithm on it, return (g, alg, counters)."""
    g = build_graph(n, edges)
    c = WorkCounters()
    alg = factory(g, source, c)
    alg.initialize()
    return g, alg, c


def apply_add(g: DiGraph, alg: SsrAlgorithm, u: int, v: int) -> int:
    e = g.add_edge(u, v)
    alg.edge_inserted(u, v, e)
    return e


def apply_remove(g: DiGraph, alg: SsrAlgorithm, u: int, v: int) -> int:
    e = g.find_edge(u, v)
    assert e is not None, f"no live edge ({u}, {v})"
    g.remove_edge(e)
    alg.edge_deleted(u, v, e)
    return e


def sweep(alg: SsrAlgorithm, n: int) -> list[bool]:
    return [bool(alg.query(t)) for t in range(n)]


def delta(counters: WorkCounters, before: tuple[int, int, int, int]):
    """(vertices_visited, edges_scanned, queue_pops, recomputations) since before."""
    return tuple(a - b for a, b in zip(counters.snapshot(), before))


@st.composite
def lenient_scripts(draw, dense: bool = False) -> OperationSequence:
    """A lenient op script over n=1..8, weighted towards self-loops,
    parallel edges, removals at the source, removals of an initial tree
    edge, removals with no live match, and removing then re-adding a pair
    (new ids past the dead ones).

    The initial graph has 0..16 edges, so it may be empty or sparse; with
    dense it has n..3n, so more removals detach a subtree whose vertices
    stay reachable another way."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    source = draw(vertex)
    pair = st.tuples(vertex, vertex)
    loop = vertex.map(lambda x: (x, x))
    at_source = st.one_of(vertex.map(lambda x: (source, x)), vertex.map(lambda x: (x, source)))
    edge = st.one_of(pair, loop, at_source)
    sizes = {"min_size": n, "max_size": 3 * n} if dense else {"max_size": 16}
    initial = draw(st.lists(edge, **sizes))
    # the pairs by which a BFS over the initial edges in list order first
    # reaches each vertex: removing one detaches a subtree of a fresh tree
    tree, frontier = [], [source]
    for x in frontier:
        for u, v in initial:
            if u == x and v not in frontier:
                frontier.append(v)
                tree.append((u, v))
    step = st.one_of(
        edge.map(lambda p: [Operation(ADD, *p)]),
        edge.map(lambda p: [Operation(ADD, *p)] * 2),
        edge.map(lambda p: [Operation(REMOVE, *p)]),
        pair.map(lambda p: [Operation(REMOVE, *p)]),
        edge.map(lambda p: [Operation(REMOVE, *p), Operation(ADD, *p)]),
        st.sampled_from(tree or [(source, source)]).map(lambda p: [Operation(REMOVE, *p)]),
    )
    ops = [op for ops in draw(st.lists(step, max_size=30)) for op in ops]
    return OperationSequence(n, source, initial, ops, lenient=True)
