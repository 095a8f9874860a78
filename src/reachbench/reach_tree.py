"""Reachability-tree maintenance with cheap insertions and threshold-guarded
deletion repair."""

from __future__ import annotations

from collections import deque

from .core import SsrAlgorithm, WorkCounters
from .graph import DiGraph

UNREACHABLE = 0
REACHABLE = 1
UNKNOWN = 2


class IncrementalReachTree(SsrAlgorithm):
    """Maintains an arbitrary reachability tree over the reachable set.

    The insertion algorithm is one forward sweep: an insertion whose tail
    is reachable and whose head is not claims the head, then sweeps from it
    claiming every vertex not yet reachable; all other insertions are O(1).
    A rebuild is the same sweep from the source over fresh arrays.  Deleting
    a non-tree edge is O(1).  Deleting a tree edge detaches a subtree L: if
    |L| exceeds ratio * n the tree is rebuilt, otherwise every member of L
    is marked unknown and re-anchored one at a time.  Re-anchoring runs a
    backward search over in-edges from the unknown vertex; hitting a
    reachable vertex re-claims the discovery path (and, with forward_search,
    runs the insertion sweep from the anchor), while exhausting the search
    proves every vertex it saw unreachable.  Such a proof covers all of the
    vertex's unknown predecessors, so every unreachable label stays exact
    during a repair and the sweep from an anchor claims only unknown
    vertices.

    reverse_order processes L back to front.  ratio must lie in [0, 1];
    ratio 0 rebuilds on every tree-edge deletion.
    """

    name = "si"

    def __init__(self, graph: DiGraph, source: int, counters: WorkCounters, *,
                 reverse_order: bool = False, forward_search: bool = True,
                 ratio: float = 0.25):
        super().__init__(graph, source, counters)
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        self.reverse_order = reverse_order
        self.forward_search = forward_search
        self.ratio = ratio

    def initialize(self) -> None:
        n = self.graph.vertex_count
        self.state = bytearray(n)
        self.tree_edge = [None] * n
        self.children = [{} for _ in range(n)]
        self.state[self.source] = REACHABLE
        self.counters.vertices_visited += 1
        self._sweep(self.source)

    def query(self, t: int) -> bool:
        return self.state[t] == REACHABLE

    def _claim(self, w: int, e: int, p: int) -> None:
        """Attach w below p via tree edge e and mark it reachable."""
        self.state[w] = REACHABLE
        self.tree_edge[w] = e
        self.children[p][w] = None

    def _sweep(self, v: int) -> None:
        """The insertion algorithm: BFS from the already claimed v that
        claims each vertex not yet reachable below the vertex it is first
        reached from."""
        state = self.state
        tree_edge = self.tree_edge
        children = self.children
        c = self.counters
        visits = 0
        scans = 0
        q = deque([v])
        out = self.graph.out_edges
        while q:
            x = q.popleft()
            kids = children[x]
            for e, w in out(x):
                scans += 1
                if state[w] != REACHABLE:
                    state[w] = REACHABLE
                    tree_edge[w] = e
                    kids[w] = None
                    visits += 1
                    q.append(w)
        c.vertices_visited += visits
        c.edges_scanned += scans

    def edge_inserted(self, u: int, v: int, e: int) -> None:
        state = self.state
        if state[u] != REACHABLE or state[v] == REACHABLE:
            return
        self._claim(v, e, u)
        self.counters.vertices_visited += 1
        self._sweep(v)

    def edge_deleted(self, u: int, v: int, e: int) -> None:
        if self.tree_edge[v] != e:
            return
        c = self.counters
        children = self.children
        limit = self.ratio * self.graph.vertex_count
        # preorder collection of the detached subtree, aborted the moment it
        # outgrows the rebuild threshold
        stack = [v]
        subtree = []
        scans = 0
        while stack:
            w = stack.pop()
            subtree.append(w)
            if len(subtree) > limit:
                c.vertices_visited += len(subtree)
                c.edges_scanned += scans
                c.recomputations += 1
                self.initialize()
                return
            kids = children[w]
            scans += len(kids)
            if kids:
                stack.extend(reversed(kids))
        c.vertices_visited += len(subtree)
        c.edges_scanned += scans
        state = self.state
        tree_edge = self.tree_edge
        children[u].pop(v, None)
        for w in subtree:
            state[w] = UNKNOWN
            tree_edge[w] = None
            children[w].clear()
        order = reversed(subtree) if self.reverse_order else subtree
        for w in order:
            if state[w] == UNKNOWN:
                self._resolve(w)

    def _resolve(self, w: int) -> None:
        """Settle one unknown vertex by backward search over in-edges.

        Unknown vertices are expanded, vertices already proven unreachable
        are dead ends (scanned, never expanded), and the first reachable
        vertex found ends the search: the discovery path back to w is
        claimed edge by edge.  If the search exhausts instead, every vertex
        it encountered is unreachable.
        """
        g = self.graph
        state = self.state
        c = self.counters
        # disc[x] = (edge x -> y, y) along which the search first reached x
        disc: dict[int, tuple[int, int] | None] = {w: None}
        seen = [w]
        q = deque([w])
        visits = 1
        scans = 0
        found = None
        in_edges = g.in_edges
        while q and found is None:
            y = q.popleft()
            for e, x in in_edges(y):
                scans += 1
                st = state[x]
                if st == REACHABLE:
                    found = (x, e, y)
                    break
                if st == UNKNOWN and x not in disc:
                    disc[x] = (e, y)
                    seen.append(x)
                    visits += 1
                    q.append(x)
        c.vertices_visited += visits
        c.edges_scanned += scans
        if found is None:
            for x in seen:
                state[x] = UNREACHABLE
            return
        x, e, y = found
        while True:
            self._claim(y, e, x)
            step = disc[y]
            if step is None:
                break
            e, z = step
            x = y
            y = z
        if self.forward_search:
            self._sweep(w)
