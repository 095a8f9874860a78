"""Even-Shiloach reachability trees: exact BFS levels maintained under fully
dynamic updates, with two cheaper repair variants and optional work bounds."""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable
from itertools import chain
from typing import NamedTuple

from .core import SsrAlgorithm, WorkCounters
from .graph import DiGraph


class DeletionStats(NamedTuple):
    """Work profile of the most recent deletion's repair loop."""

    max_enqueues: int
    queue_pops: int


#: The stats of a deletion that needs no repair; one shared value, not a new
#: tuple per deletion.
_NO_REPAIR = DeletionStats(0, 0)


class _RebuildNeeded(Exception):
    """The repair loop hit a work bound; recompute from scratch."""


#: step(w, level of w) re-anchors one popped vertex and names the vertices
#: to enqueue next; it adds its own scans and visits to the counters.
_Step = Callable[[int, int], Iterable[int]]


class _EsBase(SsrAlgorithm):
    """Shared frame: level array with the integer sentinel n meaning
    unreachable, so every comparison stays on ints, and the one deletion
    repair loop every variant runs.

    A variant supplies _rebuild(); _detach(v, e), which unlinks a deleted
    edge and says whether v must be re-anchored; _reanchor_step(), which
    returns a step bound to the arrays of the last rebuild; and
    _tree_edge(v), the id of the edge v hangs off, for check_invariants().
    The loop pops vertices off a queue and hands each one that is still
    reachable to that step, which fixes the vertex's level and tree edge
    and names the vertices to enqueue next.  The loop alone enforces both
    work bounds: beta bounds how often one vertex may be enqueued during a
    single deletion repair, and ratio * n bounds the queue pops.  The pop or
    enqueue that would exceed a bound aborts the repair and rebuilds the
    tree from scratch instead (counted as a recomputation).  Both default
    to infinity, i.e. never abort.
    """

    def __init__(self, graph: DiGraph, source: int, counters: WorkCounters, *,
                 beta: float = math.inf, ratio: float = math.inf):
        super().__init__(graph, source, counters)
        if beta != math.inf:
            if not beta >= 1 or beta != int(beta):  # nan and -inf stop before int()
                raise ValueError(f"beta must be an integer >= 1 or inf, got {beta}")
            beta = int(beta)
        if not ratio >= 0:
            raise ValueError(f"ratio must be >= 0 or inf, got {ratio}")
        self.beta = beta
        self.ratio = ratio
        self.last_deletion_stats = _NO_REPAIR

    def initialize(self) -> None:
        self._rebuild()
        self._step = self._reanchor_step()

    def query(self, t: int) -> bool:
        return self.level[t] < self._inf

    def levels(self) -> list[int]:
        """Copy of the level array; the value n marks unreachable vertices."""
        return list(self.level)

    def edge_deleted(self, u: int, v: int, e: int) -> None:
        if not self._detach(v, e):
            self.last_deletion_stats = _NO_REPAIR
            return
        n = self._inf
        level = self.level
        beta = self.beta
        cap = self.ratio * n
        step = self._step
        counts: dict[int, int] = {}
        pops = 0
        q = deque([v])
        try:
            while q:
                w = q.popleft()
                pops += 1
                if pops > cap:
                    raise _RebuildNeeded
                lw = level[w]
                if lw == n:
                    continue
                for h in step(w, lw):
                    cnt = counts.get(h, 0) + 1
                    if cnt > beta:
                        raise _RebuildNeeded
                    counts[h] = cnt
                    q.append(h)
        except _RebuildNeeded:
            self.counters.recomputations += 1
            self.initialize()
        finally:
            self.counters.queue_pops += pops
            self.last_deletion_stats = DeletionStats(max(counts.values(), default=0), pops)

    def check_invariants(self) -> None:
        """Full-scan check of the Even-Shiloach invariant; raises
        AssertionError on a violation: the source is at level 0, and every
        other reachable vertex hangs off a live in-edge, its tree edge, whose
        tail is exactly one level up."""
        g = self.graph
        level = self.level
        n = self._inf
        assert level[self.source] == 0
        for v in range(n):
            if v != self.source and level[v] < n:
                e = self._tree_edge(v)
                assert g.is_live(e), v
                tail, head = g.endpoints(e)
                assert head == v and level[tail] == level[v] - 1, v


class _IndexedEs(_EsBase):
    """ES/MES common core: a private in-list of edge ids per vertex and a
    per-vertex tree-edge index into its own in-list.

    A rebuild fills the in-lists in its BFS scan order, then appends the
    edges out of unreachable tails in vertex order; insertions append and
    deletions swap-remove.  Entries are bare ids: a tail is read from
    DiGraph.tails.  An edge's position is read from its head's in-list
    itself: v's tree edge is in_list[v][tei[v]], and a deletion finds the
    deleted id with a C scan of that one list.  The source has no tree
    edge: its tei is -1, which as an index reads its last entry, so the
    tree-child test `in_list[h][tei[h]] == e` is guarded by 0 < level[h],
    true of every reachable vertex but the source.
    """

    def _rebuild(self) -> None:
        g = self.graph
        c = self.counters
        n = g.vertex_count
        self._inf = n
        level = self.level = [n] * n
        in_list = self.in_list = [[] for _ in range(n)]
        tei = self.tei = [0] * n
        s = self.source
        tei[s] = -1  # the source has no tree edge
        level[s] = 0
        order = [s]
        out, heads = g.out_lists, g.heads
        # BFS order, then the unreachable tails in vertex order; the tails
        # are picked only once order is exhausted, so at their final levels,
        # and only with out-edges (a Kronecker snapshot leaves most vertices
        # isolated).  In BFS order lx1 < level[w] holds exactly when w is
        # still at n; an unreachable tail has lx1 = n + 1, so it never does.
        for x in chain(order, (x for x in range(n) if level[x] == n and out[x])):
            lx1 = level[x] + 1
            for e in out[x]:
                w = heads[e]
                in_list[w].append(e)
                if lx1 < level[w]:
                    # w's first entry discovers it, so its tree edge is at 0
                    level[w] = lx1
                    order.append(w)
        # Exact totals without a per-item count: every live edge's tail is
        # either in order or an unreachable vertex with out-edges, so the
        # scan reads each live edge once, and order holds each vertex it
        # reached once, the source included.
        c.vertices_visited += len(order)
        c.edges_scanned += g.edge_count

    def _tree_edge(self, v: int) -> int:
        lst = self.in_list[v]
        assert 0 <= self.tei[v] < len(lst), v
        return lst[self.tei[v]]

    def check_invariants(self) -> None:
        """Also: each vertex's private in-list is a permutation of the ids of
        its graph in-entries."""
        for v, ins in enumerate(self.graph.in_lists):
            assert sorted(self.in_list[v]) == sorted(ins), v
        super().check_invariants()

    def edge_inserted(self, u: int, v: int, e: int) -> None:
        lst = self.in_list[v]
        lst.append(e)
        level = self.level
        lu1 = level[u] + 1
        if lu1 < level[v]:
            level[v] = lu1
            self.tei[v] = len(lst) - 1
            self.counters.vertices_visited += 1
            self._sweep(v)

    def _sweep(self, v: int) -> None:
        """Cascade an improved level forward.  At equal levels only the
        tree-edge index can improve (strictly smaller), without cascading;
        e's position is looked up only then or on an improvement."""
        level = self.level
        in_list = self.in_list
        tei = self.tei
        c = self.counters
        visits = 0
        scans = 0
        q = deque([v])
        out, heads = self.graph.out_lists, self.graph.heads
        while q:
            x = q.popleft()
            lx1 = level[x] + 1
            for e in out[x]:
                scans += 1
                w = heads[e]
                lw = level[w]
                if lx1 < lw:
                    level[w] = lx1
                    tei[w] = in_list[w].index(e)
                    visits += 1
                    q.append(w)
                elif lx1 == lw and tei[w]:  # nothing precedes position 0
                    pos = in_list[w].index(e)
                    if pos < tei[w]:
                        tei[w] = pos
        c.vertices_visited += visits
        c.edges_scanned += scans

    def _detach(self, v: int, e: int) -> bool:
        """Drop e from v's in-list (swap-remove).  True if the repair loop
        must run: e was v's tree edge, or the swap displaced it."""
        lst = self.in_list[v]
        pos = lst.index(e)
        reachable = self.level[v] < self._inf
        was_tree = reachable and pos == self.tei[v]
        last = lst.pop()
        if last != e:
            lst[pos] = last
            if reachable:
                if self.tei[v] == len(lst):
                    self.tei[v] = pos
                    return True
                if pos < self.tei[v] and self.level[self.graph.tails[last]] == self.level[v] - 1:
                    # anchor moved into the already-scanned prefix, where the
                    # advancing scan would never see it again; adopt it now
                    self.tei[v] = pos
        return was_tree


class EvenShiloachTree(_IndexedEs):
    """Textbook repair: each queued vertex advances its tree-edge index
    until an in-edge with tail one level up appears; running off the end
    drops the vertex one level (or out of the tree), re-enqueues it with a
    reset index, and re-enqueues its tree children."""

    def _reanchor_step(self) -> _Step:
        c = self.counters
        n = self._inf
        level = self.level
        in_list = self.in_list
        tei = self.tei
        tails, heads = self.graph.tails, self.graph.heads
        out = self.graph.out_lists

        def step(w: int, lw: int) -> Iterable[int]:
            # a generator: the loop may abort at any child, so the scans up
            # to it are counted before it is handed over
            lst = in_list[w]
            sz = len(lst)
            target = lw - 1
            start = i = tei[w]
            while i < sz:
                if level[tails[lst[i]]] == target:
                    tei[w] = i
                    c.edges_scanned += i + 1 - start
                    return
                i += 1
            scans = sz - start
            c.vertices_visited += 1
            tei[w] = 0
            if lw + 1 >= n:
                # nothing can hang below the last finite level
                level[w] = n
                c.edges_scanned += scans
                return
            level[w] = lw + 1
            for e in out[w]:
                scans += 1
                h = heads[e]
                if h != w and 0 < level[h] < n and in_list[h][tei[h]] == e:
                    c.edges_scanned += scans
                    scans = 0
                    yield h
            c.edges_scanned += scans
            yield w

        return step


class MultiLevelEsTree(_IndexedEs):
    """Repair that jumps levels: one cyclic scan of the in-list either finds
    a tail one level up (adopted on the spot) or yields the minimum tail
    level seen, and the vertex drops straight to that level plus one.  Only
    tree children are re-enqueued, never the vertex itself."""

    def _reanchor_step(self) -> _Step:
        c = self.counters
        n = self._inf
        level = self.level
        in_list = self.in_list
        tei = self.tei
        tails, heads = self.graph.tails, self.graph.heads
        out = self.graph.out_lists

        def step(w: int, lw: int) -> Iterable[int]:
            lst = in_list[w]
            sz = len(lst)
            target = lw - 1
            lmin = n
            emin = 0
            start = tei[w]
            if start >= sz:
                start = 0
            for i in chain(range(start, sz), range(start)):
                x = tails[lst[i]]
                if x == w:
                    continue  # a self-loop can never anchor its own level
                lx = level[x]
                if lx == target:
                    tei[w] = i
                    c.edges_scanned += (i - start) % sz + 1  # cyclic distance
                    return ()
                if lx < lmin:
                    lmin = lx
                    emin = i
            edges = out[w]
            children = [h for e in edges
                        if (h := heads[e]) != w and 0 < level[h] < n
                        and in_list[h][tei[h]] == e]
            c.edges_scanned += sz + len(edges)
            c.vertices_visited += 1
            if lmin + 1 >= n:
                level[w] = n
                tei[w] = 0
            else:
                level[w] = lmin + 1
                tei[w] = emin
            return children

        return step


class SimplifiedEsTree(_EsBase):
    """Index-free variant: a tree-edge id per vertex and no private in-edge
    lists.  An insertion that lowers its head's level cascades the change
    forward with one sweep, and a rebuild is that sweep from the source over
    fresh levels.  Repair rescans the graph's own in-edges and re-anchors at
    the minimum tail level (first such edge on ties), cascading to tree
    children only when the level actually changed."""

    def _rebuild(self) -> None:
        n = self._inf = self.graph.vertex_count
        self.level = [n] * n
        self.tree_edge = [None] * n
        self.level[self.source] = 0
        self.counters.vertices_visited += 1
        self._sweep(self.source)

    def edge_inserted(self, u: int, v: int, e: int) -> None:
        level = self.level
        lu1 = level[u] + 1
        if lu1 >= level[v]:
            return
        level[v] = lu1
        self.tree_edge[v] = e
        self.counters.vertices_visited += 1
        self._sweep(v)

    def _sweep(self, v: int) -> None:
        """The insertion algorithm: cascade v's level forward, lowering every
        out-neighbour whose level would improve.  Over fresh levels this is
        plain BFS, since level[x] + 1 < level[w] then holds exactly when w
        is still at n."""
        level = self.level
        tree_edge = self.tree_edge
        c = self.counters
        visits = 0
        scans = 0
        q = deque([v])
        out, heads = self.graph.out_lists, self.graph.heads
        while q:
            x = q.popleft()
            lx1 = level[x] + 1
            for e in out[x]:
                scans += 1
                w = heads[e]
                if lx1 < level[w]:
                    level[w] = lx1
                    tree_edge[w] = e
                    visits += 1
                    q.append(w)
        c.vertices_visited += visits
        c.edges_scanned += scans

    def _detach(self, v: int, e: int) -> bool:
        return self.tree_edge[v] == e

    def _tree_edge(self, v: int) -> int | None:
        return self.tree_edge[v]

    def _reanchor_step(self) -> _Step:
        c = self.counters
        n = self._inf
        level = self.level
        tree_edge = self.tree_edge
        in_lists, tails = self.graph.in_lists, self.graph.tails
        out, heads = self.graph.out_lists, self.graph.heads

        def step(w: int, lw: int) -> Iterable[int]:
            lmin = n
            best = None
            ins = in_lists[w]
            for e in ins:
                x = tails[e]
                if x == w:
                    continue  # a self-loop can never anchor its own level
                lx = level[x]
                if lx < lmin:
                    lmin = lx
                    best = e
            newl = lmin + 1
            if newl == lw:
                tree_edge[w] = best
                c.edges_scanned += len(ins)
                return ()
            edges = out[w]
            children = [h for e in edges
                        if (h := heads[e]) != w and level[h] < n and tree_edge[h] == e]
            c.edges_scanned += len(ins) + len(edges)
            c.vertices_visited += 1
            if newl >= n:
                level[w] = n
                tree_edge[w] = None
            else:
                level[w] = newl
                tree_edge[w] = best
            return children

        return step
