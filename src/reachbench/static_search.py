"""Dynamized static searches: pure per-query traversals, a fully cached
variant invalidated by critical updates, and a lazy variant that keeps a
suspendable traversal."""

from __future__ import annotations

from collections import deque

from .core import SsrAlgorithm, WorkCounters
from .graph import DiGraph


def _advance(graph: DiGraph, reached: bytearray, agenda: deque,
             bfs: bool, counters: WorkCounters, stop_at: int | None) -> bool:
    """Run or resume a traversal whose frontier is `agenda`.

    Agenda entries are [vertex, out_index] cursors; BFS consumes from the
    left, DFS from the right, and both expand out-edges in incidence-list
    order.  Vertices are marked in `reached` when first scanned.  Returns
    True if stop_at was marked (agenda left suspended), False once the
    agenda is exhausted.
    """
    visits = 0
    scans = 0
    out = graph.out_edges
    found = False
    while agenda:
        cur = agenda[0] if bfs else agenda[-1]
        v = cur[0]
        i = cur[1]
        lst = out(v)
        sz = len(lst)
        descend = False
        while i < sz:
            w = lst[i][1]
            i += 1
            scans += 1
            if not reached[w]:
                reached[w] = 1
                visits += 1
                agenda.append([w, 0])
                if w == stop_at:
                    found = True
                    break
                if not bfs:
                    descend = True
                    break
        cur[1] = i
        if found:
            break
        if descend:
            continue
        if bfs:
            agenda.popleft()
        else:
            agenda.pop()
    counters.vertices_visited += visits
    counters.edges_scanned += scans
    return found


class _StaticSearch(SsrAlgorithm):
    """No state between operations; every query is a fresh traversal from
    the source, stopping early once the target is marked."""

    bfs = True

    def query(self, t: int) -> bool:
        c = self.counters
        reached = bytearray(self.graph.vertex_count)
        reached[self.source] = 1
        c.vertices_visited += 1
        if reached[t]:
            return True
        _advance(self.graph, reached, deque([[self.source, 0]]), self.bfs, c, t)
        return bool(reached[t])


class StaticBfs(_StaticSearch):
    name = "sbfs"
    bfs = True


class StaticDfs(_StaticSearch):
    name = "sdfs"
    bfs = False


class _FlaggedSearch(SsrAlgorithm):
    """Shared critical-update flags over a reachability cache: an insertion
    is critical when it links a cached-reachable tail to a cached-unreachable
    head, a deletion when its head is cached-reachable."""

    bfs = True

    def initialize(self) -> None:
        self.crit_ins = False
        self.crit_del = False

    def edge_inserted(self, u: int, v: int, e: int) -> None:
        if self.cache[u] and not self.cache[v]:
            self.crit_ins = True

    def edge_deleted(self, u: int, v: int, e: int) -> None:
        if self.cache[v]:
            self.crit_del = True


class _CachedSearch(_FlaggedSearch):
    """Eagerly cached reachability; updates only raise critical flags.

    A query whose cached answer may be stale (critical insertion with a
    cached-unreachable target, or critical deletion with a cached-reachable
    one) rebuilds the entire cache and clears both flags; every other query
    is answered from the cache in O(1).
    """

    def initialize(self) -> None:
        super().initialize()
        self._rebuild()

    def _rebuild(self) -> None:
        c = self.counters
        self.cache = bytearray(self.graph.vertex_count)
        self.cache[self.source] = 1
        c.vertices_visited += 1
        _advance(self.graph, self.cache, deque([[self.source, 0]]), self.bfs, c, None)

    def query(self, t: int) -> bool:
        cached = self.cache[t]
        if (self.crit_ins and not cached) or (self.crit_del and cached):
            self.crit_ins = False
            self.crit_del = False
            self.counters.recomputations += 1
            self._rebuild()
            return bool(self.cache[t])
        return bool(cached)


class CachingBfs(_CachedSearch):
    name = "cbfs"
    bfs = True


class CachingDfs(_CachedSearch):
    name = "cdfs"
    bfs = False


class _LazySearch(_FlaggedSearch):
    """Partial cache fed by a suspendable traversal.

    Critical flags follow the caching variant but are evaluated against the
    possibly partial cache (an unvisited vertex counts as unreachable).  A
    query returns a cached reachable answer while no critical deletion has
    been seen, and a cached unreachable answer from an exhausted traversal
    while no critical insertion has been seen.  The suspended traversal is
    resumed only while neither flag is set: a critical deletion can sever
    the region the frontier sits in, so resuming after one could claim dead
    vertices (see the lazy-resume note in the project notes).  All remaining
    cases invalidate the cache, clear both flags, and start the traversal
    anew, running it just far enough to classify the target.
    """

    def initialize(self) -> None:
        super().initialize()
        self._restart()
        self._run_until(None)

    def _restart(self) -> None:
        self.cache = bytearray(self.graph.vertex_count)
        self.cache[self.source] = 1
        self.counters.vertices_visited += 1
        self.agenda: deque = deque([[self.source, 0]])
        self.exhausted = False

    def _run_until(self, t: int | None) -> None:
        _advance(self.graph, self.cache, self.agenda, self.bfs, self.counters, t)
        if not self.agenda:
            self.exhausted = True

    def query(self, t: int) -> bool:
        cached = self.cache[t]
        if cached and not self.crit_del:
            return True
        if not cached and not self.crit_ins:
            if self.exhausted:
                return False
            if not self.crit_del:
                self._run_until(t)
                return bool(self.cache[t])
        self.crit_ins = False
        self.crit_del = False
        self.counters.recomputations += 1
        self._restart()
        if self.cache[t]:
            return True
        self._run_until(t)
        return bool(self.cache[t])


class LazyBfs(_LazySearch):
    name = "lbfs"
    bfs = True


class LazyDfs(_LazySearch):
    name = "ldfs"
    bfs = False
