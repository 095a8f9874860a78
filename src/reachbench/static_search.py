"""Dynamized static searches: pure per-query traversals, a fully cached
variant invalidated by critical updates, and a lazy variant that keeps a
suspendable traversal.

Every traversal reads the graph's live out-lists of edge ids in
incidence-list order, takes each entry's head from `DiGraph.heads`, and
marks a vertex when an entry first leads to it.  Counting rule: each
marked vertex, the source included, is one vertex visited, and each
out-list entry read is one edge scanned; a traversal that stops at a
target has read its out-lists up to and including the entry that marked
the target.

BFS keeps its frontier as the list of marked vertices in marking order:
`order[head:]` are the vertices whose out-lists are not yet fully read, and
`pos` is how far `order[head]`'s list has been read.  A fresh traversal
iterates the growing `order` list directly.  A resumed one restarts at
`order[head]` and reads that vertex's live list from `pos`, so it also
reads entries appended, or swapped in by a removal, since it stopped.
DFS keeps a stack of [vertex, cursor] pairs with the same resume rule.

The oracle in `core.oracle_reach_set` is a separate BFS that shares no
code with these kernels.
"""

from __future__ import annotations

from itertools import islice

from .core import SsrAlgorithm, WorkCounters, oracle_reach_set
from .graph import DiGraph


def _bfs(g: DiGraph, reached: bytearray, order: list[int], head: int, pos: int,
         t: int | None, counters: WorkCounters) -> tuple[int, int] | None:
    """Run or resume a BFS over g whose frontier is `order[head:]`, with
    `pos` entries of `order[head]`'s out-list already read.

    Newly marked vertices are appended to `order`.  Returns the (head, pos)
    cursor just past the entry that marked `t`, or None once the frontier
    is exhausted; `t` None never stops.
    """
    if t is None:
        t = -1  # an int compares with an int faster than with None
    out, ends = g.out_lists, g.heads  # not `heads`: `head` is the cursor
    marked = len(order)
    scans = -pos
    for x in islice(order, head, None) if head else order:
        lst = out[x]
        scans += len(lst)
        for e in islice(lst, pos, None) if pos else lst:
            w = ends[e]
            if not reached[w]:
                reached[w] = 1
                order.append(w)
                if w == t:
                    # t was unmarked until this entry, so its first entry
                    # at or after pos is the one just read
                    while ends[lst[pos]] != t:
                        pos += 1
                    pos += 1
                    counters.vertices_visited += len(order) - marked
                    counters.edges_scanned += scans - (len(lst) - pos)
                    return order.index(x, head), pos
        pos = 0
    counters.vertices_visited += len(order) - marked
    counters.edges_scanned += scans
    return None


def _dfs(g: DiGraph, reached: bytearray, stack: list[list[int]],
         t: int | None, counters: WorkCounters) -> bool:
    """Run or resume a DFS over g whose frontier is `stack`, a list of
    [vertex, next out-list index] cursors.  Returns True once `t` is marked
    (the stack left suspended), False once the stack is empty."""
    if t is None:
        t = -1  # as in _bfs
    out, ends = g.out_lists, g.heads
    visits = 0
    scans = 0
    found = False
    while stack:
        cur = stack[-1]
        lst = out[cur[0]]
        i = start = cur[1]
        sz = len(lst)
        while i < sz:
            w = ends[lst[i]]
            i += 1
            if not reached[w]:
                break
        else:
            scans += i - start
            stack.pop()
            continue
        scans += i - start
        cur[1] = i
        reached[w] = 1
        visits += 1
        stack.append([w, 0])
        if w == t:
            found = True
            break
    counters.vertices_visited += visits
    counters.edges_scanned += scans
    return found


def _fresh_bfs(alg: SsrAlgorithm, reached: bytearray, t: int | None) -> None:
    _bfs(alg.graph, reached, [alg.source], 0, 0, t, alg.counters)


def _fresh_dfs(alg: SsrAlgorithm, reached: bytearray, t: int | None) -> None:
    _dfs(alg.graph, reached, [[alg.source, 0]], t, alg.counters)


class _StaticSearch(SsrAlgorithm):
    """No state between operations; every query is a fresh traversal from
    the source, stopping early once the target is marked."""

    def query(self, t: int) -> bool:
        reached = bytearray(self.graph.vertex_count)
        reached[self.source] = 1
        self.counters.vertices_visited += 1
        if reached[t]:
            return True
        self._traverse(reached, t)
        return bool(reached[t])


class StaticBfs(_StaticSearch):
    _traverse = _fresh_bfs


class StaticDfs(_StaticSearch):
    _traverse = _fresh_dfs


class _FlaggedSearch(SsrAlgorithm):
    """Shared critical-update flags over a reachability cache: an insertion
    is critical when it links a cached-reachable tail to a cached-unreachable
    head, a deletion when its head is cached-reachable."""

    def initialize(self) -> None:
        self.crit_ins = False
        self.crit_del = False

    def edge_inserted(self, u: int, v: int, e: int) -> None:
        if self.cache[u] and not self.cache[v]:
            self.crit_ins = True

    def edge_deleted(self, u: int, v: int, e: int) -> None:
        if self.cache[v]:
            self.crit_del = True

    def check_invariants(self) -> None:
        """Full-scan consistency check against the oracle; raises
        AssertionError on a violation.  With no critical deletion pending
        every cached vertex is reachable, so a cached reachable answer
        holds; with no critical insertion pending and the cache complete
        every reachable vertex is cached, so a cached unreachable answer
        holds."""
        reach = oracle_reach_set(self.graph, self.source)
        assert len(self.cache) == len(reach)
        assert self.cache[self.source]
        if not self.crit_del:
            assert all(reach[v] for v, c in enumerate(self.cache) if c)
        if not self.crit_ins and self._complete():
            assert all(self.cache[v] for v, r in enumerate(reach) if r)


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
        self.cache = bytearray(self.graph.vertex_count)
        self.cache[self.source] = 1
        self.counters.vertices_visited += 1
        self._traverse(self.cache, None)

    def query(self, t: int) -> bool:
        cached = self.cache[t]
        if (self.crit_ins and not cached) or (self.crit_del and cached):
            self.crit_ins = False
            self.crit_del = False
            self.counters.recomputations += 1
            self._rebuild()
            return bool(self.cache[t])
        return bool(cached)

    def _complete(self) -> bool:
        return True


class CachingBfs(_CachedSearch):
    _traverse = _fresh_bfs


class CachingDfs(_CachedSearch):
    _traverse = _fresh_dfs


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

    Subclasses keep the frontier: `_restart` sets up a traversal holding
    only the source, `_run_until` runs it until the target is marked or the
    frontier is empty, and `_read_entries` names the out-list entries
    already read.
    """

    def initialize(self) -> None:
        super().initialize()
        self._restart()
        self._run_until(None)

    def _restart(self) -> None:
        self.cache = bytearray(self.graph.vertex_count)
        self.cache[self.source] = 1
        self.counters.vertices_visited += 1
        self.exhausted = False

    def _complete(self) -> bool:
        return self.exhausted

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

    def check_invariants(self) -> None:
        """Also, over the out-list entries the traversal has read: with no
        critical deletion pending each marked vertex but the source is led
        to by one, and with no critical update pending each leads to a
        marked vertex: the marked vertices are then exactly the
        traversal's.
        (A critical deletion may swap an unread entry into the read part of
        a list; a critical insertion may append an entry that leads to an
        unmarked vertex to a list already read.)"""
        super().check_invariants()
        if self.crit_del:
            return
        out, heads = self.graph.out_lists, self.graph.heads
        marked = {v for v, c in enumerate(self.cache) if c}
        led_to = {heads[e] for x, end in self._read_entries() for e in out[x][:end]}
        assert marked - {self.source} <= led_to
        if not self.crit_ins:
            assert led_to <= marked


class LazyBfs(_LazySearch):
    def _restart(self) -> None:
        super()._restart()
        self.order = [self.source]
        self.head = 0
        self.pos = 0

    def _run_until(self, t: int | None) -> None:
        stop = _bfs(self.graph, self.cache, self.order, self.head, self.pos, t,
                    self.counters)
        if stop is None:
            self.head, self.pos = len(self.order), 0
            self.exhausted = True
        else:
            self.head, self.pos = stop

    def _read_entries(self):
        out = self.graph.out_lists
        yield from ((x, len(out[x])) for x in self.order[:self.head])
        if self.head < len(self.order):
            yield self.order[self.head], self.pos

    def check_invariants(self) -> None:
        """Also: `order` lists each marked vertex once, source first,
        0 <= head <= len(order), and `exhausted` holds exactly when the
        frontier order[head:] is empty.  With no critical deletion pending
        `pos` lies within order[head]'s out-list (a critical deletion may
        shrink that list below `pos`, but forces a restart)."""
        super().check_invariants()
        order = self.order
        assert order[0] == self.source
        assert sorted(order) == [v for v, c in enumerate(self.cache) if c]
        assert 0 <= self.head <= len(order)
        assert self.exhausted == (self.head == len(order))
        if not self.exhausted and not self.crit_del:
            assert 0 <= self.pos <= len(self.graph.out_lists[order[self.head]])


class LazyDfs(_LazySearch):
    def _restart(self) -> None:
        super()._restart()
        self.stack = [[self.source, 0]]

    def _run_until(self, t: int | None) -> None:
        _dfs(self.graph, self.cache, self.stack, t, self.counters)
        if not self.stack:
            self.exhausted = True

    def _read_entries(self):
        out = self.graph.out_lists
        cursors = dict(map(tuple, self.stack))
        for v, c in enumerate(self.cache):
            if c:
                yield v, cursors.get(v, len(out[v]))

    def check_invariants(self) -> None:
        """Also: the stack holds distinct marked vertices, source first, and
        `exhausted` holds exactly when it is empty.  With no critical
        deletion pending each cursor lies within its out-list."""
        super().check_invariants()
        stack = self.stack
        out = self.graph.out_lists
        assert self.exhausted == (not stack)
        assert not stack or stack[0][0] == self.source
        assert len({v for v, _ in stack}) == len(stack)
        for v, i in stack:
            assert self.cache[v]
            assert i >= 0
            assert self.crit_del or i <= len(out[v])
