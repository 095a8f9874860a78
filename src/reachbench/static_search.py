"""Dynamized static searches: pure per-query traversals, a lazy variant
that keeps a suspendable traversal and a reachability cache invalidated by
critical updates, and a cached variant that is the lazy one run to the end
at every (re)start.  The cached and lazy variants share one set of flags,
one query path and one `check_invariants`, which checks the read entries of
the cached variant's (always finished) traversal too.

Every traversal reads the graph's live out-head lists, `DiGraph.out_heads`,
in incidence-list order, and marks a vertex when an entry first leads to
it.  An out-head entry is the head itself, so the kernels read no edge id
and no `heads` table: `for w in out_heads[x]` is one specialised list
iteration per entry.  Mark tables are `[0] * n` lists, whose int
subscripts CPython 3.11 specialises and bytearray subscripts it does not.
Counting rule: each marked vertex, the source included, is one vertex
visited, and each out-list entry read is one edge scanned; a traversal
that stops at a target has read its out-lists up to and including the
entry that marked the target.

BFS keeps its frontier as the list of marked vertices in marking order:
`order[head:]` are the vertices whose out-lists are not yet fully read, and
`pos` is how far `order[head]`'s list has been read.  A fresh traversal
iterates the growing `order` list directly.  A resumed one restarts at
`order[head]` and reads that vertex's live list from `pos`, so it also
reads entries appended, or swapped in by a removal, since it stopped.
DFS keeps a stack of [vertex, cursor] pairs with the same resume rule.

The oracle in `core.oracle_reach_set` is a separate BFS that shares no
code with these kernels and reads `out_lists` and `heads`, not
`out_heads`; so do `_LazySearch.check_invariants` and `_read_entries`.
An `out_heads` entry that drifted from its edge's head therefore shows as
a divergence from the oracle, not as agreement with it.
"""

from __future__ import annotations

from itertools import islice

from .core import SsrAlgorithm, WorkCounters, oracle_reach_set
from .graph import DiGraph


def _bfs(g: DiGraph, reached: list[int], order: list[int], head: int, pos: int,
         t: int | None, counters: WorkCounters) -> tuple[int, int] | None:
    """Run or resume a BFS over g whose frontier is `order[head:]`, with
    `pos` entries of `order[head]`'s out-list already read.

    Newly marked vertices are appended to `order`.  Returns the (head, pos)
    cursor just past the entry that marked `t`, or None once the frontier
    is exhausted; `t` None never stops.
    """
    if t is None:
        t = -1  # an int compares with an int faster than with None
    out = g.out_heads
    marked = len(order)
    scans = -pos
    for x in islice(order, head, None) if head else order:
        lst = out[x]
        scans += len(lst)
        for w in islice(lst, pos, None) if pos else lst:
            if not reached[w]:
                reached[w] = 1
                order.append(w)
                if w == t:
                    # t was unmarked until this entry, so its first entry
                    # at or after pos is the one just read
                    pos = lst.index(t, pos) + 1
                    counters.vertices_visited += len(order) - marked
                    counters.edges_scanned += scans - (len(lst) - pos)
                    return order.index(x, head), pos
        pos = 0
    counters.vertices_visited += len(order) - marked
    counters.edges_scanned += scans
    return None


def _dfs(g: DiGraph, reached: list[int], stack: list[list[int]],
         t: int | None, counters: WorkCounters) -> bool:
    """Run or resume a DFS over g whose frontier is `stack`, a list of
    [vertex, next out-list index] cursors.  Returns True once `t` is marked
    (the stack left suspended), False once the stack is empty."""
    if t is None:
        t = -1  # as in _bfs
    out = g.out_heads
    visits = 0
    scans = 0
    found = False
    while stack:
        cur = stack[-1]
        lst = out[cur[0]]
        i = start = cur[1]
        sz = len(lst)
        while i < sz:
            w = lst[i]
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


def _fresh_bfs(alg: SsrAlgorithm, reached: list[int], t: int | None) -> None:
    _bfs(alg.graph, reached, [alg.source], 0, 0, t, alg.counters)


def _fresh_dfs(alg: SsrAlgorithm, reached: list[int], t: int | None) -> None:
    _dfs(alg.graph, reached, [[alg.source, 0]], t, alg.counters)


class _StaticSearch(SsrAlgorithm):
    """No state between operations; every query is a fresh traversal from
    the source, stopping early once the target is marked."""

    def query(self, t: int) -> bool:
        reached = [0] * self.graph.vertex_count
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


class _LazySearch(SsrAlgorithm):
    """Partial cache fed by a suspendable traversal, invalidated by
    critical updates.

    An insertion is critical when it links a cached-reachable tail to a
    cached-unreachable head, a deletion when its head is cached-reachable;
    an unvisited vertex counts as unreachable.  A query returns a cached
    reachable answer while no critical deletion has been seen, and a cached
    unreachable answer from an exhausted traversal while no critical
    insertion has been seen.  The suspended traversal is resumed only while
    neither flag is set: a critical deletion can sever the region the
    frontier sits in, so resuming after one could claim dead vertices (see
    `test_lazy_never_resumes_after_a_critical_deletion`).  All remaining
    cases invalidate the cache, clear both flags, and start the traversal
    anew, running it just far enough to classify the target.

    Subclasses keep the frontier: `_restart` sets up a traversal holding
    only the source, `_run_until` runs it until the target is marked or the
    frontier is empty, and `_read_entries` names the out-list entries
    already read.
    """

    def initialize(self) -> None:
        self.crit_ins = False
        self.crit_del = False
        self._restart()
        self._run_until(None)

    def edge_inserted(self, u: int, v: int, e: int) -> None:
        if self.cache[u] and not self.cache[v]:
            self.crit_ins = True

    def edge_deleted(self, u: int, v: int, e: int) -> None:
        if self.cache[v]:
            self.crit_del = True

    def _restart(self) -> None:
        self.cache = [0] * self.graph.vertex_count
        self.cache[self.source] = 1
        self.counters.vertices_visited += 1
        self.exhausted = False

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
        """Full-scan consistency check against the oracle; raises
        AssertionError on a violation.  With no critical deletion pending
        every cached vertex is reachable, so a cached reachable answer
        holds; with no critical insertion pending and the traversal
        exhausted every reachable vertex is cached, so a cached unreachable
        answer holds.  Also, over the out-list entries the traversal has
        read: with no critical deletion pending each marked vertex but the
        source is led to by one, and with no critical update pending each
        leads to a marked vertex: the marked vertices are then exactly the
        traversal's.
        (A critical deletion may swap an unread entry into the read part of
        a list; a critical insertion may append an entry that leads to an
        unmarked vertex to a list already read.)"""
        reach = oracle_reach_set(self.graph, self.source)
        assert len(self.cache) == len(reach)
        assert self.cache[self.source]
        if not self.crit_ins and self.exhausted:
            assert all(self.cache[v] for v, r in enumerate(reach) if r)
        if self.crit_del:
            return
        assert all(reach[v] for v, c in enumerate(self.cache) if c)
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


class CachingBfs(LazyBfs):
    """LazyBfs whose every (re)start runs the traversal to its end, so the
    cache is always complete and a query that does not restart is answered
    in O(1).  The run belongs in `_restart`, not `_run_until`: a query
    whose target the restart marks (the source) returns before
    `_run_until`, and the whole rebuild must land in that query's record."""

    def _restart(self) -> None:
        super()._restart()
        self._run_until(None)


class CachingDfs(LazyDfs):
    """LazyDfs run to the end at every (re)start, as CachingBfs."""

    def _restart(self) -> None:
        super()._restart()
        self._run_until(None)
