"""Dynamic directed multigraph with stable edge ids."""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence


class DiGraph:
    """Directed multigraph over dense vertex ids 0..n-1.

    Edges carry integer ids that are assigned in insertion order and never
    reused.  Incidence lists (out-edges keyed by tail, in-edges keyed by
    head) grow by appending; removing an edge swaps the last list entry into
    the vacated slot, so deletions perturb list order.  Parallel edges and
    self-loops are allowed; the vertex set is fixed at construction.

    Incidence entries are bare edge ids.  out_lists and in_lists are the
    live per-vertex incidence tables (out_lists[v] holds the ids of v's
    out-edges, in_lists[v] those of its in-edges), not copies: they are the
    one way to read incidence lists, and are read-only to callers.  heads
    and tails are the same kind of live, read-only tables by edge id, with
    one entry per id ever issued: heads[e] is e's head, and tails[e] is
    e's tail, or -1 once e is dead.  A traversal reads the other endpoint
    of an entry from them: `for e in out_lists[x]: w = heads[e]`, or
    `tails[e]` on an in-list.

    Costs: add_edge is O(1); remove_edge is O(the edge's positions in its
    tail's out-list and its head's in-list), found by a scan of each;
    find_edge(u, v) is O(min(out-degree of u, in-degree of v)).
    """

    __slots__ = ("_out", "_in", "_tail", "_head", "_live")

    def __init__(self, n: int = 0):
        self._out: list[list[int]] = [[] for _ in range(n)]
        self._in: list[list[int]] = [[] for _ in range(n)]
        # endpoints by edge id; a dead edge has _tail[e] == -1 (its _head
        # entry stays)
        self._tail: list[int] = []
        self._head: list[int] = []
        self._live = 0

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "DiGraph":
        """The graph that DiGraph(n) plus add_edge(u, v) for each (u, v) in
        edges, in order, would build: same ids, same list order, and
        add_edge's ValueError for the first out-of-range edge."""
        g = cls(n)
        tails = list(map(itemgetter(0), edges))
        heads = list(map(itemgetter(1), edges))
        if edges and (min(min(tails), min(heads)) < 0 or max(max(tails), max(heads)) >= n):
            for u, v in edges:
                g.add_edge(u, v)  # raises at the first out-of-range edge
        out, inc = g._out, g._in
        for e, u in enumerate(tails):
            out[u].append(e)
        for e, v in enumerate(heads):
            inc[v].append(e)
        g._tail, g._head, g._live = tails, heads, len(tails)
        return g

    # ---- size ----

    @property
    def vertex_count(self) -> int:
        return len(self._out)

    @property
    def edge_count(self) -> int:
        return self._live

    # ---- mutation ----

    def add_edge(self, u: int, v: int) -> int:
        n = len(self._out)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        # both lookups before the first write: a non-int endpoint raises
        # TypeError here and leaves the graph as it was
        out_u, in_v = self._out[u], self._in[v]
        e = len(self._tail)
        self._tail.append(u)
        self._head.append(v)
        self._live += 1
        out_u.append(e)
        in_v.append(e)
        return e

    def remove_edge(self, e: int) -> tuple[int, int]:
        """Remove a live edge, returning its (tail, head)."""
        u, v = self.endpoints(e)
        self._tail[e] = -1
        self._live -= 1
        lst = self._out[u]
        pos = lst.index(e)
        last = lst.pop()
        if pos < len(lst):
            lst[pos] = last
        lst = self._in[v]
        pos = lst.index(e)
        last = lst.pop()
        if pos < len(lst):
            lst[pos] = last
        return (u, v)

    # ---- lookup ----

    def find_edge(self, u: int, v: int) -> int | None:
        """Most recently inserted live (u, v) edge, or None."""
        n = len(self._out)
        if not (0 <= u < n and 0 <= v < n):
            return None
        # scan the shorter list: u's out-entries for head v, or v's in-entries for tail u
        lst, ends, other = self._out[u], self._head, v
        if len(self._in[v]) < len(lst):
            lst, ends, other = self._in[v], self._tail, u
        best = -1
        for e in lst:
            if ends[e] == other and e > best:
                best = e
        return best if best >= 0 else None

    def is_live(self, e: int) -> bool:
        try:
            return e >= 0 and self._tail[e] >= 0
        except (IndexError, TypeError):
            return False

    def endpoints(self, e: int) -> tuple[int, int]:
        if self.is_live(e):
            return (self._tail[e], self._head[e])
        raise ValueError(f"edge id {e} is not live")

    @property
    def out_lists(self) -> list[list[int]]:
        """Out-entries of every vertex, indexed by tail; live and read-only."""
        return self._out

    @property
    def in_lists(self) -> list[list[int]]:
        """In-entries of every vertex, indexed by head; live and read-only."""
        return self._in

    @property
    def heads(self) -> list[int]:
        """Head of every edge id ever issued, dead ones included; live and
        read-only."""
        return self._head

    @property
    def tails(self) -> list[int]:
        """Tail of every edge id ever issued, -1 for a dead edge; live and
        read-only."""
        return self._tail

    def edges(self) -> list[tuple[int, int, int]]:
        """All live edges as (edge_id, tail, head), in id order."""
        return [(e, u, self._head[e]) for e, u in enumerate(self._tail) if u >= 0]

    # ---- debug ----

    def check_invariants(self) -> None:
        """Full-scan consistency check; raises AssertionError on corruption."""
        tail, head = self._tail, self._head
        assert len(tail) == len(head)
        live = [e for e, u in enumerate(tail) if u >= 0]
        assert self._live == len(live)
        for lists, own in ((self._out, tail), (self._in, head)):
            for x, lst in enumerate(lists):
                for e in lst:
                    assert own[e] == x
            # each live edge exactly once, no dead one
            assert sorted(e for lst in lists for e in lst) == live
