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
    `tails[e]` on an in-list.  A traversal that needs only the heads, not
    the ids, reads out_heads, a third live, read-only per-vertex table in
    step with out_lists: out_heads[x][i] == heads[out_lists[x][i]] for
    every entry, so `for w in out_heads[x]` reads no edge id at all.

    Costs: add_edge is O(1); remove_edge is O(the edge's positions in its
    tail's out-list and its head's in-list), found by a scan of each;
    find_edge(u, v) is O(out-degree of u): list.count and list.index, C
    scans of out_heads[u], find v's slots, and out_lists[u] is read only
    at those; pop_edge(u, v) costs the two together.  The head table costs
    one more list slot per edge and one more list per vertex.
    """

    __slots__ = ("_out", "_out_heads", "_in", "_tail", "_head", "_live")

    def __init__(self, n: int = 0):
        self._out: list[list[int]] = [[] for _ in range(n)]
        # _out_heads[x][i] is the head of edge _out[x][i]
        self._out_heads: list[list[int]] = [[] for _ in range(n)]
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
        out, out_heads, inc = g._out, g._out_heads, g._in
        for e, (u, v) in enumerate(edges):
            out[u].append(e)
            out_heads[u].append(v)
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
        out_u, heads_u, in_v = self._out[u], self._out_heads[u], self._in[v]
        e = len(self._tail)
        self._tail.append(u)
        self._head.append(v)
        self._live += 1
        out_u.append(e)
        heads_u.append(v)
        in_v.append(e)
        return e

    def remove_edge(self, e: int) -> tuple[int, int]:
        """Remove a live edge, returning its (tail, head)."""
        u, v = self.endpoints(e)
        self._unlink(e, u, v)
        return (u, v)

    def pop_edge(self, u: int, v: int) -> int | None:
        """Remove the most recently inserted live (u, v) edge and return its
        id: remove_edge(find_edge(u, v)) in one call.  None, with the graph
        unchanged, when there is no such edge."""
        e = self.find_edge(u, v)
        if e is not None:
            self._unlink(e, u, v)
        return e

    def _unlink(self, e: int, u: int, v: int) -> None:
        """Mark live edge e = (u, v) dead and swap-remove its entries from
        u's out-list, the same slot of u's head list, and v's in-list."""
        self._tail[e] = -1
        self._live -= 1
        out_u, heads_u, in_v = self._out[u], self._out_heads[u], self._in[v]
        pos = out_u.index(e)
        last = out_u.pop()
        last_head = heads_u.pop()
        if pos < len(out_u):
            out_u[pos] = last
            heads_u[pos] = last_head
        pos = in_v.index(e)
        last = in_v.pop()
        if pos < len(in_v):
            in_v[pos] = last

    # ---- lookup ----

    def find_edge(self, u: int, v: int) -> int | None:
        """Most recently inserted live (u, v) edge, or None."""
        n = len(self._out)
        if not (0 <= u < n and 0 <= v < n):
            return None
        heads_u = self._out_heads[u]
        k = heads_u.count(v)
        if not k:
            return None
        out_u = self._out[u]
        i = heads_u.index(v)
        best = out_u[i]
        for _ in range(k - 1):  # parallel edges: the largest id is the newest
            i = heads_u.index(v, i + 1)
            if out_u[i] > best:
                best = out_u[i]
        return best

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
    def out_heads(self) -> list[list[int]]:
        """Heads of every vertex's out-entries, in out_lists order; live and
        read-only."""
        return self._out_heads

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
        assert len(self._out_heads) == len(self._out)
        for lst, heads_x in zip(self._out, self._out_heads):
            assert heads_x == [head[e] for e in lst]
