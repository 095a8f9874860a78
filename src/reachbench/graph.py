"""Dynamic directed multigraph with stable edge ids."""

from __future__ import annotations

from itertools import accumulate, chain
from operator import itemgetter
from typing import Sequence


class DiGraph:
    """Directed multigraph over dense vertex ids 0..n-1.

    Edges carry integer ids that are assigned in insertion order and never
    reused.  Incidence lists (out-edges keyed by tail, in-edges keyed by
    head) grow by appending; removing an edge swaps the last list entry into
    the vacated slot, so deletions perturb list order.  Parallel edges and
    self-loops are allowed; the vertex set is fixed at construction.

    The graph is its tables, plain attributes that callers read directly.
    They are live, read-only to callers, and never rebound after
    construction: readers such as the ES/MES/SES step closures and
    static_search._bfs bind them once per rebuild or call, so a rebound
    table would leave those readers on a stale one.
    - vertex_count: n; edge_count: the number of live edges.
    - out_lists[v], in_lists[v]: the ids of v's out-edges and in-edges,
      bare edge ids, one list slot per live edge in each.
    - heads[e], tails[e]: the head and tail of every edge id ever issued,
      one slot per id in each; tails[e] is -1 once e is dead (its heads
      entry stays).  A traversal reads `for e in out_lists[x]: w =
      heads[e]`, or `tails[e]` on an in-list.
    - out_heads[v]: the head of each entry of out_lists[v], in the same
      slot (out_heads[x][i] == heads[out_lists[x][i]]), so a traversal
      that needs no edge id reads `for w in out_heads[x]`.  It costs one
      more list slot per live edge and one more list per vertex.

    Costs: add_edge is O(1); remove_edge is O(the edge's positions in its
    tail's out-list and its head's in-list), found by a scan of each;
    find_edge(u, v) is O(out-degree of u): list.count and list.index, C
    scans of out_heads[u], find v's slots, and out_lists[u] is read only
    at those; pop_edge(u, v) costs find_edge plus the in-list scan, as the
    lookup already found the out-list slot.
    """

    __slots__ = ("vertex_count", "edge_count", "out_lists", "out_heads", "in_lists",
                 "heads", "tails")

    def __init__(self, n: int = 0):
        self.out_lists: list[list[int]] = [[] for _ in range(n)]
        self.out_heads: list[list[int]] = [[] for _ in range(n)]
        self.in_lists: list[list[int]] = [[] for _ in range(n)]
        self.vertex_count = len(self.out_lists)
        self.edge_count = 0
        self.heads: list[int] = []
        self.tails: list[int] = []

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
        out, out_heads, inc = g.out_lists, g.out_heads, g.in_lists
        # one pass, so an edge's out-list and in-list entries are one int
        # object, as add_edge makes them
        for e, (u, v) in enumerate(edges):
            out[u].append(e)
            out_heads[u].append(v)
            inc[v].append(e)
        g.tails, g.heads, g.edge_count = tails, heads, len(tails)
        return g

    def grouping(self) -> tuple[list[int], ...]:
        """The tables as seven flat lists of ints, which from_grouping
        rebuilds an equal graph from: out_lists, out_heads and in_lists,
        each concatenated over the vertices in order; the n + 1 start
        offsets of each vertex's out-lists and of its in-list; and copies
        of tails and heads.  Nothing in it is shared with the graph's
        lists, and an edge id is the one int object in both concatenated
        incidence lists when it is in both of the graph's."""
        offsets = [0, *accumulate(map(len, self.out_lists))]
        in_offsets = [0, *accumulate(map(len, self.in_lists))]
        return (list(chain.from_iterable(self.out_lists)),
                list(chain.from_iterable(self.out_heads)),
                list(chain.from_iterable(self.in_lists)),
                offsets, in_offsets, self.tails.copy(), self.heads.copy())

    @classmethod
    def from_grouping(cls, grouping: tuple[list[int], ...]) -> "DiGraph":
        """A fresh graph equal, table for table, to the one grouping() was
        read from.  Each incidence list is a C slice of its flat list and
        tails and heads are copies, so the result shares no list with the
        grouping, and the grouping can rebuild any number of graphs."""
        out, out_heads, inc, offsets, in_offsets, tails, heads = grouping
        g = cls()
        ends = offsets[1:]
        g.out_lists = list(map(out.__getitem__, map(slice, offsets, ends)))
        g.out_heads = list(map(out_heads.__getitem__, map(slice, offsets, ends)))
        g.in_lists = list(map(inc.__getitem__, map(slice, in_offsets, in_offsets[1:])))
        g.vertex_count = len(ends)
        g.edge_count = len(out)
        g.tails = tails.copy()
        g.heads = heads.copy()
        return g

    # ---- mutation ----

    def add_edge(self, u: int, v: int) -> int:
        n = self.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        # both lookups before the first write: a non-int endpoint raises
        # TypeError here and leaves the graph as it was
        out_u, heads_u, in_v = self.out_lists[u], self.out_heads[u], self.in_lists[v]
        e = len(self.tails)
        self.tails.append(u)
        self.heads.append(v)
        self.edge_count += 1
        out_u.append(e)
        heads_u.append(v)
        in_v.append(e)
        return e

    def remove_edge(self, e: int) -> tuple[int, int]:
        """Remove a live edge, returning its (tail, head).  The replay
        engine removes through pop_edge; this is for callers that hold an
        id: the benchmark's oracle gate and graph-apply timing
        (`benchmarks/workloads.py` `oracle_gate`, `graph_apply_ns`) and
        the tests."""
        u, v = self.endpoints(e)
        self._unlink(e, u, v, self.out_lists[u].index(e))
        return (u, v)

    def pop_edge(self, u: int, v: int) -> int | None:
        """Remove the most recently inserted live (u, v) edge and return its
        id: remove_edge(find_edge(u, v)) in one call.  None, with the graph
        unchanged, when there is no such edge."""
        pos = self._slot(u, v)
        if pos < 0:
            return None
        e = self.out_lists[u][pos]
        self._unlink(e, u, v, pos)
        return e

    def _unlink(self, e: int, u: int, v: int, pos: int) -> None:
        """Mark live edge e = (u, v) dead and swap-remove its entries from
        u's out-list at slot pos, the same slot of u's head list, and
        v's in-list."""
        self.tails[e] = -1
        self.edge_count -= 1
        out_u, heads_u, in_v = self.out_lists[u], self.out_heads[u], self.in_lists[v]
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
        pos = self._slot(u, v)
        return self.out_lists[u][pos] if pos >= 0 else None

    def _slot(self, u: int, v: int) -> int:
        """The slot of the most recently inserted live (u, v) edge in
        out_lists[u], or -1 when there is none."""
        n = self.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            return -1
        heads_u = self.out_heads[u]
        k = heads_u.count(v)
        if not k:
            return -1
        out_u = self.out_lists[u]
        pos = i = heads_u.index(v)
        for _ in range(k - 1):  # parallel edges: the largest id is the newest
            i = heads_u.index(v, i + 1)
            if out_u[i] > out_u[pos]:
                pos = i
        return pos

    def is_live(self, e: int) -> bool:
        try:
            return e >= 0 and self.tails[e] >= 0
        except (IndexError, TypeError):
            return False

    def endpoints(self, e: int) -> tuple[int, int]:
        if self.is_live(e):
            return (self.tails[e], self.heads[e])
        raise ValueError(f"edge id {e} is not live")

    # ---- debug ----

    def check_invariants(self) -> None:
        """Full-scan consistency check; raises AssertionError on corruption."""
        tail, head = self.tails, self.heads
        assert len(tail) == len(head)
        live = [e for e, u in enumerate(tail) if u >= 0]
        assert self.edge_count == len(live)
        for lists, own in ((self.out_lists, tail), (self.in_lists, head)):
            for x, lst in enumerate(lists):
                for e in lst:
                    assert own[e] == x
            # each live edge exactly once, no dead one
            assert sorted(e for lst in lists for e in lst) == live
        assert self.vertex_count == len(self.out_lists) == len(self.out_heads) == len(self.in_lists)
        for lst, heads_x in zip(self.out_lists, self.out_heads):
            assert heads_x == [head[e] for e in lst]
