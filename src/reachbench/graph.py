"""Dynamic directed multigraph with stable edge ids and O(1) removal."""

from __future__ import annotations


class DiGraph:
    """Directed multigraph over dense vertex ids 0..n-1.

    Edges carry integer ids that are assigned in insertion order and never
    reused.  Incidence lists (out-edges keyed by tail, in-edges keyed by
    head) grow by appending; removing an edge swaps the last list entry into
    the vacated slot, so deletions perturb list order.  Parallel edges and
    self-loops are allowed; vertices cannot be removed.

    Incidence entries are (edge_id, other_endpoint) pairs.  The lists
    returned by out_edges()/in_edges(), and the per-vertex table of out-lists
    returned by out_lists, are the live internals: treat them as read-only.
    """

    __slots__ = ("_out", "_in", "_endpoints", "_out_pos", "_in_pos",
                 "_by_pair", "_next_edge")

    def __init__(self, n: int = 0):
        self._out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._in: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._endpoints: dict[int, tuple[int, int]] = {}
        # position of each live edge inside its tail's out list / head's in list
        self._out_pos: dict[int, int] = {}
        self._in_pos: dict[int, int] = {}
        # (u, v) -> live edge ids in insertion order, for endpoint lookups
        self._by_pair: dict[tuple[int, int], list[int]] = {}
        self._next_edge = 0

    # ---- size ----

    @property
    def vertex_count(self) -> int:
        return len(self._out)

    @property
    def edge_count(self) -> int:
        return len(self._endpoints)

    # ---- mutation ----

    def add_vertex(self) -> int:
        self._out.append([])
        self._in.append([])
        return len(self._out) - 1

    def add_edge(self, u: int, v: int) -> int:
        n = len(self._out)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        e = self._next_edge
        self._next_edge = e + 1
        self._endpoints[e] = (u, v)
        self._out_pos[e] = len(self._out[u])
        self._out[u].append((e, v))
        self._in_pos[e] = len(self._in[v])
        self._in[v].append((e, u))
        self._by_pair.setdefault((u, v), []).append(e)
        return e

    def remove_edge(self, e: int) -> tuple[int, int]:
        """Remove a live edge, returning its (tail, head)."""
        try:
            u, v = self._endpoints.pop(e)
        except KeyError:
            raise ValueError(f"edge id {e} is not live") from None
        lst = self._out[u]
        pos = self._out_pos.pop(e)
        last = lst.pop()
        if last[0] != e:
            lst[pos] = last
            self._out_pos[last[0]] = pos
        lst = self._in[v]
        pos = self._in_pos.pop(e)
        last = lst.pop()
        if last[0] != e:
            lst[pos] = last
            self._in_pos[last[0]] = pos
        ids = self._by_pair[(u, v)]
        ids.remove(e)
        if not ids:
            del self._by_pair[(u, v)]
        return (u, v)

    # ---- lookup ----

    def find_edge(self, u: int, v: int) -> int | None:
        """Most recently inserted live (u, v) edge, or None."""
        ids = self._by_pair.get((u, v))
        return ids[-1] if ids else None

    def is_live(self, e: int) -> bool:
        return e in self._endpoints

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self._endpoints[e]
        except KeyError:
            raise ValueError(f"edge id {e} is not live") from None

    def out_edges(self, v: int) -> list[tuple[int, int]]:
        return self._out[v]

    @property
    def out_lists(self) -> list[list[tuple[int, int]]]:
        """The out-list of every vertex, indexed by tail: out_lists[v] is
        out_edges(v).  Live and read-only, for traversals that would
        otherwise call out_edges() once per vertex."""
        return self._out

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def degree(self, v: int) -> int:
        return len(self._out[v]) + len(self._in[v])

    def edges(self) -> list[tuple[int, int, int]]:
        """All live edges as (edge_id, tail, head), in id order."""
        return [(e, uv[0], uv[1]) for e, uv in sorted(self._endpoints.items())]

    # ---- debug ----

    def check_invariants(self) -> None:
        """Full-scan consistency check; raises AssertionError on corruption."""
        seen = 0
        for u, lst in enumerate(self._out):
            for pos, (e, v) in enumerate(lst):
                assert self._endpoints[e] == (u, v)
                assert self._out_pos[e] == pos
                seen += 1
        assert seen == len(self._endpoints)
        seen = 0
        for v, lst in enumerate(self._in):
            for pos, (e, u) in enumerate(lst):
                assert self._endpoints[e] == (u, v)
                assert self._in_pos[e] == pos
                seen += 1
        assert seen == len(self._endpoints)
        for (u, v), ids in self._by_pair.items():
            assert ids == sorted(ids)
            for e in ids:
                assert self._endpoints[e] == (u, v)
        total = sum(len(ids) for ids in self._by_pair.values())
        assert total == len(self._endpoints)
        for v in range(len(self._out)):
            assert self.degree(v) == self.out_degree(v) + self.in_degree(v)
