"""Uniform hypergraphs with the exact deletion calculus used by the
matching-polynomial identities, plus supertree validation and
small-instance isomorphism testing.

Values are immutable; every operation returns a new hypergraph. Vertices
of an n-vertex hypergraph are always 0..n-1, and deletions renumber the
survivors order-preservingly, so structurally identical results compare
equal as plain values.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Sequence


class HypergraphError(ValueError):
    """Invalid hypergraph construction or operation."""


Edge = tuple[int, ...]


@dataclass(frozen=True)
class UniformHypergraph:
    """An r-uniform hypergraph on vertices 0..n-1.

    Edges are stored as sorted vertex tuples in one sorted tuple, so
    iteration order is deterministic and instances are hashable (used as
    cache keys downstream). Isolated vertices are first-class: n may
    exceed the number of vertices covered by edges.
    """

    r: int
    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if self.r < 2:
            raise HypergraphError(f"edge size r must be >= 2, got {self.r}")
        if self.n < 0:
            raise HypergraphError(f"vertex count must be >= 0, got {self.n}")
        normalized = []
        for e in self.edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) != self.r or len(set(t)) != self.r:
                raise HypergraphError(f"edge {list(e)} is not a set of {self.r} distinct vertices")
            if t[0] < 0 or t[-1] >= self.n:
                raise HypergraphError(f"edge {list(e)} has a vertex outside 0..{self.n - 1}")
            normalized.append(t)
        if len(set(normalized)) != len(normalized):
            dup = [e for e, k in Counter(normalized).items() if k > 1][0]
            raise HypergraphError(f"duplicate edge {list(dup)}")
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    # -- basic queries --------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return sum(1 for e in self.edges if v in e)

    def incident_edges(self, v: int) -> list[Edge]:
        self._check_vertex(v)
        return [e for e in self.edges if v in e]

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise HypergraphError(f"vertex {v} not in 0..{self.n - 1}")

    # -- deletion calculus ----------------------------------------------

    def delete_vertex(self, v: int) -> "UniformHypergraph":
        """Remove v and every edge incident with it; survivors are renumbered
        order-preservingly to 0..n-2."""
        self._check_vertex(v)
        return self.delete_vertices([v])

    def delete_vertices(self, vs: Iterable[int]) -> "UniformHypergraph":
        gone = set(vs)
        for v in gone:
            self._check_vertex(v)
        remap = {}
        for w in range(self.n):
            if w not in gone:
                remap[w] = len(remap)
        edges = [
            tuple(remap[w] for w in e)
            for e in self.edges
            if gone.isdisjoint(e)
        ]
        return UniformHypergraph(self.r, self.n - len(gone), tuple(edges))

    def delete_closed_edge(self, e: Iterable[int]) -> "UniformHypergraph":
        """Remove all r vertices of edge e (and hence every edge meeting them)."""
        t = tuple(sorted(e))
        if t not in set(self.edges):
            raise HypergraphError(f"edge {list(t)} not present")
        return self.delete_vertices(t)

    def delete_edges(self, es: Iterable[Iterable[int]]) -> "UniformHypergraph":
        """Remove the given edges; the vertex set is unchanged."""
        gone = {tuple(sorted(e)) for e in es}
        present = set(self.edges)
        for e in gone:
            if e not in present:
                raise HypergraphError(f"edge {list(e)} not present")
        return UniformHypergraph(self.r, self.n, tuple(e for e in self.edges if e not in gone))

    def disjoint_union(self, other: "UniformHypergraph") -> "UniformHypergraph":
        return disjoint_union(self, other)

    # -- connectivity ---------------------------------------------------

    def _vertex_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                adj[v].extend(w for w in e if w != v)
        return adj

    def component_vertex_sets(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest member."""
        adj = self._vertex_adjacency()
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            queue = deque([start])
            comp = [start]
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def components(self) -> list["UniformHypergraph"]:
        """Connected components, each renumbered order-preservingly."""
        out = []
        for comp in self.component_vertex_sets():
            remap = {v: i for i, v in enumerate(comp)}
            inside = set(comp)
            edges = tuple(
                tuple(remap[w] for w in e) for e in self.edges if e[0] in inside
            )
            out.append(UniformHypergraph(self.r, len(comp), edges))
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return len(self.component_vertex_sets()) == 1

    def is_supertree(self) -> bool:
        """Connected and acyclic (the vertex-edge incidence graph is a tree).

        Equivalent count form: connected and n == m(r-1) + 1.
        """
        return self.is_connected() and self.n == self.num_edges * (self.r - 1) + 1

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"r": self.r, "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "UniformHypergraph":
        for key in ("r", "n", "edges"):
            if key not in data:
                raise HypergraphError(f"hypergraph JSON missing key {key!r}")
        if not isinstance(data["edges"], list):
            raise HypergraphError("hypergraph JSON 'edges' must be a list")
        return cls(int(data["r"]), int(data["n"]), tuple(tuple(e) for e in data["edges"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "UniformHypergraph":
        return cls.from_json_dict(json.loads(text))

    def __str__(self) -> str:
        return f"UniformHypergraph(r={self.r}, n={self.n}, m={self.num_edges})"


def build(r: int, n: int, edges: Sequence[Sequence[int]]) -> UniformHypergraph:
    """Validated construction from plain lists (see UniformHypergraph)."""
    return UniformHypergraph(r, n, tuple(tuple(e) for e in edges))


def isolated(n: int, r: int = 2) -> UniformHypergraph:
    """n isolated vertices and no edges."""
    return UniformHypergraph(r, n, ())


def disjoint_union(g: UniformHypergraph, h: UniformHypergraph) -> UniformHypergraph:
    """Disjoint union; h's vertices are shifted up by g.n.

    Edge sizes must agree unless a side is edgeless, in which case the
    uniformity of the other side wins.
    """
    if g.edges and h.edges and g.r != h.r:
        raise HypergraphError(f"cannot union edge sizes {g.r} and {h.r}")
    r = g.r if g.edges else (h.r if h.edges else g.r)
    edges = list(g.edges) + [tuple(v + g.n for v in e) for e in h.edges]
    return UniformHypergraph(r, g.n + h.n, tuple(edges))


# -- isomorphism ---------------------------------------------------------


def _joint_refine(g: UniformHypergraph, h: UniformHypergraph):
    """Iterative color refinement run jointly on both hypergraphs.

    Returns (colors_g, colors_h) with comparable color ids, or None as
    soon as the color multisets diverge (a cheap non-isomorphism proof).
    """
    table: dict = {}

    def norm(sig):
        if sig not in table:
            table[sig] = len(table)
        return table[sig]

    cg = [norm(("deg", g.degree(v))) for v in range(g.n)]
    ch = [norm(("deg", h.degree(v))) for v in range(h.n)]
    if sorted(cg) != sorted(ch):
        return None

    def step(hg, colors):
        new = []
        for v in range(hg.n):
            edge_sigs = sorted(
                tuple(sorted(colors[w] for w in e)) for e in hg.incident_edges(v)
            )
            new.append((colors[v], tuple(edge_sigs)))
        return new

    for _ in range(max(g.n, 1)):
        ng = [norm(s) for s in step(g, cg)]
        nh = [norm(s) for s in step(h, ch)]
        if sorted(ng) != sorted(nh):
            return None
        stable = len(set(ng)) == len(set(cg))
        cg, ch = ng, nh
        if stable:
            break
    return cg, ch


def _connected_isomorphic(g: UniformHypergraph, h: UniformHypergraph) -> bool:
    """Backtracking isomorphism test for connected hypergraphs.

    Candidates are restricted to matching refinement colors and the
    search order follows a BFS from the rarest color class, so mapped
    regions stay connected and dead branches are cut early.
    """
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if g.edges and h.edges and g.r != h.r:
        return False
    if g.edges == h.edges:
        return True
    refined = _joint_refine(g, h)
    if refined is None:
        return False
    cg, ch = refined

    sizes = Counter(cg)
    start = min(range(g.n), key=lambda v: (sizes[cg[v]], cg[v], v))
    adj = g._vertex_adjacency()
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in sorted(set(adj[v]), key=lambda w: (sizes[cg[w]], cg[w], w)):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    # connected input: BFS reaches everything

    h_edge_set = set(h.edges)
    g_incident = [g.incident_edges(v) for v in range(g.n)]
    mapping = [-1] * g.n
    used = [False] * h.n
    h_candidates: dict[int, list[int]] = {}
    for w in range(h.n):
        h_candidates.setdefault(ch[w], []).append(w)

    def image_consistent(v: int) -> bool:
        mapped_edges = 0
        image = {w for w in mapping if w != -1}
        for e in g.edges:
            if all(mapping[x] != -1 for x in e):
                mapped_edges += 1
                if tuple(sorted(mapping[x] for x in e)) not in h_edge_set:
                    return False
        inside = sum(1 for e in h.edges if all(x in image for x in e))
        return inside == mapped_edges

    def assign(idx: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        for w in h_candidates.get(cg[v], ()):
            if used[w]:
                continue
            mapping[v] = w
            used[w] = True
            if image_consistent(v) and assign(idx + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return assign(0)


def _component_profile(c: UniformHypergraph):
    return (
        c.n,
        c.num_edges,
        tuple(sorted(c.degree(v) for v in range(c.n))),
        tuple(sorted(tuple(sorted(c.degree(v) for v in e)) for e in c.edges)),
    )


def are_isomorphic(g: UniformHypergraph, h: UniformHypergraph) -> bool:
    """Edge-preserving vertex bijection test.

    Intended for small instances (roughly n <= 20 per component beyond
    the cheap invariant screens); this is not enforced, just slow above
    that. Components are matched within invariant classes first, so
    unions reject quickly on component-profile mismatches.
    """
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if g.edges and h.edges and g.r != h.r:
        return False
    comps_g = g.components()
    comps_h = h.components()
    if len(comps_g) != len(comps_h):
        return False

    groups_g: dict = {}
    groups_h: dict = {}
    for c in comps_g:
        groups_g.setdefault(_component_profile(c), []).append(c)
    for c in comps_h:
        groups_h.setdefault(_component_profile(c), []).append(c)
    if set(groups_g) != set(groups_h):
        return False

    for key, left in groups_g.items():
        right = groups_h[key]
        if len(left) != len(right):
            return False
        pair_cache: dict[tuple[int, int], bool] = {}

        def pair_iso(i: int, j: int) -> bool:
            if (i, j) not in pair_cache:
                pair_cache[(i, j)] = _connected_isomorphic(left[i], right[j])
            return pair_cache[(i, j)]

        taken = [False] * len(right)

        def match(i: int) -> bool:
            if i == len(left):
                return True
            for j in range(len(right)):
                if not taken[j] and pair_iso(i, j):
                    taken[j] = True
                    if match(i + 1):
                        return True
                    taken[j] = False
            return False

        if not match(0):
            return False
    return True
