"""Uniform hypergraphs with the exact deletion calculus used by the
matching-polynomial identities, plus the rooting of a superforest into
its core shape, how the vertices of degree >= 2 meet in edges, which
does not depend on r and also decides the supertree test, and
superforest isomorphism by one canonical code per core shape.

This module holds the cache, two kinds of record, each a dict of
results by name. An input keeps what needs its labelled edges or a
search; everything else is a view of its core shape:
* one per whole input, filled by `_memo`: the record of its core shape
  here, and rho and the r = 2 oracle in `spectra`;
* one per core shape, filled by `_shape_memo`, which keeps what does
  not depend on r: the canonical code here, the matching counts in
  `matching` and the spectrum of q in `spectra`, from which phi and ME
  are read on each call. One family member at r = 2..5 has one shape,
  so these are computed once for all four.

Values are immutable; every operation returns a new hypergraph. Vertices
of an n-vertex hypergraph are always 0..n-1, and deletions renumber the
survivors order-preservingly, so structurally identical results compare
equal as plain values.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence


class HypergraphError(ValueError):
    """Invalid hypergraph construction or operation."""


Edge = tuple[int, ...]


def _integer(value, what: str, edge=None) -> int:
    """value as a plain int: ints and other integer types (anything with
    __index__, such as numpy integers) pass, and floats, strings and bools
    raise HypergraphError rather than being truncated or read as 0/1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    where = "" if edge is None else f" in edge {list(edge)}"
    raise HypergraphError(f"{what} must be an integer, got {value!r}{where}")


def _edge_size(r) -> int:
    """r as a plain int (by `_integer`'s rule) if it is an edge size, >= 2:
    the one check of r, which constructors make before building any edge."""
    r = _integer(r, "edge size r")
    if r < 2:
        raise HypergraphError(f"edge size r must be >= 2, got {r}")
    return r


@dataclass(frozen=True)
class UniformHypergraph:
    """An r-uniform hypergraph on vertices 0..n-1.

    Edges are stored as sorted vertex tuples in one sorted tuple, so
    iteration order is deterministic and instances are hashable (used as
    cache keys downstream; the hash is computed once, at construction).
    Isolated vertices are first-class: n may
    exceed the number of vertices covered by edges. r, n and the
    vertices must be integers (ints, or integer types such as numpy's);
    floats, strings and bools raise HypergraphError.
    """

    r: int
    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        r = _edge_size(self.r)
        n = _integer(self.n, "vertex count")
        if n < 0:
            raise HypergraphError(f"vertex count must be >= 0, got {n}")
        edges = tuple(self.edges)
        if not set(map(type, chain.from_iterable(edges))) <= {int}:
            edges = [[_integer(v, "a vertex", e) for v in e] for e in edges]
        normalized = []
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != r or len(set(t)) != r:
                raise HypergraphError(f"edge {list(e)} is not a set of {r} distinct vertices")
            if t[0] < 0 or t[-1] >= n:
                raise HypergraphError(f"edge {list(e)} has a vertex outside 0..{n - 1}")
            normalized.append(t)
        if len(set(normalized)) != len(normalized):
            dup = [e for e, k in Counter(normalized).items() if k > 1][0]
            raise HypergraphError(f"duplicate edge {list(dup)}")
        edges = tuple(sorted(normalized))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_hash", hash((r, n, edges)))

    def __hash__(self) -> int:
        return self._hash

    # -- basic queries --------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        v = self._check_vertex(v)
        return sum(1 for e in self.edges if v in e)

    def _check_vertex(self, v: int) -> int:
        """v as a plain int (by `_integer`'s rule) if it is a vertex of self."""
        v = _integer(v, "a vertex")
        if not 0 <= v < self.n:
            raise HypergraphError(f"vertex {v} not in 0..{self.n - 1}")
        return v

    # -- deletion calculus ----------------------------------------------

    def delete_vertex(self, v: int) -> "UniformHypergraph":
        """Remove v and every edge incident with it; survivors are renumbered
        order-preservingly to 0..n-2."""
        return self.delete_vertices([v])

    def delete_vertices(self, vs: Iterable[int]) -> "UniformHypergraph":
        gone = {self._check_vertex(v) for v in vs}
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

    # -- connectivity ---------------------------------------------------

    def components(self) -> list["UniformHypergraph"]:
        """Connected components, ordered by smallest member, each renumbered
        order-preservingly: one union-find over the edges (Tarjan, J. ACM
        1975), with every set's smallest vertex as its root."""
        parent = list(range(self.n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]  # path halving
                v = parent[v]
            return v

        for e in self.edges:
            tops = [find(v) for v in e]
            low = min(tops)
            for t in tops:
                parent[t] = low
        top = [find(v) for v in range(self.n)]
        members: dict[int, list[int]] = {}  # by root, so by smallest member
        index = []  # each vertex's index in its component
        for v, t in enumerate(top):
            comp = members.setdefault(t, [])
            index.append(len(comp))
            comp.append(v)
        edges: dict[int, list[Edge]] = {t: [] for t in members}
        for e in self.edges:
            edges[top[e[0]]].append(tuple(index[v] for v in e))
        return [UniformHypergraph(self.r, len(members[t]), tuple(edges[t])) for t in members]

    def is_supertree(self) -> bool:
        """Connected and acyclic (the vertex-edge incidence graph is a
        tree): `rooted_superforest` finds no cycle and exactly one root."""
        try:
            return len(rooted_superforest(self)[1][0]) == 1
        except HypergraphError:
            return False

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"r": self.r, "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "UniformHypergraph":
        for key in ("r", "n", "edges"):
            if key not in data:
                raise HypergraphError(f"hypergraph JSON missing key {key!r}")
        if not isinstance(data["edges"], list) or not all(isinstance(e, list) for e in data["edges"]):
            raise HypergraphError("hypergraph JSON 'edges' must be a list of lists")
        return cls(data["r"], data["n"], tuple(tuple(e) for e in data["edges"]))

    def __str__(self) -> str:
        return f"UniformHypergraph(r={self.r}, n={self.n}, m={self.num_edges})"


def build(r: int, n: int, edges: Sequence[Sequence[int]]) -> UniformHypergraph:
    """Validated construction from plain lists (see UniformHypergraph)."""
    return UniformHypergraph(r, n, tuple(tuple(e) for e in edges))


def isolated(n: int, r: int = 2) -> UniformHypergraph:
    """n isolated vertices and no edges."""
    return UniformHypergraph(r, n, ())


def _shared_edge_size(g: UniformHypergraph, h: UniformHypergraph) -> int:
    """The edge size of anything built from g and h: theirs, which must
    agree unless a side is edgeless; then the other side's (g's if both
    are). Raises HypergraphError if the two sides' edge sizes differ."""
    if g.edges and h.edges and g.r != h.r:
        raise HypergraphError(f"edge sizes differ: {g.r} vs {h.r}")
    return h.r if h.edges else g.r


def disjoint_union(g: UniformHypergraph, h: UniformHypergraph) -> UniformHypergraph:
    """Disjoint union; h's vertices are shifted up by g.n. The edge size
    is the one g and h share (see _shared_edge_size)."""
    r = _shared_edge_size(g, h)
    edges = list(g.edges) + [tuple(v + g.n for v in e) for e in h.edges]
    return UniformHypergraph(r, g.n + h.n, tuple(edges))


# -- superforests ---------------------------------------------------------


def _cycle_error(hg: UniformHypergraph) -> HypergraphError:
    return HypergraphError(
        f"{hg} has a cycle, but matching_polynomial, spectral_radius and "
        "are_isomorphic need a superforest; use matching_polynomial_oracle "
        "(hypermatch matchpoly --oracle) for phi of general hypergraphs"
    )


def rooted_superforest(hg: UniformHypergraph):
    """Root every component of a superforest at its lowest vertex, with
    its degree-1 vertices folded into the edges that hold them.

    phi, the spectral radius, the power-forest test and isomorphism
    depend only on this core: the vertices of degree >= 2, where edges
    meet. Its indices 0..c-1 number every root and vertex of degree >= 2
    breadth first, parents first. Returns (vertices, shape): the vertex
    of each index, and the core shape (roots, belows), the indices of
    the roots and, for each index, one tuple per edge hanging below it,
    of the indices of the edge's other vertices of degree >= 2. The
    shape does not depend on r: an edge's other r - 1 - len(below)
    vertices have degree 1, so inputs that differ only in r, such as one
    family member at r = 2..5, have one shape. A root may have degree 0
    or 1. Every edge is entered from the first of its vertices reached;
    reaching a vertex twice means a cycle, and raises HypergraphError.
    """
    edges = hg.edges
    incident: list[list[int]] = [[] for _ in range(hg.n)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    index = [-1] * hg.n  # the core index of each root and vertex of degree >= 2 reached
    taken = [False] * len(edges)
    vertices: list[int] = []
    roots: list[int] = []
    belows: list[tuple[tuple[int, ...], ...]] = []
    for root in range(hg.n):
        inc = incident[root]
        if index[root] >= 0 or (len(inc) == 1 and taken[inc[0]]):  # reached already
            continue
        head = len(vertices)
        roots.append(head)
        index[root] = head
        vertices.append(root)
        while head < len(vertices):
            w = vertices[head]
            head += 1
            kids = []
            for i in incident[w]:
                if taken[i]:
                    continue
                taken[i] = True
                below = []
                for u in edges[i]:
                    if u != w and len(incident[u]) > 1:
                        if index[u] >= 0:
                            raise _cycle_error(hg)
                        index[u] = len(vertices)
                        below.append(len(vertices))
                        vertices.append(u)
                kids.append(tuple(below))
            belows.append(tuple(kids))
    return vertices, (tuple(roots), tuple(belows))


# One record per whole input, a dict of its results by name, and one per
# core shape (see `_shape`), keyed by the shape itself. CPython dict
# setdefault and item stores are atomic, and each result is immutable, so
# concurrent callers at worst compute a result twice; callers needing full
# isolation can clear or ignore the cache.
_CACHE: dict[UniformHypergraph | tuple, dict] = {}


def _record(key: UniformHypergraph | tuple) -> dict:
    """The cache record of an input or a core shape, created empty on
    first use."""
    rec = _CACHE.get(key)
    return rec if rec is not None else _CACHE.setdefault(key, {})


def _memo(hg: UniformHypergraph, name: str, compute):
    """The result `name` of hg: the one kept in its record, else
    compute(hg), kept. Per input, the names are "shape" (the record of
    its core shape, see `_shape`), "rho" and "char_poly": what needs the
    labelled edges or a search. Everything else is a view of the core
    shape, read from the shape's record, which `_shape_memo` fills.
    No result is None. An error that compute raises, such as a cycle,
    is raised on every call, and nothing is kept."""
    rec = _record(hg)
    out = rec.get(name)
    if out is None:
        out = rec[name] = compute(hg)
    return out


def _shape(hg: UniformHypergraph) -> dict:
    """The record of hg's core shape, kept in hg's record, so the shape is
    built and hashed once per input. It is shared by every input of that
    shape, whatever its r; its names are "shape" (the shape itself, as
    first met, so that it is kept once), "counts" (the matching counts
    m(H,0..nu)), "spectrum" (the roots of q, with what ME needs) and
    "code" (the canonical code of isomorphism)."""
    return _memo(hg, "shape", _find_shape)


def _find_shape(hg: UniformHypergraph) -> dict:
    key = rooted_superforest(hg)[1]
    rec = _record(key)
    rec.setdefault("shape", key)
    return rec


def _shape_memo(hg: UniformHypergraph, name: str, compute):
    """The result `name` of hg's core shape: the one kept in the shape's
    record, else compute(shape), kept. compute sees only the shape, so
    the result is the same whichever input of that shape asks first. As
    with `_memo`, an error is raised on every call and never kept."""
    rec = _shape(hg)
    out = rec.get(name)
    if out is None:
        out = rec[name] = compute(rec["shape"])
    return out


def clear_polynomial_cache():
    """Forget every result, per input and per shape (see `_memo`)."""
    _CACHE.clear()


# -- isomorphism ---------------------------------------------------------


def _centre_codes(shape) -> str:
    """The canonical code of a superforest, from its core shape (see
    `rooted_superforest`): the Aho-Hopcroft-Ullman labels of the
    components of its vertex-edge incidence forest, each rooted at its
    centre, sorted and concatenated. A label is its node's sorted child
    labels, concatenated, inside "()" for a vertex or "[]" for an edge.
    Labels are balanced, so a code splits back into them, and
    superforests of one r have equal codes exactly when isomorphic.

    The leaves of that forest are the vertices of degree 1 (an edge node
    has r >= 2 neighbours), so every component has even diameter and
    exactly one centre, which peeling all leaves layer by layer reaches
    last. The first layer, the degree-1 vertices, is folded away in the
    core: the peel runs on the core indices (nodes 0..c-1, a root of
    degree 1 as peeled) and the edges (nodes c on), and an edge's label
    needs no count of its degree-1 vertices, r less its neighbours
    there; so the code depends on the shape alone, not on r. Labels
    copy their children's, so a path costs characters quadratic in its
    height: on a 2-core x86 machine a code of `loose_path(r, 5000)`
    takes 15-20 ms and its phi 2.0-2.1 s.
    """
    roots, belows = shape
    c = len(belows)
    adj: list = [[] for _ in range(c)]
    for w, below_w in enumerate(belows):
        for below in below_w:
            for u in (w, *below):
                adj[u].append(len(adj))
            adj.append((w, *below))
    left = [len(a) for a in adj]  # neighbours not yet peeled
    for root in roots:
        if left[root] == 1:  # degree 1: folded into its edge, as peeled
            left[root] = -1
            left[adj[root][0]] -= 1
    kids: list = [() for _ in adj]  # labels of peeled neighbours
    layer = [x for x, d in enumerate(left) if 0 <= d <= 1]
    codes = []
    while layer:
        nxt = []
        for x in layer:
            label = "".join(sorted(kids[x])).join("[]" if x >= c else "()")
            kids[x] = None  # free the copied child labels now, not at return
            left[x] = -1
            for y in adj[x]:  # the one neighbour left, if any
                if left[y] >= 0:
                    break
            else:  # none: x is the centre
                codes.append(label)
                continue
            kids[y] += (label,)
            left[y] -= 1
            if left[y] == 1:
                nxt.append(y)
        layer = nxt
    return "".join(sorted(codes))


def are_isomorphic(g: UniformHypergraph, h: UniformHypergraph) -> bool:
    """Edge-preserving vertex bijection test for superforests.

    After the n, m and r screens, compares the canonical codes of g and
    h, each computed once per core shape and kept in the shape's record
    (see _centre_codes, also for the cost on long paths). Edgeless
    hypergraphs with the same n are isomorphic whatever their r. Raises
    HypergraphError on a cycle, unless n, m or r tell g and h apart.
    """
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if g.edges and h.edges and g.r != h.r:
        return False
    code_g, code_h = (_shape_memo(x, "code", _centre_codes) for x in (g, h))
    return code_g == code_h
