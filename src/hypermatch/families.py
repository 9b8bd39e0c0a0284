"""Constructors for the named supertree families and gluing operations.

Every parametric family returns an `Anchored` value: the hypergraph plus
a name -> vertex map for the distinguished vertices ("v1"..  along the
spine, "p1".. for pendant-edge tips), because identities downstream are
stated at specific vertices and tests must address them directly.

Fresh vertices always take the next free indices in a fixed order (left
operand first, then per-copy blocks, then gluing-edge internals), so all
outputs are reproducible labeled objects. Every integer parameter (edge
size, lengths, family parameters, copy and edge counts, vertices) is
read by the hypergraph's integer rule: numpy integers pass, and floats,
strings and bools raise HypergraphError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

# disjoint_union is unused here, but the traced benchmark wraps it by its
# name in this module (perfbench/tracing.py, SPANS["families.build"]).
from .hypergraph import HypergraphError, UniformHypergraph, _edge_size, _integer, _shared_edge_size, disjoint_union


@dataclass(frozen=True)
class Anchored:
    """A hypergraph together with its named distinguished vertices."""

    hg: UniformHypergraph
    anchors: dict[str, int] = field(default_factory=dict)


def loose_path(r: int, t: int) -> Anchored:
    """Loose path of length t: t edges, consecutive ones sharing one vertex.

    t = 0 is the single vertex. Spine vertices are anchored as
    "v1".."v{t+1}" with vi at index (i-1)(r-1).
    """
    r = _edge_size(r)
    t = _integer(t, "path length")
    if t < 0:
        raise HypergraphError("path length must be >= 0")
    n = t * (r - 1) + 1
    edges = [tuple(range(i * (r - 1), i * (r - 1) + r)) for i in range(t)]
    anchors = {f"v{i + 1}": i * (r - 1) for i in range(t + 1)}
    return Anchored(UniformHypergraph(r, n, tuple(edges)), anchors)


def power(graph_edges: Sequence[Sequence[int]], r: int) -> UniformHypergraph:
    """r-th power of a simple graph: each 2-edge gains r-2 fresh vertices.

    Original vertices keep their (low) indices; fresh vertices are
    allocated per edge in input order. r = 2 returns the graph itself.
    """
    r = _edge_size(r)
    seen = set()
    edges = []
    top = -1
    for e in graph_edges:
        pair = tuple(sorted(_integer(v, "a vertex", e) for v in e))
        if len(pair) != 2 or pair[0] == pair[1] or pair[0] < 0:
            raise HypergraphError(f"not a simple graph edge: {list(e)}")
        if pair in seen:
            raise HypergraphError(f"duplicate graph edge: {list(e)}")
        seen.add(pair)
        edges.append(pair)
        top = max(top, pair[1])
    out = []
    nxt = top + 1
    for a, b in edges:
        fresh = range(nxt, nxt + r - 2)
        nxt += r - 2
        out.append((a, b, *fresh))
    return UniformHypergraph(r, nxt, tuple(out))


def attach_pendant(hg: UniformHypergraph, v: int) -> UniformHypergraph:
    """Append one pendant edge {v} + (r-1) fresh vertices.

    The fresh vertices are hg.n .. hg.n+r-2; the tip anchor convention
    used by the families below is the lowest fresh index, hg.n.
    """
    v = hg._check_vertex(v)
    new_edge = (v, *range(hg.n, hg.n + hg.r - 1))
    return UniformHypergraph(hg.r, hg.n + hg.r - 1, hg.edges + (tuple(sorted(new_edge)),))


def _with_pendants(r: int, length: int, spots: Sequence[int]) -> Anchored:
    """Loose path of the given length with pendant edges at spine spots.

    Pendant tips are anchored "p1", "p2", ... in attachment order.
    """
    base = loose_path(r, length)
    hg = base.hg
    anchors = dict(base.anchors)
    for i, spot in enumerate(spots):
        anchors[f"p{i + 1}"] = hg.n
        hg = attach_pendant(hg, anchors[f"v{spot}"])
    return Anchored(hg, anchors)


def family_t(r: int, a: int, b: int) -> Anchored:
    """Loose path of length a+b with one pendant edge at v_{a+1}."""
    a, b = (_integer(p, "a family T parameter") for p in (a, b))
    if a < 1 or b < 0:
        raise HypergraphError(f"family T needs a >= 1, b >= 0, got ({a}, {b})")
    return _with_pendants(r, a + b, [a + 1])


def family_q(r: int, a: int, b: int, c: int) -> Anchored:
    """Loose path of length a+b+c with pendant edges at v_{a+1} and v_{a+b+1}."""
    a, b, c = (_integer(p, "a family Q parameter") for p in (a, b, c))
    if min(a, b, c) < 1:
        raise HypergraphError(f"family Q needs a,b,c >= 1, got ({a}, {b}, {c})")
    return _with_pendants(r, a + b + c, [a + 1, a + b + 1])


def family_r(r: int, a: int, b: int, c: int, d: int) -> Anchored:
    """Loose path of length a+b+c+d with pendant edges at v_{a+1},
    v_{a+b+1} and v_{a+b+c+1}."""
    a, b, c, d = (_integer(p, "a family R parameter") for p in (a, b, c, d))
    if min(a, b, c, d) < 1:
        raise HypergraphError(f"family R needs a,b,c,d >= 1, got ({a}, {b}, {c}, {d})")
    return _with_pendants(r, a + b + c + d, [a + 1, a + b + 1, a + b + c + 1])


def family_w(r: int, size: int) -> Anchored:
    """The double-pendant path W_size = Q(1, size-4, 1); size >= 5, size edges."""
    size = _integer(size, "the size of W")
    if size < 5:
        raise HypergraphError(f"family W needs size >= 5, got {size}")
    return family_q(r, 1, size - 4, 1)


def family_z(r: int, size: int) -> Anchored:
    """The single-pendant path Z_size = T(1, size-2); size >= 2, size edges."""
    size = _integer(size, "the size of Z")
    if size < 2:
        raise HypergraphError(f"family Z needs size >= 2, got {size}")
    return family_t(r, 1, size - 2)


# family name -> (constructor, number of parameters after r), for `hypermatch construct`
_FAMILIES = {
    "LoosePath": (loose_path, 1),
    "T": (family_t, 2),
    "Q": (family_q, 3),
    "R": (family_r, 4),
    "W": (family_w, 1),
    "Z": (family_z, 1),
}


# -- gluing operations -----------------------------------------------------


def coalesce(
    g: UniformHypergraph, u: int, h: UniformHypergraph, v: int
) -> UniformHypergraph:
    """Glue g and h by identifying u of g with v of h.

    g keeps its labels (the merged vertex stays at index u); h's other
    vertices follow order-preservingly at indices g.n and up.
    """
    r = _shared_edge_size(g, h)
    u = g._check_vertex(u)
    v = h._check_vertex(v)
    remap = {}
    nxt = g.n
    for w in range(h.n):
        if w == v:
            remap[w] = u
        else:
            remap[w] = nxt
            nxt += 1
    edges = list(g.edges) + [tuple(remap[w] for w in e) for e in h.edges]
    return UniformHypergraph(r, g.n + h.n - 1, tuple(edges))


def coalesce_power(g: UniformHypergraph, u: int, m: int) -> UniformHypergraph:
    """m copies of g sharing the single vertex u (which keeps its index)."""
    m = _integer(m, "copy count")
    if m < 1:
        raise HypergraphError(f"copy count must be >= 1, got {m}")
    u = g._check_vertex(u)
    out = g
    for _ in range(m - 1):
        out = coalesce(out, u, g, u)
    return out


def coalesce_mixed(
    g: UniformHypergraph, u: int, copies_g: int, h: UniformHypergraph, v: int, copies_h: int
) -> UniformHypergraph:
    """copies_g copies of g and copies_h copies of h all sharing one vertex
    (u of the g's identified with v of the h's). The shared vertex ends up
    at index u when copies_g >= 1, else at v."""
    copies_g = _integer(copies_g, "copy count")
    copies_h = _integer(copies_h, "copy count")
    if copies_g < 0 or copies_h < 0 or copies_g + copies_h < 1:
        raise HypergraphError("need at least one copy in total")
    if copies_g == 0:
        return coalesce_power(h, v, copies_h)
    out = coalesce_power(g, u, copies_g)
    if copies_h:
        out = coalesce(out, u, coalesce_power(h, v, copies_h), v)
    return out


def bridge(
    g: UniformHypergraph, u: int, h: UniformHypergraph, v: int, m: int
) -> UniformHypergraph:
    """Join g to m disjoint copies of h by m fresh r-edges.

    Each joining edge contains u, the copy's image of v, and r-2 fresh
    internal vertices. Layout: g's vertices first, then the m copy
    blocks of h, then the m(r-2) internals; so the vertex count is
    g.n + m*h.n + m(r-2) and the edge count grows by m.
    """
    m = _integer(m, "copy count")
    if m < 1:
        raise HypergraphError(f"copy count must be >= 1, got {m}")
    r = _shared_edge_size(g, h)
    u = g._check_vertex(u)
    v = h._check_vertex(v)
    edges = list(g.edges)
    internal_base = g.n + m * h.n
    for i in range(m):
        offset = g.n + i * h.n
        edges.extend(tuple(w + offset for w in e) for e in h.edges)
        internals = range(internal_base + i * (r - 2), internal_base + (i + 1) * (r - 2))
        edges.append(tuple(sorted((u, v + offset, *internals))))
    n = g.n + m * h.n + m * (r - 2)
    return UniformHypergraph(r, n, tuple(edges))


def random_supertree(r: int, num_edges: int, rng: random.Random) -> UniformHypergraph:
    """Uniform-attachment random supertree: start from one edge and attach
    num_edges - 1 pendant edges at uniformly random existing vertices."""
    r = _edge_size(r)
    num_edges = _integer(num_edges, "edge count")
    if num_edges < 1:
        raise HypergraphError("need at least one edge")
    edges = [tuple(range(r))]
    n = r
    for _ in range(num_edges - 1):
        # the same pendant edge attach_pendant adds, without rebuilding
        edges.append((rng.randrange(n), *range(n, n + r - 1)))
        n += r - 1
    return UniformHypergraph(r, n, tuple(edges))

