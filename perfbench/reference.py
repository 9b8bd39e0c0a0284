"""References for the benchmark's output checks, computed apart from hypermatch.

Nothing here imports hypermatch. A hypergraph is passed in as plain data:
the edge size r, the vertex count n and a sequence of edges, each a
sequence of vertex ids in 0..n-1. Every function assumes a superforest
(each component is a supertree), which is all the benchmark generates.

* `phi_dp`: the matching polynomial by a bottom-up rooted-tree DP over
  dense integer lists, with A_w = phi(T_w) and B_w = phi(T_w - w).
* `rho_bisect`: the spectral radius by bisection on x with the tree
  recursion R_w = x - sum_e prod_{u in e - w} 1/R_u; x > rho exactly
  when every R_w(x) > 0.
* `rho_eigvalsh`, `me_eigvalsh`: r = 2 only, from the adjacency matrix.
* `matching_energy`: exact square-free factorisation of q (sympy), then
  each factor's simple roots polished to 30 digits (mpmath).
* `top_root`: the largest real root of q, isolated exactly (sympy).
* `isomorphic`: networkx isomorphism of the vertex-edge incidence graphs.

Polynomials are dense lists of Python ints, lowest degree first.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class UncertifiedRoots(ArithmeticError):
    """A reference computation could not certify its own result."""


def _forest(r: int, n: int, edges):
    """Root every component at its lowest vertex.

    Returns (roots, order, children): `order` lists parents before their
    children, and children[w] holds one tuple of child vertices per edge
    that hangs below w.
    """
    incident = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        if len(e) != r or len(set(e)) != r:
            raise ValueError(f"edge {list(e)} is not a set of {r} vertices")
        for v in e:
            incident[v].append(j)
    seen = [False] * n
    used = [False] * len(edges)
    roots, order = [], []
    children = [[] for _ in range(n)]
    for root in range(n):
        if seen[root]:
            continue
        roots.append(root)
        seen[root] = True
        stack = [root]
        while stack:
            w = stack.pop()
            order.append(w)
            for j in incident[w]:
                if used[j]:
                    continue
                used[j] = True
                kids = tuple(u for u in edges[j] if u != w)
                for u in kids:
                    if seen[u]:
                        raise ValueError("not a superforest: the hypergraph has a cycle")
                    seen[u] = True
                    stack.append(u)
                children[w].append(kids)
    return roots, order, children


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    nz_b = [(j, c) for j, c in enumerate(b) if c]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in nz_b:
                out[i + j] += ca * cb
    return out


def _product(polys) -> list[int]:
    out = [1]
    for p in polys:
        out = poly_mul(out, p)
    return out


def phi_dp(r: int, n: int, edges) -> list[int]:
    """Matching polynomial phi(x), n + 1 coefficients.

    With P_e = prod A_u and Q_e = prod B_u over the child vertices u of
    edge e below w: B_w = prod_e P_e and
    A_w = x B_w - sum_e Q_e prod_{e' != e} P_e', by prefix and suffix
    products over the child edges.
    """
    roots, order, children = _forest(r, n, edges)
    a_poly: list = [None] * n
    b_poly: list = [None] * n
    for w in reversed(order):
        ps = [_product(a_poly[u] for u in kids) for kids in children[w]]
        qs = [_product(b_poly[u] for u in kids) for kids in children[w]]
        k = len(ps)
        prefix = [[1]]
        for p in ps:
            prefix.append(poly_mul(prefix[-1], p))
        suffix = [[1]] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = poly_mul(ps[i], suffix[i + 1])
        a_w = [0] + prefix[k]
        for i in range(k):
            term = poly_mul(poly_mul(prefix[i], suffix[i + 1]), qs[i])
            for d, c in enumerate(term):
                a_w[d] -= c
        a_poly[w], b_poly[w] = a_w, prefix[k]
    return _product(a_poly[w] for w in roots)


def reduce_phi(phi: list[int], r: int) -> tuple[int, list[int]]:
    """Split phi(x) = x^z q(x^r); returns (z, q) with q(0) != 0."""
    z = next(i for i, c in enumerate(phi) if c)
    q = phi[z::r]
    if any(c for i, c in enumerate(phi[z:]) if i % r):
        raise ValueError("phi is not of the form x^z q(x^r)")
    while q and q[-1] == 0:
        q.pop()
    return z, q


def _poly_gcd(a: list, b: list) -> list:
    """Monic gcd over the rationals; coefficients lowest degree first."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and b[-1] == 0:
        b.pop()
    while b:
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a]


def _derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def has_triple_root(q: list[int]) -> bool:
    """Whether q has a root of multiplicity three or more: the roots of
    g = gcd(q, q') are the repeated roots of q, each one fewer times."""
    g = _poly_gcd(q, _derivative(q))
    return len(g) > 2 and len(_poly_gcd(g, _derivative(g))) > 1


def rho_bisect(r: int, n: int, edges) -> float:
    """Spectral radius to the last bit of a float, by the tree recursion."""
    if not edges:
        return 0.0
    _, order, children = _forest(r, n, edges)
    post = order[::-1]

    def above(x: float) -> bool:
        big_r = [0.0] * n
        for w in post:
            s = x
            for kids in children[w]:
                p = 1.0
                for u in kids:
                    p /= big_r[u]
                s -= p
            if s <= 0.0:
                return False
            big_r[w] = s
        return True

    lo, hi = 0.0, 1.0
    while not above(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if above(mid):
            hi = mid
        else:
            lo = mid


def _adjacency_eigenvalues(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n))
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1.0
    return np.linalg.eigvalsh(adj)


def rho_eigvalsh(n: int, edges) -> float:
    """r = 2 only: the largest adjacency eigenvalue."""
    return float(_adjacency_eigenvalues(n, edges).max()) if edges else 0.0


def me_eigvalsh(n: int, edges) -> float:
    """r = 2 only: the sum of |adjacency eigenvalue|."""
    return float(np.abs(_adjacency_eigenvalues(n, edges)).sum()) if edges else 0.0


def _simple_roots(coeffs_desc: list[int]):
    """All roots of a square-free integer polynomial to 30 digits.

    numpy's companion eigenvalues seed Newton's method in mpmath. Each
    root must converge, and the roots must stay pairwise apart, or the
    result is refused.
    """
    import mpmath

    degree = len(coeffs_desc) - 1
    if degree == 0:
        return []
    seeds = np.roots([float(c) for c in coeffs_desc])
    out = []
    with mpmath.workdps(30):
        for z0 in seeds:
            z = mpmath.mpc(complex(z0))
            for _ in range(60):
                f, df = mpmath.polyval(coeffs_desc, z, derivative=True)
                step = f / df
                z -= step
                if abs(step) <= mpmath.mpf(10) ** -27 * max(1, abs(z)):
                    break
            else:
                raise UncertifiedRoots(f"Newton did not converge from {z0}")
            out.append(z)
        for i in range(degree):
            for j in range(i):
                if abs(out[i] - out[j]) <= mpmath.mpf(10) ** -20 * max(1, abs(out[i])):
                    raise UncertifiedRoots("two seeds converged to the same root")
    return out


def matching_energy(r: int, q: list[int]) -> float:
    """ME = r * sum over the roots mu of q, with multiplicity, of |mu|^(1/r)."""
    import mpmath
    import sympy

    if len(q) <= 1:
        return 0.0
    y = sympy.Symbol("y")
    _, factors = sympy.Poly(q[::-1], y, domain="ZZ").sqf_list()
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for f, mult in factors:
            coeffs = [int(c) for c in f.all_coeffs()]
            for mu in _simple_roots(coeffs):
                total += mult * abs(mu) ** (mpmath.mpf(1) / r)
        return float(r * total)


def top_root(q: list[int], eps: Fraction = Fraction(1, 10**24)) -> tuple[Fraction, Fraction]:
    """The largest real root of q as an exact interval (lo, hi), hi - lo <= eps.

    The roots are isolated on the square-free part of q, which has the
    same roots, each once."""
    import sympy

    y = sympy.Symbol("y")
    poly = sympy.Poly(q[::-1], y, domain="ZZ").sqf_part()
    intervals = poly.intervals()
    if not intervals:
        raise UncertifiedRoots("q has no real root")
    # Isolating intervals are disjoint but may share an endpoint with an
    # exact rational root (a zero-width interval), so order by both ends.
    (s, t), _ = max(intervals, key=lambda item: item[0])
    if s != t:
        s, t = poly.refine_root(s, t, eps=sympy.Rational(eps.numerator, eps.denominator))
    return Fraction(int(s.p), int(s.q)), Fraction(int(t.p), int(t.q))


def rho_from_phi(phi: list[int], r: int) -> float:
    """The largest real root of phi, by exact root isolation on its q."""
    _, q = reduce_phi(phi, r)
    if len(q) <= 1:
        return 0.0
    lo, hi = top_root(q)
    return float((lo + hi) / 2) ** (1.0 / r)


def incidence_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from((("v", v) for v in range(n)), kind="v")
    for j, e in enumerate(edges):
        g.add_node(("e", j), kind="e")
        g.add_edges_from((("e", j), ("v", v)) for v in e)
    return g


def isomorphic(g, h) -> bool:
    """g, h: (r, n, edges). True iff some vertex bijection maps edges to edges.

    The incidence graph of a supertree is a tree with n = m(r-1) + 1
    vertex nodes and m edge nodes. The two sides of a tree's
    bipartition can only be swapped when they are equally large, which
    never happens here, so plain tree isomorphism decides the question.
    Superforests go through VF2 with node kinds.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import tree_isomorphism

    (rg, ng, eg), (rh, nh, eh) = g, h
    if ng != nh or len(eg) != len(eh) or (eg and rg != rh):
        return False
    ig, ih = incidence_graph(ng, eg), incidence_graph(nh, eh)
    if nx.is_tree(ig) and nx.is_tree(ih):
        return bool(tree_isomorphism(ig, ih))
    return nx.is_isomorphic(ig, ih, node_match=lambda a, b: a["kind"] == b["kind"])
