"""phi, rho, the power-forest test and isomorphism on the core of a
superforest.

The four readers visit only the roots and the vertices of degree >= 2,
and take each edge's degree-1 vertices as a count. These tests hold them
to references that see every vertex: matching enumeration for phi, a
bisection on exact Sturm counts of q for rho, the degrees of each edge's
vertices for the power-forest test, and a backtracking search for
isomorphism, on the shapes where the folding has its corner cases.
"""

import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import base_forest as _base_forest, superforests
from hypermatch import (
    UniformHypergraph,
    are_isomorphic,
    attach_pendant,
    disjoint_union,
    loose_path,
    matching_polynomial,
    matching_counts,
    matching_polynomial_oracle,
    random_supertree,
    reduce_polynomial,
    spectral_radius,
)
from hypermatch.hypergraph import HypergraphError, rooted_superforest


def relabelled(hg, rng):
    perm = list(range(hg.n))
    rng.shuffle(perm)
    return UniformHypergraph(hg.r, hg.n, [[perm[v] for v in e] for e in hg.edges])


def leaf_first(hg):
    """hg relabelled so that vertex 0 has degree 1 (the swap of 0 and the
    lowest degree-1 vertex)."""
    leaf = next(v for v in range(hg.n) if hg.degree(v) == 1)
    perm = list(range(hg.n))
    perm[0], perm[leaf] = leaf, 0
    return UniformHypergraph(hg.r, hg.n, [[perm[v] for v in e] for e in hg.edges])


def star(centre_last: bool, legs: int):
    """The r = 2 star with `legs` edges, its centre the last or the first vertex."""
    centre = legs if centre_last else 0
    return UniformHypergraph(2, legs + 1, [[centre, v] for v in range(legs + 1) if v != centre])


def with_pendants(base, v, count):
    out = base
    for _ in range(count):
        out = attach_pendant(out, v)
    return out


def core_vertices(hg):
    return [v for v in range(hg.n) if hg.degree(v) >= 2]


def _union(*parts):
    out = UniformHypergraph(parts[0].r, 0)
    for part in parts:
        out = disjoint_union(out, part)
    return out


def _corpus():
    """Superforests with the corner cases of the folding, r = 2..8."""
    rng = random.Random(11)
    out = {
        "single-edge-r2": loose_path(2, 1).hg,
        "single-edge-r8": loose_path(8, 1).hg,
        "star-centre-first": star(False, 6),
        "star-centre-last": star(True, 6),
        "stars-and-isolated": _union(UniformHypergraph(2, 2), star(True, 3), star(False, 4), UniformHypergraph(2, 1)),
        "isolated-only": UniformHypergraph(5, 4),
    }
    for r in range(2, 9):
        m = max(2, 12 // (r - 1))
        tree = random_supertree(r, m, rng)
        out[f"leaf-root-r{r}"] = leaf_first(relabelled(tree, rng))
        out[f"forest-r{r}"] = relabelled(
            _union(loose_path(r, 1).hg, UniformHypergraph(r, 2), tree, loose_path(r, 1).hg, UniformHypergraph(r, 1)), rng
        )
        out[f"repeated-component-r{r}"] = _union(tree, relabelled(tree, rng))
    return out


CORPUS = _corpus()


def _moved_pendant_pairs():
    """(label, g, h): one base supertree with the same pendant edges at two
    different core vertices; isomorphic exactly when some automorphism of
    the base swaps them."""
    rng = random.Random(5)
    out = []
    for r in (2, 3, 4, 5):
        for trial in range(4):
            base = random_supertree(r, 6, rng)
            core = core_vertices(base)
            if len(core) < 2:
                continue
            a, b = rng.sample(core, 2)
            count = 1 + trial % 3
            out.append((f"r{r}-{trial}", with_pendants(base, a, count), relabelled(with_pendants(base, b, count), rng)))
    # a loose path, pendants at its two ends' core vertices: isomorphic
    path = loose_path(3, 4).hg
    ends = core_vertices(path)
    out.append(("path-mirror", with_pendants(path, ends[0], 2), with_pendants(path, ends[-1], 2)))
    return out


MOVED = _moved_pendant_pairs()


# -- references that see every vertex ------------------------------------


def _sturm_chain(coeffs):
    """Sturm sequence of a polynomial (coefficients lowest first), as
    Fraction lists; it counts distinct real roots, repeated ones too."""

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    p0 = [Fraction(c) for c in coeffs]
    p1 = [k * c for k, c in enumerate(p0)][1:]
    chain = [p0, p1]
    while True:
        r = rem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-c for c in r])


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _roots_above(chain, y):
    """Distinct real roots of chain[0] in (y, infinity)."""
    at_y = [sum(c * y**k for k, c in enumerate(p)) for p in chain]
    at_inf = [p[-1] for p in chain]
    return _sign_changes(at_y) - _sign_changes(at_inf)


def bisection_rho(hg):
    """The largest root of phi by float bisection on x, deciding each x
    by whether q (phi = x^z q(x^r), from the enumerated phi) has a real
    root above x^r, counted exactly by Sturm's theorem."""
    if not hg.edges:
        return 0.0
    red = reduce_polynomial(matching_polynomial_oracle(hg), hg.r, hg.n)
    chain = _sturm_chain(red.q.to_dense()[::-1])
    lo, hi = 0.0, float(1 + max(abs(c) for _, c in red.q.terms())) ** (1.0 / hg.r)  # Cauchy
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _roots_above(chain, Fraction(mid) ** hg.r):
            lo = mid
        else:
            hi = mid


def assert_ulps(rho, reference, ulps=2):
    assert abs(rho - reference) <= ulps * math.ulp(reference), (rho, reference)


def backtrack_isomorphic(g, h):
    """Search for an edge-preserving vertex bijection one vertex at a time,
    keeping the images of every edge of g inside one edge of h (so a
    fully mapped edge maps onto one). The degree-1 vertices of one edge
    are interchangeable, so they map in increasing order. Independent of
    the canonical labels under test."""
    if g.n != h.n or g.num_edges != h.num_edges or (g.edges and h.edges and g.r != h.r):
        return False
    deg_g = [g.degree(v) for v in range(g.n)]
    deg_h = [h.degree(w) for w in range(h.n)]
    if sorted(deg_g) != sorted(deg_h):
        return False
    edges_g = [[e for e in g.edges if v in e] for v in range(g.n)]
    edges_h = [[set(f) for f in h.edges if w in f] for w in range(h.n)]
    order = list(dict.fromkeys([v for e in g.edges for v in e] + list(range(g.n))))
    image: dict = {}
    used = [False] * h.n

    def consistent(v, w):
        for e in edges_g[v]:
            mapped = {image[u] for u in e if u in image}
            if not any(mapped <= f for f in edges_h[w]):
                return False
            if deg_g[v] == 1 and any(deg_g[u] == 1 and u < v and image[u] > w for u in e if u in image):
                return False
        return True

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or deg_h[w] != deg_g[v]:
                continue
            image[v] = w
            if consistent(v, w):
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
            del image[v]
        return False

    return extend(0)


# -- the tests -------------------------------------------------------------


class TestRooting:
    """rooted_superforest on compact core indices, one block per
    component, mapped back to vertices through the vertex lists it
    returns."""

    def test_order_holds_the_roots_and_the_core(self):
        for label, hg in CORPUS.items():
            vertices, trees = rooted_superforest(hg)
            deg = [hg.degree(v) for v in range(hg.n)]
            assert len(vertices) == len(trees), label
            roots = [tree[0] for tree in vertices]
            assert roots == sorted(roots), label  # root order
            core = [v for tree in vertices for v in tree]
            assert sorted(core) == sorted(set(roots) | {v for v in range(hg.n) if deg[v] >= 2}), label
            entered = []  # each edge as (its vertices of degree >= 2, its degree-1 count)
            for tree, belows in zip(vertices, trees):
                assert len(belows) == len(tree), label
                for w, below_w in enumerate(belows):
                    for below in below_w:
                        assert all(deg[tree[u]] >= 2 for u in below), label
                        assert all(u > w for u in below), label  # parents first
                        leaves = hg.r - 1 - len(below)
                        inner = sorted(tree[u] for u in below + (w,) if deg[tree[u]] >= 2)
                        entered.append((inner, leaves + (deg[tree[w]] == 1)))
            edges = [([v for v in e if deg[v] >= 2], sum(deg[v] == 1 for v in e)) for e in hg.edges]
            assert sorted(entered) == sorted(edges), label  # each edge once

    def test_degree_1_root(self):
        hg = UniformHypergraph(3, 5, [[0, 1, 2], [2, 3, 4]])
        assert rooted_superforest(hg) == ([[0, 2]], ((((1,),), ((),)),))

    def test_single_edges_and_isolated_vertices(self):
        hg = UniformHypergraph(3, 7, [[1, 2, 3], [4, 5, 6]])
        vertices, trees = rooted_superforest(hg)
        assert vertices == [[0], [1], [4]]
        assert trees == (((),), (((),),), (((),),))

    @settings(max_examples=150)
    @given(st.data())
    def test_each_component_roots_alone(self, data):
        g = data.draw(superforests())
        h = data.draw(superforests(rs=(g.r,)))
        # each tree shape is the one tree that its component alone roots to
        trees = rooted_superforest(g)[1]
        alone = [rooted_superforest(c)[1] for c in g.components()]
        assert all(len(tree) == 1 for tree in alone)
        assert trees == tuple(tree for (tree,) in alone)
        # a disjoint union has g's trees, then h's
        vertices, union = rooted_superforest(disjoint_union(g, h))
        assert union == trees + rooted_superforest(h)[1]
        assert vertices == rooted_superforest(g)[0] + [[v + g.n for v in tree] for tree in rooted_superforest(h)[0]]
        # a cycle anywhere still raises: three edges in a ring, each with
        # r - 2 vertices of its own
        r = g.r
        pads = [range(3 + i * (r - 2), 3 + (i + 1) * (r - 2)) for i in range(3)]
        cycle = UniformHypergraph(r, 3 * (r - 1), [(a, b, *pad) for (a, b), pad in zip(((0, 1), (1, 2), (2, 0)), pads)])
        for hg in (disjoint_union(g, cycle), disjoint_union(cycle, g)):
            with pytest.raises(HypergraphError, match="cycle"):
                rooted_superforest(hg)


class TestPhiOnTheCore:
    @pytest.mark.parametrize("label", sorted(CORPUS))
    def test_against_enumeration(self, label):
        hg = CORPUS[label]
        assert matching_polynomial(hg) == matching_polynomial_oracle(hg)

    @pytest.mark.parametrize("label, g, h", MOVED)
    def test_moved_pendant_edges(self, label, g, h):
        assert matching_polynomial(g) == matching_polynomial_oracle(g)
        assert matching_polynomial(h) == matching_polynomial_oracle(h)


class TestRhoOnTheCore:
    @pytest.mark.parametrize("label", sorted(CORPUS))
    def test_against_bisection(self, label):
        assert_ulps(spectral_radius(CORPUS[label]), bisection_rho(CORPUS[label]))

    @pytest.mark.parametrize("label, g, h", MOVED)
    def test_moved_pendant_edges(self, label, g, h):
        for hg in (g, h):
            assert_ulps(spectral_radius(hg), bisection_rho(hg))


class TestBaseForestOnTheCore:
    # a degree-1 root whose edge holds two, then three, vertices of degree >= 2
    ROOT_EDGES = {
        "leaf-root-two-core": UniformHypergraph(3, 7, [[0, 1, 2], [1, 3, 4], [2, 5, 6]]),
        "leaf-root-three-core": UniformHypergraph(4, 13, [[0, 1, 2, 3], [1, 4, 5, 6], [2, 7, 8, 9], [3, 10, 11, 12]]),
    }
    SHAPES = {**CORPUS, **ROOT_EDGES}

    @staticmethod
    def _inner(hg, e):
        return [v for v in e if hg.degree(v) >= 2]

    @pytest.mark.parametrize("label", sorted(SHAPES))
    def test_none_exactly_off_the_power_route(self, label):
        hg = self.SHAPES[label]
        power = all(len(self._inner(hg, e)) <= 2 for e in hg.edges)
        base = _base_forest(hg)
        assert (base is not None) == power
        if base is not None:
            size, pairs = base
            assert size == len(core_vertices(hg)) + sum(2 - len(self._inner(hg, e)) for e in hg.edges)
            assert matching_counts(UniformHypergraph(2, size, pairs)) == matching_counts(hg)

    def test_the_shapes_include_both_verdicts(self):
        assert {_base_forest(hg) is None for hg in self.SHAPES.values()} == {True, False}
        assert _base_forest(self.ROOT_EDGES["leaf-root-two-core"]) is not None
        assert _base_forest(self.ROOT_EDGES["leaf-root-three-core"]) is None


class TestIsomorphismOnTheCore:
    @pytest.mark.parametrize("label, g, h", MOVED)
    def test_moved_pendant_edges(self, label, g, h):
        assert are_isomorphic(g, h) == backtrack_isomorphic(g, h)

    def test_moved_pendant_pairs_include_both_verdicts(self):
        verdicts = {backtrack_isomorphic(g, h) for _, g, h in MOVED}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("label", sorted(CORPUS))
    def test_relabelled_copy(self, label):
        hg = CORPUS[label]
        other = relabelled(hg, random.Random(len(label)))
        assert are_isomorphic(hg, other) and backtrack_isomorphic(hg, other)

    def test_pairs_of_the_corpus(self):
        shapes = list(CORPUS.values())
        for g in shapes:
            for h in shapes:
                if g.n == h.n and g.num_edges == h.num_edges:
                    assert are_isomorphic(g, h) == backtrack_isomorphic(g, h)

    def test_where_the_leaves_sit_decides(self):
        # one core vertex with two pendant edges, against two core vertices
        # with one each: same n, m and degree-1 count, not isomorphic
        base = loose_path(3, 3).hg
        a, b = core_vertices(base)
        g = with_pendants(base, a, 2)
        h = with_pendants(with_pendants(base, a, 1), b, 1)
        assert not are_isomorphic(g, h) and not backtrack_isomorphic(g, h)
        assert matching_polynomial(g) != matching_polynomial(h)
