"""Hypergraph values, the deletion calculus, supertree and isomorphism tests."""

import itertools
import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import pendant_edges, small_hypergraphs, superforests, supertrees, supertrees_with_vertex
from hypermatch import (
    HypergraphError,
    UniformHypergraph,
    are_isomorphic,
    attach_pendant,
    bridge,
    coalesce,
    coalesce_mixed,
    coalesce_power,
    disjoint_union,
    family_q,
    family_r,
    family_t,
    family_w,
    loose_path,
    matching_polynomial,
    power,
    random_supertree,
)


def relabel(hg, perm):
    return UniformHypergraph(hg.r, hg.n, tuple(tuple(perm[v] for v in e) for e in hg.edges))


def brute_force_isomorphic(g, h) -> bool:
    """Try every vertex bijection that keeps degrees (an isomorphism
    must); independent of the canonical labels under test."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    deg_g = [g.degree(v) for v in range(g.n)]
    deg_h = [h.degree(w) for w in range(h.n)]
    if sorted(deg_g) != sorted(deg_h):
        return False
    classes = sorted(set(deg_g))
    sources = [[v for v in range(g.n) if deg_g[v] == d] for d in classes]
    targets = [[w for w in range(h.n) if deg_h[w] == d] for d in classes]
    h_edges = set(h.edges)
    for images in itertools.product(*(itertools.permutations(t) for t in targets)):
        perm = {}
        for vs, ws in zip(sources, images):
            perm.update(zip(vs, ws))
        if all(tuple(sorted(perm[v] for v in e)) in h_edges for e in g.edges):
            return True
    return False


def grown_superforest(r, parts):
    """Union of one part per (picks, delete): a supertree grown from one
    edge by a pendant edge at vertex p % n for each p in picks, then
    with vertex delete % n deleted unless delete is None."""
    out = UniformHypergraph(r, 0)
    for picks, delete in parts:
        hg = loose_path(r, 1).hg
        for p in picks:
            hg = attach_pendant(hg, p % hg.n)
        if delete is not None:
            hg = hg.delete_vertex(delete % hg.n)
        out = disjoint_union(out, hg)
    return out


@st.composite
def superforest_relatives(draw, max_n=8):
    """(a, a relabelled, b relabelled) on at most max_n vertices, where b
    has parts of a's sizes grown at other vertices. The vertices picked
    come from a drawn seed, so that shapes vary evenly."""
    r = draw(st.sampled_from((2, 3)))  # with n <= 8, r >= 4 has one shape per edge count
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = []
    room = max_n
    while room >= r and (not sizes or draw(st.booleans())):
        most = (room - 1) // (r - 1)
        sizes.append((most + 1 - draw(st.integers(1, most)), draw(st.booleans())))  # large first
        room -= sizes[-1][0] * (r - 1) + 1

    def grown():
        return grown_superforest(r, [
            ([rng.randrange(max_n) for _ in range(k - 1)], rng.randrange(max_n) if deleted else None)
            for k, deleted in sizes
        ])

    def shuffled(hg):
        return relabel(hg, rng.sample(range(hg.n), hg.n))

    a = grown()
    return a, shuffled(a), shuffled(grown())


# r = 5, 25 vertices: a hard case for search-based isomorphism tests,
# one of which took 119 ms on it against a relabelled copy
_R5_N25 = UniformHypergraph(5, 25, [
    (0, 1, 2, 3, 4), (0, 21, 22, 23, 24), (4, 5, 6, 7, 8),
    (5, 17, 18, 19, 20), (6, 13, 14, 15, 16), (7, 9, 10, 11, 12),
])


class TestBuild:
    def test_single_edge(self):
        hg = UniformHypergraph(3, 3, [[0, 1, 2]])
        assert (hg.r, hg.n, hg.edges) == (3, 3, ((0, 1, 2),))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(HypergraphError, match=r"\[0, 1, 1\]"):
            UniformHypergraph(3, 2, [[0, 1, 1]])

    def test_ordinary_graph_path(self):
        hg = UniformHypergraph(2, 3, [[0, 1], [1, 2]])
        assert hg.edges == ((0, 1), (1, 2))

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(HypergraphError, match="outside"):
            UniformHypergraph(2, 2, [[0, 2]])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(HypergraphError, match="duplicate"):
            UniformHypergraph(2, 3, [[0, 1], [1, 0]])

    def test_bad_r_rejected(self):
        with pytest.raises(HypergraphError):
            UniformHypergraph(1, 3, [])

    def test_edges_sorted_deterministically(self):
        hg = UniformHypergraph(2, 4, [[3, 2], [1, 0]])
        assert hg.edges == ((0, 1), (2, 3))

    def test_edges_from_any_iterables(self):
        edges = [[3, 2], (1, 0)]
        lazy = UniformHypergraph(2, 4, (iter(e) for e in edges))
        assert lazy == UniformHypergraph(2, 4, edges) == UniformHypergraph(2, 4, {(0, 1), (2, 3)})
        assert lazy.edges == ((0, 1), (2, 3))

    def test_no_edges_by_default(self):
        hg = UniformHypergraph(4, 3)
        assert (hg.r, hg.n, hg.edges) == (4, 3, ())

    def test_json_round_trip(self):
        hg = UniformHypergraph(3, 5, [[0, 1, 2], [2, 3, 4]])
        again = UniformHypergraph.from_json_dict(json.loads(json.dumps(hg.to_json_dict())))
        assert again == hg

    def test_json_missing_key_rejected(self):
        with pytest.raises(HypergraphError, match="edges"):
            UniformHypergraph.from_json_dict({"r": 2, "n": 2})

    @pytest.mark.parametrize(
        "r, n, edges, what",
        [
            (2, 3, [[0, 1.9], [1.2, 2]], "vertex"),
            (2, 3, [[0, 1.0]], "vertex"),
            (2, 3, [[True, 2]], "vertex"),
            (2, 3, [["0", 2]], "vertex"),
            (2.9, 3, [[0, 1]], "edge size"),
            (2.0, 3, [[0, 1]], "edge size"),
            (True, 3, [], "edge size"),
            ("2", 3, [[0, 1]], "edge size"),
            (2, 3.0, [[0, 1]], "vertex count"),
            (2, "3", [[0, 1]], "vertex count"),
            (2, False, [], "vertex count"),
        ],
    )
    def test_non_integers_rejected(self, r, n, edges, what):
        with pytest.raises(HypergraphError, match=f"{what}.* must be an integer"):
            UniformHypergraph(r, n, edges)
        with pytest.raises(HypergraphError, match=f"{what}.* must be an integer"):
            UniformHypergraph.from_json_dict({"r": r, "n": n, "edges": edges})

    def test_integer_types_accepted(self):
        np = pytest.importorskip("numpy")
        hg = UniformHypergraph(np.int64(3), np.int32(5), ((np.int64(0), 1, np.uint8(2)), (2, 3, 4)))
        assert hg == UniformHypergraph(3, 5, [[0, 1, 2], [2, 3, 4]])
        assert {type(hg.r), type(hg.n)} | {type(v) for e in hg.edges for v in e} == {int}
        assert UniformHypergraph.from_json_dict(json.loads(json.dumps(hg.to_json_dict()))) == hg

    def test_equal_values_hash_equal(self):
        np = pytest.importorskip("numpy")
        hg = UniformHypergraph(3, 7, [[0, 1, 2], [2, 3, 4], [4, 5, 6]])
        for other in (
            UniformHypergraph(3, 7, [[6, 5, 4], [0, 2, 1], [3, 2, 4]]),
            UniformHypergraph(np.int64(3), np.int32(7), tuple(tuple(np.int64(v) for v in e) for e in hg.edges)),
        ):
            assert other == hg and hash(other) == hash(hg)
            assert {hg: "cached"}[other] == "cached"

    def test_copies_keep_equality_and_hash(self):
        """A copy of a checked or a derived hypergraph is the checked
        rebuild as a cache key."""
        import copy
        import pickle

        checked = UniformHypergraph(3, 7, [[0, 1, 2], [2, 3, 4], [4, 5, 6]])
        g = loose_path(3, 2).hg
        for hg in (checked, loose_path(3, 3).hg, bridge(g, 4, g, 2, 2)):
            rebuilt = UniformHypergraph(hg.r, hg.n, hg.edges)
            for again in (hg, pickle.loads(pickle.dumps(hg)), copy.copy(hg), copy.deepcopy(hg)):
                assert again == rebuilt and hash(again) == hash(rebuilt)
                assert {rebuilt: "cached"}[again] == "cached"
        assert hash(checked) != hash(UniformHypergraph(3, 7, [[0, 1, 2], [2, 3, 4], [3, 5, 6]]))

    def test_json_edge_that_is_no_list_rejected(self):
        with pytest.raises(HypergraphError, match="list of lists"):
            UniformHypergraph.from_json_dict({"r": 2, "n": 3, "edges": [1, 2]})


class TestDeletion:
    def test_delete_vertex_of_single_edge(self):
        hg = loose_path(3, 1).hg
        out = hg.delete_vertex(1)
        assert out == UniformHypergraph(3, 2)

    def test_delete_vertex_degenerate(self):
        out = UniformHypergraph(2, 1).delete_vertex(0)
        assert out.n == 0 and out.edges == ()

    def test_delete_unknown_vertex(self):
        with pytest.raises(HypergraphError):
            UniformHypergraph(2, 2).delete_vertex(5)

    @pytest.mark.parametrize("v", [0.5, 1.0, 1.5, True, "1"])
    def test_non_integer_vertex_rejected(self, v):
        # the range check alone would read 0.5 as a vertex and True as 1
        hg = UniformHypergraph(2, 3, [[0, 1]])
        for call in (
            lambda: hg.degree(v),
            lambda: hg.delete_vertex(v),
            lambda: hg.delete_vertices([v]),
            lambda: attach_pendant(hg, v),
            lambda: coalesce(hg, v, hg, 0),
            lambda: coalesce(hg, 0, hg, v),
            lambda: coalesce_power(hg, v, 2),
            lambda: bridge(hg, v, hg, 0, 1),
            lambda: bridge(hg, 0, hg, v, 1),
        ):
            with pytest.raises(HypergraphError, match="vertex must be an integer"):
                call()

    def test_integer_type_vertex_accepted(self):
        np = pytest.importorskip("numpy")
        hg = UniformHypergraph(2, 3, [[0, 1]])
        one = np.int64(1)
        assert hg.degree(one) == 1
        assert hg.delete_vertex(one) == hg.delete_vertices([one]) == UniformHypergraph(2, 2)
        assert attach_pendant(hg, one) == attach_pendant(hg, 1)
        assert coalesce(hg, one, hg, np.int32(0)) == coalesce(hg, 1, hg, 0)
        assert coalesce_power(hg, one, 2) == coalesce_power(hg, 1, 2)
        assert bridge(hg, one, hg, np.uint8(0), 2) == bridge(hg, 1, hg, 0, 2)

    def test_delete_vertex_renumbers_order_preservingly(self):
        hg = UniformHypergraph(2, 4, [[0, 1], [2, 3]])
        out = hg.delete_vertex(1)
        assert out == UniformHypergraph(2, 3, [[1, 2]])

    def test_delete_pendant_tip_of_triple_pendant_caterpillar(self):
        # removing the middle pendant tip leaves the double-pendant
        # caterpillar plus r-2 freed interior vertices
        for r in (2, 3, 4):
            fam = family_r(r, 1, 1, 2, 4)
            out = fam.hg.delete_vertex(fam.anchors["p2"])
            expected = disjoint_union(family_q(r, 1, 3, 4).hg, UniformHypergraph(r, r - 2))
            assert are_isomorphic(out, expected)

    def test_delete_closed_edge_single_edge(self):
        hg = loose_path(4, 1).hg
        out = hg.delete_closed_edge(hg.edges[0])
        assert out.n == 0

    def test_delete_closed_edge_of_two_edge_path(self):
        # the second edge loses its shared vertex, leaving r-1 isolated vertices
        for r in (2, 3, 5):
            hg = loose_path(r, 2).hg
            out = hg.delete_closed_edge(hg.edges[0])
            assert out == UniformHypergraph(r, r - 1)

    def test_delete_closed_edge_requires_membership(self):
        hg = loose_path(3, 2).hg
        with pytest.raises(HypergraphError):
            hg.delete_closed_edge((0, 1, 3))

    def test_delete_closed_last_path_edge_of_double_pendant_family(self):
        # W_n minus the closed last spine edge is Z_{n-3} plus r-1 plus r-2
        # isolated vertices
        from hypermatch import family_z

        r, size = 3, 7
        fam = family_w(r, size)
        last = tuple(range((size - 3) * (r - 1), (size - 3) * (r - 1) + r))
        out = fam.hg.delete_closed_edge(last)
        expected = disjoint_union(
            disjoint_union(family_z(r, size - 3).hg, UniformHypergraph(r, r - 1)),
            UniformHypergraph(r, r - 2),
        )
        assert are_isomorphic(out, expected)


class TestUnion:
    def test_isolated_vertices(self):
        assert disjoint_union(UniformHypergraph(2, 2), UniformHypergraph(2, 3)) == UniformHypergraph(2, 5)

    def test_two_single_edges(self):
        hg = disjoint_union(loose_path(3, 1).hg, loose_path(3, 1).hg)
        assert (hg.n, hg.num_edges) == (6, 2)
        assert hg.edges == ((0, 1, 2), (3, 4, 5))

    def test_uniformity_adapts_for_edgeless_side(self):
        hg = disjoint_union(UniformHypergraph(2, 2), loose_path(5, 1).hg)
        assert hg.r == 5 and hg.n == 7

    def test_mismatched_r_rejected(self):
        with pytest.raises(HypergraphError):
            disjoint_union(loose_path(2, 1).hg, loose_path(3, 1).hg)


def assert_as_checked(hg):
    """hg, built by a library operation without the constructor's
    checks, is what the constructor builds from its fields: the same
    edge tuple and hash, every edge sorted, and the edges in order."""
    again = UniformHypergraph(hg.r, hg.n, hg.edges)
    assert again == hg and again.edges == hg.edges and hash(again) == hash(hg)
    assert type(hg.r) is int and type(hg.n) is int
    assert all(list(e) == sorted(e) for e in hg.edges)
    assert list(hg.edges) == sorted(hg.edges)


class TestDerived:
    """Every library operation builds its result through
    `UniformHypergraph._derived`, which checks nothing; these hold it
    to the checked constructor."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 5).flatmap(lambda r: st.tuples(superforests(rs=(r,)), superforests(rs=(r,)))),
        st.integers(0, 10**9), st.integers(0, 10**9), st.integers(1, 3),
    )
    def test_operations_on_superforests(self, pair, pick_u, pick_v, m):
        g, h = pair
        assert_as_checked(disjoint_union(g, h))
        for part in h.components():
            assert_as_checked(part)
        if not (g.n and h.n):
            return
        u, v = pick_u % g.n, pick_v % h.n
        assert_as_checked(h.delete_vertex(v))
        assert_as_checked(h.delete_vertices(range(v, h.n, 2)))
        for e in h.edges[:2]:
            assert_as_checked(h.delete_closed_edge(e))
        assert_as_checked(attach_pendant(h, v))
        assert_as_checked(coalesce(g, u, h, v))
        assert_as_checked(coalesce_power(h, v, m))
        assert_as_checked(coalesce_mixed(g, u, m, h, v, 2))
        assert_as_checked(bridge(g, u, h, v, m))
        assert_as_checked(bridge(h, v, g, u, m))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 6), st.integers(1, 8), st.integers(0, 10**6))
    def test_families_and_random_supertrees(self, r, t, m, seed):
        assert_as_checked(loose_path(r, t).hg)
        assert_as_checked(family_t(r, 1 + t, m).hg)
        assert_as_checked(family_r(r, 1, m, 1 + t, 2).hg)
        assert_as_checked(random_supertree(r, m, random.Random(seed)))

    @settings(max_examples=80, deadline=None)
    @given(superforests(rs=(2,)), st.integers(2, 5), st.randoms(use_true_random=False))
    def test_power_of_pairs_given_high_to_low(self, graph, r, rnd):
        pairs = [[b, a] for a, b in graph.edges]
        rnd.shuffle(pairs)
        hg = power(pairs, r)
        assert_as_checked(hg)
        assert hg.edges == power([sorted(p) for p in pairs], r).edges

    def test_coalesce_at_a_vertex_inside_an_edge(self):
        """v = 1, the middle of h's first edge, lands at u = 0, below the
        images of that edge's other vertices, 3 and 4."""
        g, h = loose_path(3, 1).hg, loose_path(3, 2).hg
        hg = coalesce(g, 0, h, 1)
        assert hg.edges == ((0, 1, 2), (0, 3, 4), (4, 5, 6))
        assert_as_checked(hg)


class TestSupertree:
    @pytest.mark.parametrize("r", [2, 3, 4, 6])
    @pytest.mark.parametrize("t", [1, 2, 5, 9])
    def test_loose_paths_are_supertrees(self, r, t):
        assert loose_path(r, t).hg.is_supertree()

    def test_single_vertex_is_a_supertree(self):
        assert UniformHypergraph(2, 1).is_supertree()

    def test_disconnected_is_not(self):
        assert not UniformHypergraph(2, 2).is_supertree()

    def test_overlapping_edges_fail_the_count(self):
        # two 3-edges sharing two vertices: connected but 4 != 2*2+1
        hg = UniformHypergraph(3, 4, [[0, 1, 2], [0, 1, 3]])
        assert len(hg.components()) == 1
        assert not hg.is_supertree()

    @settings(max_examples=200)
    @given(small_hypergraphs(rs=(2, 3, 4)))
    @example(UniformHypergraph(3, 0))
    def test_components_and_supertree_test_match_a_reference(self, hg):
        # cycles, edges sharing two vertices and isolated vertices included
        blocks = [{v} for v in range(hg.n)]
        merged = True
        while merged:  # merge every two blocks that one edge meets, until stable
            merged = False
            for e in hg.edges:
                hit = [b for b in blocks if b.intersection(e)]
                if len(hit) > 1:
                    blocks = [b for b in blocks if not b.intersection(e)] + [set().union(*hit)]
                    merged = True
        expected = []
        for block in sorted(sorted(b) for b in blocks):
            index = {v: i for i, v in enumerate(block)}
            edges = [[index[v] for v in e] for e in hg.edges if e[0] in index]
            expected.append(UniformHypergraph(hg.r, len(block), edges))
        assert hg.components() == expected
        assert hg.is_supertree() == (len(blocks) == 1 and hg.n == hg.num_edges * (hg.r - 1) + 1)

    def test_pendant_peeling_preserves_supertree(self):
        import random

        from hypermatch import random_supertree

        rng = random.Random(11)
        for _ in range(10):
            hg = random_supertree(3, rng.randint(2, 7), rng)
            while hg.num_edges > 1:
                e = pendant_edges(hg)[0]
                tips = [v for v in e if hg.degree(v) == 1]
                hg = hg.delete_vertices(tips)
                assert hg.is_supertree()


class TestInvariants:
    @settings(max_examples=60)
    @given(small_hypergraphs())
    def test_delete_vertex_edge_count(self, hg):
        for v in range(hg.n):
            assert hg.delete_vertex(v).num_edges == hg.num_edges - hg.degree(v)

    @settings(max_examples=60)
    @given(small_hypergraphs())
    def test_delete_closed_edge_drops_r_vertices(self, hg):
        for e in hg.edges:
            assert hg.delete_closed_edge(e).n == hg.n - hg.r

    @settings(max_examples=25)
    @given(supertrees(max_edges=3), supertrees(max_edges=3), supertrees(max_edges=3))
    def test_union_associative_up_to_isomorphism(self, a, b, c):
        if not (a.r == b.r == c.r):
            return
        lhs = disjoint_union(disjoint_union(a, b), c)
        rhs = disjoint_union(a, disjoint_union(b, c))
        assert are_isomorphic(lhs, rhs)


class TestIsomorphism:
    def test_reflexive(self):
        hg = family_w(3, 6).hg
        assert are_isomorphic(hg, hg)

    def test_label_permutation(self):
        a = UniformHypergraph(2, 4, [[0, 1], [1, 2], [2, 3]])
        b = UniformHypergraph(2, 4, [[3, 2], [2, 0], [0, 1]])
        assert are_isomorphic(a, b)

    def test_distinguishes_path_from_star(self):
        path = UniformHypergraph(2, 4, [[0, 1], [1, 2], [2, 3]])
        star = UniformHypergraph(2, 4, [[0, 1], [0, 2], [0, 3]])
        assert not are_isomorphic(path, star)

    def test_counts_equal_branches(self):
        # vertex 0, the centre, with three branches of five vertices and
        # height three: two of one kind and one of the other, or the reverse
        def centre_with(kinds):
            edges = []
            for i, kind in enumerate(kinds):
                v, a, b, c, d = range(1 + 5 * i, 6 + 5 * i)
                edges += [[0, v], [v, a], [a, b], [v, c]]
                edges.append([c, d] if kind == "forked" else [v, d])
            return UniformHypergraph(2, 16, edges)

        g = centre_with(["forked", "forked", "broom"])
        h = centre_with(["forked", "broom", "broom"])
        assert not are_isomorphic(g, h)

    def test_triple_pendant_premise_pair_not_isomorphic(self):
        # cospectral but distinguishable by branch-vertex spacing
        for r in (2, 3):
            g = family_r(r, 1, 1, 2, 4).hg
            h = family_r(r, 1, 3, 1, 3).hg
            assert not are_isomorphic(g, h)

    def test_anchor_deleted_premise_pair_isomorphic(self):
        for r in (2, 3, 4):
            g = family_r(r, 1, 1, 2, 4)
            h = family_r(r, 1, 3, 1, 3)
            assert are_isomorphic(
                g.hg.delete_vertex(g.anchors["p2"]),
                h.hg.delete_vertex(h.anchors["p3"]),
            )

    def test_edgeless_counts_only(self):
        assert are_isomorphic(UniformHypergraph(2, 3), UniformHypergraph(5, 3))
        assert not are_isomorphic(UniformHypergraph(2, 3), UniformHypergraph(2, 4))

    def test_equivalence_relation_spot_check(self):
        zoo = [
            loose_path(3, 2).hg,
            UniformHypergraph(3, 5, [[1, 3, 4], [0, 2, 4]]),  # relabeled two-edge path
            family_w(3, 5).hg,
            disjoint_union(loose_path(3, 1).hg, UniformHypergraph(3, 2)),
        ]
        for a, b in itertools.product(zoo, repeat=2):
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
        for a, b, c in itertools.product(zoo, repeat=3):
            if are_isomorphic(a, b) and are_isomorphic(b, c):
                assert are_isomorphic(a, c)
        assert are_isomorphic(zoo[0], zoo[1])

    @settings(max_examples=200, deadline=None)
    @given(superforest_relatives())
    def test_agrees_with_brute_force(self, relatives):
        import hypermatch.hypergraph as hypergraph

        a, copy, other = relatives
        isomorphic = brute_force_isomorphic(a, other)
        assert are_isomorphic(a, copy) and brute_force_isomorphic(a, copy)
        assert are_isomorphic(a, other) == isomorphic
        # the kept codes are a canonical key: equal, and hashing equal, exactly
        # for isomorphic inputs of one r, whatever their n and m
        assert all(are_isomorphic(x, x) for x in relatives)  # each code is kept, per core shape
        code, copy_code, other_code = (hypergraph._shape(x)["code"] for x in relatives)
        assert code == copy_code and hash(code) == hash(copy_code)
        assert (code == other_code) == isomorphic

    @pytest.mark.parametrize(
        "hg",
        [
            random_supertree(2, 300, random.Random(2)),
            random_supertree(3, 300, random.Random(3)),
            random_supertree(5, 300, random.Random(5)),
            loose_path(2, 3000).hg,  # far deeper than the recursion limit
            _R5_N25,
        ],
        ids=["random-r2-m300", "random-r3-m300", "random-r5-m300", "loose-path-r2-m3000", "r5-n25"],
    )
    def test_relabeling_invariance_at_scale(self, hg):
        perm = list(range(hg.n))
        random.Random(hg.n).shuffle(perm)
        other = relabel(hg, perm)
        assert are_isomorphic(hg, other) and are_isomorphic(other, hg)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_moved_pendant_edge_at_scale(self, r):
        tree = random_supertree(r, 299, random.Random(r))
        leaves = [v for v in range(tree.n) if tree.degree(v) == 1]
        g = attach_pendant(tree, leaves[0])
        # the first leaf whose phi differs, which proves non-isomorphism
        h = next(
            h for h in (attach_pendant(tree, v) for v in leaves[1:])
            if matching_polynomial(h) != matching_polynomial(g)
        )
        assert not are_isomorphic(g, h)
        assert not are_isomorphic(h, relabel(g, list(reversed(range(g.n)))))

    @settings(max_examples=30)
    @given(supertrees_with_vertex(max_edges=5))
    def test_deletion_commutes_with_relabeling(self, hg_v):
        # deleting corresponding vertices of identical objects stays isomorphic
        hg, v = hg_v
        assert are_isomorphic(hg.delete_vertex(v), hg.delete_vertex(v))
