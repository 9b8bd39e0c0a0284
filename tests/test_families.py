"""Family constructors, anchors, and gluing operations."""

import argparse
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import supertrees_with_vertex
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
    family_z,
    loose_path,
    power,
    random_supertree,
)
from hypermatch.cli import _cmd_construct


class TestLoosePath:
    def test_ordinary_path(self):
        hg = loose_path(2, 3).hg
        assert hg.n == 4
        assert hg.edges == ((0, 1), (1, 2), (2, 3))

    def test_two_triples_share_one_vertex(self):
        hg = loose_path(3, 2).hg
        assert hg.n == 5
        assert hg.edges == ((0, 1, 2), (2, 3, 4))

    def test_zero_length_is_a_vertex(self):
        for r in (2, 3, 7):
            assert loose_path(r, 0).hg == UniformHypergraph(r, 1)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_vertex_count_formula(self, r):
        for t in range(13):
            assert loose_path(r, t).hg.n == t * (r - 1) + 1

    def test_spine_anchors(self):
        built = loose_path(4, 3)
        assert built.anchors == {"v1": 0, "v2": 3, "v3": 6, "v4": 9}
        for i in range(1, 4):
            vi = built.anchors[f"v{i}"]
            vj = built.anchors[f"v{i + 1}"]
            shared = [e for e in built.hg.edges if vi in e and vj in e]
            assert len(shared) == 1


class TestPower:
    def test_path_power_is_loose_path(self):
        for r in (2, 3, 5):
            hg = power([[0, 1], [1, 2], [2, 3]], r)
            assert are_isomorphic(hg, loose_path(r, 3).hg)

    def test_single_edge(self):
        hg = power([[0, 1]], 5)
        assert (hg.n, hg.num_edges, hg.r) == (5, 1, 5)

    def test_star(self):
        hg = power([[0, 1], [0, 2], [0, 3]], 3)
        assert hg.n == 7
        assert hg.is_supertree()
        assert all(0 in e for e in hg.edges)

    def test_r2_returns_graph(self):
        hg = power([[0, 1], [1, 2]], 2)
        assert hg.edges == ((0, 1), (1, 2))

    def test_rejects_non_simple(self):
        # the constructor's checks, made on the graph itself
        with pytest.raises(HypergraphError, match=r"edge \[0, 0\] is not a set of 2 distinct vertices"):
            power([[0, 0]], 3)
        with pytest.raises(HypergraphError, match=r"duplicate edge \[0, 1\]"):
            power([[0, 1], [1, 0]], 3)

    @pytest.mark.parametrize("edges", [[[]], [[3]], [[0, 1], [2]], [[0, 1, 2]], [[-1, 2]], [[-5, -3]]])
    def test_rejects_pairs_that_are_no_edge(self, edges):
        with pytest.raises(HypergraphError, match="edge"):
            power(edges, 3)

    def test_fresh_vertices_in_input_order(self):
        assert power([(2, 1), (0, 1)], 4).edges == ((0, 1, 5, 6), (1, 2, 3, 4))

    @pytest.mark.parametrize("edges, r", [
        ([(0, 1.9), (1, 2)], 3),  # int() would read 1.9 as 1
        ([(0, 1.0)], 3),
        ([("0", "1")], 3),
        ([(True, 2)], 2),
    ])
    def test_rejects_non_integer_vertices(self, edges, r):
        with pytest.raises(HypergraphError, match="vertex must be an integer"):
            power(edges, r)

    def test_integer_type_vertices_accepted(self):
        assert power([(np.int64(0), np.int32(1))], 3) == power([(0, 1)], 3)


class TestAttachPendant:
    def test_on_single_vertex(self):
        for r in (2, 4):
            assert attach_pendant(UniformHypergraph(r, 1), 0) == loose_path(r, 1).hg

    def test_bookkeeping(self):
        hg = loose_path(3, 2).hg
        out = attach_pendant(hg, 2)
        assert out.num_edges == hg.num_edges + 1
        assert out.n == hg.n + 2

    def test_branch_construction(self):
        # pendant at the middle spine vertex of a path of length a+b
        r, a, b = 3, 2, 3
        path = loose_path(r, a + b)
        direct = attach_pendant(path.hg, path.anchors[f"v{a + 1}"])
        assert are_isomorphic(direct, family_t(r, a, b).hg)


class TestNamedFamilies:
    def test_w5_counts(self):
        built = family_w(3, 5)
        assert built.hg.num_edges == 5
        assert built.hg.n == 11
        assert built.hg.is_supertree()

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("size", [2, 3, 6, 9])
    def test_z_edge_count(self, r, size):
        assert family_z(r, size).hg.num_edges == size

    def test_triple_pendant_counts(self):
        hg = family_r(3, 1, 1, 2, 4).hg
        assert hg.num_edges == 11
        assert hg.n == 23
        assert hg.is_supertree()

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_w_equals_double_pendant_q(self, r):
        for size in (5, 6, 8):
            assert are_isomorphic(family_w(r, size).hg, family_q(r, 1, size - 4, 1).hg)

    @pytest.mark.parametrize("r", [2, 3])
    def test_z_equals_single_pendant_t(self, r):
        for size in (2, 3, 7):
            assert are_isomorphic(family_z(r, size).hg, family_t(r, 1, size - 2).hg)

    def test_pendant_tip_anchors_have_degree_one(self):
        built = family_r(3, 1, 1, 2, 4)
        for name in ("p1", "p2", "p3"):
            assert built.hg.degree(built.anchors[name]) == 1

    def test_parameter_validation(self):
        with pytest.raises(HypergraphError):
            family_q(3, 0, 1, 1)
        with pytest.raises(HypergraphError):
            family_w(3, 4)
        with pytest.raises(HypergraphError):
            family_z(3, 1)
        for r in (2, 3):
            with pytest.raises(HypergraphError, match="path length must be >= 0"):
                loose_path(r, -1)
            with pytest.raises(HypergraphError, match=r"family T needs a >= 1, b >= 0, got \(0, 1\)"):
                family_t(r, 0, 1)
            with pytest.raises(HypergraphError, match=r"family R needs a,b,c,d >= 1, got \(1, 1, 0, 1\)"):
                family_r(r, 1, 1, 0, 1)
            with pytest.raises(HypergraphError, match="need at least one edge"):
                random_supertree(r, 0, random.Random(0))


_G = loose_path(3, 2).hg
_INTEGER_PARAMETERS = [  # (constructor, valid arguments, positions of its integer parameters)
    pytest.param(loose_path, (3, 2), (0, 1), id="loose_path"),
    pytest.param(power, ([[0, 1], [1, 2]], 3), (1,), id="power"),
    pytest.param(family_t, (3, 1, 1), (0, 1, 2), id="family_t"),
    pytest.param(family_q, (3, 1, 1, 1), (0, 1, 2, 3), id="family_q"),
    pytest.param(family_r, (3, 1, 1, 2, 4), (0, 1, 2, 3, 4), id="family_r"),
    pytest.param(family_w, (3, 5), (0, 1), id="family_w"),
    pytest.param(family_z, (3, 2), (0, 1), id="family_z"),
    pytest.param(coalesce_power, (_G, 0, 2), (1, 2), id="coalesce_power"),
    pytest.param(coalesce_mixed, (_G, 0, 1, _G, 2, 1), (1, 2, 4, 5), id="coalesce_mixed"),
    pytest.param(bridge, (_G, 0, _G, 2, 1), (1, 3, 4), id="bridge"),
    pytest.param(lambda r, m: random_supertree(r, m, random.Random(0)), (3, 4), (0, 1),
                 id="random_supertree"),
]


@pytest.mark.parametrize("build, args, positions", _INTEGER_PARAMETERS)
def test_integer_parameters(build, args, positions):
    # each integer parameter follows the hypergraph's rule: a float, a
    # string or a bool raises HypergraphError, where it was truncated, read
    # as 0/1 or failed in range(); numpy integers pass
    for i in positions:
        for bad in (float(args[i]), args[i] + 0.5, str(args[i]), True):
            with pytest.raises(HypergraphError, match="must be an integer"):
                build(*args[:i], bad, *args[i + 1:])
    numpy_args = [np.int64(a) if i in positions else a for i, a in enumerate(args)]
    assert build(*numpy_args) == build(*args)


@pytest.mark.parametrize("r", [1, 0, -3])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(loose_path, id="loose_path"),
        pytest.param(lambda r, m: random_supertree(r, m, random.Random(0)), id="random_supertree"),
    ],
)
def test_edge_size_checked_before_any_edge_is_built(build, r):
    # a million edges would take most of a second to build before the
    # hypergraph's own check of r; the constructor checks r first
    started = time.perf_counter()
    with pytest.raises(HypergraphError, match="edge size r must be >= 2"):
        build(r, 10**6)
    assert time.perf_counter() - started < 0.1


class TestConstructionSpec:
    """A construct request, family name and parameters, is checked against
    `families._FAMILIES` before anything is built."""

    @staticmethod
    def _construct(family, r, params):
        return _cmd_construct(argparse.Namespace(family=family, r=r, params=list(params), output=None))

    def test_arity_checked(self):
        with pytest.raises(HypergraphError, match="parameter"):
            self._construct("T", 3, (1,))

    def test_unknown_family(self):
        with pytest.raises(HypergraphError, match="unknown family"):
            self._construct("X", 3, (1,))


class TestCoalesce:
    def test_with_single_vertex_is_identity(self):
        hg = family_w(3, 5).hg
        assert are_isomorphic(coalesce(hg, 4, UniformHypergraph(3, 1), 0), hg)

    def test_two_single_edges_make_a_path(self):
        for r in (2, 3, 4):
            e = loose_path(r, 1).hg
            assert are_isomorphic(coalesce(e, 0, e, 0), loose_path(r, 2).hg)

    def test_merged_vertex_keeps_left_index(self):
        g = loose_path(3, 1).hg
        h = loose_path(3, 2).hg
        out = coalesce(g, 1, h, 4)
        assert out.n == g.n + h.n - 1
        assert out.degree(1) == g.degree(1) + h.degree(4)

    def test_mismatched_r_rejected(self):
        with pytest.raises(HypergraphError):
            coalesce(loose_path(2, 1).hg, 0, loose_path(3, 1).hg, 0)

    @settings(max_examples=25)
    @given(supertrees_with_vertex(max_edges=4), supertrees_with_vertex(max_edges=4))
    def test_symmetric_up_to_isomorphism(self, gv, hv):
        (g, u), (h, v) = gv, hv
        if g.r != h.r:
            return
        assert are_isomorphic(coalesce(g, u, h, v), coalesce(h, v, g, u))


class TestCoalescePower:
    def test_one_copy_is_identity(self):
        hg = family_t(3, 1, 2).hg
        assert coalesce_power(hg, 0, 1) == hg

    def test_two_single_edges_at_tip(self):
        for r in (2, 3, 5):
            e = loose_path(r, 1).hg
            assert are_isomorphic(coalesce_power(e, 0, 2), loose_path(r, 2).hg)

    def test_vertex_count(self):
        hg = family_w(3, 5).hg
        for m in (1, 2, 3, 4):
            assert coalesce_power(hg, 2, m).n == m * (hg.n - 1) + 1

    def test_rejects_zero_copies(self):
        with pytest.raises(HypergraphError):
            coalesce_power(UniformHypergraph(2, 1), 0, 0)

    def test_mixed_product_composes(self):
        g = loose_path(3, 1).hg
        h = loose_path(3, 2).hg
        both = coalesce_mixed(g, 0, 2, h, 2, 1)
        assert both.num_edges == 2 * g.num_edges + h.num_edges
        assert both.n == 2 * (g.n - 1) + (h.n - 1) + 1
        # with no copy of g, the shared vertex stays at v
        for k in (1, 3):
            assert coalesce_mixed(g, 0, 0, h, 2, k) == coalesce_power(h, 2, k)


class TestBridge:
    def test_two_vertices_one_bridging_edge(self):
        for r in (2, 3, 6):
            out = bridge(UniformHypergraph(r, 1), 0, UniformHypergraph(r, 1), 0, 1)
            assert are_isomorphic(out, loose_path(r, 1).hg)

    def test_m1_symmetric(self):
        rng = random.Random(3)
        g = random_supertree(3, 3, rng)
        h = random_supertree(3, 2, rng)
        assert are_isomorphic(bridge(g, 0, h, 1, 1), bridge(h, 1, g, 0, 1))

    def test_counts(self):
        g = family_w(3, 5).hg
        h = loose_path(3, 2).hg
        for m in (1, 2, 3):
            out = bridge(g, 3, h, 0, m)
            assert out.num_edges == g.num_edges + m * h.num_edges + m
            assert out.n == g.n + m * h.n + m * (g.r - 2)
            assert out.is_supertree()

    def test_r2_bridging_edge_is_bare(self):
        g = loose_path(2, 1).hg
        out = bridge(g, 0, g, 1, 2)
        assert out.n == g.n + 2 * g.n
        assert out.num_edges == 1 + 2 * 1 + 2

    def test_copies_are_isomorphic_branches(self):
        g = loose_path(3, 1).hg
        h = family_t(3, 1, 1).hg
        m = 3
        out = bridge(g, 0, h, 2, m)
        # deleting the hub splits off the copies; all copy components match
        comps = out.delete_vertex(0).components()
        branch_like = [c for c in comps if c.num_edges == h.num_edges]
        assert len(branch_like) == m
        for c in branch_like[1:]:
            assert are_isomorphic(c, branch_like[0])

    def test_rejects_bad_m(self):
        with pytest.raises(HypergraphError):
            bridge(UniformHypergraph(2, 1), 0, UniformHypergraph(2, 1), 0, 0)


class TestRandomSupertree:
    def test_is_supertree_and_seeded(self):
        rng = random.Random(5)
        seen = []
        for _ in range(20):
            hg = random_supertree(3, rng.randint(1, 6), rng)
            assert hg.is_supertree()
            seen.append(hg)
        again = []
        rng = random.Random(5)
        for _ in range(20):
            again.append(random_supertree(3, rng.randint(1, 6), rng))
        assert seen == again

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_same_draws_as_pendant_by_pendant(self, r):
        # the edge-list build must make the same rng draws and return the
        # same value as attaching one pendant edge at a time
        for seed in range(4):
            for m in (1, 2, 7, 40):
                rng_old, rng_new = random.Random(seed), random.Random(seed)
                old = loose_path(r, 1).hg
                for _ in range(m - 1):
                    old = attach_pendant(old, rng_old.randrange(old.n))
                assert random_supertree(r, m, rng_new) == old
                assert rng_new.getstate() == rng_old.getstate()


def test_constructed_families_are_supertrees():
    rng = random.Random(1)
    for r in (2, 3, 4):
        builds = [
            family_t(r, 2, 3).hg,
            family_q(r, 1, 2, 1).hg,
            family_r(r, 1, 3, 1, 3).hg,
            family_w(r, 7).hg,
            family_z(r, 4).hg,
            coalesce(family_w(r, 5).hg, 0, loose_path(r, 2).hg, 0),
            bridge(loose_path(r, 1).hg, 0, family_z(r, 3).hg, 1, 2),
            coalesce_power(random_supertree(r, 3, rng), 1, 3),
        ]
        for hg in builds:
            assert hg.is_supertree(), hg


def test_union_of_supertrees_is_not_one():
    u = disjoint_union(loose_path(3, 1).hg, family_w(3, 5).hg)
    assert not u.is_supertree()


@pytest.mark.parametrize(
    "glue",
    [lambda g, h: coalesce(g, 0, h, 0), lambda g, h: bridge(g, 0, h, 0, 2), disjoint_union],
    ids=["coalesce", "bridge", "disjoint_union"],
)
def test_gluings_share_one_edge_size_rule(glue):
    with pytest.raises(HypergraphError, match="edge sizes differ: 2 vs 3"):
        glue(loose_path(2, 1).hg, loose_path(3, 1).hg)
    assert glue(UniformHypergraph(2, 1), loose_path(4, 1).hg).r == 4
    assert glue(loose_path(4, 1).hg, UniformHypergraph(2, 1)).r == 4
