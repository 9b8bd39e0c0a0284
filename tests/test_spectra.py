"""Numeric spectral radius, matching energy, and the exact r=2 bridge."""

import itertools
import math
import operator
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    assert_top_root_exact,
    base_forest,
    char_poly_reference,
    edge_cycle_energy,
    pendant_edges,
    power_superforests,
    spider,
    supertrees,
)
from hypermatch import (
    HypergraphError,
    RootFindingError,
    SparsePolynomial,
    UniformHypergraph,
    are_isomorphic,
    check_cospectral,
    clear_polynomial_cache,
    default_tol,
    disjoint_union,
    family_r,
    family_w,
    largest_real_root,
    loose_path,
    matching_energy,
    matching_counts,
    matching_polynomial,
    matching_polynomial_oracle,
    power,
    random_supertree,
    reduce_polynomial,
    roots,
    run_suite,
    spectral_radius,
    spectral_summary,
    tree_char_poly,
)
from hypermatch.hypergraph import rooted_superforest
from hypermatch.spectra import _char_poly_exact, _search_radius

TOL = 1e-10


def _shape_entry(hg) -> dict:
    """hg's cache entry, checked to be its core shape's record and nothing
    of its own: its one tree's record, kept under the tree shape too, or a
    forest's record, whose "parts" are its trees' records."""
    import hypermatch.hypergraph as hypergraph

    rec = hypergraph._CACHE[hg]
    for tree in rec.get("parts", (rec,)):
        assert hypergraph._CACHE[tree["shape"]] is tree
    return rec


def _search(hg, seed=None):
    """rho from _search_radius on the core shape of each tree of hg, the
    largest, with no record; seed is in units of rho^r, the top root of
    q that the search finds."""
    return max((_search_radius(tree, seed) for tree in rooted_superforest(hg)[1]), default=0.0) ** (1.0 / hg.r)


class TestRoots:
    def test_linear(self):
        assert roots([1, -1]) == [1 + 0j]
        assert roots([1, -2]) == [2 + 0j]

    def test_quadratic_factorable(self):
        rs = roots([1, -5, 4])
        assert len(rs) == 2
        assert abs(rs[0] - 1) < 1e-12
        assert abs(rs[1] - 4) < 1e-12

    def test_multiplicity_repeats(self):
        # (y-2)^2
        rs = roots([1, -4, 4])
        assert len(rs) == 2
        for z in rs:
            assert abs(z - 2) < 1e-6

    def test_complex_pair(self):
        rs = roots([1, 0, 1])
        assert sorted(z.imag for z in rs) == pytest.approx([-1.0, 1.0])

    def test_constant_rejected(self):
        for q in ([1], [], [0, 1, -1]):
            with pytest.raises(ValueError):
                roots(q)

    def test_residuals_small(self):
        q = SparsePolynomial({5: 1, 3: -17, 1: 12, 0: -3})
        for z in roots(q.to_dense()):
            assert abs(q.evaluate(z)) < 1e-9 * sum(abs(c) for _, c in q.terms())


class TestLargestRealRoot:
    def test_simple(self):
        assert largest_real_root(SparsePolynomial({2: 1, 1: -5, 0: 4})) == pytest.approx(4, abs=1e-12)

    def test_even_multiplicity_top_root(self):
        y = largest_real_root(SparsePolynomial({2: 1, 1: -4, 0: 4}))
        assert abs(y - 2) < 1e-6


class TestSpectralRadius:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_single_edge(self, r):
        assert abs(spectral_radius(loose_path(r, 1).hg) - 1.0) < TOL

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_two_edge_path(self, r):
        assert abs(spectral_radius(loose_path(r, 2).hg) - 2 ** (1 / r)) < TOL

    def test_ordinary_three_vertex_path(self):
        assert abs(spectral_radius(loose_path(2, 2).hg) - math.sqrt(2)) < TOL

    def test_edgeless_is_zero(self):
        assert spectral_radius(UniformHypergraph(2, 3)) == 0.0

    def test_consistent_with_reduced_top_root(self):
        for hg in (family_w(3, 7).hg, loose_path(4, 5).hg):
            red = reduce_polynomial(matching_polynomial(hg), hg.r, hg.n)
            y = largest_real_root(red.q)
            assert abs(spectral_radius(hg) ** hg.r - y) < 1e-8

    def test_union_rule(self):
        g = loose_path(3, 4).hg
        h = family_w(3, 6).hg
        u = disjoint_union(g, h)
        assert spectral_radius(u) == pytest.approx(
            max(spectral_radius(g), spectral_radius(h)), abs=TOL
        )
        # three identical copies: a triple top root
        triple = disjoint_union(disjoint_union(h, h), h)
        assert spectral_radius(triple) == pytest.approx(spectral_radius(h), abs=TOL)

    def test_union_of_equal_components(self):
        g = family_w(3, 5).hg
        assert spectral_radius(disjoint_union(g, g)) == pytest.approx(
            spectral_radius(g), abs=TOL
        )

    @settings(max_examples=20, deadline=None)
    @given(supertrees(max_edges=6))
    def test_pendant_deletion_strictly_decreases(self, hg):
        if hg.num_edges < 2:
            return
        e = pendant_edges(hg)[0]
        smaller = UniformHypergraph(hg.r, hg.n, [f for f in hg.edges if f != e])
        assert spectral_radius(smaller) < spectral_radius(hg) - 1e-9

    @pytest.mark.xfail(strict=True, reason="rho depends on the order of the edges below a core vertex")
    def test_same_float_for_two_labellings_of_one_tree(self):
        # the two core shapes differ only in the order of the two edges
        # below core vertex 1, and _tree_pass sums their terms in that
        # order: 0x1.ee8dd4748bf15p+0 against 0x1.ee8dd4748bf16p+0
        g = UniformHypergraph(2, 6, [(0, 1), (0, 3), (1, 2), (1, 5), (2, 4)])
        h = UniformHypergraph(2, 6, [(0, 1), (0, 4), (1, 2), (1, 3), (3, 5)])
        assert are_isomorphic(g, h)
        rhos = []
        for hg in (g, h):
            clear_polynomial_cache()
            rhos.append(spectral_radius(hg))
        assert rhos[0].hex() == rhos[1].hex()


def _adjacency_eigenvalues(hg):
    adj = np.zeros((hg.n, hg.n))
    for a, b in hg.edges:
        adj[a, b] = adj[b, a] = 1.0
    return np.linalg.eigvalsh(adj)


def _eigvalsh_rho(hg):
    return float(_adjacency_eigenvalues(hg).max())


def _eigvalsh_me(hg):
    return float(np.abs(_adjacency_eigenvalues(hg)).sum())


class TestSpectralRadiusAtScale:
    """Inputs where rho from the roots of q came back silently wrong,
    against references apart from hypermatch's float code."""

    @pytest.mark.parametrize("t", [40, 60, 200, 1000])
    def test_ordinary_loose_path_closed_form(self, t):
        expected = 2 * math.cos(math.pi / (t + 2))
        assert spectral_radius(loose_path(2, t).hg) == pytest.approx(expected, rel=default_tol())

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_long_loose_path_exact_top_root(self, r):
        hg = loose_path(r, 200).hg
        rho = spectral_radius(hg)
        assert rho < 4 ** (1 / r)  # every r-uniform loose path stays below it
        assert_top_root_exact(hg, rho, default_tol())

    def test_random_supertree_probe(self):
        for seed in range(40):
            rng = random.Random(seed)
            r = rng.choice([2, 3, 4, 5])
            hg = random_supertree(r, rng.randint(20, 120), rng)
            rho = spectral_radius(hg)
            if r == 2:
                assert rho == pytest.approx(_eigvalsh_rho(hg), rel=default_tol()), seed
            else:
                assert_top_root_exact(hg, rho, default_tol())

    def test_rho_to_two_ulp_in_exact_arithmetic(self):
        rng = random.Random(5)
        inputs = [random_supertree(rng.randint(2, 5), rng.randint(1, 40), rng) for _ in range(150)]
        # every edge hangs from the root: the start bound's b = 0 case
        inputs += [power([(0, v) for v in range(1, k + 1)], r) for r in (2, 3, 4, 5) for k in (1, 2, 5, 9)]
        inputs += [loose_path(3, 100).hg, family_w(5, 100).hg]
        for hg in inputs:
            rho = spectral_radius(hg)
            assert_top_root_exact(hg, rho, 2 * math.ulp(rho) / rho)

    def test_first_pass_certifies_the_start_bound(self, monkeypatch):
        import hypermatch.spectra as spectra

        results = []
        real_pass = spectra._tree_pass
        monkeypatch.setattr(spectra, "_tree_pass", lambda *a: results.append(real_pass(*a)) or results[-1])
        rng = random.Random(6)
        tree = random_supertree(3, 9, rng)
        inputs = [random_supertree(rng.randint(2, 5), rng.randint(1, 40), rng) for _ in range(100)]
        inputs += [power([(0, v) for v in range(1, k + 1)], r) for r in (2, 3, 4, 5) for k in (1, 2, 5, 9)]
        inputs += [power([(v, 9) for v in range(9)], 4)]  # the same star, rooted at a leaf
        inputs += [loose_path(r, t).hg for r in (2, 3, 5) for t in (1, 2, 100)]
        inputs += [family_w(5, 100).hg, spider(3, 2), disjoint_union(tree, tree), disjoint_union(UniformHypergraph(3, 2), tree)]
        for hg in inputs:
            results.clear()
            assert _search(hg) == spectral_radius(hg)
            assert results[0][0], hg  # no doubling


class TestMatchingEnergy:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_single_edge(self, r):
        assert abs(matching_energy(loose_path(r, 1).hg) - r) < TOL

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_two_edge_path(self, r):
        assert abs(matching_energy(loose_path(r, 2).hg) - r * 2 ** (1 / r)) < 1e-9

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_double_pendant_five(self, r):
        expected = r * (1 + 4 ** (1 / r))
        assert abs(matching_energy(family_w(r, 5).hg) - expected) < 1e-9

    def test_edgeless_is_zero(self):
        assert matching_energy(UniformHypergraph(2, 4)) == 0.0

    def test_additive_over_union(self):
        g = loose_path(3, 3).hg
        h = family_w(3, 5).hg
        assert matching_energy(disjoint_union(g, h)) == pytest.approx(
            matching_energy(g) + matching_energy(h), abs=1e-9
        )

    def test_overflow_raises_root_finding_error(self):
        # no power of a forest, so q of degree 501 goes to the companion
        # roots, and overflows a float in the residual guard: on every
        # call, at either r of the one core shape, and nothing is kept
        members = [spider(r, 333) for r in (3, 4)]
        clear_polynomial_cache()
        for hg in (*members, members[0]):
            with pytest.raises(RootFindingError, match="overflows") as info:
                matching_energy(hg)
            assert isinstance(info.value.__cause__, OverflowError)
            assert "spectrum" not in _shape_entry(hg)

    def test_agrees_with_full_root_sum(self):
        rng = random.Random(17)
        for _ in range(12):
            r = rng.choice([2, 3, 4])
            hg = random_supertree(r, rng.randint(1, 5), rng)
            assert abs(matching_energy(hg) - edge_cycle_energy(hg)) < 1e-8


class TestMatchingEnergyAtScale:
    """Inputs where ME from the companion roots of q came back silently
    wrong, against references apart from hypermatch's float code."""

    @pytest.mark.parametrize("r, t", [(2, 60), (2, 200), (2, 1000), (3, 1000), (4, 1000), (5, 1000)])
    def test_loose_path_closed_form(self, r, t):
        # the base forest is the path on t + 1 vertices, whose positive
        # eigenvalues are 2cos(pi j / (t + 2)) for j < (t + 2) / 2
        expected = r * sum(
            (2 * math.cos(math.pi * j / (t + 2))) ** (2 / r) for j in range(1, (t + 1) // 2 + 1)
        )
        assert matching_energy(loose_path(r, t).hg) == pytest.approx(expected, rel=default_tol())

    def test_random_trees_against_eigvalsh(self):
        for seed in range(40):
            rng = random.Random(seed)
            hg = random_supertree(2, rng.randint(20, 200), rng)
            assert matching_energy(hg) == pytest.approx(_eigvalsh_me(hg), rel=default_tol()), seed

    @pytest.mark.parametrize("copies", [3, 5])
    def test_disjoint_copies_repeat_every_root(self, copies):
        hg = family_r(2, 1, 1, 2, 4).hg
        union = hg
        for _ in range(copies - 1):
            union = disjoint_union(union, hg)
        assert matching_energy(union) == pytest.approx(_eigvalsh_me(union), rel=default_tol())

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_supertree_with_complex_roots_against_edge_cycles(self):
        # no power of a forest: ME comes from the uncertified companion
        # roots of q and misses the edge-cycle eigenvalues by 2.6e-8
        hg = random_supertree(3, 14, random.Random(120))
        assert matching_energy(hg) == pytest.approx(edge_cycle_energy(hg), rel=default_tol())

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_top_q_root_of_a_supertree_with_complex_roots_is_rho(self):
        # no power of a forest: the largest |mu|^(1/r) of the companion
        # roots of q is 9.2e-4 (relative) away from the certified rho
        hg = random_supertree(4, 100, random.Random(2))
        s = spectral_summary(hg)
        top = max(map(abs, s.q_roots)) ** (1.0 / hg.r)
        assert abs(top - s.rho) <= default_tol() * s.rho

    @pytest.mark.parametrize("hg", [
        pytest.param(loose_path(3, 200).hg, id="loose-path-r3-200"),
        pytest.param(family_w(5, 100).hg, id="W-r5-100"),
        pytest.param(power([(0, i) for i in range(1, 30)], 4), id="star-r4-29"),
    ])
    def test_top_q_root_of_a_power_is_rho_to_the_r(self, hg):
        # the power route's q roots are squared singular values; the top
        # one is rho^r to within 7.4e-16 (relative) on these inputs
        s = spectral_summary(hg)
        assert max(map(abs, s.q_roots)) == pytest.approx(s.rho**hg.r, rel=1e-12)


class TestPowerSuperforests:
    """The matching energy of G^(r) comes from the eigenvalues of the
    ordinary forest G; every other superforest keeps the roots of q."""

    @settings(max_examples=80, deadline=None)
    @given(power_superforests())
    def test_base_forest_has_the_same_matching_counts(self, hg):
        size, pairs = base_forest(hg)
        assert matching_counts(UniformHypergraph(2, size, pairs)) == matching_counts(hg)

    @settings(max_examples=40, deadline=None)
    @given(supertrees(rs=(3, 4, 5), max_edges=8))
    def test_roots_only_off_the_power_route(self, hg):
        import hypermatch.spectra as spectra

        inner = max(sum(1 for v in e if hg.degree(v) >= 2) for e in hg.edges)
        calls = []
        real_roots = spectra.roots
        clear_polynomial_cache()  # hypothesis repeats inputs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "roots", lambda q: calls.append(q) or real_roots(q))
            matching_energy(hg)
        assert len(calls) == (1 if inner >= 3 else 0)


def _assert_power_spectrum_is_eigvalsh(hg):
    """_power_spectrum's values are the nu largest eigenvalues of the base
    forest's adjacency matrix, built here, to within delta, ascending."""
    from hypermatch.spectra import _power_spectrum

    size, pairs = base_forest(hg)
    nu = reduce_polynomial(matching_polynomial(hg), hg.r, hg.n).q.degree()
    adj = np.zeros((size, size))
    for a, b in pairs:
        adj[a, b] = adj[b, a] = 1.0
    want = np.linalg.eigvalsh(adj)[size - nu :]
    q_roots, lam, power, delta = _power_spectrum(nu, size, pairs)
    assert power == 2.0 and len(lam) == nu
    assert lam == sorted(lam)
    assert np.abs(np.array(lam) - want).max() <= delta
    assert q_roots == tuple(complex(x * x) for x in lam)


class TestSingularValueRoute:
    """A power superforest's spectrum comes from the singular values of
    its base forest's biadjacency matrix: the same values as the
    eigenvalues of its adjacency matrix, in the same order."""

    @settings(max_examples=80, deadline=None)
    @given(power_superforests(max_vertices=30))
    def test_values_are_the_top_eigenvalues(self, hg):
        if hg.edges:  # an edgeless input has no spectrum to take
            _assert_power_spectrum_is_eigvalsh(hg)

    @pytest.mark.parametrize("hg", [
        pytest.param(UniformHypergraph(2, 6, [(0, v) for v in range(1, 6)]), id="star"),  # B is 1 x 5
        pytest.param(power([(0, v) for v in range(1, 5)], 4), id="star-r4"),
        pytest.param(UniformHypergraph(2, 8, [(2 * i, 2 * i + 1) for i in range(4)]), id="disjoint-edges"),
        pytest.param(UniformHypergraph(3, 9, [(2, 5, 7)]), id="edge-beside-isolated"),
        pytest.param(loose_path(2, 400).hg, id="loose-path-400"),
    ])
    def test_degenerate_shapes(self, hg):
        _assert_power_spectrum_is_eigvalsh(hg)
        if hg.r == 2:
            assert matching_energy(hg) == pytest.approx(_eigvalsh_me(hg), rel=TOL)

    @pytest.mark.parametrize("hg, on_power_route", [
        (family_w(3, 9).hg, True),
        (loose_path(2, 40).hg, True),
        (spider(3, 2), False),
        (spider(4, 3), False),
    ])
    def test_q_roots_sorted_on_both_routes(self, hg, on_power_route):
        from hypermatch.hypergraph import rooted_superforest
        from hypermatch.spectra import _base_forest

        (tree,) = rooted_superforest(hg)[1]
        assert bool(_base_forest(tree)) == on_power_route
        clear_polynomial_cache()
        q_roots = spectral_summary(hg).q_roots
        assert list(q_roots) == sorted(q_roots, key=lambda z: (z.real, z.imag))


class TestSpectralSummary:
    def test_fields_and_json(self):
        hg = family_w(3, 5).hg
        s = spectral_summary(hg)
        red = reduce_polynomial(matching_polynomial(hg), hg.r, hg.n)
        assert len(s.q_roots) == red.q.degree()
        assert abs(s.rho**hg.r - largest_real_root(red.q)) < 1e-8
        data = s.to_json_dict()
        assert set(data) == {"rho", "me", "tol", "q_roots"}
        assert data["q_roots"][-1]["re"] == pytest.approx(4.0, abs=1e-9)

    def test_edgeless(self):
        s = spectral_summary(UniformHypergraph(2, 2))
        assert (s.rho, s.me, s.q_roots) == (0.0, 0.0, ())

    def test_roots_found_once_and_me_agrees(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        real_roots = spectra.roots
        monkeypatch.setattr(
            spectra, "roots", lambda q: calls.append(q) or real_roots(q)
        )
        hg = spider(3, 2)
        clear_polynomial_cache()
        s = spectral_summary(hg)
        assert len(calls) == 1
        clear_polynomial_cache()
        assert s.me == matching_energy(hg)
        assert len(calls) == 2
        # a power superforest needs no roots at all
        power_input = family_r(3, 1, 1, 2, 4).hg
        clear_polynomial_cache()
        s = spectral_summary(power_input)
        assert len(calls) == 2
        clear_polynomial_cache()
        assert s.me == matching_energy(power_input)
        assert len(s.q_roots) == reduce_polynomial(
            matching_polynomial(power_input), 3, power_input.n
        ).q.degree()

    @pytest.mark.parametrize("power_input", [False, True])
    def test_energy_needs_no_reduction(self, monkeypatch, power_input):
        import hypermatch.matching as matching
        import hypermatch.spectra as spectra

        hg = family_r(3, 1, 1, 2, 4).hg if power_input else spider(3, 2)
        clear_polynomial_cache()
        me, summary = matching_energy(hg), spectral_summary(hg)

        def fail(*args):
            raise AssertionError("the ME path reduced phi")

        monkeypatch.setattr(matching, "reduce_polynomial", fail)
        monkeypatch.setattr(spectra, "reduce_polynomial", fail, raising=False)
        clear_polynomial_cache()
        assert matching_energy(hg) == me
        clear_polynomial_cache()
        assert spectral_summary(hg) == summary

    def test_rho_is_the_unseeded_spectral_radius(self):
        rng = random.Random(21)
        inputs = [random_supertree(rng.randint(2, 5), rng.randint(4, 30), rng) for _ in range(60)]
        tree = random_supertree(3, 9, rng)
        # equal components make the top root of q a double root, a poorer seed
        inputs += [disjoint_union(tree, tree), spider(4, 2), family_w(5, 8).hg]
        for hg in inputs:
            # the summary's rho is searched from the roots of q, on a cold record
            clear_polynomial_cache()
            assert spectral_summary(hg).rho == _search(hg)

    def test_any_seed_gives_the_same_rho(self):
        for hg in (spider(3, 2), random_supertree(4, 20, random.Random(4)), loose_path(2, 30).hg):
            (shape,) = rooted_superforest(hg)[1]
            top = _search_radius(shape, None)  # rho^r: the seeds are in its units
            seeds = [top * 1.5, top * 1e6, 1e300, top * (1 + 1e-15), top, top * (1 - 1e-12),
                     top * (1 - 1e-9), top * 0.5, 1e-300, 0.0, -top, math.nan, math.inf, -math.inf]
            for seed in seeds:
                assert _search_radius(shape, seed) == top, seed
            assert top ** (1.0 / hg.r) == spectral_radius(hg)

    def test_plain_bisection_gives_the_same_rho(self, monkeypatch):
        import hypermatch.spectra as spectra

        rng = random.Random(30)
        inputs = [random_supertree(rng.randint(2, 5), rng.randint(1, 30), rng) for _ in range(60)]
        inputs += [spider(4, 2), family_w(5, 8).hg, loose_path(2, 40).hg]
        expected = [(_search(hg), spectral_summary(hg).q_roots) for hg in inputs]
        monkeypatch.setattr(spectra, "_MAX_PASSES", 0)  # no Newton step at all
        for hg, (rho, q_roots) in zip(inputs, expected):
            seed = max(map(abs, q_roots))
            assert _search(hg) == _search(hg, seed) == rho

    @staticmethod
    def _corpus():
        """200 random supertrees with r = 2..5 and 4 to 30 edges."""
        rng = random.Random(0)
        return [random_supertree(rng.randint(2, 5), rng.randint(4, 30), rng) for _ in range(200)]

    @staticmethod
    def _count_passes(monkeypatch) -> list:
        """A list that gains one item per call of _tree_pass."""
        import hypermatch.spectra as spectra

        calls = []
        real_pass = spectra._tree_pass
        monkeypatch.setattr(spectra, "_tree_pass", lambda *a: calls.append(1) or real_pass(*a))
        return calls

    def _passes_per_input(self, monkeypatch, rho_of):
        """The passes of _tree_pass that rho_of takes on each input of
        _corpus, each on a cold record. Each input needs one at least:
        a count of 0 means the passes run elsewhere than _tree_pass."""
        calls = self._count_passes(monkeypatch)
        counts = []
        for hg in self._corpus():
            clear_polynomial_cache()
            before = len(calls)
            rho_of(hg)
            counts.append(len(calls) - before)
        assert min(counts) >= 1
        return sum(counts) / len(counts)

    def test_seeded_search_takes_few_passes(self, monkeypatch):
        # the summary finds the roots of q first, which seed the search
        assert self._passes_per_input(monkeypatch, spectral_summary) <= 4

    def test_unseeded_search_takes_few_passes(self, monkeypatch):
        # no q roots in the record: the search starts from its bound; it
        # takes about 10 passes here, and a plain bisection far more
        assert self._passes_per_input(monkeypatch, spectral_radius) <= 12

    def test_a_refuted_seed_costs_one_pass(self, monkeypatch):
        # after a refuted seed the search goes on from its bound: one pass
        # more than without a seed, where doubling up from 1e-300 would
        # take about 1000
        calls = self._count_passes(monkeypatch)
        for hg in self._corpus():
            (shape,) = rooted_superforest(hg)[1]
            calls.clear()
            top = _search_radius(shape, None)
            unseeded = len(calls)
            calls.clear()
            assert _search_radius(shape, 1e-300) == top
            assert 1 <= len(calls) <= unseeded + 1, hg

    def test_reads_the_tolerance_once(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        real = spectra.default_tol
        monkeypatch.setattr(spectra, "default_tol", lambda: calls.append(1) or real())
        hg = spider(3, 2)
        clear_polynomial_cache()
        for expected in (1, 2):  # on a cold record, then on a warm one
            spectral_summary(hg)
            assert len(calls) == expected

    def test_tol_follows_env(self, monkeypatch):
        hg = family_w(3, 5).hg
        monkeypatch.delenv("HG_TOL", raising=False)
        assert spectral_summary(hg).tol == 1e-10
        monkeypatch.setenv("HG_TOL", "1e-7")
        assert spectral_summary(hg).tol == 1e-7
        assert spectral_summary(hg).to_json_dict()["tol"] == 1e-7


class TestRecord:
    """The cache holds three kinds of entry: an input's is its core
    shape's record, a tree shape's is its record, filled field by field,
    and "char_poly" holds the r = 2 oracle's table. rho^r is kept in the
    shape's record once for every r, and phi and ME are views of that
    record, built on each call."""

    @staticmethod
    def _count(monkeypatch, module, name, calls):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or real(*a))

    def test_each_field_computed_once_until_cleared(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph
        import hypermatch.matching as matching
        import hypermatch.spectra as spectra

        calls = []
        for module, name in ((hypergraph, "rooted_superforest"), (matching, "_superforest_counts"),
                             (spectra, "_search_radius"), (spectra, "_power_spectrum"), (spectra, "roots"),
                             (spectra, "_char_poly_exact"), (hypergraph, "_centre_codes")):
            self._count(monkeypatch, module, name, calls)
        inputs = (spider(3, 2), random_supertree(2, 12, random.Random(3)))
        per_input = ["rooted_superforest"]
        per_shape = ["_search_radius", "_superforest_counts"]  # each input here has its own shape
        clear_polynomial_cache()
        for _ in range(2):
            assert matching_polynomial(inputs[0]) == matching_polynomial(inputs[0])
            cold = [spectral_summary(hg) for hg in inputs]
            warm = [spectral_summary(hg) for hg in inputs]
            assert cold == warm
            assert tree_char_poly(inputs[1]) == matching_polynomial(inputs[1])
            assert tree_char_poly(inputs[1]) == matching_polynomial(inputs[1])
            other = random_supertree(2, 12, random.Random(4))  # n, m and r as inputs[1]'s
            assert are_isomorphic(inputs[0], inputs[0]) and are_isomorphic(inputs[0], inputs[0])
            assert are_isomorphic(inputs[1], other) == are_isomorphic(other, inputs[1])
            assert sorted(calls) == sorted(
                (per_input + per_shape) * 2 + ["roots", "_power_spectrum"]
                + ["rooted_superforest", "_char_poly_exact"] + ["_centre_codes"] * 3
            )
            clear_polynomial_cache()  # the core, rho, ME, the oracle and the code go with phi
            calls.clear()
            # one core shape at every r: its counts, rho^r, its spectrum (from
            # the singular values of the base forest, or from the roots of q off
            # the power route) and its code once, the core per input
            for member, rs, spectrum in ((lambda r: family_w(r, 7).hg, (2, 3, 4, 5), "_power_spectrum"),
                                         (lambda r: spider(r, 2), (3, 4, 5), "roots")):
                members = [member(r) for r in rs]
                for hg in members * 2:
                    spectral_summary(hg)
                    matching_polynomial(hg)
                    assert are_isomorphic(hg, hg)
                assert sorted(calls) == sorted(
                    per_input * len(rs) + per_shape + [spectrum, "_centre_codes"]
                )
                calls.clear()
            clear_polynomial_cache()

    def test_rho_searched_once_per_shape_at_every_edge_size(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph
        import hypermatch.spectra as spectra

        shapes = []
        real = spectra._search_radius
        monkeypatch.setattr(spectra, "_search_radius", lambda shape, seed: shapes.append(shape) or real(shape, seed))
        path = loose_path(3, 4).hg
        relabelled = UniformHypergraph(3, 9, [[0, 2, 3], [1, 2, 4], [4, 5, 6], [6, 7, 8]])  # 1 and 3 swapped
        others = [loose_path(r, 4).hg for r in (2, 4, 5)]
        assert path != relabelled
        (tree,) = rooted_superforest(path)[1]  # a supertree roots to one tree shape
        assert all(rooted_superforest(hg)[1] == (tree,) for hg in (relabelled, *others))
        clear_polynomial_cache()
        rho3 = spectral_radius(path)
        assert spectral_radius(relabelled) == rho3
        assert shapes == [tree]  # two labellings at r = 3 share one search
        rhos = [spectral_radius(hg) for hg in others]
        assert shapes == [tree]  # and so does the same shape at r = 2, 4 and 5
        rec = hypergraph._shape(path)
        assert all(rec is hypergraph._shape(hg) for hg in (relabelled, *others))
        assert set(rec) == {"shape", "top_root"}  # one r-free value: no key holds r
        assert rec["top_root"] ** (1.0 / 3) == rho3
        # a union that holds the path, at any r and in any place, searches
        # only its other trees, each once: W(5) at r = 3 and 5, one vertex
        w = family_w(3, 5).hg
        unions = [
            disjoint_union(w, path),
            disjoint_union(UniformHypergraph(3, 2), relabelled),
            disjoint_union(loose_path(5, 4).hg, family_w(5, 5).hg),
        ]
        rho_unions = [spectral_radius(union) for union in unions]
        (w_tree,) = rooted_superforest(w)[1]
        assert shapes == [tree, w_tree, ((),)]
        forest = hypergraph._shape(unions[0])
        assert forest is hypergraph._CACHE[unions[0]]  # the union's own record
        assert (w_tree, tree) not in hypergraph._CACHE  # with no key of its trees' shapes
        assert set(forest) == {"parts", "top_root"}
        assert forest["parts"] == [hypergraph._shape(w), rec]
        assert forest["parts"][0] is hypergraph._CACHE[w_tree] and forest["parts"][1] is rec
        assert forest["top_root"] == max(part["top_root"] for part in forest["parts"])
        for hg, rho in ((relabelled, rho3), *zip(others, rhos), *zip(unions, rho_unions)):
            clear_polynomial_cache()
            assert spectral_radius(hg) == rho == _search(hg)
        assert _search_radius(rooted_superforest(UniformHypergraph(3, 1))[1][0], None) == 0.0  # one vertex
        assert spectral_radius(UniformHypergraph(3, 4)) == spectral_radius(UniformHypergraph(3, 0)) == 0.0

    def test_oracle_kept_per_component(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        self._count(monkeypatch, spectra, "_char_poly_exact", calls)
        p, w = loose_path(2, 4).hg, family_w(2, 6).hg
        clear_polynomial_cache()
        first = disjoint_union(p, disjoint_union(p, w))
        assert tree_char_poly(first) == matching_polynomial(first)
        assert len(calls) == 2  # P and W: the second P is served from P's record
        second = disjoint_union(p, loose_path(2, 2).hg)  # shares P with the first union
        assert tree_char_poly(second) == matching_polynomial(second)
        assert len(calls) == 3
        assert tree_char_poly(p) == matching_polynomial(p)
        assert len(calls) == 3
        # the record is per labelled tree: P with its ends swapped inward is another
        relabelled = UniformHypergraph(2, 5, [[0, 2], [1, 2], [1, 3], [3, 4]])
        assert are_isomorphic(relabelled, p)
        assert tree_char_poly(relabelled) == tree_char_poly(p)
        assert len(calls) == 4
        # isolated vertices run no kernel, wherever they sit
        spread = UniformHypergraph(2, 8, [[1, 3], [3, 4], [4, 6], [6, 7]])  # P on 1, 3, 4, 6, 7
        assert tree_char_poly(spread) == tree_char_poly(p).shift(3)
        assert len(calls) == 4

    def test_connected_tree_is_its_own_component(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph
        import hypermatch.spectra as spectra

        calls = []
        for name in ("_forest_char_poly", "_char_poly_exact"):
            self._count(monkeypatch, spectra, name, calls)
        hg = random_supertree(2, 12, random.Random(3))
        clear_polynomial_cache()
        assert tree_char_poly(hg) == matching_polynomial(hg)
        assert tree_char_poly(hg) == matching_polynomial(hg)
        # the second call walks hg again, and its one tree is served from the table
        assert calls == ["_forest_char_poly", "_char_poly_exact", "_forest_char_poly"]
        # the tree's entry in the oracle's table is keyed by its edge tuple
        assert hypergraph._CACHE["char_poly"] == {hg.edges: tree_char_poly(hg)}
        assert hg.edges not in hypergraph._CACHE and "char_poly" not in _shape_entry(hg)
        path = loose_path(2, 2).hg
        assert spectral_radius(path) == pytest.approx(math.sqrt(2)) and tree_char_poly(path) == matching_polynomial(path)
        assert hypergraph._CACHE["char_poly"][path.edges] == tree_char_poly(path)
        assert path.edges not in hypergraph._CACHE and "char_poly" not in _shape_entry(path)
        clear_polynomial_cache()
        calls.clear()
        assert tree_char_poly(hg) == matching_polynomial(hg)
        assert calls == ["_forest_char_poly", "_char_poly_exact"]

    def test_clearing_empties_the_oracle_table(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph
        import hypermatch.spectra as spectra

        calls = []
        self._count(monkeypatch, spectra, "_char_poly_exact", calls)
        hg = loose_path(2, 5).hg
        clear_polynomial_cache()
        chi = tree_char_poly(hg)
        assert hypergraph._CACHE["char_poly"] == {hg.edges: chi}
        clear_polynomial_cache()
        assert "char_poly" not in hypergraph._CACHE
        assert tree_char_poly(hg) == chi and len(calls) == 2

    def test_keys_are_inputs_tree_shapes_and_the_oracle_table(self):
        import hypermatch.hypergraph as hypergraph

        clear_polynomial_cache()
        assert run_suite("bridge", r_list=(2, 3), trials=3, m_max=2).passed
        table = hypergraph._CACHE["char_poly"]
        assert table and all(isinstance(chi, SparsePolynomial) for chi in table.values())
        forests = 0
        for key, rec in hypergraph._CACHE.items():
            if isinstance(key, UniformHypergraph):
                forests += "parts" in _shape_entry(key)
            elif isinstance(key, tuple):  # per core index, per edge below it, the indices below
                assert rec["shape"] == key
                assert all(isinstance(u, int) for below_w in key for below in below_w for u in below)
            else:
                assert key == "char_poly"
            assert key == "char_poly" or "char_poly" not in rec
        assert forests  # the unions at m = 2

    @pytest.mark.parametrize("power", [True, False])
    def test_one_forest_at_two_edge_sizes_shares_its_trees(self, monkeypatch, power):
        import hypermatch.hypergraph as hypergraph
        import hypermatch.matching as matching
        import hypermatch.spectra as spectra

        # W(5) or a spider beside a loose path, at r = 3 and 5: one forest's trees in two inputs
        first = (lambda r: family_w(r, 5).hg) if power else (lambda r: spider(r, 2))
        forests = [disjoint_union(first(r), loose_path(r, 3).hg) for r in (3, 5)]

        def results(hg):
            assert are_isomorphic(hg, hg)
            rho = spectral_radius(hg)
            rec = hypergraph._shape(hg)
            return matching._shape_counts(hg), rho, rec["top_root"], rec["code"], matching_energy(hg)

        cold = []
        for hg in forests:
            clear_polynomial_cache()
            cold.append(results(hg))
        calls = []
        for module, name in ((spectra, "_search_radius"), (spectra, "_power_spectrum"), (spectra, "roots"),
                             (matching, "_superforest_counts"), (hypergraph, "_centre_codes")):
            self._count(monkeypatch, module, name, calls)
        clear_polynomial_cache()
        assert [results(hg) for hg in forests] == cold
        records = [_shape_entry(hg) for hg in forests]
        assert records[0] is not records[1]  # a forest record per input
        assert len(records[0]["parts"]) == 2 and all(map(operator.is_, *(rec["parts"] for rec in records)))
        # each tree is searched, counted and coded once; a power forest
        # merges its trees' singular values, each tree's found once, and
        # any other forest takes the companion roots of its whole q, once
        # per input
        assert sorted(calls) == sorted(
            ["_search_radius", "_superforest_counts", "_centre_codes"] * 2
            + ["_power_spectrum" if power else "roots"] * 2
        )

    def test_cycle_in_a_later_component_keeps_nothing(self):
        import hypermatch.hypergraph as hypergraph

        triangle = UniformHypergraph(2, 3, [[0, 1], [1, 2], [0, 2]])
        hg = disjoint_union(loose_path(2, 3).hg, triangle)
        clear_polynomial_cache()
        for _ in range(2):  # raised on every call
            with pytest.raises(HypergraphError, match="cycle"):
                tree_char_poly(hg)
        assert hg not in hypergraph._CACHE

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_edgeless_input_of_any_r_runs_no_kernel(self, monkeypatch, r, n):
        import hypermatch.spectra as spectra

        calls = []
        self._count(monkeypatch, spectra, "_char_poly_exact", calls)
        clear_polynomial_cache()
        assert tree_char_poly(UniformHypergraph(r, n)) == SparsePolynomial({n: 1})
        assert calls == []

    def test_kept_bound_is_applied_at_every_read(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        self._count(monkeypatch, spectra, "_power_spectrum", calls)
        hg = family_w(3, 7).hg  # a power superforest: its shape keeps the Weyl bound
        monkeypatch.delenv("HG_TOL", raising=False)
        clear_polynomial_cache()
        me = matching_energy(hg)
        monkeypatch.setenv("HG_TOL", "1e-7")
        assert matching_energy(hg) == me
        assert spectral_summary(hg).tol == 1e-7
        assert len(calls) == 1
        monkeypatch.setenv("HG_TOL", "1e-300")
        for _ in range(2):
            with pytest.raises(RootFindingError, match="only certain"):
                matching_energy(hg)
        for value in ("nan", "0", "abc"):
            monkeypatch.setenv("HG_TOL", value)
            for fn in (matching_energy, spectral_summary):
                with pytest.raises(ValueError, match="HG_TOL"):
                    fn(hg)
        monkeypatch.delenv("HG_TOL")
        assert matching_energy(hg) == me
        assert len(calls) == 1  # one singular-value call, whatever HG_TOL read

    def test_rho_when_me_misses_its_tolerance(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph

        hg = family_w(3, 7).hg
        monkeypatch.setenv("HG_TOL", "1e-300")
        clear_polynomial_cache()
        for fn in (matching_energy, spectral_summary):
            with pytest.raises(RootFindingError, match="only certain"):
                fn(hg)
        assert "spectrum" in hypergraph._shape(hg)  # its roots seed the search
        assert spectral_radius(hg) == _search(hg)

    def test_eigenvalue_within_its_error_bound_raises_every_time(self, monkeypatch):
        real_svd = np.linalg.svd

        def svd(a, **kwargs):  # the smallest positive singular value reads 1e-15
            sv = real_svd(a, **kwargs)
            sv[np.flatnonzero(sv > 1e-8)[-1]] = 1e-15
            return sv

        monkeypatch.setattr(np.linalg, "svd", svd)
        members = [family_w(r, 7).hg for r in (3, 4)]  # one core shape
        clear_polynomial_cache()
        for hg in members:
            for fn in (matching_energy, matching_energy, spectral_summary):
                with pytest.raises(RootFindingError, match="within twice its error bound"):
                    fn(hg)
            assert "spectrum" not in _shape_entry(hg)
        monkeypatch.undo()
        for hg in members:
            assert matching_energy(hg) == pytest.approx(edge_cycle_energy(hg), rel=TOL)

    def test_root_finding_error_is_raised_every_time(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []

        def failing(q):
            calls.append(q)
            raise RootFindingError("injected failure")

        monkeypatch.setattr(spectra, "roots", failing)
        hg = spider(3, 2)  # no power of a forest: ME takes the roots of q
        clear_polynomial_cache()
        for fn in (matching_energy, spectral_summary, matching_energy):
            with pytest.raises(RootFindingError, match="injected"):
                fn(hg)
        assert len(calls) == 3
        monkeypatch.undo()
        assert matching_energy(hg) == pytest.approx(edge_cycle_energy(hg), abs=1e-8)

    def test_rho_and_char_poly_never_compute_phi(self, monkeypatch):
        import hypermatch.matching as matching

        def refuse(hg):
            raise AssertionError("phi computed")

        rng = random.Random(8)
        inputs = [spider(4, 3), random_supertree(3, 20, rng), random_supertree(2, 30, rng)]
        expected = [(spectral_radius(hg), matching_polynomial(hg)) for hg in inputs]
        monkeypatch.setattr(matching, "_superforest_counts", refuse)  # the only way to phi
        clear_polynomial_cache()
        for hg, (rho, phi) in zip(inputs, expected):
            assert spectral_radius(hg) == rho
            if hg.r == 2:
                assert tree_char_poly(hg) == phi
        with pytest.raises(AssertionError, match="phi computed"):
            matching_energy(inputs[0])

    def test_a_cycle_raises_every_time(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph

        calls = []
        self._count(monkeypatch, hypergraph, "rooted_superforest", calls)
        cyclic = UniformHypergraph(3, 7, [[0, 1, 2], [1, 2, 3], [4, 5, 6]])  # two edges share two vertices
        other = loose_path(3, 3).hg  # n, m and r as cyclic's
        entry_points = [
            matching_polynomial, spectral_radius, matching_energy, spectral_summary,
            lambda hg: are_isomorphic(hg, other), lambda hg: are_isomorphic(other, hg),
            lambda hg: check_cospectral(hg, hg),
        ]
        clear_polynomial_cache()
        for _ in range(2):
            for fn in entry_points:
                with pytest.raises(HypergraphError, match="has a cycle"):
                    fn(cyclic)
        assert cyclic not in hypergraph._CACHE
        # are_isomorphic roots `other` once; every other call roots `cyclic` again
        assert len(calls) == 2 * len(entry_points) + 1

    def test_any_order_of_requests_gives_the_same_results(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph

        rng = random.Random(12)
        g = random_supertree(3, 9, rng)
        inputs = [
            spider(3, 2),
            family_r(3, 1, 1, 2, 4).hg,
            disjoint_union(g, g),
            random_supertree(2, 15, rng),
            UniformHypergraph(3, 4),
        ]
        requests = {
            "check": lambda hg: check_cospectral(hg, hg),
            "rho": spectral_radius,
            "summary": spectral_summary,
            "phi": matching_polynomial,
            "me": matching_energy,
            "iso": lambda hg: are_isomorphic(hg, hg),
        }
        cores = []
        real = hypergraph.rooted_superforest
        monkeypatch.setattr(hypergraph, "rooted_superforest", lambda hg: cores.append(hg) or real(hg))
        for hg in inputs:
            results = set()
            for order in itertools.permutations(requests):
                clear_polynomial_cache()
                cores.clear()
                got = {name: requests[name](hg) for name in order}
                assert cores == [hg], order  # one core per input, whoever asks first
                _shape_entry(hg)
                case = got["check"]
                results.add((
                    case["rho_lhs"], case["rho_rhs"], case["me_lhs"], case["me_rhs"],
                    case.get("char_equal"), got["rho"], got["summary"], got["phi"], got["me"], got["iso"],
                ))
            assert len(results) == 1, hg
            (rho_l, rho_r, me_l, me_r, char_equal, rho, summary, phi, me, iso), = results
            assert rho_l == rho_r == rho == summary.rho
            assert me_l == me_r == me == summary.me
            assert phi == matching_polynomial_oracle(hg) and iso is True
            assert char_equal is (True if hg.r == 2 else None)


@st.composite
def forests_of_trees(draw):
    """(forest, trees, again, scrambled): 1 to 4 trees at one r in 2..5,
    each a supertree or a lone vertex; their union, with the trees'
    vertices interleaved at random, each tree's in its own order, so
    that it roots as it does alone; the union of the same trees in
    another order, interleaved at random again; and that union with
    every vertex relabelled at random."""
    r = draw(st.sampled_from((2, 3, 4, 5)))
    lone = st.just(UniformHypergraph(r, 1))
    trees = draw(st.lists(st.one_of(lone, supertrees(rs=(r,), max_edges=5)), min_size=1, max_size=4))
    n = sum(tree.n for tree in trees)

    def interleaved(parts):
        slots = draw(st.permutations(range(n)))
        edges = []
        for part in parts:
            place, slots = sorted(slots[: part.n]), slots[part.n :]
            edges += [[place[v] for v in e] for e in part.edges]
        return UniformHypergraph(r, n, edges)

    again = interleaved(draw(st.permutations(trees)))
    perm = draw(st.permutations(range(n)))
    return interleaved(trees), trees, again, UniformHypergraph(r, n, [[perm[v] for v in e] for e in again.edges])


class TestTreesOfAForest:
    """A superforest's results are assembled from its trees' records:
    the product of their counts, the largest rho^r, the sorted join of
    their codes. A tree met in several inputs pays once."""

    @settings(max_examples=150, deadline=None)
    @given(forests_of_trees())
    def test_assembled_from_the_trees(self, drawn):
        import hypermatch.hypergraph as hypergraph
        from hypermatch.matching import _shape_counts

        forest, trees, again, scrambled = drawn
        clear_polynomial_cache()
        product = SparsePolynomial.one()
        for tree in trees:
            product = product * SparsePolynomial(dict(enumerate(_shape_counts(tree))))
        counts = _shape_counts(forest)
        assert list(counts) == matching_counts(forest)
        assert SparsePolynomial(dict(enumerate(counts))) == product
        rhos = []
        for hg in (forest, again, *trees):
            clear_polynomial_cache()  # each searched on its own
            rhos.append(spectral_radius(hg))
        assert rhos[0] == rhos[1] == max(rhos[2:])  # the same float, in any order of the trees
        clear_polynomial_cache()
        assert are_isomorphic(forest, scrambled) and are_isomorphic(scrambled, forest)
        codes = []
        for tree in trees:
            assert are_isomorphic(tree, tree)
            codes.append(hypergraph._shape(tree)["code"])
        assert hypergraph._shape(forest)["code"] == hypergraph._shape(scrambled)["code"] == "".join(sorted(codes))

    def test_path_w_pays_once_per_tree(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph
        import hypermatch.spectra as spectra

        calls = {"_search_radius": [], "_centre_codes": []}
        for module, name in ((spectra, "_search_radius"), (hypergraph, "_centre_codes")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda shape, *a, real=real, name=name: calls[name].append(shape) or real(shape, *a))
        svds = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kwargs: svds.append(a.shape) or real_svd(a, **kwargs))
        r = 3
        # the 50 sides of the default grid: P(m - 5) next to W(n - 1), m, n in 6..10
        trees = {rooted_superforest(hg)[1][0] for t in range(1, 6) for hg in (loose_path(r, t).hg, family_w(r, t + 4).hg)}
        assert len(trees) == 10
        clear_polynomial_cache()
        report = run_suite("path-w", r_list=(r,))
        assert report.passed and len(report.cases) == 25
        for name, shapes in calls.items():
            assert sorted(shapes) == sorted(trees), name
        assert len(svds) == 10

    def test_bridge_searches_every_tree_once_from_a_seed(self, monkeypatch):
        import hypermatch.spectra as spectra

        seeds = []
        search = spectra._search_radius
        monkeypatch.setattr(spectra, "_search_radius", lambda shape, seed: seeds.append((shape, seed)) or search(shape, seed))
        clear_polynomial_cache()
        report = run_suite("bridge", r_list=(3,), m_max=2, trials=10)
        assert report.passed and {case["params"]["m"] for case in report.cases} == {1, 2}
        shapes = [shape for shape, _ in seeds]
        assert shapes and len(shapes) == len(set(shapes))
        # the bridged objects and g and h are trees of the m = 2 unions
        assert [shape for shape, seed in seeds if seed is None] == []


class TestSharedAcrossEdgeSizes:
    """One core shape met at several edge sizes: every result of each
    input is bit-identical whether it is computed cold or after the
    same shape at another r, in either order of r."""

    @staticmethod
    def _results(hg):
        import hypermatch.hypergraph as hypergraph

        phi = matching_polynomial(hg)
        rho = spectral_radius(hg)  # searched unseeded when cold, read from the shape's record after another r
        summary = spectral_summary(hg)
        assert are_isomorphic(hg, hg)
        return phi, rho, matching_energy(hg), summary, hypergraph._shape(hg)["code"]

    def _assert_order_free(self, members):
        from hypermatch.hypergraph import rooted_superforest

        assert len({rooted_superforest(hg)[1] for hg in members}) == 1
        cold = []
        for hg in members:
            clear_polynomial_cache()
            cold.append(self._results(hg))
        for order in (members, members[::-1]):
            clear_polynomial_cache()
            warm = {hg: self._results(hg) for hg in order}
            assert [warm[hg] for hg in members] == cold

    @pytest.mark.parametrize("family", ["R(1,1,2,4)", "W(9)", "LoosePath(7)"])
    def test_named_family(self, family):
        make = {
            "R(1,1,2,4)": lambda r: family_r(r, 1, 1, 2, 4).hg,
            "W(9)": lambda r: family_w(r, 9).hg,
            "LoosePath(7)": lambda r: loose_path(r, 7).hg,
        }[family]
        self._assert_order_free([make(r) for r in (2, 3, 4, 5)])

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_powers_of_trees(self, seed):
        rng = random.Random(seed)
        tree = random_supertree(2, rng.randint(4, 14), rng)
        self._assert_order_free([power(tree.edges, r) for r in (2, 3, 4, 5)])

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_supertrees_off_the_power_route(self, seed):
        def member(r):
            # a centre edge with an edge at each of its first three vertices
            # (so no power of a forest), then edges that each hang from one
            # of the first three vertices of an earlier edge, drawn alike at
            # every r >= 3: one core shape
            rng = random.Random(seed)
            edges = [tuple(range(r))]
            n = r
            for i in range(rng.randint(7, 17)):
                v = i if i < 3 else rng.choice(edges)[rng.randrange(3)]
                edges.append((v, *range(n, n + r - 1)))
                n += r - 1
            return UniformHypergraph(r, n, edges)

        self._assert_order_free([member(r) for r in (3, 4, 5)])


class TestDefaultTol:
    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv("HG_TOL", raising=False)
        assert default_tol() == 1e-10
        monkeypatch.setenv("HG_TOL", "")
        assert default_tol() == 1e-10
        monkeypatch.setenv("HG_TOL", "2.5e-9")
        assert default_tol() == 2.5e-9

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "abc", "inf", "-inf"])
    def test_rejects_invalid(self, monkeypatch, value):
        monkeypatch.setenv("HG_TOL", value)
        with pytest.raises(ValueError, match="HG_TOL"):
            default_tol()
        with pytest.raises(ValueError, match="HG_TOL"):
            matching_energy(family_w(3, 5).hg)


class TestTreeCharPoly:
    def test_single_edge(self):
        assert tree_char_poly(loose_path(2, 1).hg) == SparsePolynomial({2: 1, 0: -1})

    def test_three_vertex_path(self):
        assert tree_char_poly(loose_path(2, 2).hg) == SparsePolynomial({3: 1, 1: -2})

    def test_star(self):
        # K_{1,3}: x^4 - 3x^2
        star = UniformHypergraph(2, 4, [[0, 1], [0, 2], [0, 3]])
        assert tree_char_poly(star) == SparsePolynomial({4: 1, 2: -3})

    def test_forest_with_isolated_vertices(self):
        forest = disjoint_union(loose_path(2, 2).hg, UniformHypergraph(2, 2))
        assert tree_char_poly(forest) == SparsePolynomial({3: 1, 1: -2}).shift(2)

    def test_requires_r2(self):
        with pytest.raises(HypergraphError):
            tree_char_poly(loose_path(3, 1).hg)

    def test_edgeless_input_of_any_r(self):
        assert tree_char_poly(UniformHypergraph(4, 3)) == SparsePolynomial({3: 1})

    def test_requires_forest(self):
        triangle = UniformHypergraph(2, 3, [[0, 1], [1, 2], [0, 2]])
        with pytest.raises(HypergraphError):
            tree_char_poly(triangle)

    def test_matches_matching_polynomial_on_random_trees(self):
        rng = random.Random(2024)
        for _ in range(40):
            tree = random_supertree(2, rng.randint(1, 11), rng)
            assert tree_char_poly(tree) == matching_polynomial(tree)
        for _ in range(3):
            tree = random_supertree(2, rng.randint(95, 105), rng)
            assert tree_char_poly(tree) == matching_polynomial(tree)

    @staticmethod
    def _assert_oracles_agree(hg):
        neighbours = [[] for _ in range(hg.n)]
        for a, b in hg.edges:
            neighbours[a].append(b)
            neighbours[b].append(a)
        clear_polynomial_cache()
        chi = tree_char_poly(hg)
        assert chi == char_poly_reference(neighbours)
        assert chi == matching_polynomial(hg)

    def test_bbt_route_on_random_forests_with_isolated_vertices(self):
        rng = random.Random(61)
        for _ in range(30):
            parts = [random_supertree(2, rng.randint(1, 9), rng) for _ in range(rng.randint(1, 3))]
            parts.append(UniformHypergraph(2, rng.randint(0, 3)))
            forest = parts[0]
            for part in parts[1:]:
                forest = disjoint_union(forest, part)
            perm = list(range(forest.n))
            rng.shuffle(perm)
            self._assert_oracles_agree(UniformHypergraph(2, forest.n, [[perm[v] for v in e] for e in forest.edges]))

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_bbt_route_on_stars_paths_and_single_edges(self, k):
        star = UniformHypergraph(2, k + 1, [[0, v] for v in range(1, k + 1)])
        off_centre = UniformHypergraph(2, k + 1, [[v, k] for v in range(k)])
        for hg in (star, off_centre, loose_path(2, k).hg, disjoint_union(loose_path(2, 1).hg, star)):
            self._assert_oracles_agree(hg)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_bbt_route_on_edgeless_inputs(self, n):
        self._assert_oracles_agree(UniformHypergraph(2, n))

    @pytest.mark.parametrize("n", [61, 121, 177])
    def test_bbt_route_on_large_trees(self, n):
        self._assert_oracles_agree(random_supertree(2, n - 1, random.Random(n)))

    def test_runs_on_the_cheaper_colour_class(self, monkeypatch):
        # a spider with 60 legs of length 2: the 60 middle vertices have rows
        # of 61 entries each in B B^T, the centre and the tips 240 in all
        import hypermatch.spectra as spectra

        legs = 60
        spider_60 = UniformHypergraph(2, 2 * legs + 1, [[0, i] for i in range(1, legs + 1)] + [[i, legs + i] for i in range(1, legs + 1)])
        sizes = []
        real = spectra._char_poly_exact
        monkeypatch.setattr(spectra, "_char_poly_exact", lambda rows: sizes.append(len(rows)) or real(rows))
        clear_polynomial_cache()
        assert tree_char_poly(spider_60) == matching_polynomial(spider_60)
        assert sizes == [legs + 1]

    def test_matches_on_forests(self):
        rng = random.Random(7)
        forest = disjoint_union(
            random_supertree(2, 4, rng), random_supertree(2, 3, rng)
        )
        assert tree_char_poly(forest) == matching_polynomial(forest)

    @pytest.mark.parametrize("m", [200, 400])
    def test_large_random_tree(self, m):
        tree = random_supertree(2, m, random.Random(3))
        clear_polynomial_cache()
        assert tree_char_poly(tree) == matching_polynomial(tree)

    def test_star_with_60_leaves(self):
        # the largest C_ii, 60, and so the widest slot for its size
        star = UniformHypergraph(2, 61, [[0, v] for v in range(1, 61)])
        clear_polynomial_cache()
        assert tree_char_poly(star) == matching_polynomial(star) == SparsePolynomial({61: 1, 59: -60})


def _gram_rows(forest: UniformHypergraph, colour: int) -> list[list[int]]:
    """Rows of C = B B^T for one colour class of an r = 2 forest, each
    component coloured from its lowest vertex: row v lists, for each
    neighbour w of v, every neighbour of w, as the oracle builds it."""
    neighbours = [[] for _ in range(forest.n)]
    for a, b in forest.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    colours = [-1] * forest.n
    for root in range(forest.n):
        if colours[root] < 0:
            colours[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                for w in neighbours[v]:
                    if colours[w] < 0:
                        colours[w] = 1 - colours[v]
                        stack.append(w)
    side = [v for v in range(forest.n) if colours[v] == colour]
    at = {v: i for i, v in enumerate(side)}
    return [[at[u] for w in neighbours[v] for u in neighbours[w]] for v in side]


def _r2_spider(legs: int, length: int) -> UniformHypergraph:
    """A centre vertex with `legs` paths of `length` edges hanging from it."""
    edges, n = [], 1
    for _ in range(legs):
        end = 0
        for _ in range(length):
            edges.append((end, n))
            end, n = n, n + 1
    return UniformHypergraph(2, n, edges)


class TestPackedKernel:
    """_char_poly_exact, on packed rows, against the list-based
    Faddeev-LeVerrier reference on the Gram matrices B B^T of forests,
    each colour class in turn: whole forests, so a matrix may have
    several blocks, and rows of isolated vertices, which are empty."""

    @staticmethod
    def _assert_kernel_agrees(forest):
        for colour in (0, 1):
            rows = _gram_rows(forest, colour)
            assert _char_poly_exact(rows) == char_poly_reference(rows)

    def test_random_forests_with_isolated_vertices(self):
        rng = random.Random(30)
        for _ in range(40):
            forest = UniformHypergraph(2, rng.randint(0, 3))
            for _ in range(rng.randint(1, 3)):
                forest = disjoint_union(forest, random_supertree(2, rng.randint(1, 12), rng))
            perm = list(range(forest.n))
            rng.shuffle(perm)
            self._assert_kernel_agrees(UniformHypergraph(2, forest.n, [[perm[v] for v in e] for e in forest.edges]))

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 60])
    def test_stars(self, k):
        self._assert_kernel_agrees(UniformHypergraph(2, k + 1, [[0, v] for v in range(1, k + 1)]))

    @pytest.mark.parametrize("legs, length", [(3, 1), (3, 4), (8, 2), (20, 3)])
    def test_spiders(self, legs, length):
        self._assert_kernel_agrees(_r2_spider(legs, length))

    @pytest.mark.parametrize("t", [1, 2, 3, 10, 41])
    def test_loose_paths(self, t):
        self._assert_kernel_agrees(loose_path(2, t).hg)

    def test_unions_of_several_components(self):
        parts = [loose_path(2, 6).hg, _r2_spider(5, 2), UniformHypergraph(2, 4, [[0, 1], [0, 2], [0, 3]]),
                 family_w(2, 6).hg, UniformHypergraph(2, 2)]
        union = parts[0]
        for part in parts[1:]:
            union = disjoint_union(union, part)
        self._assert_kernel_agrees(union)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless(self, n):
        self._assert_kernel_agrees(UniformHypergraph(2, n))
        assert _char_poly_exact([[] for _ in range(n)]) == SparsePolynomial({n: 1})
