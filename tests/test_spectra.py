"""Numeric spectral radius, matching energy, and the exact r=2 bridge."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    assert_top_root_exact,
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
    are_isomorphic,
    build,
    check_cospectral,
    clear_polynomial_cache,
    default_tol,
    disjoint_union,
    family_r,
    family_w,
    isolated,
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
    spectral_radius,
    spectral_summary,
    tree_char_poly,
)
from hypermatch.spectra import _search_radius

TOL = 1e-10

# What an input's record may keep: what needs its labelled edges or a
# search. Everything else, phi and ME among it, is a view of its shape.
KEPT_PER_INPUT = {"shape", "rho", "char_poly"}


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
        assert spectral_radius(isolated(3)) == 0.0

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
        smaller = build(hg.r, hg.n, [f for f in hg.edges if f != e])
        assert spectral_radius(smaller) < spectral_radius(hg) - 1e-9


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
        assert matching_energy(isolated(4)) == 0.0

    def test_additive_over_union(self):
        g = loose_path(3, 3).hg
        h = family_w(3, 5).hg
        assert matching_energy(disjoint_union(g, h)) == pytest.approx(
            matching_energy(g) + matching_energy(h), abs=1e-9
        )

    def test_overflow_raises_root_finding_error(self):
        import hypermatch.hypergraph as hypergraph

        # no power of a forest, so q of degree 501 goes to the companion
        # roots, and overflows a float in the residual guard: on every
        # call, at either r of the one core shape, and nothing is kept
        members = [spider(r, 333) for r in (3, 4)]
        clear_polynomial_cache()
        for hg in (*members, members[0]):
            with pytest.raises(RootFindingError, match="overflows") as info:
                matching_energy(hg)
            assert isinstance(info.value.__cause__, OverflowError)
            assert set(hypergraph._record(hg)) <= KEPT_PER_INPUT
            assert "spectrum" not in hypergraph._shape(hg)

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


class TestPowerSuperforests:
    """The matching energy of G^(r) comes from the eigenvalues of the
    ordinary forest G; every other superforest keeps the roots of q."""

    @settings(max_examples=80, deadline=None)
    @given(power_superforests())
    def test_base_forest_has_the_same_matching_counts(self, hg):
        from hypermatch.hypergraph import rooted_superforest
        from hypermatch.spectra import _base_forest

        size, pairs = _base_forest(rooted_superforest(hg)[1])
        assert matching_counts(build(2, size, pairs)) == matching_counts(hg)

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
        s = spectral_summary(isolated(2))
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
            assert spectral_summary(hg).rho == _search_radius(hg, None)

    def test_any_seed_gives_the_same_rho(self):
        for hg in (spider(3, 2), random_supertree(4, 20, random.Random(4)), loose_path(2, 30).hg):
            rho = _search_radius(hg, None)
            seeds = [rho * 1.5, rho * 1e6, 1e300, rho * (1 + 1e-15), rho, rho * (1 - 1e-12),
                     rho * (1 - 1e-9), rho * 0.5, 1e-300, 0.0, -rho, math.nan, math.inf, -math.inf]
            for seed in seeds:
                assert _search_radius(hg, seed) == rho, seed

    def test_plain_bisection_gives_the_same_rho(self, monkeypatch):
        import hypermatch.spectra as spectra

        rng = random.Random(30)
        inputs = [random_supertree(rng.randint(2, 5), rng.randint(1, 30), rng) for _ in range(60)]
        inputs += [spider(4, 2), family_w(5, 8).hg, loose_path(2, 40).hg]
        expected = [(_search_radius(hg, None), spectral_summary(hg).q_roots) for hg in inputs]
        monkeypatch.setattr(spectra, "_MAX_PASSES", 0)  # no Newton step at all
        for hg, (rho, q_roots) in zip(inputs, expected):
            seed = max(map(abs, q_roots)) ** (1.0 / hg.r)
            assert _search_radius(hg, None) == _search_radius(hg, seed) == rho

    def test_seeded_search_takes_few_passes(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        real_pass = spectra._tree_pass
        monkeypatch.setattr(spectra, "_tree_pass", lambda *a: calls.append(1) or real_pass(*a))
        rng = random.Random(0)
        for _ in range(200):
            spectral_summary(random_supertree(rng.randint(2, 5), rng.randint(4, 30), rng))
        assert len(calls) / 200 <= 4

    def test_unseeded_search_takes_few_passes(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        real_pass = spectra._tree_pass
        monkeypatch.setattr(spectra, "_tree_pass", lambda *a: calls.append(1) or real_pass(*a))
        rng = random.Random(0)
        for _ in range(200):
            hg = random_supertree(rng.randint(2, 5), rng.randint(4, 30), rng)
            clear_polynomial_cache()  # no q roots in the record: the search seeds itself
            spectral_radius(hg)
        # the search takes about 10.5 passes here; a plain bisection takes far more
        assert len(calls) / 200 <= 12

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
    """Each input keeps one record of what needs its labelled edges or a
    search: its core shape's record, rho and the r = 2 characteristic
    polynomial, filled field by field. phi and ME are views of the core
    shape's record, built on each call."""

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
                             (spectra, "_tree_char_poly"), (hypergraph, "_centre_codes")):
            self._count(monkeypatch, module, name, calls)
        inputs = (spider(3, 2), random_supertree(2, 12, random.Random(3)))
        per_input = ["rooted_superforest", "_search_radius"]
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
                (per_input + ["_superforest_counts"]) * 2 + ["roots", "_power_spectrum"]
                + ["rooted_superforest", "_tree_char_poly"] + ["_centre_codes"] * 3
            )
            clear_polynomial_cache()  # the core, rho, ME, the oracle and the code go with phi
            calls.clear()
            # one core shape at every r: its counts, its spectrum (from the
            # eigenproblem of the base forest, or from the roots of q off the
            # power route) and its code once, rho and the rest once per r
            for member, rs, spectrum in ((lambda r: family_w(r, 7).hg, (2, 3, 4, 5), "_power_spectrum"),
                                         (lambda r: spider(r, 2), (3, 4, 5), "roots")):
                members = [member(r) for r in rs]
                for hg in members * 2:
                    spectral_summary(hg)
                    matching_polynomial(hg)
                    assert are_isomorphic(hg, hg)
                assert sorted(calls) == sorted(
                    per_input * len(rs) + ["_superforest_counts", spectrum, "_centre_codes"]
                )
                calls.clear()
            clear_polynomial_cache()

    def test_oracle_kept_per_component(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        self._count(monkeypatch, spectra, "_tree_char_poly", calls)
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

    def test_connected_tree_is_its_own_component(self, monkeypatch):
        import hypermatch.spectra as spectra

        calls = []
        for name in ("_forest_char_poly", "_tree_char_poly"):
            self._count(monkeypatch, spectra, name, calls)
        hg = random_supertree(2, 12, random.Random(3))
        clear_polynomial_cache()
        assert tree_char_poly(hg) == matching_polynomial(hg)
        assert tree_char_poly(hg) == matching_polynomial(hg)
        assert calls == ["_forest_char_poly", "_tree_char_poly"]

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
        assert len(calls) == 1  # one eigenproblem, whatever HG_TOL read

    def test_rho_when_me_misses_its_tolerance(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph

        hg = family_w(3, 7).hg
        monkeypatch.setenv("HG_TOL", "1e-300")
        clear_polynomial_cache()
        for fn in (matching_energy, spectral_summary):
            with pytest.raises(RootFindingError, match="only certain"):
                fn(hg)
        assert "spectrum" in hypergraph._shape(hg)  # its roots seed the search
        assert spectral_radius(hg) == _search_radius(hg, None)

    def test_eigenvalue_within_its_error_bound_raises_every_time(self, monkeypatch):
        import hypermatch.hypergraph as hypergraph

        real_eigvalsh = np.linalg.eigvalsh

        def eigvalsh(a):  # the smallest positive eigenvalue reads 1e-15
            eig = real_eigvalsh(a)
            eig[np.flatnonzero(eig > 1e-8)[0]] = 1e-15
            return eig

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        members = [family_w(r, 7).hg for r in (3, 4)]  # one core shape
        clear_polynomial_cache()
        for hg in members:
            for fn in (matching_energy, matching_energy, spectral_summary):
                with pytest.raises(RootFindingError, match="within twice its error bound"):
                    fn(hg)
            assert set(hypergraph._record(hg)) <= KEPT_PER_INPUT
            assert "spectrum" not in hypergraph._shape(hg)
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
        cyclic = build(3, 7, [[0, 1, 2], [1, 2, 3], [4, 5, 6]])  # two edges share two vertices
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
        assert "shape" not in hypergraph._record(cyclic)
        assert "code" not in hypergraph._record(cyclic)
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
            isolated(4, 3),
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
                assert set(hypergraph._record(hg)) <= KEPT_PER_INPUT, order
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


class TestSharedAcrossEdgeSizes:
    """One core shape met at several edge sizes: every result of each
    input is bit-identical whether it is computed cold or after the
    same shape at another r, in either order of r."""

    @staticmethod
    def _results(hg):
        import hypermatch.hypergraph as hypergraph

        phi = matching_polynomial(hg)
        rho = spectral_radius(hg)  # unseeded when cold, seeded by the shape's roots of q after another r
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
            return build(r, n, edges)

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
        from hypermatch import build

        star = build(2, 4, [[0, 1], [0, 2], [0, 3]])
        assert tree_char_poly(star) == SparsePolynomial({4: 1, 2: -3})

    def test_forest_with_isolated_vertices(self):
        forest = disjoint_union(loose_path(2, 2).hg, isolated(2, 2))
        assert tree_char_poly(forest) == SparsePolynomial({3: 1, 1: -2}).shift(2)

    def test_requires_r2(self):
        with pytest.raises(HypergraphError):
            tree_char_poly(loose_path(3, 1).hg)

    def test_edgeless_input_of_any_r(self):
        assert tree_char_poly(isolated(3, 4)) == SparsePolynomial({3: 1})

    def test_requires_forest(self):
        from hypermatch import build

        triangle = build(2, 3, [[0, 1], [1, 2], [0, 2]])
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
        from hypermatch.spectra import _char_poly_exact

        neighbours = [[] for _ in range(hg.n)]
        for a, b in hg.edges:
            neighbours[a].append(b)
            neighbours[b].append(a)
        clear_polynomial_cache()
        chi = tree_char_poly(hg)
        assert chi == _char_poly_exact(neighbours)
        assert chi == matching_polynomial(hg)

    def test_bbt_route_on_random_forests_with_isolated_vertices(self):
        rng = random.Random(61)
        for _ in range(30):
            parts = [random_supertree(2, rng.randint(1, 9), rng) for _ in range(rng.randint(1, 3))]
            parts.append(isolated(rng.randint(0, 3)))
            forest = parts[0]
            for part in parts[1:]:
                forest = disjoint_union(forest, part)
            perm = list(range(forest.n))
            rng.shuffle(perm)
            self._assert_oracles_agree(build(2, forest.n, [[perm[v] for v in e] for e in forest.edges]))

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_bbt_route_on_stars_paths_and_single_edges(self, k):
        star = build(2, k + 1, [[0, v] for v in range(1, k + 1)])
        off_centre = build(2, k + 1, [[v, k] for v in range(k)])
        for hg in (star, off_centre, loose_path(2, k).hg, disjoint_union(loose_path(2, 1).hg, star)):
            self._assert_oracles_agree(hg)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_bbt_route_on_edgeless_inputs(self, n):
        self._assert_oracles_agree(isolated(n))

    @pytest.mark.parametrize("n", [61, 121, 177])
    def test_bbt_route_on_large_trees(self, n):
        self._assert_oracles_agree(random_supertree(2, n - 1, random.Random(n)))

    def test_runs_on_the_cheaper_colour_class(self, monkeypatch):
        # a spider with 60 legs of length 2: the 60 middle vertices have rows
        # of 61 entries each in B B^T, the centre and the tips 240 in all
        import hypermatch.spectra as spectra

        legs = 60
        spider_60 = build(2, 2 * legs + 1, [[0, i] for i in range(1, legs + 1)] + [[i, legs + i] for i in range(1, legs + 1)])
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
