"""Matching counts, matching polynomials, and the recurrence identities.

The enumeration oracle is trusted first (checked on hand-countable
instances), then everything recurrence-based is held to exact agreement
with it.
"""

import itertools
import math
import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import hypermatch.spectra as spectra
from conftest import (
    base_forest,
    bridged_closed_form,
    char_poly_reference,
    edge_cycle_out,
    seeded_supertree_corpus,
    small_hypergraphs,
    superforests,
    supertrees,
    supertrees_with_vertex,
)
from hypermatch import (
    HypergraphError,
    are_isomorphic,
    PolynomialShapeError,
    SparsePolynomial,
    UniformHypergraph,
    bridge,
    check_cospectral,
    clear_polynomial_cache,
    coalesce,
    coalesce_power,
    disjoint_union,
    family_r,
    family_w,
    family_z,
    loose_path,
    matching_counts,
    matching_energy,
    matching_polynomial,
    matching_polynomial_oracle,
    random_supertree,
    reduce_polynomial,
    spectral_radius,
    spectral_summary,
)
from hypermatch.matching import _shape_counts
from hypermatch.suites import _bridged_closed_form


def phi_p1(r):
    return SparsePolynomial({r: 1, 0: -1})


def phi_p2(r):
    return SparsePolynomial({2 * r - 1: 1, r - 1: -2})


def phi_w5(r):
    return SparsePolynomial({5 * r - 4: 1, 4 * r - 4: -5, 3 * r - 4: 4})


def phi_w6(r):
    return SparsePolynomial({6 * r - 5: 1, 5 * r - 5: -6, 4 * r - 5: 8})


class TestCounting:
    def test_zero_matching_count_is_one(self):
        for hg in (UniformHypergraph(2, 0), UniformHypergraph(2, 4), loose_path(3, 2).hg, family_w(4, 6).hg):
            assert matching_counts(hg)[0] == 1

    def test_two_edge_path_has_two_single_matchings(self):
        for r in (2, 3, 5):
            hg = loose_path(r, 2).hg
            assert matching_counts(hg) == [1, 2]

    def test_double_pendant_family_pair_count(self):
        assert matching_counts(family_w(3, 6).hg)[2] == 8

    def test_exhaustive_cross_check_small(self):
        # independent subset filter over all edge pairs/triples
        hg = family_w(2, 5).hg
        edges = [set(e) for e in hg.edges]
        counts = matching_counts(hg) + [0] * 3  # zeros beyond nu
        for k in (1, 2, 3):
            manual = sum(
                1
                for combo in itertools.combinations(edges, k)
                if all(a.isdisjoint(b) for a, b in itertools.combinations(combo, 2))
            )
            assert counts[k] == manual

    def test_counts_beyond_nu_are_zero(self):
        # the list stops at nu, so every count beyond it is zero
        assert matching_counts(loose_path(3, 1).hg) == [1, 1]
        assert len(matching_counts(family_w(3, 6).hg)) == 3

    def test_count_invariants(self):
        hg = family_w(3, 7).hg
        counts = matching_counts(hg)
        assert counts[0] == 1
        assert counts[1] == hg.num_edges
        assert counts[-1] >= 1

    def test_counts_are_phi_coefficients(self):
        # phi = sum_k (-1)^k m(H,k) x^(n - k r), and nothing else
        hg = family_w(3, 7).hg
        counts = matching_counts(hg)
        assert dict(matching_polynomial(hg).terms()) == {
            hg.n - k * hg.r: (-1) ** k * c for k, c in enumerate(counts)
        }


class TestNamedPolynomials:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_oracle_reproduces_closed_forms(self, r):
        assert matching_polynomial_oracle(loose_path(r, 1).hg) == phi_p1(r)
        assert matching_polynomial_oracle(loose_path(r, 2).hg) == phi_p2(r)
        assert matching_polynomial_oracle(family_w(r, 5).hg) == phi_w5(r)
        assert matching_polynomial_oracle(family_w(r, 6).hg) == phi_w6(r)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_recurrence_reproduces_closed_forms(self, r):
        assert matching_polynomial(loose_path(r, 1).hg) == phi_p1(r)
        assert matching_polynomial(family_w(r, 5).hg) == phi_w5(r)
        assert matching_polynomial(family_w(r, 6).hg) == phi_w6(r)

    def test_edgeless(self):
        for k in (0, 1, 5):
            assert matching_polynomial_oracle(UniformHypergraph(2, k)) == SparsePolynomial({k: 1})
            assert matching_polynomial(UniformHypergraph(2, k)) == SparsePolynomial({k: 1})

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_swap_pair_union(self, r):
        expected = SparsePolynomial(
            {7 * r - 5: 1, 6 * r - 5: -7, 5 * r - 5: 14, 4 * r - 5: -8}
        )
        lhs = disjoint_union(loose_path(r, 1).hg, family_w(r, 6).hg)
        rhs = disjoint_union(loose_path(r, 2).hg, family_w(r, 5).hg)
        assert matching_polynomial(lhs) == expected
        assert matching_polynomial(rhs) == expected


class TestOracleEquivalence:
    def test_seeded_corpus(self):
        for hg in seeded_supertree_corpus(seed=1234, count=60):
            assert matching_polynomial(hg) == matching_polynomial_oracle(hg)

    @settings(max_examples=50)
    @given(supertrees())
    def test_property(self, hg):
        assert matching_polynomial(hg) == matching_polynomial_oracle(hg)

    def test_relabelled_forests_with_isolated_vertices(self):
        # components in any order, rooted at whatever vertex is lowest
        rng = random.Random(5)
        for _ in range(60):
            r = rng.choice([2, 3, 4, 5])
            hg = UniformHypergraph(r, rng.randint(0, 2))
            for _ in range(rng.randint(1, 3)):
                hg = disjoint_union(hg, random_supertree(r, rng.randint(1, 5), rng))
            perm = list(range(hg.n))
            rng.shuffle(perm)
            hg = UniformHypergraph(r, hg.n, [[perm[v] for v in e] for e in hg.edges])
            assert matching_polynomial(hg) == matching_polynomial_oracle(hg)

    @settings(max_examples=40)
    @given(supertrees(max_edges=5))
    def test_shape(self, hg):
        phi = matching_polynomial(hg)
        assert phi.degree() == hg.n
        assert phi.leading_coefficient() == 1
        for e, c in phi.terms():
            k = (hg.n - e) // hg.r
            assert (hg.n - e) % hg.r == 0
            assert c == (-1) ** k * matching_counts(hg)[k]


class TestSuperforestRequirement:
    @pytest.mark.parametrize(
        "r, n, edges",
        [
            (2, 3, [(0, 1), (1, 2), (0, 2)]),  # triangle
            (3, 4, [(0, 1, 2), (1, 2, 3)]),  # two edges sharing two vertices
            (3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]),  # loose cycle
            (2, 6, [(0, 1), (3, 4), (4, 5), (3, 5)]),  # a tree next to a cycle
        ],
    )
    def test_cycle_raises_and_names_the_oracle(self, r, n, edges):
        hg = UniformHypergraph(r, n, edges)
        # the spectral radius and isomorphism have their own passes, with
        # the same rule and one message
        messages = set()
        for compute in (matching_polynomial, spectral_radius, spectral_summary,
                        lambda hg: are_isomorphic(hg, hg)):
            with pytest.raises(HypergraphError, match="matching_polynomial_oracle") as info:
                compute(hg)
            messages.add(str(info.value))
        assert len(messages) == 1 and "are_isomorphic" in messages.pop()
        # a cyclic input is never cached, so it raises every time
        with pytest.raises(HypergraphError):
            matching_polynomial(hg)
        assert matching_polynomial_oracle(hg).degree() == n

    @settings(max_examples=60)
    @given(small_hypergraphs())
    def test_raises_exactly_on_cycles(self, hg):
        acyclic = hg.num_edges * (hg.r - 1) == hg.n - len(hg.components())
        if acyclic:
            assert matching_polynomial(hg) == matching_polynomial_oracle(hg)
            assert are_isomorphic(hg, hg)
        else:
            with pytest.raises(HypergraphError):
                matching_polynomial(hg)
            with pytest.raises(HypergraphError):
                are_isomorphic(hg, hg)


class TestBridgedClosedForm:
    """The bridge suite's closed form, on counts, against the same form
    on polynomials (conftest's reference)."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_counts_match_the_polynomial_form(self, data):
        g, u = data.draw(supertrees_with_vertex(rs=(2, 3, 4, 5), max_edges=4))
        h, v = data.draw(supertrees_with_vertex(rs=(g.r,), max_edges=4))
        edge = loose_path(g.r, 1).hg  # one edge: g - u has none
        for g, u in ((g, u), (edge, u % g.r)):
            forms = _bridged_closed_form(g, u, h, v, 5)
            assert len(forms) == 5
            for (n, counts), phi in zip(forms, bridged_closed_form(g, u, h, v, 5)):
                assert phi == SparsePolynomial({n - k * g.r: (-1) ** k * c for k, c in enumerate(counts)})


class TestLargeInputs:
    """Sizes far beyond the reach of brute force, checked against a
    closed form."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_bridge_of_premise_pair_matches_closed_form(self, r):
        g, h = family_r(r, 1, 1, 2, 4), family_r(r, 1, 3, 1, 3)
        u, v = g.anchors["p2"], h.anchors["p3"]
        m = 20
        padded = bridge(g.hg, u, h.hg, v, m)
        for _ in range(m - 1):
            padded = disjoint_union(padded, g.hg)
        assert _bridged_closed_form(g.hg, u, h.hg, v, m)[-1] == (padded.n, _shape_counts(padded))
        assert matching_polynomial(padded) == bridged_closed_form(g.hg, u, h.hg, v, m)[-1]

    @staticmethod
    def _phi_of_counts(hg, counts):
        return SparsePolynomial({hg.n - k * hg.r: (-1) ** k * c for k, c in enumerate(counts)})

    @pytest.mark.parametrize("r", [2, 3])
    def test_long_loose_path_matches_closed_form(self, r):
        # m(P_t, k) = C(t - k + 1, k); Z(P_t) is a Fibonacci number of
        # about 1390 bits, so every packed count slot is that wide
        t = 2000
        counts = [math.comb(t - k + 1, k) for k in range((t + 1) // 2 + 1)]
        assert sum(counts).bit_length() > 1000
        hg = loose_path(r, t).hg
        assert matching_polynomial(hg) == self._phi_of_counts(hg, counts)

    @pytest.mark.parametrize("r, k", [(2, 1), (2, 300), (3, 2), (3, 50), (5, 300)])
    def test_spider_matches_closed_form(self, r, k):
        # k legs of two edges at one hub: a matching takes j outer edges,
        # or one hub edge and j - 1 outer edges of the other legs
        hg = coalesce_power(loose_path(r, 2).hg, 0, k)
        counts = [math.comb(k, j) + k * math.comb(k - 1, j - 1) if j else 1 for j in range(k + 1)]
        assert matching_polynomial(hg) == self._phi_of_counts(hg, counts)


class TestEdgeCycleOracle:
    """phi against det(xI - M) for the edge-cycle matrix M, exact over the
    integers, at sizes where enumerating matchings is out of reach."""

    @pytest.mark.parametrize("r, m", [(3, 50), (5, 40)])
    def test_large_random_supertree(self, r, m):
        hg = random_supertree(r, m, random.Random(1))
        assert char_poly_reference(edge_cycle_out(hg)) == matching_polynomial(hg)

    def test_superforest_with_isolated_vertex(self):
        rng = random.Random(2)
        hg = disjoint_union(random_supertree(4, 6, rng), random_supertree(4, 5, rng))
        hg = disjoint_union(hg, UniformHypergraph(4, 1))
        assert char_poly_reference(edge_cycle_out(hg)) == matching_polynomial(hg)


class TestRecurrenceIdentities:
    @settings(max_examples=30)
    @given(supertrees(max_edges=4), supertrees(max_edges=4))
    def test_union_factorization(self, g, h):
        if g.r != h.r:
            return
        u = disjoint_union(g, h)
        assert matching_polynomial(u) == matching_polynomial(g) * matching_polynomial(h)

    @settings(max_examples=30)
    @given(supertrees_with_vertex(max_edges=5))
    def test_vertex_deletion_recurrence(self, hg_u):
        hg, u = hg_u
        x = SparsePolynomial({1: 1})
        rhs = x * matching_polynomial(hg.delete_vertex(u))
        for e in (f for f in hg.edges if u in f):
            rhs = rhs - matching_polynomial(hg.delete_closed_edge(e))
        assert matching_polynomial(hg) == rhs

    @settings(max_examples=25)
    @given(supertrees_with_vertex(max_edges=5))
    def test_edge_subset_recurrence(self, hg_u):
        # phi(H) = phi(H minus a subset of edges at u) - sum over that
        # subset of phi(H minus the closed edge)
        hg, u = hg_u
        incident = [e for e in hg.edges if u in e]
        phi = matching_polynomial(hg)
        for size in range(len(incident) + 1):
            for subset in itertools.combinations(incident, size):
                rhs = matching_polynomial(UniformHypergraph(hg.r, hg.n, [e for e in hg.edges if e not in subset]))
                for e in subset:
                    rhs = rhs - matching_polynomial(hg.delete_closed_edge(e))
                assert phi == rhs

    @settings(max_examples=25)
    @given(supertrees_with_vertex(max_edges=4), supertrees_with_vertex(max_edges=4))
    def test_coalescence_identity(self, gu, hw):
        # phi(G glued to Gamma at u=w) =
        #   phi(G) phi(Gamma-w) + phi(G-u) phi(Gamma) - x phi(G-u) phi(Gamma-w)
        (g, u), (gamma, w) = gu, hw
        if g.r != gamma.r:
            return
        x = SparsePolynomial({1: 1})
        glued = coalesce(g, u, gamma, w)
        lhs = matching_polynomial(glued)
        pg, pgu = matching_polynomial(g), matching_polynomial(g.delete_vertex(u))
        pt, ptw = matching_polynomial(gamma), matching_polynomial(gamma.delete_vertex(w))
        assert lhs == pg * ptw + pgu * pt - x * pgu * ptw

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_double_pendant_three_term_recurrence(self, r):
        # phi(W_n) = x^(r-2) [x phi(W_{n-1}) - phi(W_{n-2})]
        x = SparsePolynomial({1: 1})
        for size in range(7, 13):
            lhs = matching_polynomial(family_w(r, size).hg)
            rhs = (
                x * matching_polynomial(family_w(r, size - 1).hg)
                - matching_polynomial(family_w(r, size - 2).hg)
            ).shift(r - 2)
            assert lhs == rhs

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_double_pendant_from_single_pendant(self, r):
        # phi(W_n) = x^(r-1) [phi(Z_{n-1}) - x^(r-2) phi(Z_{n-3})]
        for size in range(5, 12):
            lhs = matching_polynomial(family_w(r, size).hg)
            rhs = (
                matching_polynomial(family_z(r, size - 1).hg)
                - matching_polynomial(family_z(r, size - 3).hg).shift(r - 2)
            ).shift(r - 1)
            assert lhs == rhs

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_loose_path_three_term_recurrence(self, r):
        # phi(P_t) = x^(r-2) [x phi(P_{t-1}) - phi(P_{t-2})]
        x = SparsePolynomial({1: 1})
        for t in range(2, 201):
            lhs = matching_polynomial(loose_path(r, t).hg)
            rhs = (
                x * matching_polynomial(loose_path(r, t - 1).hg)
                - matching_polynomial(loose_path(r, t - 2).hg)
            ).shift(r - 2)
            assert lhs == rhs


class TestSharedCache:
    def test_concurrent_computation_matches_oracle(self):
        # the memo table is shared; concurrent insert-or-get must not
        # corrupt results
        import threading

        from hypermatch import clear_polynomial_cache

        clear_polynomial_cache()
        rng = random.Random(31)
        corpus = [random_supertree(3, rng.randint(2, 6), rng) for _ in range(12)]
        expected = [matching_polynomial_oracle(hg) for hg in corpus]
        results = [[None] * len(corpus) for _ in range(8)]

        def work(slot):
            for i, hg in enumerate(corpus):
                results[slot][i] = matching_polynomial(hg)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for row in results:
            assert row == expected

    def test_cache_clear_keeps_results_identical(self):
        from hypermatch import clear_polynomial_cache

        hg = family_w(3, 8).hg
        warm = matching_polynomial(hg)
        clear_polynomial_cache()
        assert matching_polynomial(hg) == warm


class TestReduction:
    def test_single_edge(self):
        for r in (2, 3, 6):
            red = reduce_polynomial(phi_p1(r), r, r)
            assert red.z == 0
            assert red.q == SparsePolynomial({1: 1, 0: -1})
            assert red.q.degree() == 1

    def test_two_edge_path(self):
        for r in (2, 3, 5):
            red = reduce_polynomial(phi_p2(r), r, 2 * r - 1)
            assert red.z == r - 1
            assert red.q == SparsePolynomial({1: 1, 0: -2})

    def test_double_pendant_five(self):
        for r in (2, 3, 4):
            red = reduce_polynomial(phi_w5(r), r, 5 * r - 4)
            assert red.z == 3 * r - 4
            assert red.q == SparsePolynomial({2: 1, 1: -5, 0: 4})

    def test_round_trip(self):
        rng = random.Random(99)
        for _ in range(20):
            r = rng.choice([2, 3, 4])
            hg = random_supertree(r, rng.randint(1, 6), rng)
            phi = matching_polynomial(hg)
            red = reduce_polynomial(phi, r, hg.n)
            assert red.expand() == phi
            assert red.q.to_dense()[-1] != 0
            assert red.z == hg.n - r * red.q.degree()

    @settings(max_examples=80, deadline=None)
    @given(superforests())
    def test_q_is_the_coefficient_list_of_phi(self, hg):
        # the matching energy reads q this way, with no reduction
        phi = matching_polynomial(hg)
        assert [c for _, c in phi.terms()] == reduce_polynomial(phi, hg.r, hg.n).q.to_dense()

    def test_edgeless(self):
        red = reduce_polynomial(SparsePolynomial({4: 1}), 3, 4)
        assert red.z == 4
        assert red.q == SparsePolynomial.one()

    def test_shape_errors(self):
        with pytest.raises(PolynomialShapeError):
            reduce_polynomial(SparsePolynomial({3: 1, 1: -1}), 3, 3)
        with pytest.raises(PolynomialShapeError):
            reduce_polynomial(SparsePolynomial.zero(), 3, 3)
        with pytest.raises(PolynomialShapeError):
            reduce_polynomial(SparsePolynomial({2: 1}), 3, 3)

    @pytest.mark.parametrize("r", [0, -2])
    def test_r_below_one_is_a_shape_error(self, r):
        with pytest.raises(PolynomialShapeError, match=f"r must be >= 1, got {r}"):
            reduce_polynomial(SparsePolynomial({3: 1, 1: -1}), r, 3)

class TestViewsOfPhi:
    """The suites' JSON, the polynomial and the companion matrix's q all
    write phi from the same terms (`matching._phi_terms`)."""

    @settings(max_examples=60, deadline=None)
    @given(superforests())
    def test_suite_json_is_the_polynomial_json(self, hg):
        case = check_cospectral(hg, hg)
        assert case["lhs_phi"] == case["rhs_phi"] == matching_polynomial(hg).to_json_dict()

    @settings(max_examples=60, deadline=None)
    @given(superforests())
    def test_companion_roots_take_the_coefficients_of_q(self, hg):
        real = spectra.roots
        for side in [hg, *hg.components()]:
            if not side.edges or base_forest(side) is not None:  # no q, or the power route
                continue
            calls = []
            clear_polynomial_cache()
            with mock.patch.object(spectra, "roots", lambda q: calls.append(q) or real(q)):
                matching_energy(side)
            # a forest's whole q comes last, after those of its trees that are no power
            assert calls[-1] == reduce_polynomial(matching_polynomial(side), side.r, side.n).q.to_dense()
            assert len(calls) == 1 or len(side.components()) > 1
