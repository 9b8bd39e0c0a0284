"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is pinned here; the time budgets are asserted too (they are
generous: the whole module runs in well under a minute on a laptop).
"""

import itertools
import random
import time

from conftest import edge_cycle_energy
from hypermatch import (
    SparsePolynomial,
    UniformHypergraph,
    are_isomorphic,
    bridge,
    coalesce,
    disjoint_union,
    family_r,
    family_w,
    family_z,
    loose_path,
    matching_energy,
    matching_polynomial,
    matching_polynomial_oracle,
    random_supertree,
    spectral_radius,
)


class _Budget:
    """Times a criterion and prints its one-line verdict."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"criterion {self.number} [{verdict}] {self.name}"
            f" ({elapsed:.2f}s, budget {self.budget_s:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.number} over budget"
        return False


def _phi_p1(r):
    return SparsePolynomial({r: 1, 0: -1})


def _phi_p2(r):
    return SparsePolynomial({2 * r - 1: 1, r - 1: -2})


def _phi_w5(r):
    return SparsePolynomial({5 * r - 4: 1, 4 * r - 4: -5, 3 * r - 4: 4})


def _phi_w6(r):
    return SparsePolynomial({6 * r - 5: 1, 5 * r - 5: -6, 4 * r - 5: 8})


def _phi_swap(r):
    return SparsePolynomial({7 * r - 5: 1, 6 * r - 5: -7, 5 * r - 5: 14, 4 * r - 5: -8})


def _premise_pair(r):
    g = family_r(r, 1, 1, 2, 4)
    h = family_r(r, 1, 3, 1, 3)
    return g.hg, g.anchors["p2"], h.hg, h.anchors["p3"]


def test_criterion_1_named_polynomials():
    with _Budget(1, "named-polynomial reproduction", 1.0):
        for r in (2, 3, 4, 5):
            assert matching_polynomial(loose_path(r, 1).hg) == _phi_p1(r)
            assert matching_polynomial(loose_path(r, 2).hg) == _phi_p2(r)
            assert matching_polynomial(family_w(r, 5).hg) == _phi_w5(r)
            assert matching_polynomial(family_w(r, 6).hg) == _phi_w6(r)
            lhs = disjoint_union(loose_path(r, 1).hg, family_w(r, 6).hg)
            rhs = disjoint_union(loose_path(r, 2).hg, family_w(r, 5).hg)
            assert matching_polynomial(lhs) == _phi_swap(r)
            assert matching_polynomial(rhs) == _phi_swap(r)


def test_criterion_2_oracle_equivalence():
    with _Budget(2, "recurrence == enumeration oracle on 200 supertrees", 60.0):
        rng = random.Random(20260809)
        rs = (2, 3, 4)
        for i in range(200):
            r = rs[i % 3]
            max_edges = (16 - 1) // (r - 1)
            hg = random_supertree(r, rng.randint(1, max_edges), rng)
            assert hg.n <= 16
            assert matching_polynomial(hg) == matching_polynomial_oracle(hg)


def test_criterion_3_recurrence_identities():
    with _Budget(3, "deletion/gluing/three-term identities (>=25 each)", 60.0):
        x = SparsePolynomial({1: 1})
        rng = random.Random(3333)

        # union factorization, 25 pairs
        for _ in range(25):
            r = rng.choice((2, 3, 4))
            g = random_supertree(r, rng.randint(1, 5), rng)
            h = random_supertree(r, rng.randint(1, 5), rng)
            assert matching_polynomial(disjoint_union(g, h)) == (
                matching_polynomial(g) * matching_polynomial(h)
            )

        # vertex-deletion recurrence and its edge-subset form, 25 instances
        for _ in range(25):
            r = rng.choice((2, 3, 4))
            hg = random_supertree(r, rng.randint(1, 5), rng)
            u = rng.randrange(hg.n)
            phi = matching_polynomial(hg)
            rhs = x * matching_polynomial(hg.delete_vertex(u))
            incident = [e for e in hg.edges if u in e]
            for e in incident:
                rhs = rhs - matching_polynomial(hg.delete_closed_edge(e))
            assert phi == rhs
            for size in range(len(incident) + 1):
                for subset in itertools.combinations(incident, size):
                    alt = matching_polynomial(UniformHypergraph(hg.r, hg.n, [e for e in hg.edges if e not in subset]))
                    for e in subset:
                        alt = alt - matching_polynomial(hg.delete_closed_edge(e))
                    assert phi == alt

        # coalescence identity, 25 instances
        for _ in range(25):
            r = rng.choice((2, 3, 4))
            g = random_supertree(r, rng.randint(1, 4), rng)
            gamma = random_supertree(r, rng.randint(1, 4), rng)
            u, w = rng.randrange(g.n), rng.randrange(gamma.n)
            pg = matching_polynomial(g)
            pgu = matching_polynomial(g.delete_vertex(u))
            pt = matching_polynomial(gamma)
            ptw = matching_polynomial(gamma.delete_vertex(w))
            glued = coalesce(g, u, gamma, w)
            assert matching_polynomial(glued) == pg * ptw + pgu * pt - x * pgu * ptw

        # bridged closed form, m = 1..4, 7 draws each (28 instances)
        for m in (1, 2, 3, 4):
            for _ in range(7):
                r = rng.choice((2, 3, 4))
                g = random_supertree(r, rng.randint(1, 3), rng)
                h = random_supertree(r, rng.randint(1, 3), rng)
                u, v = rng.randrange(g.n), rng.randrange(h.n)
                padded = bridge(g, u, h, v, m)
                for _ in range(m - 1):
                    padded = disjoint_union(padded, g)
                gh = matching_polynomial(g) * matching_polynomial(h)
                inner = gh.shift(r - 2) - (
                    matching_polynomial(g.delete_vertex(u))
                    * matching_polynomial(h.delete_vertex(v))
                ).scale(m)
                expected = (gh ** (m - 1) * inner).shift((m - 1) * (r - 2))
                assert matching_polynomial(padded) == expected

        # three-term recurrences over parameter grids (>= 25 points each)
        for r in (2, 3, 4, 5):
            for size in range(7, 14):
                lhs = matching_polynomial(family_w(r, size).hg)
                rhs = (
                    x * matching_polynomial(family_w(r, size - 1).hg)
                    - matching_polynomial(family_w(r, size - 2).hg)
                ).shift(r - 2)
                assert lhs == rhs
            for size in range(5, 12):
                lhs = matching_polynomial(family_w(r, size).hg)
                rhs = (
                    matching_polynomial(family_z(r, size - 1).hg)
                    - matching_polynomial(family_z(r, size - 3).hg).shift(r - 2)
                ).shift(r - 1)
                assert lhs == rhs
            for t in range(2, 9):
                lhs = matching_polynomial(loose_path(r, t).hg)
                rhs = (
                    x * matching_polynomial(loose_path(r, t - 1).hg)
                    - matching_polynomial(loose_path(r, t - 2).hg)
                ).shift(r - 2)
                assert lhs == rhs


def test_criterion_4_swap_grid():
    with _Budget(4, "path/double-pendant swap grid r in {3,4,5}", 120.0):
        for r in (3, 4, 5):
            for m in range(6, 11):
                for n in range(6, 11):
                    lhs = disjoint_union(loose_path(r, m - 5).hg, family_w(r, n - 1).hg)
                    rhs = disjoint_union(loose_path(r, n - 5).hg, family_w(r, m - 1).hg)
                    assert matching_polynomial(lhs) == matching_polynomial(rhs)
                    assert abs(spectral_radius(lhs) - spectral_radius(rhs)) < 1e-9
                    assert abs(matching_energy(lhs) - matching_energy(rhs)) < 1e-9
                    if m != n:
                        assert not are_isomorphic(lhs, rhs)


def test_criterion_5_premise_pair_and_sampled_gluings():
    with _Budget(5, "triple-pendant premise pair + 10 gluings per r", 60.0):
        rng = random.Random(555)
        for r in (3, 4):
            g, u, h, v = _premise_pair(r)
            assert matching_polynomial(g) == matching_polynomial(h)
            assert are_isomorphic(g.delete_vertex(u), h.delete_vertex(v))
            assert not are_isomorphic(g, h)
            for i in range(10):
                gamma = UniformHypergraph(r, 1) if i == 0 else random_supertree(r, rng.randint(1, 5), rng)
                w = rng.randrange(gamma.n)
                assert matching_polynomial(coalesce(g, u, gamma, w)) == (
                    matching_polynomial(coalesce(h, v, gamma, w))
                )


def test_criterion_6_bridged_pairs():
    with _Budget(6, "bridged-pair identity and spectral radius agreement", 120.0):
        rng = random.Random(666)
        for r in (2, 3, 4):
            for m in (1, 2, 3, 4):
                for _ in range(10):
                    g = random_supertree(r, rng.randint(1, 4), rng)
                    h = random_supertree(r, rng.randint(1, 4), rng)
                    u, v = rng.randrange(g.n), rng.randrange(h.n)
                    bridged_gh = bridge(g, u, h, v, m)
                    bridged_hg = bridge(h, v, g, u, m)
                    lhs, rhs = bridged_gh, bridged_hg
                    for _ in range(m - 1):
                        lhs = disjoint_union(lhs, g)
                        rhs = disjoint_union(rhs, h)
                    assert matching_polynomial(lhs) == matching_polynomial(rhs)
                    drho = abs(spectral_radius(bridged_gh) - spectral_radius(bridged_hg))
                    assert drho < 1e-9


def test_criterion_7_characteristic_polynomial_bridge():
    from hypermatch import tree_char_poly

    with _Budget(7, "adjacency char poly == matching poly on trees", 60.0):
        rng = random.Random(777)
        for _ in range(100):
            tree = random_supertree(2, rng.randint(1, 11), rng)
            assert tree.n <= 12
            assert tree_char_poly(tree) == matching_polynomial(tree)

        # consequence: the r=2 instances of the three constructions are
        # adjacency-cospectral by the same exact comparison
        g, u, h, v = _premise_pair(2)
        gamma = random_supertree(2, 3, rng)
        w = rng.randrange(gamma.n)
        assert tree_char_poly(coalesce(g, u, gamma, w)) == (
            tree_char_poly(coalesce(h, v, gamma, w))
        )
        for m in (2, 3):
            a = random_supertree(2, 3, rng)
            b = random_supertree(2, 2, rng)
            ua, ub = rng.randrange(a.n), rng.randrange(b.n)
            lhs = bridge(a, ua, b, ub, m)
            rhs = bridge(b, ub, a, ua, m)
            for _ in range(m - 1):
                lhs = disjoint_union(lhs, a)
                rhs = disjoint_union(rhs, b)
            assert tree_char_poly(lhs) == tree_char_poly(rhs)
        for m, n in ((6, 7), (7, 9)):
            lhs = disjoint_union(loose_path(2, m - 5).hg, family_w(2, n - 1).hg)
            rhs = disjoint_union(loose_path(2, n - 5).hg, family_w(2, m - 1).hg)
            assert tree_char_poly(lhs) == tree_char_poly(rhs)


def test_criterion_8_numeric_sanity():
    with _Budget(8, "spectral radius / matching energy numeric sanity", 30.0):
        for r in (2, 3, 4, 5):
            p1 = loose_path(r, 1).hg
            assert abs(spectral_radius(p1) - 1.0) < 1e-10
            assert abs(matching_energy(p1) - r) < 1e-10
            assert abs(matching_energy(family_w(r, 5).hg) - r * (1 + 4 ** (1 / r))) < 1e-9

        named = []
        for r in (2, 3, 4, 5):
            named.extend(loose_path(r, t).hg for t in range(1, 13))
            named.extend(family_w(r, s).hg for s in range(5, 14))
            named.extend(family_z(r, s).hg for s in range(2, 14))
            named.append(family_r(r, 1, 1, 2, 4).hg)
            named.append(family_r(r, 1, 3, 1, 3).hg)
        named = [hg for hg in named if hg.n <= 40]
        assert len(named) > 40
        for hg in named:
            assert abs(matching_energy(hg) - edge_cycle_energy(hg)) < 1e-8


def test_criterion_9_pendant_deletion_monotonicity():
    with _Budget(9, "pendant-edge deletion strictly lowers spectral radius", 30.0):
        rng = random.Random(999)
        for _ in range(50):
            r = rng.choice((2, 3, 4))
            hg = random_supertree(r, rng.randint(2, 8), rng)
            pendants = [
                e for e in hg.edges
                if sum(1 for v in e if hg.degree(v) >= 2) <= 1
            ]
            smaller = UniformHypergraph(hg.r, hg.n, [e for e in hg.edges if e != pendants[0]])
            assert spectral_radius(hg) - spectral_radius(smaller) > 1e-9
