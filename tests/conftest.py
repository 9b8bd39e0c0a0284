"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest

from hypermatch import (
    SparsePolynomial,
    UniformHypergraph,
    attach_pendant,
    disjoint_union,
    loose_path,
    matching_counts,
    matching_polynomial,
    power,
    random_supertree,
    reduce_polynomial,
)
from hypermatch.hypergraph import rooted_superforest
from hypermatch.spectra import _base_forest


@pytest.fixture(autouse=True)
def _no_ambient_tolerance(monkeypatch):
    """Every test starts at the default tolerance, whatever HG_TOL the
    shell exports; a test that needs another sets it itself."""
    monkeypatch.delenv("HG_TOL", raising=False)


def assert_same_report(got: str, expected: str):
    """Fail unless two suite reports, as written, are byte-identical. The
    parsed reports are compared case by case first, so a mismatch names
    the params of the first case that differs; a bare == on the strings
    would have pytest render a diff of the whole one-line report, which
    takes minutes on a large one."""
    got_cases, expected_cases = (json.loads(text)["cases"] for text in (got, expected))
    for i, (a, b) in enumerate(zip(got_cases, expected_cases)):
        if a != b:
            pytest.fail(f"case {i} differs: params {a.get('params')} against {b.get('params')}")
    if len(got_cases) != len(expected_cases):
        pytest.fail(f"{len(got_cases)} cases against {len(expected_cases)}")
    if got != expected:
        pytest.fail("reports differ in their bytes outside their cases or in formatting")


@st.composite
def supertrees(draw, rs=(2, 3, 4), max_edges=6):
    """Uniform-attachment supertrees with 1..max_edges edges."""
    r = draw(st.sampled_from(rs))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    picks = draw(st.lists(st.integers(0, 10**9), min_size=m - 1, max_size=m - 1))
    hg = loose_path(r, 1).hg
    for p in picks:
        hg = attach_pendant(hg, p % hg.n)
    return hg


@st.composite
def supertrees_with_vertex(draw, rs=(2, 3, 4), max_edges=6):
    hg = draw(supertrees(rs=rs, max_edges=max_edges))
    v = draw(st.integers(0, 10**9)) % hg.n
    return hg, v


@st.composite
def small_hypergraphs(draw, rs=(2, 3), max_n=8, max_edges=6):
    """Arbitrary small uniform hypergraphs (not necessarily connected)."""
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(min_value=r, max_value=max_n))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), max_size=max_edges, unique=True))
    return UniformHypergraph(r, n, edges)


@st.composite
def power_superforests(draw, rs=(2, 3, 4, 5), max_vertices=12):
    """Powers G^(r) of random forests G (several components), with
    isolated vertices added and every vertex relabelled at random."""
    r = draw(st.sampled_from(rs))
    size = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = []
    for v in range(1, size):
        parent = draw(st.integers(min_value=-1, max_value=v - 1))  # -1: a new component
        if parent >= 0:
            edges.append((parent, v))
    hg = power(edges, r)
    n = hg.n + draw(st.integers(min_value=0, max_value=3))
    perm = draw(st.permutations(range(n)))
    return UniformHypergraph(r, n, [[perm[v] for v in e] for e in hg.edges])


@st.composite
def superforests(draw, rs=(2, 3, 4, 5), max_components=3, max_edges=5):
    """Disjoint unions of 0..max_components supertrees and 0..3 isolated
    vertices, every vertex relabelled at random: edgeless inputs too."""
    r = draw(st.sampled_from(rs))
    hg = UniformHypergraph(r, draw(st.integers(min_value=0, max_value=3)))
    for _ in range(draw(st.integers(min_value=0, max_value=max_components))):
        hg = disjoint_union(hg, draw(supertrees(rs=(r,), max_edges=max_edges)))
    perm = draw(st.permutations(range(hg.n)))
    return UniformHypergraph(r, hg.n, [[perm[v] for v in e] for e in hg.edges])


def spider(r: int, legs: int) -> UniformHypergraph:
    """A centre edge with a loose path of `legs` edges hanging from each of
    its first three vertices (r >= 3). For legs >= 1 the centre edge has
    three vertices of degree >= 2, so the input is no power of a forest."""
    edges = [tuple(range(r))]
    n = r
    for end in range(3):
        for _ in range(legs):
            edges.append((end, *range(n, n + r - 1)))
            end = n + r - 2
            n += r - 1
    return UniformHypergraph(r, n, edges)


def base_forest(hg: UniformHypergraph) -> tuple[int, list[list[int]]] | None:
    """The ordinary forest G with hg = G^(r), as (vertex count, edges):
    the base forests of hg's trees, each read from its core shape, side
    by side; None unless every tree has one."""
    size, pairs = 0, []
    for shape in rooted_superforest(hg)[1]:
        base = _base_forest(shape)
        if not base:
            return None
        pairs += [[a + size, b + size] for a, b in base[1]]
        size += base[0]
    return size, pairs


def bridged_closed_form(
    g: UniformHypergraph, u: int, h: UniformHypergraph, v: int, m_max: int
) -> list[SparsePolynomial]:
    """The reference for `suites._bridged_closed_form`, on polynomials:
    phi of (g bridged to m copies of h) union (m-1) extra copies of g,
    for m = 1..m_max,

        x^((m-1)(r-2)) * (phi_g phi_h)^(m-1)
            * (x^(r-2) phi_g phi_h - m phi_(g-u) phi_(h-v)).
    """
    r = g.r
    gh = matching_polynomial(g) * matching_polynomial(h)
    deleted = matching_polynomial(g.delete_vertex(u)) * matching_polynomial(h.delete_vertex(v))
    out = []
    power = SparsePolynomial.one()  # (phi_g phi_h)^(m-1)
    for m in range(1, m_max + 1):
        out.append((power * (gh.shift(r - 2) - deleted * m)).shift((m - 1) * (r - 2)))
        power = power * gh
    return out


def edge_cycle_out(hg: UniformHypergraph) -> list[list[int]]:
    """Out-neighbour lists of the edge-cycle matrix M of hg, in which each
    edge (v_1, ..., v_r) is the directed cycle v_1 -> ... -> v_r -> v_1.
    In a superforest the only directed cycles of M are its edges, so the
    linear subdigraphs of M are the matchings of hg, each cycle counting
    -1, and det(xI - M) = phi (for r = 2, M is the adjacency matrix)."""
    out: list[list[int]] = [[] for _ in range(hg.n)]
    for e in hg.edges:
        for a, b in zip(e, (*e[1:], e[0])):
            out[a].append(b)
    return out


def char_poly_reference(rows: list[list[int]]) -> SparsePolynomial:
    """Characteristic polynomial of a nonnegative integer matrix A whose
    row i is given as a list holding each column j A_ij times (for a 0/1
    adjacency matrix, the neighbour lists), via the Faddeev-LeVerrier
    recurrence; all divisions are exact over the integers, so the result
    is exact. Row i of A.M is the sum of the rows of M that row i lists,
    so each step costs O(n * total row length), which is O(n^2) for the
    adjacency matrix of a forest.

    The list-of-lists recurrence that hypermatch's packed kernel
    replaced; it holds every entry exactly whatever its size, so it also
    takes the adjacency and edge-cycle matrices that the packed kernel's
    slot width does not cover."""
    n = len(rows)
    coeffs = {n: 1}
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(col) for col in zip(*(m[t] for t in row))] if row else [0] * n
            for row in rows
        ]
        trace = sum(m[i][i] for i in range(n))
        assert trace % k == 0
        ck = -(trace // k)
        coeffs[n - k] = ck
        for i in range(n):
            m[i][i] += ck
    return SparsePolynomial(coeffs)


def edge_cycle_energy(hg: UniformHypergraph) -> float:
    """Matching energy from neither phi nor q: the sum of |x| over the
    nonzero eigenvalues of the edge-cycle matrix M, taken as the nu * r
    of largest modulus, with nu from the enumerated matching counts."""
    nonzero = (len(matching_counts(hg)) - 1) * hg.r
    m = np.zeros((hg.n, hg.n))
    for a, out in enumerate(edge_cycle_out(hg)):
        m[a, out] = 1.0
    moduli = np.sort(np.abs(np.linalg.eigvals(m)))
    return float(moduli[hg.n - nonzero :].sum())


def seeded_supertree_corpus(seed: int, count: int, rs=(2, 3, 4), max_n: int = 16):
    """Deterministic list of random supertrees with n <= max_n, cycling rs."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        r = rs[i % len(rs)]
        max_edges = (max_n - 1) // (r - 1)
        out.append(random_supertree(r, rng.randint(1, max_edges), rng))
    return out


def pendant_edges(hg: UniformHypergraph):
    """Edges with at most one vertex of degree >= 2."""
    return [e for e in hg.edges if sum(1 for v in e if hg.degree(v) >= 2) <= 1]


def _scaled_shift(q: list[int], y: Fraction) -> list[int]:
    """Coefficients in s of D^d q((N + s)/D), lowest first, for y = N/D and
    q of degree d (lowest first). They have the signs of the coefficients
    of q(y + t), and the first is D^d q(y)."""
    num, den = y.numerator, y.denominator
    out = [q[-1]]
    scale = 1
    for c in reversed(q[:-1]):
        scale *= den
        # out * (num + s) + c * den^(d - k)
        out = [num * a + b for a, b in zip(out + [0], [0] + out)]
        out[0] += c * scale
    return out


def assert_top_root_exact(hg: UniformHypergraph, rho: float, tol: float):
    """Check in exact rational arithmetic that rho is the largest root of
    phi to relative tolerance tol, for a superforest with r >= 2 whose
    reduced q has a top root of odd multiplicity: q changes sign across
    [(rho (1 - tol))^r, (rho (1 + tol))^r], and q(y_hi + t) has no sign
    change in its coefficients, so by Descartes' rule q has no root above
    y_hi. q comes from the exact integer phi; no float code is involved.
    """
    red = reduce_polynomial(matching_polynomial(hg), hg.r, hg.n)
    q = red.q.to_dense()[::-1]
    y_lo = (Fraction(rho) * (1 - Fraction(tol))) ** hg.r
    y_hi = (Fraction(rho) * (1 + Fraction(tol))) ** hg.r
    at_lo = _scaled_shift(q, y_lo)[0]
    shifted = _scaled_shift(q, y_hi)
    sign_lo, sign_hi = (at_lo > 0) - (at_lo < 0), (shifted[0] > 0) - (shifted[0] < 0)
    assert sign_lo * sign_hi <= 0, f"q has no sign change around {rho}**{hg.r}"
    signs = {c > 0 for c in shifted if c}
    assert len(signs) == 1, f"q has a root above ({rho} (1 + {tol}))**{hg.r}"
