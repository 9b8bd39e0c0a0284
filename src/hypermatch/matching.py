"""Exact matching counts and matching polynomials.

Two independent routes compute the matching polynomial
phi(H, x) = sum_k (-1)^k m(H,k) x^(n - k r):

* `matching_polynomial_oracle` enumerates every matching by backtracking
  over edges in sorted order. Slow but unarguable; it is the reference
  for everything else, and the only route for hypergraphs with cycles.
* `matching_polynomial` needs a superforest (no cycles; it raises
  `HypergraphError` otherwise) and computes phi in one bottom-up pass,
  with each component rooted at its lowest vertex. For the subtree T_w
  below a vertex w it keeps A_w = phi(T_w) and B_w = phi(T_w - w):
  deleting w leaves every vertex u of a child edge e as the root of its
  own subtree, so

      B_w = prod_e P_e,   A_w = x B_w - sum_e Q_e prod_{e' != e} P_e',

  with P_e = prod_{u in e - w} A_u and Q_e = prod_{u in e - w} B_u (the
  hypertree form of Godsil's tree recurrence). A degree-1 vertex u has
  A_u = x and B_u = 1, so the pass visits only the core, the roots and
  the vertices of degree >= 2. The pass runs on the unsigned counts
  m(., k), each polynomial packed into one int with count k in slot k
  (Kronecker substitution), so every product and sum is one C big-int
  operation; the signs (-1)^k come in at the end. A slot is as many
  whole bytes as the Hosoya index Z(H), the number of matchings, which
  bounds every count formed, so no slot carries; a first pass with
  zero-width slots returns Z(H). On counts a degree-1 vertex is the
  factor 1, so the pass reads only the core shape that
  `rooted_superforest` returns, and the counts m(H,0..nu) do not
  depend on r: they are kept once per core shape (see
  `hypergraph._shape_memo`). phi is a view of them, built on each call
  by placing them at the exponents n - k r.

Every m(H,k) with k <= nu(H) is positive, so phi has exactly nu + 1
terms and phi(x) = x^z q(x^r) with z = n - r*nu: q's coefficients,
highest degree first, are phi's, (-1)^k m(H,k) for k = 0..nu. The
numeric layer reads q off the kept counts, at any r; root finding on
the degree-nu q is far better conditioned than on phi itself with its
zero cluster.
`reduce_polynomial` makes the factorization explicit, with shape checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hypergraph import UniformHypergraph, _shape_memo
from .polynomial import PolynomialShapeError, SparsePolynomial, _from_terms


def _edge_masks(hg: UniformHypergraph) -> list[int]:
    masks = []
    for e in hg.edges:
        m = 0
        for v in e:
            m |= 1 << v
        masks.append(m)
    return masks


def matching_counts(hg: UniformHypergraph) -> list[int]:
    """The counts m(H,0..nu): entry k is the number of k-sets of pairwise
    disjoint edges (m(H,0) = 1, and no entry follows nu).

    Backtracking enumeration of every matching over edges in sorted
    order; this is the oracle the polynomial code is checked against.
    """
    masks = _edge_masks(hg)
    counts = [0] * (len(masks) + 1)
    counts[0] = 1

    def rec(start: int, used: int, size: int):
        for j in range(start, len(masks)):
            if not masks[j] & used:
                counts[size + 1] += 1
                rec(j + 1, used | masks[j], size + 1)

    rec(0, 0, 0)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def matching_polynomial_oracle(hg: UniformHypergraph) -> SparsePolynomial:
    """phi by brute-force matching enumeration. Intended for small inputs."""
    counts = matching_counts(hg)
    return SparsePolynomial(
        {hg.n - k * hg.r: (-1) ** k * c for k, c in enumerate(counts)}
    )


def matching_polynomial(hg: UniformHypergraph) -> SparsePolynomial:
    """phi of a superforest: the matching counts of its core shape, found
    by one rooted-tree pass and kept once per shape, placed at the
    exponents n - k r. Each call returns a new, equal value.

    Raises HypergraphError if hg has a cycle. Agrees exactly with
    matching_polynomial_oracle on every superforest.
    """
    n, r = hg.n, hg.r
    return _from_terms({n - k * r: -c if k & 1 else c for k, c in enumerate(_shape_counts(hg))})


def _count_pass(roots, belows, bits: int) -> int:
    """The root product of the bottom-up pass on packed counts: slot k,
    bits k*bits to (k+1)*bits - 1, holds m(H,k). At bits = 0 the slots
    all add up, and the result is the Hosoya index Z(H), the number of
    matchings of H."""
    # A_w and B_w are single ints, slot k holding m(T_w,k), resp.
    # m(T_w - w,k); a matching of T_w avoids w or holds one edge e at w,
    # and the rest of it has one edge fewer, so A_w = B_w + (total << bits)
    # with total = sum_e Q_e prod_{e' != e} P_e'. A degree-1 vertex has
    # A = B = 1, so P_e and Q_e are products over the vertices of degree
    # >= 2 alone. Invariant: each slot of every int formed here counts
    # matchings of a sub-hyperforest of H (a product is a disjoint union,
    # and total, partial or not, counts the matchings of T_w that hold w),
    # so it is at most Z(H) < 2^bits, and no slot carries into the next.
    # A first factor is taken as is, not multiplied by 1, and each child's
    # ints are dropped once read: both copy whole ints.
    a: list = [None] * len(belows)
    b: list = [None] * len(belows)
    for w in range(len(belows) - 1, -1, -1):  # children before parents
        prod_p, total = 1, 0  # prod of P_e, and total, over the edges so far
        for below in belows[w]:
            p = q = 1
            for u in below:
                p, q = (a[u], b[u]) if p == 1 else (p * a[u], q * b[u])
                a[u] = b[u] = None
            if not total:  # the first edge (total >= 1 after any edge)
                prod_p, total = p, q
            elif not below:  # P_e = Q_e = 1
                total += prod_p
            else:
                total = total * p + prod_p * q
                prod_p *= p
        a[w] = prod_p + (total << bits)
        b[w] = prod_p
    return math.prod(a[root] for root in roots)


def _superforest_counts(shape) -> tuple[int, ...]:
    """The counts m(H,0..nu) of a superforest from its core shape (see
    `hypergraph.rooted_superforest`), which they depend on alone."""
    roots, belows = shape
    width = (_count_pass(roots, belows, 0).bit_length() + 7) // 8  # bytes of Z(H)
    packed = _count_pass(roots, belows, 8 * width)
    nu = (packed.bit_length() - 1) // (8 * width)  # m(H,nu) > 0 is the top slot
    data = packed.to_bytes((nu + 1) * width, "little")
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))


def _shape_counts(hg: UniformHypergraph) -> tuple[int, ...]:
    """The counts m(H,0..nu) of a superforest, kept once per core shape."""
    return _shape_memo(hg, "counts", _superforest_counts)


@dataclass(frozen=True)
class ReducedPolynomial:
    """The factorization phi(x) = x^z * q(x^r).

    z is the multiplicity of the zero root of phi and q has degree
    nu(H) with q(0) != 0.
    """

    z: int
    q: SparsePolynomial
    r: int

    def expand(self) -> SparsePolynomial:
        """Reconstruct phi exactly."""
        return SparsePolynomial(
            {self.z + self.r * e: c for e, c in self.q.terms()}
        )


def reduce_polynomial(phi: SparsePolynomial, r: int, n: int) -> ReducedPolynomial:
    """Factor a matching-shaped polynomial as x^z * q(x^r).

    Requires every exponent to be congruent to n modulo r and the degree
    to be exactly n; anything else signals a bug upstream.
    """
    if phi.is_zero():
        raise PolynomialShapeError("zero polynomial has no matching shape")
    if phi.degree() != n:
        raise PolynomialShapeError(f"degree {phi.degree()} != vertex count {n}")
    for e, _ in phi.terms():
        if (n - e) % r:
            raise PolynomialShapeError(f"exponent {e} not congruent to {n} mod {r}")
    z = phi.min_exponent()
    q = SparsePolynomial({(e - z) // r: c for e, c in phi.terms()})
    return ReducedPolynomial(z=z, q=q, r=r)
