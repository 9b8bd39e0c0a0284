"""Numeric layer: spectral radius, matching energy, polynomial roots,
and the exact characteristic-polynomial bridge for ordinary forests.

The spectral radius rho of a superforest is the largest root of its
matching polynomial phi. It comes from the tree recursion, with no
polynomial at all: root every component, and for each vertex w let
R_w(x) = phi(T_w)/phi(T_w - w) for the subtree T_w below w. Then
R_w = x - sum_{child edges e} prod_{u in e - w} 1/R_u, and x > rho
exactly when every R_w(x) > 0. A degree-1 vertex has R = x, so a pass
visits only the core (the roots and the vertices of degree >= 2) and
takes an edge's k degree-1 vertices as the factor x^-k. A safeguarded
Newton search over float passes of the recursion brackets rho between
adjacent floats. When the matching energy of an input with the same
core shape, at any r, has been computed first, the roots mu of q are at
hand, and the search starts just above (max |mu|)^(1/r), since rho^r is
the largest |mu|: three passes or so instead of ten, and the same float.

The roots of the reduced polynomial q (phi = x^z q(x^r)) feed only the
matching energy, the sum of |x_i| over all roots of phi: each nonzero
root mu of q yields exactly r roots of phi of modulus |mu|**(1/r) and
the zero root adds nothing, hence ME = r * sum |mu|**(1/r). q's
coefficient list, highest degree first, is (-1)^k m(H,k) for
k = 0..nu, read off the matching counts (see `matching`), which do not
depend on r; nor do its roots.

Most superforests are power superforests: every edge has at most two
vertices of degree >= 2, so the input is the r-th power G^(r) of an
ordinary forest G and has G's matching counts. phi(G) is then the
characteristic polynomial of G's adjacency matrix, so the roots of q
are lam^2 for the positive eigenvalues lam of G, and
ME = r * sum lam^(2/r) comes from one symmetric eigenproblem, with an
error bound from Weyl's inequality and no root finding. Every other
superforest takes the eigenvalues of the companion matrix of q, which
carry no error bound: their matching energy is not certified.

An input keeps what needs its labelled edges or a search; everything
else is a view of its core shape (see `hypergraph._memo`). The record
of an input keeps rho and the exact characteristic polynomial, which
is also kept per component, in the component's own record, so a tree
that recurs across the disjoint unions of a suite is computed once.
The spectrum of q, the roots mu and, for a power superforest, the base
forest's eigenvalues with their Weyl error bound, is kept once per core
shape (see `hypergraph._shape_memo`), so one family member at r = 2..5
pays for one eigenproblem or one companion root-finding. ME and its
bound are summed from it on each call, held to that call's default_tol().
clear_polynomial_cache() forgets them all.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .hypergraph import HypergraphError, UniformHypergraph, _memo, _shape, _shape_memo
from .matching import _shape_counts
from .polynomial import SparsePolynomial

DEFAULT_TOL = 1e-10


def default_tol() -> float:
    """The tolerance: HG_TOL if set, else DEFAULT_TOL; ValueError unless
    it is finite and > 0. It is relative for the matching energy of a
    power superforest, whose error bound must be at most tol * ME, and
    absolute for the suites' numeric comparisons, where two values agree
    when they differ by at most 10 * tol."""
    env = os.environ.get("HG_TOL")
    try:
        tol = float(env) if env else DEFAULT_TOL
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError(f"HG_TOL must be a finite number > 0, got {env!r}")
    return tol


class RootFindingError(RuntimeError):
    """A root or a matching energy could not be had to its tolerance."""


def _evaluate(q: list[int], z):
    """q at z by Horner's rule. Float and complex products overflow to inf
    or nan without raising, so a value that is not finite raises
    OverflowError here."""
    value = 0.0
    for c in q:
        value = value * z + c
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"q at {z!r} is {value!r}")
    return value


def roots(q: list[int]) -> list[complex]:
    """All complex roots of the integer polynomial with coefficient list q,
    highest degree first (np.roots' convention), with multiplicity
    (repeated entries), sorted by (real, imag) for reproducible output.

    The eigenvalues of the companion matrix of q. They are backward
    stable (Edelman-Murakami, Math. Comp. 1995): each is a root of a
    polynomial whose coefficients are close to those of q, which bounds
    no root of q to default_tol(). Raises RootFindingError when the
    residual |q(z)| of a root exceeds 1e-6 of its coefficient scale, or
    when q overflows a float where it is evaluated.
    """
    if len(q) < 2 or not q[0]:
        raise ValueError("roots() needs a nonconstant q with q[0] != 0")
    sizes = [abs(c) for c in q]  # the coefficient scale at z is sizes at max(1, |z|)
    try:
        # the companion matrix that np.roots builds, without its checks
        p = np.array([float(c) for c in q])
        companion = np.eye(len(q) - 1, k=-1)
        companion[0] = -p[1:] / p[0]
        out = [complex(z) for z in np.linalg.eigvals(companion).tolist()]
        bad = [z for z in out if abs(_evaluate(q, z)) > 1e-6 * _evaluate(sizes, max(1.0, abs(z)))]
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"companion eigenvalues did not converge: {exc}") from exc
    except OverflowError as exc:
        raise RootFindingError(f"evaluating q of degree {len(q) - 1} overflows a float: {exc}") from exc
    if bad:
        raise RootFindingError(f"residual of {len(bad)} root(s) above 1e-6 of the coefficient scale")
    return sorted(out, key=lambda z: (z.real, z.imag))


def _cauchy_bound(q: SparsePolynomial) -> float:
    lead = abs(q.leading_coefficient())
    return 1.0 + max(abs(c) for _, c in q.terms()) / lead


def largest_real_root(q: SparsePolynomial) -> float:
    """Largest real root of q.

    Not on the path of spectral_radius, which needs no roots; it inherits
    the accuracy limits of roots() on q of high degree.

    Companion-matrix candidates locate it inside [0, 1 + max|coef|]; a
    sign-change bracket around the candidate is then shrunk by a
    bisection-safeguarded Newton iteration to machine precision. Without
    a local sign change (even multiplicity) the companion eigenvalue is
    returned as is, with no error bound.
    """
    all_roots = roots(q.to_dense())
    real = [z.real for z in all_roots if abs(z.imag) <= 1e-8 * max(1.0, abs(z))]
    if not real:
        raise RootFindingError("no real root found")
    y0 = max(real)
    dq = q.derivative()

    def f(t: float) -> float:
        return float(q.evaluate(t))

    bound = _cauchy_bound(q)
    sign_at_infinity = 1.0 if q.leading_coefficient() > 0 else -1.0
    step = max(1.0, abs(y0)) * 1e-3
    hi = y0 + step
    while f(hi) * sign_at_infinity <= 0 and hi <= bound + 1.0:
        hi += step
        step *= 2
    lo = None
    step = max(1.0, abs(y0)) * 1e-3
    for _ in range(8):
        cand = y0 - step
        if f(cand) * sign_at_infinity < 0:
            lo = cand
            break
        step /= 16
    if lo is None:
        # No sign change nearby: even-multiplicity top root; keep candidate.
        return y0
    # Newton with a bisection safeguard, driven to machine precision
    # (the tolerance is an upper bound on the error, not a target).
    width = min(default_tol(), 4e-16) * max(1.0, abs(y0))
    y = y0
    for _ in range(200):
        if hi - lo <= width:
            break
        d = float(dq.evaluate(y))
        y_newton = y - f(y) / d if d else None
        y = y_newton if y_newton is not None and lo < y_newton < hi else 0.5 * (lo + hi)
        fy = f(y)
        if fy == 0.0:
            return y
        if fy * sign_at_infinity < 0:
            lo = y
        else:
            hi = y
    return 0.5 * (lo + hi)


# Passes of the safeguarded Newton search before plain bisection takes
# over; on small supertrees about ten suffice when the search starts from
# its bound and three or four from a seed, twenty to thirty on a loose
# path of a thousand edges.
_MAX_PASSES = 100

# How far above a seed the first trial lies, relative to it (about 1e-9).
# Seeds from the roots of q of random supertrees with 4 to 40 edges were
# within 8e-12 of rho; with 50 to 150 edges a quarter were more than this
# below it, as companion roots of large q can be: the search then goes on
# from the bound it starts from without a seed.
_SEED_MARGIN = 2.0**-30


def _tree_pass(
    x: float,
    post: range,
    belows: tuple[tuple[tuple[int, ...], ...], ...],
    is_root: list[bool],
    r: int,
):
    """One bottom-up pass of R_w = x - sum_e prod_{u in e - w} 1/R_u,
    with its derivative D_w = 1 + sum_e (prod_u 1/R_u) sum_u D_u/R_u,
    over the core shape that rooted_superforest returns, children first.
    A degree-1 vertex has R = x and D/R = 1/x. An edge entered from w has
    k = r - 1 - len(below) of them, so they enter as the factor x^-k and
    the term k/x, read from one table by len(below): this is the only
    place where r meets the core.

    Returns None if R_w <= 0 at a vertex that is not a component root:
    then x <= rho and nothing more is known. Otherwise returns
    (above, lower, upper):

    * above: every R_w > 0, which holds exactly when x > rho.
    * lower: the largest Newton step x - R_c/D_c on the root R_c of a
      component. Where the other R_w of its component are positive, R_c
      is increasing and concave (each 1/R_u is positive, decreasing and
      convex, and so are their products), so this step lands at or
      below the top root of that component, from either side: lower is
      at most rho.
    * upper (None unless above): the largest Newton step on phi of a
      component, x - 1/sum_w D_w/R_w over its vertices (phi of a
      component is the product of its R_w). From above it lands near
      rho, and quadratically close once x is; it is a guess, not a
      bound.

    Every R_w is a composition of float operations that are each
    monotone, so it never decreases as x grows, and `above` changes
    only once along the floats.
    """
    p = 1.0
    fold = [(p, 0.0)]  # (x^-k, k/x) for k = 0..r-1, by divisions, which stay monotone
    for k in range(1, r):
        p /= x
        fold.append((p, k / x))
    fold.reverse()  # fold[j] for an edge with len(below) = j, so k = r - 1 - j
    n = len(is_root)
    big_r = [0.0] * n
    ratio = [0.0] * n  # D_w / R_w
    above = True
    lower = upper = total = 0.0
    for w in post:  # the vertices of a component, then its root
        s = x
        d = 1.0
        for below in belows[w]:
            p, t = fold[len(below)]
            total += t
            for u in below:
                p /= big_r[u]
                t += ratio[u]
            s -= p
            d += p * t
        if not is_root[w]:
            if s <= 0.0:
                return None
            big_r[w] = s
            ratio[w] = d / s
            total += ratio[w]
            continue
        lower = max(lower, x - s / d)
        if s <= 0.0:
            above = False
        else:
            upper = max(upper, x - 1.0 / (total + d / s))
        total = 0.0
    return above, lower, upper if above else None


def spectral_radius(hg: UniformHypergraph) -> float:
    """Largest root of the matching polynomial of a superforest, kept in
    the record of hg, found by _search_radius.

    The search starts from the largest |mu|^(1/r) of the roots mu of q
    when the record of hg's core shape has them (from matching_energy or
    spectral_summary of any input of that shape, at any r), and from its
    own bound otherwise: the same float either way. Never computes phi.
    An edgeless hypergraph has spectral radius 0; a hypergraph with a
    cycle raises HypergraphError. The result is accurate to the last
    bits of a float, so it takes no tolerance.
    """
    return _memo(hg, "rho", _seeded_radius)


def _seeded_radius(hg: UniformHypergraph) -> float:
    # the roots of q depend on the core shape alone, so they seed the
    # search at every r once any input of that shape has found them
    spectrum = _shape(hg).get("spectrum")
    q_roots = spectrum[0] if spectrum is not None else ()
    # rho^r is the largest |mu| (rho is the largest root of phi)
    seed = max(map(abs, q_roots)) ** (1.0 / hg.r) if q_roots else None
    return _search_radius(hg, seed)


def _search_radius(hg: UniformHypergraph, seed: float | None) -> float:
    """Largest root of the matching polynomial of a superforest.

    x > rho exactly when every R_w(x) = phi(T_w)/phi(T_w - w) of the
    rooted superforest is positive (Heilmann-Lieb, Godsil), so each pass
    of _tree_pass certifies x as an upper bound or refutes it. The
    bracket [refuted, certified] shrinks by Newton steps on phi from
    above and on the root's R from below, capped at the midpoint between
    the certified end and the best lower estimate, until its ends are
    adjacent floats; the certified end is returned. One pass covers every
    component.

    `seed`, an estimate of rho from the roots of q or None, moves only
    where the search starts: the first trial lies just above it, and
    becomes the refuted end if it is not certified. As the certified
    predicate is monotone in x, the result is the same float with or
    without a seed; seeds that are not finite and > 0, or not below the
    bound the search starts from without one, are ignored.
    """
    if not hg.edges:
        return 0.0
    roots, belows = _shape(hg)["shape"]
    post = range(len(belows) - 1, -1, -1)  # children before parents
    is_root = [False] * len(belows)
    for root in roots:
        is_root[root] = True
    # With every R_u >= c, R_w >= x - k / c^(r-1) for k child edges, so
    # x = c + k_max / c^(r-1), smallest at c^r = (r-1) k_max, is above rho.
    r = hg.r
    k_max = max(map(len, belows))
    c = ((r - 1) * k_max) ** (1.0 / r)
    hi = c + k_max / c ** (r - 1)
    lo = 0.0  # a leaf has R = x, so 0 is never above rho
    res = None
    x = seed * (1.0 + _SEED_MARGIN) if seed is not None else 0.0
    if 0.0 < x < hi:  # false for nan
        res = _tree_pass(x, post, belows, is_root, r)
        if res is not None and res[0]:
            hi = x
        else:
            lo = x
            res = None
    if res is None:
        res = _tree_pass(hi, post, belows, is_root, r)
        while res is None or not res[0]:  # only if rounding spoils the bound
            hi *= 2.0
            res = _tree_pass(hi, post, belows, is_root, r)
    above, lower, upper = res
    floor = 0.0  # the best lower estimate, not certified
    step = 0.0
    passes = 0
    while True:
        mid = 0.5 * (lo + hi)
        if passes >= _MAX_PASSES:  # plain bisection, should the steps stall
            x = mid
        elif above:
            floor = max(floor, lower)
            x = math.nextafter(hi, lo) if upper >= hi else min(upper, 0.5 * (max(lo, floor) + hi))
        elif lower is not None and lower > lo:
            x = lower
        elif lower is not None:  # R_c converged from below: step up from lo
            step = 2.0 * step if step else math.ulp(lo)
            x = min(lo + step, mid)
        else:
            x = mid
        if not lo < x < hi:
            x = mid
            if not lo < x < hi:
                return hi
        res = _tree_pass(x, post, belows, is_root, r)
        passes += 1
        above, lower, upper = res if res is not None else (False, None, None)
        if above:
            hi = x
        else:
            lo = x


def _base_forest(shape) -> tuple[int, list[list[int]]] | None:
    """The ordinary forest G with hg = G^(r), as (vertex count, edges) on a
    compact vertex index, or None unless hg is a power superforest.

    Read from the shape of hg's core (see `rooted_superforest`): each
    edge keeps its vertices of degree >= 2 (those below it, and the one
    it hangs from unless that is a root of degree 0 or 1), padded with
    its degree-1 vertices up to two. In a superforest two edges meet in
    at most one vertex, which has degree >= 2 and so is kept, so G has
    the same edge-intersection graph, hence the same matching counts, as
    hg."""
    roots, belows = shape
    inner = [True] * len(belows)  # of degree >= 2
    for root in roots:
        inner[root] = len(belows[root]) >= 2
    index = list(accumulate(inner, initial=0))  # G's vertex of each core index of degree >= 2
    size = index.pop()
    pairs = []
    for w, below_w in enumerate(belows):
        for below in below_w:
            pair = [index[u] for u in below]
            if inner[w]:
                pair.append(index[w])
            if len(pair) > 2:
                return None
            while len(pair) < 2:  # a degree-1 vertex of the edge
                pair.append(size)
                size += 1
            pairs.append(pair)
    return size, pairs


_EPS = float(np.finfo(float).eps)


def _power_spectrum(nu: int, size: int, pairs) -> tuple[tuple[complex, ...], list[float], float, float]:
    """The spectrum (see `_spectrum`) of G^(r), for the forest G on `size`
    vertices with edges `pairs` and matching number nu, from G's
    eigenvalues.

    For a forest G, phi(G) is the characteristic polynomial of its
    adjacency matrix (Godsil-Gutman), and G^(r) has the q of G, so the
    roots of q are the squares of the nu positive eigenvalues lam of G
    and ME = r * sum lam^(2/r). By Weyl's inequality each computed
    eigenvalue is within delta = 4 size eps lam_max of the true one.
    Raises RootFindingError when the nu-th eigenvalue is within 2 delta
    of zero."""
    adj = np.zeros(size * size)
    adj[[a * size + b for a, b in pairs] + [b * size + a for a, b in pairs]] = 1.0
    eig = np.linalg.eigvalsh(adj.reshape(size, size)).tolist()
    lam = eig[size - nu :]
    delta = 4.0 * size * _EPS * eig[-1]
    if lam[0] <= 2.0 * delta:
        raise RootFindingError(
            f"smallest positive eigenvalue {lam[0]:.3g} of the base forest is within "
            f"twice its error bound {delta:.3g}"
        )
    return tuple(complex(x * x) for x in lam), lam, 2.0, delta


def _spectrum(shape, counts) -> tuple[tuple[complex, ...], list[float], float, float | None]:
    """What the matching energy needs of a core shape with matching counts
    `counts`, at any r: (q_roots, values, power, delta), the roots mu of
    q and values v with ME = r * sum v^(power/r). For a power
    superforest the values are the eigenvalues lam of the base forest
    (power 2), each within delta of the true one; otherwise they are
    the moduli |mu| of the companion roots of q (power 1), with no
    error bound (delta None)."""
    # q's coefficients, highest degree first, are phi's: (-1)^k m(H,k)
    q = [-c if k & 1 else c for k, c in enumerate(counts)]
    base = _base_forest(shape)
    if base is not None:
        return _power_spectrum(len(q) - 1, *base)
    q_roots = tuple(roots(q))
    return q_roots, [abs(mu) for mu in q_roots], 1.0, None


def _energy(hg: UniformHypergraph, tol: float) -> tuple[tuple[complex, ...], float]:
    """The roots of q (phi = x^z q(x^r)) and ME = r * sum v^(power/r),
    read from the spectrum of hg's core shape (see `_spectrum`), which is
    found once for every r. With each eigenvalue lam of a base forest
    within delta of the true one, the error of ME is at most
    2 delta sum lam^(2/r) / (lam - delta); RootFindingError is raised,
    on every call, when that bound exceeds tol * ME."""
    if not hg.edges:
        return (), 0.0
    q_roots, values, power, delta = _shape_memo(hg, "spectrum", lambda shape: _spectrum(shape, _shape_counts(hg)))
    r = hg.r
    terms = [v ** (power / r) for v in values]
    me = r * math.fsum(terms)
    if delta is not None:
        bound = 2.0 * delta * math.fsum(t / (v - delta) for t, v in zip(terms, values))
        if bound > tol * me:
            raise RootFindingError(f"matching energy {me!r} is only certain to {bound:.3g}")
    return q_roots, me


def matching_energy(hg: UniformHypergraph) -> float:
    """Sum of |x_i| over all roots of phi. For a power superforest it
    comes from the eigenvalues of the base forest and is certified to
    default_tol(); any other superforest takes the companion roots of the
    reduced q, which carry no error bound. Raises RootFindingError when
    either route fails its check."""
    return _energy(hg, default_tol())[1]


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


@dataclass(frozen=True)
class SpectralSummary:
    """Numeric spectral radius, matching energy, and the q-root multiset."""

    rho: float
    me: float
    q_roots: tuple[complex, ...]
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "rho": _sig15(self.rho),
            "me": _sig15(self.me),
            "tol": _sig15(self.tol),
            "q_roots": [
                {"re": _sig15(z.real), "im": _sig15(z.imag)} for z in self.q_roots
            ],
        }


def spectral_summary(hg: UniformHypergraph) -> SpectralSummary:
    """The roots of q once, for ME (as lam^2 for the eigenvalues lam of
    the base forest of a power superforest), then rho from the tree
    recursion, whose search starts from those roots. The roots change
    where the search starts, not its result: rho is the same float that
    spectral_radius(hg) returns on its own."""
    tol = default_tol()
    q_roots, me = _energy(hg, tol)
    return SpectralSummary(rho=spectral_radius(hg), me=me, q_roots=q_roots, tol=tol)


# -- exact characteristic polynomial for ordinary forests -----------------


def _char_poly_exact(rows: list[list[int]]) -> SparsePolynomial:
    """Characteristic polynomial of a nonnegative integer matrix A whose
    row i is given as a list holding each column j A_ij times (for a 0/1
    adjacency matrix, the neighbour lists), via the Faddeev-LeVerrier
    recurrence; all divisions are exact over the integers, so the result
    is exact. Row i of A.M is the sum of the rows of M that row i lists,
    so each step costs O(n * total row length), which is O(n^2) for the
    adjacency matrix of a forest."""
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


def _tree_char_poly(tree: UniformHypergraph) -> SparsePolynomial:
    """Adjacency characteristic polynomial of an ordinary tree (r = 2).

    The tree is bipartite: with the a vertices of one colour class first,
    A = [[0, B], [B^T, 0]] and det(xI - A) = x^(n-2a) det(x^2 I - B B^T).
    C = B B^T counts the common neighbours of two vertices of that class,
    so row i of C lists, for each neighbour w of vertex i, every
    neighbour of w: the rows of a class hold as many entries as the
    squared degrees of the other class sum to. Faddeev-LeVerrier takes a
    steps on C, each a times that many, so it runs on the class where a
    squared times that sum is smaller (the smaller class on a tie)."""
    neighbours: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour = [0] + [-1] * (tree.n - 1)
    stack = [0]
    while stack:
        v = stack.pop()
        for w in neighbours[v]:
            if colour[w] < 0:
                colour[w] = 1 - colour[v]
                stack.append(w)
    even, odd = ([v for v in range(tree.n) if colour[v] == c] for c in (0, 1))

    def cost(side, other):
        return len(side) ** 2 * sum(len(neighbours[w]) ** 2 for w in other), len(side)

    side = even if cost(even, odd) <= cost(odd, even) else odd
    index = {v: i for i, v in enumerate(side)}
    rows = [[index[u] for w in neighbours[v] for u in neighbours[w]] for v in side]
    shift = tree.n - 2 * len(side)
    return SparsePolynomial({shift + 2 * e: c for e, c in _char_poly_exact(rows).terms()})


def tree_char_poly(hg: UniformHypergraph) -> SparsePolynomial:
    """Adjacency characteristic polynomial of an ordinary forest (r = 2,
    or no edges at all, whatever r is declared), kept in the record of
    hg.

    Computed independently of the matching machinery, as an exact second
    oracle: for forests it coincides with the matching polynomial.
    """
    if hg.r != 2 and hg.edges:
        raise HypergraphError(f"characteristic-polynomial bridge needs r = 2, got r = {hg.r}")
    return _memo(hg, "char_poly", _forest_char_poly)


def _forest_char_poly(hg: UniformHypergraph) -> SparsePolynomial:
    """The product over the components, each kept in its own record.
    Components are renumbered order-preservingly, so a component met
    again, in hg or in another input, is an equal value and is served
    from its record. A connected hg is its own one component: its entry
    is filled by _tree_char_poly, with no call back into this function."""
    out = SparsePolynomial.one()
    for comp in hg.components():
        if comp.num_edges != comp.n - 1:
            raise HypergraphError("not a forest: a component has a cycle")
        out = out * _memo(comp, "char_poly", _tree_char_poly)
    return out
