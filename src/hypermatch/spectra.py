"""Numeric layer: spectral radius, matching energy, polynomial roots,
and the exact characteristic-polynomial bridge for ordinary forests.
What each result is kept with is stated in `hypergraph`'s module
docstring, and how it is computed in the docstring of the function
that computes it: `_search_radius` for rho, `_energy` for ME. The
exact bridge, `tree_char_poly`, finds every tree of a forest and its two
colour classes in one breadth-first walk, and runs the Faddeev-LeVerrier
recurrence on B B^T, for B the biadjacency matrix of one class of each
tree, on rows packed into big integers (see `_char_poly_exact`).

This is the only module that imports numpy. When that import is the one
that loads numpy, and none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS
and OMP_NUM_THREADS is set, OpenBLAS starts with one thread (see the
comment at the import).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from itertools import accumulate, chain

# OpenBLAS starts its thread pool, one thread per core, when numpy loads,
# and starting a second thread costs more than it saves on the matrices
# handed to LAPACK here. So when this import is the one that loads numpy,
# and the caller has set no thread count, OpenBLAS starts with one thread.
# The variable is removed right after, so later code and child processes
# see the environment as it was.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules or any(name in os.environ for name in _THREAD_VARIABLES):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .hypergraph import _CACHE, HypergraphError, UniformHypergraph, _shape, _tree_memo
from .matching import _shape_counts, _tree_counts
from .polynomial import SparsePolynomial, _from_terms

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
# over, should the steps stall. It caps a search that goes wrong, not one
# that converges: on loose paths, W and random supertrees at r = 2, 3 and 5
# with up to 800 edges, and on 300 random supertrees with up to 40, the
# longest search took 19 passes from its bound and 15 from a seed.
_MAX_PASSES = 100

# How far above a seed the first trial lies, relative to it (about 1e-9).
# Seeds from the roots of q of random supertrees with 4 to 40 edges were
# within 5e-11 of rho^r, relative; with 50 to 150 edges 45 of 150 were
# more than this below it, as companion roots of large q can be: the
# search then goes on from the bound it starts from without a seed.
_SEED_MARGIN = 2.0**-30


def _tree_pass(y: float, belows: tuple[tuple[tuple[int, ...], ...], ...]):
    """One bottom-up pass of T_w = 1 - (1/y) sum_e prod_{u in below_e} 1/T_u
    and D_w = dT_w/dy = (1/y) sum_e (prod_u 1/T_u) (1/y + sum_u D_u/T_u)
    over one supertree's core shape `belows` (see rooted_superforest),
    children first, so the root 0 last. At y = x^r, T_w = R_w/x for
    R_w = phi(H_w)/phi(H_w - w), H_w the branch at w: each of an edge's
    r - 1 other vertices gives a factor 1/x, and a degree-1 vertex has
    R = x, so T = 1. r does not appear.

    Returns (above, lower, upper):

    * above: every T_w > 0, which holds exactly when y > rho^r.
    * lower: None, as is upper, if T_w <= 0 at a vertex other than the
      root: the pass stops there, since then y <= rho^r and nothing more
      is known. Otherwise the Newton step y - T_0/D_0 on the root's T.
      Where the other T_w are positive, T_0 is increasing and concave
      (1/y and each 1/T_u are positive, decreasing and convex, and so
      are their products), so this step lands at or below the top root,
      from either side: lower is at most rho^r.
    * upper (None unless above): the Newton step on the product of the
      T_w, whose positive roots are those of q: y - 1/sum_w D_w/T_w. From
      above it lands near rho^r, and quadratically close once y is; it
      is a guess, not a bound.

    Every T_w is a composition of float operations that are each
    monotone, so it never decreases as y grows, and `above` changes
    only once along the floats.
    """
    inv = 1.0 / y
    big_t = [0.0] * len(belows)
    ratio = [0.0] * len(belows)  # D_w / T_w
    total = 0.0
    for w in range(len(belows) - 1, -1, -1):  # each has an edge below it
        s = 1.0
        d = 0.0
        for below in belows[w]:
            p = t = inv
            for u in below:
                p /= big_t[u]
                t += ratio[u]
            s -= p
            d += p * t
        if s <= 0.0:
            return False, y - s / d if not w else None, None
        big_t[w] = s
        ratio[w] = d / s
        total += ratio[w]
    return True, y - s / d, y - 1.0 / total


def spectral_radius(hg: UniformHypergraph) -> float:
    """Largest root of the matching polynomial of a superforest: top **
    (1/r) for the top root `top` of q (phi = x^z q(x^r)), which depends
    on the core shape alone. For each tree of hg, `top` of its core shape
    is found by _search_radius and kept in that tree shape's record under
    "top_root", once for every r and for every union that holds the
    tree; hg's is the largest of them. The ** (1/r), by the C library's
    pow, is the one place where r meets rho.

    A tree's search starts from the largest |mu| of the roots mu of q of
    its own shape when its record has them (from matching_energy or
    spectral_summary of any input of that shape, at any r), else from
    those of hg's forest record, else from its own bound: the same float
    either way. Never computes phi. An edgeless hypergraph has spectral
    radius 0; a hypergraph with a cycle raises HypergraphError. The
    result is accurate to the last bits of a float, so it takes no
    tolerance.
    """
    rec = _shape(hg)
    top = rec.get("top_root")
    if top is None:
        seed = _top_mu(rec)
        top = rec["top_root"] = max((_tree_top(tree, seed) for tree in rec.get("parts", (rec,))), default=0.0)
    return top ** (1.0 / hg.r)


def _top_mu(rec: dict) -> float | None:
    """The largest |mu| of the roots mu of q kept in a shape's record, or
    None: an estimate of rho^r."""
    spectrum = rec.get("spectrum")
    return None if spectrum is None else max(map(abs, spectrum[0]), default=None)


def _tree_top(tree: dict, seed: float | None) -> float:
    """rho^r of a tree shape's record, kept there, searched from its own
    spectrum's largest |mu| when the record has one, else from seed."""
    top = tree.get("top_root")
    if top is None:
        own = _top_mu(tree)
        top = tree["top_root"] = _search_radius(tree["shape"], seed if own is None else own)
    return top


def _search_radius(belows, seed: float | None) -> float:
    """rho^r, the top root of q, of the supertrees with core shape
    `belows` (see `rooted_superforest`), root 0, at every r; 0.0 when it
    has no edge.

    y > rho^r exactly when every T_w(y) of _tree_pass is positive, as
    x > rho exactly when every R_w(x) is (Heilmann-Lieb, Godsil), so
    each pass certifies y as an upper bound or refutes it. The bracket
    [refuted, certified] shrinks by Newton steps on the product of the
    T_w from above and on the root's T from below, capped at the
    midpoint between the certified end and the best lower estimate,
    until its ends are adjacent floats; the certified end is returned.
    A superforest's rho^r is its trees' largest: its certified
    predicate is the AND of theirs, so that is the same float a search
    over the whole forest would return.

    The search starts at y = k_max (b + 1)^(b + 1) / b^b, for at most
    k_max edges below a vertex and b vertices below an edge: with every
    T_u >= t, T_w >= 1 - k_max t^-b / y, which is t at t = b / (b + 1),
    so every T_w > 0. At b = 0 that y is rho^r itself, and t = 1/2
    gives y = 2 k_max.

    `seed`, an estimate of rho^r or None, moves only where the search
    starts: the first trial lies just above it when that is > 0 and
    below the bound, and is the bound otherwise. A refuted trial becomes
    the refuted end, and the next trial is the bound; only a refuted
    bound, which rounding alone can cause, is doubled. As the certified
    predicate is monotone in y, the result is the same float with or
    without a seed.
    """
    k_max = max(map(len, belows), default=0)
    if not k_max:
        return 0.0
    b = max((len(below) for below_w in belows for below in below_w), default=0)
    hi = k_max * (b + 1) ** (b + 1) / b**b if b else 2.0 * k_max
    lo = 0.0  # T is below 0 as y falls to 0, so 0 is never above rho^r
    y = seed * (1.0 + _SEED_MARGIN) if seed is not None else 0.0
    if not 0.0 < y < hi:  # true for nan
        y = hi
    while True:
        above, lower, upper = _tree_pass(y, belows)
        if above:
            break
        lo = y
        y = hi if y < hi else 2.0 * y
    hi = y
    floor = 0.0  # the best lower estimate, not certified
    step = 0.0
    passes = 0
    while True:
        mid = 0.5 * (lo + hi)
        if passes >= _MAX_PASSES:  # plain bisection, should the steps stall
            y = mid
        elif above:
            floor = max(floor, lower)
            y = math.nextafter(hi, lo) if upper >= hi else min(upper, 0.5 * (max(lo, floor) + hi))
        elif lower is not None and lower > lo:
            y = lower
        elif lower is not None:  # T_c converged from below: step up from lo
            step = 2.0 * step if step else math.ulp(lo)
            y = min(lo + step, mid)
        else:
            y = mid
        if not lo < y < hi:
            y = mid
            if not lo < y < hi:
                return hi
        above, lower, upper = _tree_pass(y, belows)
        passes += 1
        if above:
            hi = y
        else:
            lo = y


def _base_forest(belows) -> tuple[int, list[list[int]]] | tuple[()]:
    """The ordinary tree G with hg = G^(r), as (vertex count, edges) on a
    compact vertex index, or () unless the supertree hg is a power.

    Read from the shape `belows` of hg's core (see `rooted_superforest`),
    root 0: each edge keeps its vertices of degree >= 2 (those below it,
    and the one it hangs from unless that is a root of degree 1), padded
    with its degree-1 vertices up to two. In a supertree two edges meet
    in at most one vertex, which has degree >= 2 and so is kept, so G
    has the same edge-intersection graph, hence the same matching
    counts, as hg."""
    inner = [True] * len(belows)  # of degree >= 2
    inner[0] = len(belows[0]) >= 2
    index = list(accumulate(inner, initial=0))  # G's vertex of each core index of degree >= 2
    size = index.pop()
    pairs = []
    for w, below_w in enumerate(belows):
        for below in below_w:
            pair = [index[u] for u in below]
            if inner[w]:
                pair.append(index[w])
            if len(pair) > 2:
                return ()
            while len(pair) < 2:  # a degree-1 vertex of the edge
                pair.append(size)
                size += 1
            pairs.append(pair)
    return size, pairs


_EPS = float(np.finfo(float).eps)


def _power_spectrum(nu: int, size: int, pairs) -> tuple[tuple[complex, ...], list[float], float, float]:
    """The spectrum (see `_spectrum`) of G^(r), for the forest G on `size`
    vertices with edges `pairs` and matching number nu, from the singular
    values of G's biadjacency matrix.

    For a forest G, phi(G) is the characteristic polynomial of its
    adjacency matrix (Godsil-Gutman), and G^(r) has the q of G, so the
    roots of q are the squares of the nu positive eigenvalues lam of G
    and ME = r * sum lam^(2/r). G is bipartite: with one colour class as
    the rows of B and the other as its columns, the adjacency matrix is
    [[0, B], [B^T, 0]], whose positive eigenvalues are the nonzero
    singular values of B (Golub-Kahan), nu of them. So lam are the nu
    largest singular values of B, a problem of half the order, returned
    ascending. By Weyl's inequality, which holds for singular values
    too, each computed value is within delta = 4 size eps lam_max of the
    true one. Raises RootFindingError when the nu-th is within 2 delta
    of zero."""
    colour = [-1] * size
    for a, b in pairs:  # parents first, so at most one end is coloured yet
        if colour[a] < 0:
            colour[a] = 1 - colour[b] if colour[b] >= 0 else 0
        colour[b] = 1 - colour[a]
    at = [0] * size  # each vertex's row (colour 0) or column (colour 1) of B
    count = [0, 0]
    for v, c in enumerate(colour):
        at[v] = count[c]
        count[c] += 1
    rows, cols = count
    biadj = np.zeros(rows * cols)
    biadj[[at[a] * cols + at[b] if colour[a] == 0 else at[b] * cols + at[a] for a, b in pairs]] = 1.0
    sv = np.linalg.svd(biadj.reshape(rows, cols), compute_uv=False).tolist()
    lam = sv[nu - 1 :: -1]
    delta = 4.0 * size * _EPS * sv[0]
    if lam[0] <= 2.0 * delta:
        raise RootFindingError(
            f"smallest positive eigenvalue {lam[0]:.3g} of the base forest is within "
            f"twice its error bound {delta:.3g}"
        )
    return tuple(complex(x * x) for x in lam), lam, 2.0, delta


def _companion_spectrum(counts) -> tuple[tuple[complex, ...], list[float], float, None]:
    """The spectrum (see `_spectrum`) of a superforest with matching
    counts `counts` that is no power of a forest: the companion roots of
    q, with no error bound."""
    # q's coefficients, highest degree first, are phi's: (-1)^k m(H,k)
    q_roots = tuple(roots([-c if k & 1 else c for k, c in enumerate(counts)]))
    return q_roots, [abs(mu) for mu in q_roots], 1.0, None


def _spectrum(hg: UniformHypergraph) -> tuple[tuple[complex, ...], list[float], float, float | None]:
    """What the matching energy needs of hg's core shape, at any r:
    (q_roots, values, power, delta), the roots mu of q and values v with
    ME = r * sum v^(power/r), kept in the record of hg's tree shape, or,
    for a forest, in hg's own record. For a power superforest the values
    are the positive eigenvalues lam of the base forest (power 2), taken
    as the singular values of its biadjacency matrix (see
    `_power_spectrum`), each within delta of the true one; otherwise
    they are the moduli |mu| of the companion roots of q (power 1), with
    no error bound (delta None). None of it depends on
    r, and root finding on the degree-nu q is far better conditioned than
    on phi with its zero cluster.

    A forest whose trees are all powers merges their spectra, each kept
    in its tree's record, with the largest delta: the eigenvalues of a
    forest are its trees'. Any other forest takes the companion roots of
    its whole q, as one input: companion roots carry no bound, and
    found per tree instead they move the ME of one side of a suite
    case against the other's, past the suites' tolerance in some bridge
    cases at the CLI defaults (ROADMAP item 1)."""
    rec = _shape(hg)
    parts = rec.get("parts")
    if parts is None:
        return _tree_spectrum(rec)
    spectrum = rec.get("spectrum")
    if spectrum is None:
        trees = [tree for tree in parts if tree["shape"][0]]  # those with an edge
        if all(map(_base, trees)):
            spectra = [_tree_spectrum(tree) for tree in trees]
            values = sorted(chain.from_iterable(values for _, values, _, _ in spectra))
            delta = max(delta for _, _, _, delta in spectra)
            spectrum = tuple(complex(x * x) for x in values), values, 2.0, delta
        else:
            spectrum = _companion_spectrum(_shape_counts(hg))
        rec["spectrum"] = spectrum
    return spectrum


def _base(tree: dict) -> tuple[int, list[list[int]]] | tuple[()]:
    """`_base_forest` of a tree shape's record, kept there."""
    return _tree_memo(tree, "base", _base_forest)


def _tree_spectrum(tree: dict):
    """The spectrum (see `_spectrum`) of a tree shape's record with an
    edge, kept there."""

    def compute(shape):
        counts, base = _tree_counts(tree), _base(tree)
        return _power_spectrum(len(counts) - 1, *base) if base else _companion_spectrum(counts)

    return _tree_memo(tree, "spectrum", compute)


def _energy(hg: UniformHypergraph, tol: float) -> tuple[tuple[complex, ...], float]:
    """The roots of q (phi = x^z q(x^r)) and ME = r * sum v^(power/r),
    read from the spectrum of hg's core shape (see `_spectrum`), which is
    found once for every r. ME is the sum of |x_i| over all roots of
    phi: each nonzero root mu of q yields exactly r roots of phi of
    modulus |mu|^(1/r), and the zero root adds nothing, hence
    ME = r * sum |mu|^(1/r). With each eigenvalue lam of a base forest
    within delta of the true one, the error of ME is at most
    2 delta sum lam^(2/r) / (lam - delta); RootFindingError is raised,
    on every call, when that bound exceeds tol * ME."""
    if not hg.edges:
        return (), 0.0
    q_roots, values, power, delta = _spectrum(hg)
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
    comes from the positive adjacency eigenvalues of the base forest,
    taken as the singular values of its biadjacency matrix, and is
    certified to default_tol(); any other superforest takes the companion
    roots of the reduced q, which carry no error bound. Raises
    RootFindingError when either route fails its check."""
    return _energy(hg, default_tol())[1]


@dataclass(frozen=True)
class SpectralSummary:
    """Numeric spectral radius, matching energy, and the q-root multiset.
    `to_json_dict` keeps every float as it is, so its JSON text reads back
    as the same floats."""

    rho: float
    me: float
    q_roots: tuple[complex, ...]
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "me": self.me,
            "tol": self.tol,
            "q_roots": [{"re": z.real, "im": z.imag} for z in self.q_roots],
        }


def spectral_summary(hg: UniformHypergraph) -> SpectralSummary:
    """The roots of q once, for ME (as lam^2 for the singular values lam
    of the base forest of a power superforest), then rho from the tree
    recursion, whose search starts from those roots. The roots change
    where the search starts, not its result: rho is the same float that
    spectral_radius(hg) returns on its own."""
    tol = default_tol()
    q_roots, me = _energy(hg, tol)
    return SpectralSummary(rho=spectral_radius(hg), me=me, q_roots=q_roots, tol=tol)


# -- exact characteristic polynomial for ordinary forests -----------------


def _char_poly_exact(rows: list[list[int]]) -> SparsePolynomial:
    """det(xI - C) for C = B B^T, B an integer matrix, with row i of C
    given as a list holding each column j C_ij times (C_ij >= 0, as for
    the 0/1 biadjacency matrix B of a forest), via the Faddeev-LeVerrier
    recurrence M_0 = I, M_k = C M_(k-1) + c_k I, c_k = -tr(C M_(k-1)) / k.
    Every division is exact over the integers, so the result is exact.

    Each row of M_k is one int, W-bit signed slots of its entries
    (Kronecker substitution, as in `matching._count_pass`). Row i of
    C M is the sum of the rows of M that row i of C lists, one big-int
    addition each, and its diagonal slot is read with one biased shift
    and mask. The sum is exact whatever its partial sums hold; only the
    entries it ends with must fit their slots, so a step costs
    O(n * W * total row length) bit operations.

    W is proven from C. Write C = sum_i lam_i u_i u_i^T with every
    lam_i >= 0 (C is positive semidefinite) and orthonormal u_i. The M_k
    are the coefficients of adj(xI - C) = sum_i prod_(l != i)
    (x - lam_l) u_i u_i^T, so M_k = (-1)^k sum_i w_i u_i u_i^T with
    w_i = e_k(lam without lam_i), and C M_k the same with lam_i w_i. Each
    weight is >= 0 and at most e_k or e_(k+1) of all lam, which is at most
    prod_l (1 + lam_l) = det(I + C). By Cauchy-Schwarz
    sum_i |u_i[a] u_i[b]| <= 1, so no entry of M_k or of C M_k exceeds
    det(I + C) in absolute value, and by Hadamard's inequality for the
    positive definite I + C that is at most P = prod_i (1 + C_ii). W is
    P.bit_length() + 1. The bound covers Gram matrices B B^T alone: an
    adjacency or edge-cycle matrix is not positive semidefinite, and
    its entries can outgrow the slots."""
    n = len(rows)
    width = math.prod(1 + row.count(i) for i, row in enumerate(rows)).bit_length() + 1
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    shifts = range(0, n * width, width)  # of each row's diagonal slot
    bias = half * ((1 << (n * width)) - 1) // mask  # half in every slot, so none borrows
    m = [1 << s for s in shifts]  # M_0 = I
    coeffs = {n: 1}
    for k in range(1, n + 1):
        m = [sum(map(m.__getitem__, row)) for row in rows]  # C M_(k-1)
        trace = sum(((row + bias) >> s) & mask for row, s in zip(m, shifts)) - n * half
        assert trace % k == 0
        ck = -(trace // k)
        coeffs[n - k] = ck
        m = [row + (ck << s) for row, s in zip(m, shifts)]
    return _from_terms(coeffs)


def tree_char_poly(hg: UniformHypergraph) -> SparsePolynomial:
    """Adjacency characteristic polynomial of an ordinary forest (r = 2,
    or no edges at all, whatever r is declared), the product of its
    trees', each kept in the oracle's table (see `_forest_char_poly`).

    Computed independently of the matching machinery, as an exact second
    oracle: for forests it coincides with the matching polynomial.
    """
    if hg.r != 2 and hg.edges:
        raise HypergraphError(f"characteristic-polynomial bridge needs r = 2, got r = {hg.r}")
    return _forest_char_poly(hg)


def _forest_char_poly(hg: UniformHypergraph) -> SparsePolynomial:
    """The product of x^i, for the i isolated vertices, and the
    characteristic polynomial of each tree of hg, found with its two
    colour classes by one breadth-first walk from its lowest vertex.

    Each tree's polynomial is kept in the oracle's table, the cache entry
    "char_poly", keyed by the tree's edge tuple renumbered in vertex
    order, so a tree met again, in hg or in another input, is served
    from the table. A tree on n vertices is bipartite: with its a
    vertices of one colour class as the rows of B, A = [[0, B], [B^T, 0]]
    and det(xI - A) = x^(n-2a) det(x^2 I - B B^T).
    C = B B^T counts the common neighbours of two vertices of that class,
    so row v of C lists, for each neighbour w of v, every neighbour of
    w: the rows of a class hold as many entries as the squared degrees
    of the other class sum to. `_char_poly_exact` takes a steps on C,
    each a times that many, so it runs on the class where a squared
    times that sum is smaller (the smaller class on a tie, and the class
    of the tree's lowest vertex if the sizes tie too)."""
    neighbours: list[list[int]] = [[] for _ in range(hg.n)]
    for a, b in hg.edges:  # sorted: a vertex's lower neighbours come first, each part ascending
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour = [-1] * hg.n
    at = [0] * hg.n  # a vertex's index in its tree, then in its colour class
    table = _CACHE.setdefault("char_poly", {})
    out = None
    isolated = 0
    for root in range(hg.n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        if not neighbours[root]:
            isolated += 1
            continue
        tree = [root]
        for v in tree:  # breadth first: the list grows as it is read
            for w in neighbours[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    tree.append(w)
        if sum(len(neighbours[v]) for v in tree) != 2 * (len(tree) - 1):
            raise HypergraphError("not a forest: a component has a cycle")
        tree.sort()
        for i, v in enumerate(tree):
            at[v] = i
        # the tree's sorted edge tuple, renumbered in vertex order
        key = tuple((at[a], at[b]) for a in tree for b in neighbours[a] if b > a)
        chi = table.get(key)
        if chi is None:
            even, odd = ([v for v in tree if colour[v] == c] for c in (0, 1))
            cost = [len(side) ** 2 * sum(len(neighbours[w]) ** 2 for w in other)
                    for side, other in ((even, odd), (odd, even))]
            side = even if (cost[0], len(even)) <= (cost[1], len(odd)) else odd
            for i, v in enumerate(side):
                at[v] = i
            rows = [[at[u] for w in neighbours[v] for u in neighbours[w]] for v in side]
            shift = len(tree) - 2 * len(side)
            chi = _from_terms({shift + 2 * e: c for e, c in _char_poly_exact(rows).terms()})
            table[key] = chi
        out = chi if out is None else out * chi
    if out is None:
        return _from_terms({isolated: 1})
    return out.shift(isolated) if isolated else out
