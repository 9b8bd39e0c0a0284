"""Cospectrality suites: machine-checked runs of the coalescence,
bridging, and path/double-pendant constructions.

Each suite builds both sides of an identity and hands them to
`check_cospectral`, which decides the case, and then ANDs its own
conditions into the case's verdict. Suites are deterministic given
(seed, ranges, HG_TOL), and a report's JSON is byte-for-byte
reproducible (see `SuiteReport.to_json_dict`).

Suites meet the same input, its trees, or its core shape at another r,
more than once: path-w's lhs at (m, n) is its rhs at (n, m), and its 50
sides at one r hold 10 trees (5 loose paths, 5 W), neighbouring cases of
coalesce's chain share a side, bridge's unions at m = 1 are the bridged
objects themselves and its unions at m >= 2 hold them as trees, and
every suite runs each r. The cache of `hypergraph` keeps every result of
a tree with the tree's core shape, and serves each repeat from its
record; a forest's results are assembled from its trees' records, once
per input.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import zip_longest

from .families import (
    bridge,
    coalesce,
    coalesce_mixed,
    family_r,
    family_w,
    loose_path,
    random_supertree,
)
from .hypergraph import UniformHypergraph, _integer, _shared_edge_size, are_isomorphic, disjoint_union
from .matching import _product, _shape_counts, matching_polynomial
from .polynomial import _json_dict
from .spectra import (
    DEFAULT_TOL,
    RootFindingError,
    _energy,
    default_tol,
    spectral_radius,
    tree_char_poly,
)

SCHEMA_VERSION = 1
DEFAULT_RS = (2, 3, 4, 5)


@dataclass
class SuiteReport:
    suite_name: str
    cases: list[dict] = field(default_factory=list)
    passed: bool = True
    elapsed: float = 0.0
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        # elapsed is intentionally excluded: reports must be byte-for-byte
        # reproducible across runs with the same seed and ranges.
        return {
            "schema": SCHEMA_VERSION,
            "suite_name": self.suite_name,
            "passed": self.passed,
            "notes": self.notes,
            "cases": self.cases,
        }

    def to_json(self) -> str:
        # compact: json.dumps takes its C encoder only without indent
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def human_table(self) -> str:
        lines = [f"suite {self.suite_name}: {len(self.cases)} case(s)"]
        header = f"{'case':<44} {'phi':<4} {'|drho|':<9} {'|dme|':<9} {'iso':<5} verdict"
        lines.append(header)
        lines.append("-" * len(header))
        for case in self.cases:
            name = _case_name(case["params"])
            drho = abs(case["rho_lhs"] - case["rho_rhs"])
            me = (case["me_lhs"], case["me_rhs"])
            dme = "-" if None in me else f"{abs(me[0] - me[1]):.1e}"
            iso = case.get("isomorphic")
            iso_s = "-" if iso is None else ("yes" if iso else "no")
            verdict = "ok" if case["passed"] else "FAIL"
            phi_s = "==" if case["phi_equal"] else "!="
            lines.append(
                f"{name:<44} {phi_s:<4} {drho:<9.1e} {dme:<9} {iso_s:<5} {verdict}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(
            f"suite {self.suite_name}: {'PASS' if self.passed else 'FAIL'}"
            f" (elapsed {self.elapsed:.2f}s)"
        )
        return "\n".join(lines)


def _case_name(params: dict) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= 10 * tol


def _phi(hg: UniformHypergraph) -> tuple[int, tuple[int, ...]]:
    """phi of a superforest as (n, its counts m(H,0..nu)): at one r, or
    with a side edgeless (phi = x^n), equal exactly when phi is."""
    return hg.n, _shape_counts(hg)


def _phi_json(r: int, n: int, counts: tuple[int, ...]) -> dict:
    """The JSON form of phi = sum_k (-1)^k m(H,k) x^(n - k r)."""
    return _json_dict((n - k * r, -c if k & 1 else c) for k, c in enumerate(counts))


def check_cospectral(
    lhs: UniformHypergraph,
    rhs: UniformHypergraph,
    check_isomorphism: bool = False,
) -> dict:
    """One decided cospectrality case: exact phi comparison (see `_phi`)
    plus spectral radius and matching energy computed on each side.

    "passed" holds when phi is equal and rho and ME each differ by at
    most 10 * tol, an absolute difference, for the tol of default_tol(),
    read once per case. For r = 2 (the edge size the two sides share)
    each side's exact adjacency characteristic polynomial must equal its
    phi, and the phis each other, as "char_equal": a phi wrong alike on
    both sides fails there. A side whose matching energy raises
    RootFindingError gets ME None and fails the case, with the message
    under "error". Callers AND their own conditions into "passed".
    """
    r = _shared_edge_size(lhs, rhs)
    tol = default_tol()
    phi_l, phi_r = _phi(lhs), _phi(rhs)
    case = {
        "params": {},
        "lhs_phi": _phi_json(lhs.r, *phi_l),
        "rhs_phi": _phi_json(rhs.r, *phi_r),
        "phi_equal": phi_l == phi_r,
    }
    errors = []
    # ME first: its roots of q start each side's rho search
    for side, hg in (("me_lhs", lhs), ("me_rhs", rhs)):
        try:
            case[side] = _energy(hg, tol)[1]
        except RootFindingError as exc:
            case[side] = None
            errors.append(f"{side}: {exc}")
    case["rho_lhs"] = spectral_radius(lhs)
    case["rho_rhs"] = spectral_radius(rhs)
    if errors:
        case["error"] = "; ".join(errors)
    if check_isomorphism:
        case["isomorphic"] = are_isomorphic(lhs, rhs)
    if r == 2:  # chi = phi on a forest, so phi itself is checked too
        case["char_equal"] = tree_char_poly(lhs) == matching_polynomial(lhs) == matching_polynomial(rhs) == tree_char_poly(rhs)
    case["passed"] = (
        case["phi_equal"]
        and case.get("char_equal", True)
        and _close(case["rho_lhs"], case["rho_rhs"], tol)
        and not errors
        and _close(case["me_lhs"], case["me_rhs"], tol)
    )
    return case


def _finalize(report: SuiteReport, started: float, r_list, options: str) -> SuiteReport:
    """Decide the report and give each failing case its repro command:
    the suite's name, its edge sizes r_list and its other options."""
    repro_base = f"hypermatch suite --name {report.suite_name} --r {','.join(map(str, r_list))} {options}"
    tol = default_tol()
    if tol != DEFAULT_TOL:  # reproduce at the threshold that failed
        repro_base = f"HG_TOL={tol!r} {repro_base}"
    for case in report.cases:
        if not case["passed"]:
            case["repro"] = (
                f"{repro_base} # failing case: "
                + json.dumps(case["params"], sort_keys=True)
            )
    if not report.cases:  # a check that ran nothing must not pass
        report.notes.append("no case ran")
    report.passed = bool(report.cases) and all(case["passed"] for case in report.cases)
    report.elapsed = time.perf_counter() - started
    return report


def _counts(**counts) -> list[int]:
    """The counts as plain ints, read by the hypergraph layer's rule for
    integers (`hypergraph._integer`: bools and floats raise). ValueError
    naming the first count that is no integer, else the first below 0;
    0 runs no case of its kind."""
    out = [_integer(value, name) for name, value in counts.items()]
    for name, value in zip(counts, out):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return out


def _premise_pair(r: int):
    """The two triple-pendant caterpillars whose gluings stay cospectral:
    one with pendant spots at v2, v3, v5 (anchor: tip at v3), the other
    with spots at v2, v5, v6 (anchor: tip at v6)."""
    g = family_r(r, 1, 1, 2, 4)
    h = family_r(r, 1, 3, 1, 3)
    return g.hg, g.anchors["p2"], h.hg, h.anchors["p3"]


def suite_coalesce(
    r_list=DEFAULT_RS,
    trials: int = 25,
    seed: int = 0,
    m_max: int = 4,
) -> SuiteReport:
    """Shared-vertex gluings of the premise pair.

    Per r: (a) premise verification (a cospectral case whose anchor-
    deleted sides have equal phi and are isomorphic, while the pair
    itself is not isomorphic); (b) sampled gluings onto random
    supertrees; (c) the full chain of mixed shared-vertex powers up to
    m_max copies. ValueError if trials or m_max is no integer or is
    below 0, or if seed is no integer.
    """
    trials, m_max = _counts(trials=trials, m_max=m_max)
    seed = _integer(seed, "seed")  # a plain int, so the repro line reads as CLI input
    started = time.perf_counter()
    r_list = sorted(set(r_list))  # each edge size once
    rng = random.Random(seed)
    report = SuiteReport("coalesce")
    report.notes.append(
        "gluing equality is proved by the verified premises; the samples "
        "exercise the implementation, they do not exhaust all attachments"
    )

    for r in r_list:
        g, u, h, v = _premise_pair(r)
        g_del = g.delete_vertex(u)
        h_del = h.delete_vertex(v)
        case = check_cospectral(g, h, check_isomorphism=True)
        case["params"] = {"part": "premise", "r": r}
        case["deleted_phi_equal"] = _phi(g_del) == _phi(h_del)
        case["deleted_isomorphic"] = are_isomorphic(g_del, h_del)
        case["passed"] = (
            case["passed"]
            and case["deleted_phi_equal"]
            and case["deleted_isomorphic"]
            and not case["isomorphic"]
        )
        report.cases.append(case)

        for trial in range(trials):
            if trial == 0:
                gamma = UniformHypergraph(r, 1)
            else:
                gamma = random_supertree(r, rng.randint(1, 5), rng)
            w = rng.randrange(gamma.n)
            lhs = coalesce(g, u, gamma, w)
            rhs = coalesce(h, v, gamma, w)
            case = check_cospectral(lhs, rhs)
            case["params"] = {
                "part": "gluing",
                "r": r,
                "trial": trial,
                "gamma_edges": gamma.num_edges,
                "w": w,
            }
            report.cases.append(case)

        for m in range(1, m_max + 1):
            chain = [
                coalesce_mixed(g, u, k, h, v, m - k) for k in range(m + 1)
            ]
            for k in range(m):
                case = check_cospectral(chain[k], chain[k + 1])
                case["params"] = {"part": "chain", "r": r, "m": m, "k": k}
                report.cases.append(case)

    return _finalize(report, started, r_list, f"--seed {seed} --trials {trials} --m-max {m_max}")


def _bridged_closed_form(
    g: UniformHypergraph, u: int, h: UniformHypergraph, v: int, m_max: int
) -> list[tuple[int, tuple[int, ...]]]:
    """phi, as (n, counts) (see `_phi`), of bridge(g, u, h, v, m) union
    m - 1 extra copies of g, for m = 1..m_max.

    The union holds m copies of g and of h, and m joining edges with
    r - 2 own vertices each: n = m (n_g + n_h + r - 2). Every joining
    edge holds u, so a matching uses at most one. In
    mu(H, y) = sum_k m(H,k) y^k, with A = mu(g) mu(h) and
    D = mu(g - u) mu(h - v) (one `matching._product` each), matchings
    with none give A^m, and those with the one to copy i give
    y D A^(m-1), so mu(H, y) = A^(m-1) (A + m y D). At
    phi(H, x) = x^n mu(H, -x^-r) that is x^((m-1)(r-2)) (phi_g phi_h)^(m-1)
    (x^(r-2) phi_g phi_h - m phi_(g-u) phi_(h-v)).
    """
    a = _product([_shape_counts(g), _shape_counts(h)])
    d = _product([_shape_counts(g.delete_vertex(u)), _shape_counts(h.delete_vertex(v))])
    n = g.n + h.n + _shared_edge_size(g, h) - 2
    out = []
    for m in range(1, m_max + 1):
        joined = tuple(x + m * y for x, y in zip_longest(a, (0, *d), fillvalue=0))  # A + m y D
        out.append((m * n, _product([a] * (m - 1) + [joined])))
    return out


def suite_bridge(
    r_list=DEFAULT_RS,
    m_max: int = 4,
    trials: int = 25,
    seed: int = 0,
) -> SuiteReport:
    """Bridged gluings of random supertree pairs.

    For each sampled (G, H, u, v) and each copy count m <= m_max the two
    padded unions must be a passing cospectral case, their phi must match
    the closed form, and the two connected bridged objects must agree in
    spectral radius. ValueError if trials or m_max is no integer or is
    below 0, or if seed is no integer.
    """
    trials, m_max = _counts(trials=trials, m_max=m_max)
    seed = _integer(seed, "seed")
    started = time.perf_counter()
    r_list = sorted(set(r_list))  # each edge size once
    rng = random.Random(seed)
    report = SuiteReport("bridge")
    tol = default_tol()  # for the bridged objects' rho, once per run

    for r in r_list:
        for trial in range(trials):
            g = random_supertree(r, rng.randint(1, 4), rng)
            h = random_supertree(r, rng.randint(1, 4), rng)
            u = rng.randrange(g.n)
            v = rng.randrange(h.n)
            closed_forms = _bridged_closed_form(g, u, h, v, m_max)
            for m in range(1, m_max + 1):
                bridged_gh = bridge(g, u, h, v, m)
                bridged_hg = bridge(h, v, g, u, m)
                union_l = bridged_gh
                union_r = bridged_hg
                for _ in range(m - 1):
                    union_l = disjoint_union(union_l, g)
                    union_r = disjoint_union(union_r, h)
                case = check_cospectral(union_l, union_r)
                case["params"] = {
                    "part": "bridge",
                    "r": r,
                    "trial": trial,
                    "m": m,
                    "g_edges": g.num_edges,
                    "h_edges": h.num_edges,
                    "u": u,
                    "v": v,
                }
                case["closed_form_equal"] = _phi(union_l) == closed_forms[m - 1]
                case["rho_bridged_lhs"] = spectral_radius(bridged_gh)
                case["rho_bridged_rhs"] = spectral_radius(bridged_hg)
                case["passed"] = (
                    case["passed"]
                    and case["closed_form_equal"]
                    and _close(case["rho_bridged_lhs"], case["rho_bridged_rhs"], tol)
                )
                report.cases.append(case)

    return _finalize(report, started, r_list, f"--seed {seed} --trials {trials} --m-max {m_max}")


def _swap_sides(r: int):
    """side(m, n): a loose path of length m-5 next to W_(n-1), at edge
    size r. Each path, each W and each union is built on first use and
    then kept, so a grid builds each once and an empty grid builds
    nothing (an invalid size raises only where a case needs it)."""

    @cache
    def path(t: int) -> UniformHypergraph:
        return loose_path(r, t).hg

    @cache
    def w(size: int) -> UniformHypergraph:
        return family_w(r, size).hg

    @cache
    def side(m: int, n: int) -> UniformHypergraph:
        return disjoint_union(path(m - 5), w(n - 1))

    return side


def suite_path_w(
    r_list=DEFAULT_RS,
    m_range: tuple[int, int] = (6, 10),
    n_range: tuple[int, int] = (6, 10),
) -> SuiteReport:
    """The swap family: a loose path of length m-5 next to a
    double-pendant path with n-1 edges is cospectral with the (m, n)
    swap. Exhaustive over the given (m, n) grid; pairs with m != n must
    additionally be non-isomorphic. ValueError, before any case runs, if
    a range holds a value that is no integer (by `_counts`' rule), or is
    not empty and starts below 6: side(m, n) holds W_(n-1), and W needs
    5 edges, and the swap puts m in place of n."""
    for name, (lo, hi) in (("m_range", m_range), ("n_range", n_range)):
        lo, hi = _integer(lo, name), _integer(hi, name)
        if lo <= hi and lo < 6:
            raise ValueError(f"{name} must start at 6 or more, got {lo}:{hi}")
    started = time.perf_counter()
    r_list = sorted(set(r_list))  # each edge size once
    report = SuiteReport("path-w")

    for r in r_list:
        side = _swap_sides(r)
        for m in range(m_range[0], m_range[1] + 1):
            for n in range(n_range[0], n_range[1] + 1):
                lhs, rhs = side(m, n), side(n, m)
                case = check_cospectral(lhs, rhs, check_isomorphism=True)
                case["params"] = {"part": "swap", "r": r, "m": m, "n": n}
                case["passed"] = case["passed"] and case["isomorphic"] == (m == n)
                report.cases.append(case)

    ranges = f"--m-range {m_range[0]}:{m_range[1]} --n-range {n_range[0]}:{n_range[1]}"
    return _finalize(report, started, r_list, ranges)


SUITES = {
    "coalesce": suite_coalesce,
    "bridge": suite_bridge,
    "path-w": suite_path_w,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
