"""Tests of the benchmark's references and output checks.

Run from the repository root: python3 -m pytest perfbench -q
They use no hypermatch code: inputs come from the small generator below.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest

import checks
import reference
import run
import workloads


def random_tree(r: int, m: int, rng: random.Random):
    """(r, n, edges): uniform attachment of m - 1 pendant edges to one edge."""
    edges = [tuple(range(r))]
    n = r
    for _ in range(m - 1):
        v = rng.randrange(n)
        edges.append((v, *range(n, n + r - 1)))
        n += r - 1
    return r, n, edges


def path(r: int, t: int):
    return r, t * (r - 1) + 1, [tuple(range(i * (r - 1), i * (r - 1) + r)) for i in range(t)]


def union(a, b):
    r, n, edges = a
    return r, n + b[1], list(edges) + [tuple(v + n for v in e) for e in b[2]]


def family_w(r: int, size: int):
    """A loose path of size - 2 edges with pendant edges at its second and
    second-to-last spine vertices."""
    r, n, edges = path(r, size - 2)
    edges = list(edges)
    for spot in (1, size - 3):
        edges.append((spot * (r - 1), *range(n, n + r - 1)))
        n += r - 1
    return r, n, edges


def disjoint_copies(tree, k: int):
    r, n, edges = tree
    return r, k * n, [tuple(v + i * n for v in e) for i in range(k) for e in edges]


def brute_phi(r: int, n: int, edges) -> list[int]:
    counts = [0] * (len(edges) + 1)
    for k in range(len(edges) + 1):
        for chosen in itertools.combinations(edges, k):
            covered = [v for e in chosen for v in e]
            if len(covered) == len(set(covered)):
                counts[k] += 1
    phi = [0] * (n + 1)
    for k, c in enumerate(counts):
        if c:
            phi[n - k * r] = (-1) ** k * c
    return phi


def relabel(tree, rng):
    r, n, edges = tree
    perm = list(range(n))
    rng.shuffle(perm)
    return r, n, [tuple(perm[v] for v in e) for e in edges]


# -- references against each other ------------------------------------------


def test_phi_dp_matches_brute_force():
    rng = random.Random(1)
    for _ in range(60):
        tree = random_tree(rng.choice([2, 3, 4, 5]), rng.randint(1, 7), rng)
        assert reference.phi_dp(*tree) == brute_phi(*tree)
    forest = disjoint_copies(random_tree(3, 4, rng), 2)
    assert reference.phi_dp(*forest) == brute_phi(*forest)


@pytest.mark.parametrize("t", [1, 2, 5, 30, 60, 100])
def test_rho_of_r2_paths_is_2cos(t):
    exact = 2 * math.cos(math.pi / (t + 2))
    tree = path(2, t)
    assert abs(reference.rho_bisect(*tree) - exact) <= 1e-15 * exact
    assert abs(reference.rho_eigvalsh(tree[1], tree[2]) - exact) <= 1e-14


def test_rho_references_agree():
    rng = random.Random(2)
    for _ in range(30):
        r = rng.choice([2, 3, 4, 5])
        tree = random_tree(r, rng.randint(1, 12), rng)
        rho = reference.rho_bisect(*tree)
        assert checks.close(rho, reference.rho_from_phi(reference.phi_dp(*tree), r), 1e-14)
        if r == 2:
            assert checks.close(rho, reference.rho_eigvalsh(tree[1], tree[2]), 1e-13)


def test_me_agrees_with_eigvalsh_also_with_repeated_roots():
    rng = random.Random(3)
    trees = [random_tree(2, rng.randint(1, 12), rng) for _ in range(20)]
    trees.append(disjoint_copies(random_tree(2, 6, rng), 5))
    for tree in trees:
        _, q = reference.reduce_phi(reference.phi_dp(*tree), 2)
        want = reference.me_eigvalsh(tree[1], tree[2])
        assert checks.close(reference.matching_energy(2, q), want, 1e-12)


def test_me_of_copies_is_additive():
    single = random_tree(3, 8, random.Random(4))
    _, q1 = reference.reduce_phi(reference.phi_dp(*single), 3)
    _, q5 = reference.reduce_phi(reference.phi_dp(*disjoint_copies(single, 5)), 3)
    me1 = reference.matching_energy(3, q1)
    assert reference.has_triple_root(q5)
    assert checks.close(reference.matching_energy(3, q5), 5 * me1, 1e-14)


def test_has_triple_root():
    # (y - 1)^3 (y + 2) and (y - 1)^2 (y + 2), lowest degree first
    assert reference.has_triple_root([-2, 5, -3, -1, 1])
    assert not reference.has_triple_root([2, -3, 0, 1])
    assert not reference.has_triple_root([1, 1])


def test_isomorphism_reference():
    rng = random.Random(5)
    for _ in range(20):
        tree = random_tree(rng.choice([2, 3, 5]), rng.randint(1, 9), rng)
        assert reference.isomorphic(tree, relabel(tree, rng))
    # a pendant edge at an end of a 3-edge path, or at its second spine vertex
    a = (3, 9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 7, 8)])
    b = (3, 9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (2, 7, 8)])
    assert reference.isomorphic(a, path(3, 4))
    assert not reference.isomorphic(a, b)
    assert reference.isomorphic(disjoint_copies(b, 2), relabel(disjoint_copies(b, 2), rng))
    assert not reference.isomorphic(disjoint_copies(a, 2), disjoint_copies(b, 2))


def test_catalogue_shape_code_decides_isomorphism():
    """The shape code that keeps the catalogue's random inputs distinct
    agrees with the networkx reference on connected supertrees."""

    def shape(tree):
        r, n, edges = tree
        return workloads._shape(SimpleNamespace(n=n, edges=edges))

    rng = random.Random(7)
    trees = [random_tree(r, m, rng) for r in (2, 3, 5) for m in (4, 5, 6) for _ in range(4)]
    for tree in trees:
        assert shape(relabel(tree, rng)) == shape(tree)
    for a, b in itertools.combinations(trees, 2):
        if a[0] == b[0] and len(a[2]) == len(b[2]):
            assert (shape(a) == shape(b)) == reference.isomorphic(a, b)
    a = (3, 9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 7, 8)])
    b = (3, 9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (2, 7, 8)])
    assert shape(a) == shape(path(3, 4)) != shape(b)


# -- each check fails on a perturbed value ------------------------------------


def _catalogue_case():
    rng = random.Random(6)
    base = random_tree(3, 6, rng)
    # the paper's path/W swap: cospectral, not isomorphic
    swap = [union(path(2, 1), family_w(2, 6)), union(path(2, 2), family_w(2, 5))]
    inputs = [base, relabel(base, rng), random_tree(2, 5, rng), path(4, 5)] + swap
    outputs, groups = [], {}
    for j, tree in enumerate(inputs):
        r = tree[0]
        phi = reference.phi_dp(*tree)
        _, q = reference.reduce_phi(phi, r)
        group = groups.setdefault((r, tuple(phi)), [])
        verdicts = tuple((k, reference.isomorphic(inputs[k], tree)) for k in group)
        group.append(j)
        outputs.append((checks.sparse(phi), reference.rho_bisect(*tree),
                        reference.matching_energy(r, q), len(q) - 1, verdicts))
    return inputs, outputs


def test_catalogue_check_passes_on_references():
    inputs, outputs = _catalogue_case()
    assert outputs[1][4] == ((0, True),)
    assert outputs[5][4] == ((4, False),)
    assert checks.check_catalogue(inputs, outputs) == ([], 0)


@pytest.mark.parametrize("what", ["rho", "me", "phi", "iso", "non-iso"])
def test_catalogue_check_fails_on_perturbed_value(what):
    inputs, outputs = _catalogue_case()
    j = 5 if what == "non-iso" else 1
    phi, rho, me, n_roots, verdicts = outputs[j]
    if what == "rho":
        rho *= 1 + 1e-9
    elif what == "me":
        me *= 1 + 1e-9
    elif what == "phi":
        phi = dict(phi)
        phi[max(phi) - 3] += 1
    else:
        verdicts = tuple((k, not verdict) for k, verdict in verdicts)
    bad = outputs[:j] + [(phi, rho, me, n_roots, verdicts)] + outputs[j + 1:]
    assert checks.check_catalogue(inputs, bad)[0]


def _triple_root_case():
    """Three copies of a tree, so every root of q is a triple root, next to
    a tree with the same phi: the ME reference comparison is left out on
    both, every other check stays."""
    rng = random.Random(8)
    copies = disjoint_copies(random_tree(3, 4, rng), 3)
    inputs = [copies, relabel(copies, rng)]
    phi = reference.phi_dp(*copies)
    _, q = reference.reduce_phi(phi, 3)
    assert reference.has_triple_root(q)
    rho, me = reference.rho_bisect(*copies), reference.matching_energy(3, q)
    outputs = [(checks.sparse(phi), rho, me, len(q) - 1, ()),
               (checks.sparse(phi), rho, me, len(q) - 1, ((0, True),))]
    return inputs, outputs


@pytest.mark.parametrize("what", ["none", "me", "me-both", "rho", "iso"])
def test_catalogue_check_on_triple_roots(what):
    inputs, outputs = _triple_root_case()
    phi, rho, me, n_roots, verdicts = outputs[1]
    if what in ("me", "me-both"):
        me *= 1 + 1e-9
    elif what == "rho":
        rho *= 1 + 1e-9
    elif what == "iso":
        verdicts = ((0, False),)
    outputs[1] = (phi, rho, me, n_roots, verdicts)
    if what == "me-both":
        outputs[0] = outputs[0][:2] + (me,) + outputs[0][3:]
    problems, me_exempt = checks.check_catalogue(inputs, outputs)
    assert me_exempt == 2
    # an ME off the reference on both inputs passes: that is the exemption
    assert (problems == []) == (what in ("none", "me-both"))


def _phi_large_case():
    inputs = [("path", path(3, 12)), ("tree", random_tree(5, 10, random.Random(7)))]
    outputs = []
    for _, tree in inputs:
        phi = reference.phi_dp(*tree)
        z, q = reference.reduce_phi(phi, tree[0])
        outputs.append((checks.sparse(phi), z, checks.sparse(q), checks.sparse(phi)))
    return inputs, outputs


def test_phi_large_check():
    inputs, outputs = _phi_large_case()
    assert checks.check_phi_large(inputs, outputs) == []
    phi, z, q, expanded = outputs[0]
    phi = dict(phi)
    phi[max(phi) - 3] += 1
    assert checks.check_phi_large(inputs, [(phi, z, q, phi)] + outputs[1:])
    q = dict(q)
    q[0] -= 1
    assert checks.check_phi_large(inputs, [(outputs[0][0], z, q, expanded)] + outputs[1:])


def _suite_report(r=3):
    tree = path(r, 4)
    phi = reference.phi_dp(*tree)
    terms = [{"exp": e, "coef": str(c)} for e, c in sorted(checks.sparse(phi).items(), reverse=True)]
    rho = reference.rho_bisect(*tree)
    case = {"params": {"part": "swap", "r": r}, "lhs_phi": {"var": "x", "terms": terms},
            "rhs_phi": {"var": "x", "terms": terms}, "phi_equal": True,
            "rho_lhs": rho, "rho_rhs": rho, "me_lhs": 5.0, "me_rhs": 5.0, "passed": True}
    return {"cases": [case]}


def _suite_outputs(report, code=0):
    return [(code, json.dumps(report, sort_keys=True))]


def test_suites_check():
    assert checks.check_suites(["s"], {"s": 1}, _suite_outputs(_suite_report())) == []
    assert checks.check_suites(["s"], {"s": 2}, _suite_outputs(_suite_report()))
    assert checks.check_suites(["s"], {"s": 1}, _suite_outputs(_suite_report(), code=1))


@pytest.mark.parametrize("what", ["rho", "phi", "me"])
def test_suites_check_fails_on_perturbed_value(what):
    report = _suite_report()
    case = report["cases"][0]
    if what == "rho":
        case["rho_rhs"] *= 1 + 1e-9
    elif what == "phi":
        case["rhs_phi"] = {"var": "x", "terms": [dict(t) for t in case["rhs_phi"]["terms"]]}
        case["rhs_phi"]["terms"][-1]["coef"] = str(int(case["rhs_phi"]["terms"][-1]["coef"]) + 1)
    else:
        case["me_rhs"] += 1e-6
    assert checks.check_suites(["s"], {"s": 1}, _suite_outputs(report))


def test_matching_shape():
    phi = checks.sparse(reference.phi_dp(*path(3, 4)))
    assert checks.matching_shape(phi, 3)
    assert not checks.matching_shape({**phi, 1: 1}, 3)
    flipped = dict(phi)
    flipped[max(phi) - 3] *= -1
    assert not checks.matching_shape(flipped, 3)


def test_top_root_exact_and_repeated():
    # (y - 4)(2y - 7): the top root is rational; (y - 4)^2 (y - 1): repeated
    assert reference.top_root([28, -15, 2]) == (4, 4)
    lo, hi = reference.top_root([-16, 24, -9, 1])
    assert lo <= 4 <= hi and hi - lo <= 1e-20


class _Replay:
    """A workload whose passes return the given outputs, the last one again."""

    def __init__(self, *outputs):
        self.outputs = list(outputs)

    def run_pass(self):
        out = self.outputs.pop(0) if len(self.outputs) > 1 else self.outputs[0]
        return [1e-3], out, 0


def test_a_later_pass_that_differs_is_reported():
    report = _suite_outputs(_suite_report())
    assert run._run_passes(_Replay(report), 0)["differing"] == []
    byte_changed = [(0, report[0][1] + " ")]
    assert run._run_passes(_Replay(report, byte_changed), 0)["differing"] == [2]
    assert run._run_passes(_Replay([1.0], [math.nextafter(1.0, 2.0)]), 0)["differing"] == [2]


def test_checks_skip_operations_that_raised():
    inputs, outputs = _phi_large_case()
    assert checks.check_phi_large(inputs, [None] + outputs[1:]) == []
    inputs, outputs = _catalogue_case()
    assert checks.check_catalogue(inputs, outputs[:2] + [None] + outputs[3:])[0] == []
    report = _suite_outputs(_suite_report())
    assert checks.check_suites(["s", "t"], {"s": 1, "t": 1}, report + [None]) == []


class _StubCli:
    """Stands in for hypermatch in the suites workload: each call to main
    returns the next exit code, or raises it if it is an exception;
    exit code 0 writes a report."""

    def __init__(self, *results):
        self.results = list(results)
        self.cli = self

    def clear_polynomial_cache(self):
        pass

    def main(self, argv):
        result = self.results.pop(0)
        if isinstance(result, Exception):
            raise result
        if result == 0:
            with open(argv[-1], "w") as fh:
                fh.write("{}")
        return result


def test_suites_pass_counts_what_raised_or_wrote_nothing(tmp_path):
    wl = workloads.Suites(None, 0, str(tmp_path))
    wl.hm = _StubCli(0, RuntimeError("no root found"), 2, *[0] * (len(wl.ops) - 3))
    times, outputs, failed = wl.run_pass()
    assert len(times) == len(wl.ops) == 12 and failed == 2
    assert outputs[:3] == [(0, "{}"), None, None]
