"""The benchmark's three workloads: their inputs, one pass of operations,
and the hand-off of a pass's outputs to the checks.

Every workload is a closed loop on one thread: the next operation starts
when the previous one has returned. A pass runs the same operations in
the same order every time, so every pass of a run does the same work.
Library calls go through attributes of the `hypermatch` package (`hm`)
at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import time
import traceback

import checks

# `hypermatch suite` parameters of the suites workload: one call per suite
# and edge size, with fewer trials and a shorter chain than the CLI
# defaults (25 and 4), so that no call takes more than about 0.5 s.
SUITE_NAMES = ("coalesce", "bridge", "path-w")
SUITE_RS = (2, 3, 4, 5)
SUITE_TRIALS = 10
SUITE_M_MAX = 2
SUITE_GRID = ((6, 10), (6, 10))  # CLI default of --m-range and --n-range

PREMISE_G = (1, 1, 2, 4)  # family R parameters of the paper's premise pair
PREMISE_H = (1, 3, 1, 3)

CATALOGUE_RS = (2, 3, 4, 5)
CATALOGUE_M = range(8, 13)  # edges of the random supertrees
CATALOGUE_NAMED_M = range(4, 10)  # edges of the named family members
CATALOGUE_RANDOM = 12  # random supertrees for each r and m
CATALOGUE_DRAWS = 1000  # draws allowed for one random supertree of a new shape


def _premise_pair(hm, r):
    g = hm.family_r(r, *PREMISE_G)
    h = hm.family_r(r, *PREMISE_H)
    return g.hg, g.anchors["p2"], h.hg, h.anchors["p3"]


def _plain(hg):
    return hg.r, hg.n, hg.edges


def _terms(poly) -> dict[int, int]:
    return dict(poly.terms())


def _failed(label) -> None:
    """Report an operation that raised; its output becomes None."""
    print(f"operation {label} raised:\n{traceback.format_exc()}", file=sys.stderr)


class Suites:
    """Each suite at each edge size is one operation, driven through
    `hypermatch.cli.main` with a cleared phi cache, as in a fresh
    `hypermatch suite --name S --r R` process.

    Operations are kept short because the machine's speed changes from
    second to second: the best of many runs of a short call is steady,
    the best of a few runs of a call of several seconds is not. The suite
    seed is the CLI default 0 whatever the benchmark seed: the suites'
    r = 2 oracle costs n^4, so a few large trials drawn by another seed
    would move wall_s."""

    def __init__(self, hm, seed: int, run_dir: str):
        self.hm = hm
        self.ops = []
        for name in SUITE_NAMES:
            for r in SUITE_RS:
                path = os.path.join(run_dir, f"suite-{name}-{r}-{os.getpid()}.json")
                argv = ["suite", "--name", name, "--r", str(r), "--trials", str(SUITE_TRIALS),
                        "--m-max", str(SUITE_M_MAX), "--json", path]
                self.ops.append((f"{name} r={r}", path, argv))

    def run_pass(self):
        times, outputs, failed = [], [], 0
        for label, path, argv in self.ops:
            self.hm.clear_polynomial_cache()
            out, code = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.hm.cli.main(argv)
            except Exception:
                _failed(label)
            times.append(time.perf_counter() - t0)
            if code is not None:
                try:
                    with open(path) as fh:
                        out = (code, fh.read())
                    os.remove(path)
                except OSError:
                    _failed(f"{label} (exit {code}, no report)")
            failed += code != 0 or out is None
            outputs.append(out)
        return times, outputs, failed

    def check(self, outputs):
        per_r = {
            "coalesce": 1 + SUITE_TRIALS + SUITE_M_MAX * (SUITE_M_MAX + 1) // 2,
            "bridge": SUITE_TRIALS * SUITE_M_MAX,
            "path-w": (SUITE_GRID[0][1] - SUITE_GRID[0][0] + 1)
            * (SUITE_GRID[1][1] - SUITE_GRID[1][0] + 1),
        }
        labels = [label for label, _, _ in self.ops]
        expected = {label: per_r[label.split()[0]] for label in labels}
        return checks.check_suites(labels, expected, outputs)


class PhiLarge:
    """Exact phi and its x^z q(x^r) reduction of one large supertree per
    operation, each from a cleared phi cache.

    The seven fixed inputs each take 1.2-2 s today and the six seeded
    random trees at most about 1 s, so the median operation is a fixed
    input whatever the seed draws."""

    def __init__(self, hm, seed: int, run_dir: str):
        self.hm = hm
        rng = random.Random(seed)
        g, u, h, v = _premise_pair(hm, 3)
        self.inputs = [
            ("loose_path(2,300)", hm.loose_path(2, 300).hg),
            ("loose_path(3,240)", hm.loose_path(3, 240).hg),
            ("loose_path(5,180)", hm.loose_path(5, 180).hg),
            ("family_w(3,240)", hm.family_w(3, 240).hg),
            ("coalesce_mixed(premise,24,24)", hm.coalesce_mixed(g, u, 24, h, v, 24)),
            ("coalesce_power(premise,50)", hm.coalesce_power(g, u, 50)),
            ("bridge(premise,48)", hm.bridge(g, u, h, v, 48)),
        ]
        for r in (2, 3, 5):
            for m in (200, 400):
                self.inputs.append((f"random_supertree({r},{m})", hm.random_supertree(r, m, rng)))

    def run_pass(self):
        hm = self.hm
        times, outputs = [], []
        for label, hg in self.inputs:
            hm.clear_polynomial_cache()
            t0 = time.perf_counter()
            try:
                phi = hm.matching_polynomial(hg)
                out = (phi, hm.reduce_polynomial(phi, hg.r, hg.n))
            except Exception:
                out = None
                _failed(label)
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        return times, outputs, outputs.count(None)

    def check(self, outputs):
        plain = [
            out and (_terms(out[0]), out[1].z, _terms(out[1].q), _terms(out[1].expand()))
            for out in outputs
        ]
        return checks.check_phi_large(
            [(label, _plain(hg)) for label, hg in self.inputs], plain
        )


class Catalogue:
    """About seven hundred small connected supertrees, one operation each:
    `spectral_summary`, then `are_isomorphic` against every earlier input
    with the same r and phi. The phi cache stays warm for the whole pass.

    m <= 12 keeps the inputs small: larger random supertrees meet the
    matching energy fault of README.md more often. A pass takes about
    2 s, so a run times each operation twenty times or more. The random
    supertrees come in equal numbers for every r and m, so the seed
    changes their shapes but not their sizes, and each has a shape no
    earlier input has (see Catalogue._new_random_supertree)."""

    def __init__(self, hm, seed: int, run_dir: str):
        self.hm = hm
        rng = random.Random(seed)
        inputs = []
        for r in CATALOGUE_RS:
            inputs += _named_families(hm, r)
            g, u, h, v = _premise_pair(hm, r)
            edge = hm.loose_path(r, 1).hg
            w = rng.randrange(r)
            inputs += [g, h, hm.coalesce(g, u, edge, w), hm.coalesce(h, v, edge, w)]
        # Seconds of the benchmark's own shape codes, which run.py leaves
        # out of setup_s: it is meant to time hypermatch.
        self.own_setup_s = 0.0
        t0 = time.perf_counter()
        seen = {_shape(hg) for hg in inputs}
        self.own_setup_s += time.perf_counter() - t0
        for r in CATALOGUE_RS:
            for m in CATALOGUE_M:
                for _ in range(CATALOGUE_RANDOM):
                    inputs.append(self._new_random_supertree(r, m, rng, seen))
        rng.shuffle(inputs)
        self.inputs = inputs

    def _new_random_supertree(self, r, m, rng, seen):
        """A random supertree whose shape is not in `seen`, which it joins.
        The catalogue's random inputs are isomorphic to no earlier input,
        so which inputs are isomorphic does not depend on the seed:
        testing an isomorphic pair of r = 5 supertrees takes up to 170 ms,
        and a few such pairs drawn by chance moved wall_s by a quarter
        between seeds."""
        for _ in range(CATALOGUE_DRAWS):
            hg = self.hm.random_supertree(r, m, rng)
            t0 = time.perf_counter()
            key = _shape(hg)
            self.own_setup_s += time.perf_counter() - t0
            if key not in seen:
                seen.add(key)
                return hg
        raise RuntimeError(f"no new shape of supertree with r = {r}, m = {m} in {CATALOGUE_DRAWS} draws")

    def run_pass(self):
        hm = self.hm
        hm.clear_polynomial_cache()
        groups: dict = {}
        times, outputs = [], []
        for i, hg in enumerate(self.inputs):
            t0 = time.perf_counter()
            try:
                phi = hm.matching_polynomial(hg)
                summary = hm.spectral_summary(hg)
                group = groups.setdefault((hg.r, phi), [])
                out = (phi, summary, tuple((j, hm.are_isomorphic(self.inputs[j], hg)) for j in group))
                group.append(i)
            except Exception:
                out = None
                _failed(f"input {i}")
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        return times, outputs, outputs.count(None)

    def check(self, outputs):
        plain = [
            out and (_terms(out[0]), out[1].rho, out[1].me, len(out[1].q_roots), out[2])
            for out in outputs
        ]
        problems, me_exempt = checks.check_catalogue([_plain(hg) for hg in self.inputs], plain)
        print(f"ME compared with no reference on {me_exempt} inputs (q has a triple root)",
              file=sys.stderr)
        return problems


def _shape(hg) -> str:
    """A string that two connected supertrees share exactly when they are
    isomorphic: the AHU code of their vertex-edge incidence tree, rooted
    at its centre (the smaller code if there are two centres)."""
    n = hg.n
    adj = [[] for _ in range(n + len(hg.edges))]
    for i, edge in enumerate(hg.edges):
        for v in edge:
            adj[v].append(n + i)
            adj[n + i].append(v)
    degree = [len(a) for a in adj]
    layer = [x for x in range(len(adj)) if degree[x] <= 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        nxt = []
        for x in layer:
            for y in adj[x]:
                degree[y] -= 1
                if degree[y] == 1:
                    nxt.append(y)
        layer = nxt

    def code(x, parent):
        kids = sorted(code(y, x) for y in adj[x] if y != parent)
        return ("e(" if x >= n else "v(") + "".join(kids) + ")"

    return min(code(c, -1) for c in layer)


def _named_families(hm, r):
    """Every member of the named families with 4..9 edges."""
    out = []
    for m in CATALOGUE_NAMED_M:
        out += [hm.loose_path(r, m).hg, hm.family_z(r, m).hg]
        if m >= 5:
            out.append(hm.family_w(r, m).hg)
        s = m - 1  # T(a, b) has a + b + 1 edges
        out += [hm.family_t(r, a, s - a).hg for a in range(1, s + 1)]
        s = m - 2  # Q(a, b, c) has a + b + c + 2 edges
        out += [
            hm.family_q(r, a, b, s - a - b).hg
            for a in range(1, s - 1)
            for b in range(1, s - a)
        ]
        s = m - 3  # R(a, b, c, d) has a + b + c + d + 3 edges
        out += [
            hm.family_r(r, a, b, c, s - a - b - c).hg
            for a in range(1, s - 2)
            for b in range(1, s - a - 1)
            for c in range(1, s - a - b)
        ]
    return out


WORKLOADS = {"suites": Suites, "phi-large": PhiLarge, "catalogue": Catalogue}
