"""Spans around calls into each layer of hypermatch, for the traced run.

`Tracer.install` replaces the public functions and methods listed in
`SPANS` with wrappers that record a span (name, start, end, parent);
`uninstall` puts the originals back. Spans are kept in memory in flat
arrays and written out by `write` when the run ends. A span's self time
is its duration minus the durations of its direct children; the
per-layer metrics in `METRICS` sum self times and count calls.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# span name -> (module or class path inside hypermatch, attribute names)
SPANS = {
    "families.build": ("families", (
        "random_supertree", "loose_path", "family_t", "family_q", "family_r",
        "family_w", "family_z", "coalesce", "coalesce_power", "coalesce_mixed",
        "bridge", "disjoint_union",
    )),
    "hypergraph.split": ("hypergraph.UniformHypergraph", (
        "components", "delete_vertices", "delete_closed_edge",
    )),
    "hypergraph.iso": ("hypergraph", ("are_isomorphic",)),
    "polynomial.mul": ("polynomial.SparsePolynomial", ("__mul__", "__rmul__")),
    "polynomial.arith": ("polynomial.SparsePolynomial", (
        "__add__", "__sub__", "__neg__", "__pow__", "scale", "shift", "evaluate",
    )),
    "matching.phi": ("matching", ("matching_polynomial",)),
    "matching.reduce": ("matching", ("reduce_polynomial",)),
    "spectra.rho": ("spectra", ("spectral_radius",)),
    # spectral_summary's own time is its ME sum over the q roots.
    "spectra.me": ("spectra", ("matching_energy", "spectral_summary")),
    "spectra.roots": ("spectra", ("roots", "largest_real_root")),
    "spectra.charpoly": ("spectra", ("tree_char_poly",)),
    "suites.check": ("suites", ("check_cospectral",)),
    "suites.run": ("suites", ("run_suite",)),
    "cli.main": ("cli", ("main",)),
}

# metric -> (unit, kind, span names); kind "ms" sums self times, "calls" counts spans
METRICS = {
    "families.build_ms": ("ms", "ms", ("families.build",)),
    "hypergraph.split_ms": ("ms", "ms", ("hypergraph.split",)),
    "hypergraph.split_calls": ("count", "calls", ("hypergraph.split",)),
    "hypergraph.iso_ms": ("ms", "ms", ("hypergraph.iso",)),
    "hypergraph.iso_calls": ("count", "calls", ("hypergraph.iso",)),
    "polynomial.arith_ms": ("ms", "ms", ("polynomial.mul", "polynomial.arith")),
    "polynomial.mul_calls": ("count", "calls", ("polynomial.mul",)),
    "matching.phi_ms": ("ms", "ms", ("matching.phi",)),
    "matching.phi_calls": ("count", "calls", ("matching.phi",)),
    "matching.reduce_ms": ("ms", "ms", ("matching.reduce",)),
    "spectra.rho_ms": ("ms", "ms", ("spectra.rho",)),
    "spectra.me_ms": ("ms", "ms", ("spectra.me",)),
    "spectra.roots_ms": ("ms", "ms", ("spectra.roots",)),
    "spectra.roots_calls": ("count", "calls", ("spectra.roots",)),
    "spectra.charpoly_ms": ("ms", "ms", ("spectra.charpoly",)),
    "spectra.charpoly_calls": ("count", "calls", ("spectra.charpoly",)),
    "suites.check_ms": ("ms", "ms", ("suites.check",)),
    "suites.cases": ("count", "calls", ("suites.check",)),
    "suites.run_ms": ("ms", "ms", ("suites.run",)),
    "cli.self_ms": ("ms", "ms", ("cli.main",)),
}


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = sys.modules[f"hypermatch.{module}"]
    return getattr(owner, cls) if cls else owner


def _hypermatch_namespaces():
    return [m for name, m in list(sys.modules.items())
            if name == "hypermatch" or name.startswith("hypermatch.")]


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name_id: int, fn):
        clock = time.perf_counter
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every target, under every name it is bound to in hypermatch."""
        namespaces = _hypermatch_namespaces()
        done = set()
        for name_id, (path, attrs) in enumerate(SPANS.values()):
            owner = _resolve(path)
            for attr in attrs:
                if (owner, attr) in done:  # an alias of a target wrapped already
                    continue
                original = owner.__dict__[attr]
                wrapper = self._wrap(name_id, original)
                holders = [owner] if isinstance(owner, type) else namespaces
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, key, original))
                            setattr(holder, key, wrapper)
                            if holder is owner:
                                done.add((owner, key))

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span, to sum one part of the run."""
        return len(self.start)

    def totals(self, begin: int = 0):
        """Per span name: [self seconds, calls] over the spans from begin on."""
        end = len(self.start)
        child = [0.0] * (end - begin)
        for i in range(begin, end):
            p = self.parent[i]
            if p >= begin:
                child[p - begin] += self.end[i] - self.start[i]
        out = {name: [0.0, 0] for name in self.names}
        for i in range(begin, end):
            entry = out[self.names[self.name[i]]]
            entry[0] += self.end[i] - self.start[i] - child[i - begin]
            entry[1] += 1
        return out

    def write(self, path: str):
        """One line per span: index, parent index, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def layer_metrics(per_pass_totals: list[dict], setup_totals: dict) -> dict:
    """Each metric for one pass (the mean over the traced passes), plus the
    work done while building the inputs, which happens once per run."""
    passes = len(per_pass_totals)
    out = {}
    for metric, (unit, kind, spans) in METRICS.items():
        index = 0 if kind == "ms" else 1
        value = sum(setup_totals[s][index] for s in spans)
        value += sum(t[s][index] for t in per_pass_totals for s in spans) / passes
        out[metric] = {"value": 1000.0 * value if kind == "ms" else round(value), "unit": unit}
    return out
