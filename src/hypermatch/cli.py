"""Command-line interface.

Subcommands: construct | matchpoly | rho | me | cospectral | suite.
Exit codes: 0 success (for `cospectral`: the polynomials are equal),
1 checked-and-unequal / suite failure (a case whose matching energy
cannot be computed fails only that case) / standard output closed early
(as by `| head`), 2 usage or input error (an invalid HG_TOL too) or a
root-finding failure outside the suites. The HG_TOL environment variable
(default 1e-10) is the one tolerance setting.

A thin layer over the library, with one parser per process: `construct`
reads `families._FAMILIES`, and `suite` passes on only the options given
that the suite's signature takes, so the suites state their own defaults.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from .families import _FAMILIES
from .hypergraph import HypergraphError, UniformHypergraph, _shared_edge_size
from .matching import matching_polynomial, matching_polynomial_oracle
from .spectra import RootFindingError, matching_energy, spectral_radius, spectral_summary
from .suites import SUITES, run_suite


def _load_hypergraph(path: str) -> UniformHypergraph:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise HypergraphError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise HypergraphError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise HypergraphError(f"{path}: expected a JSON object")
    return UniformHypergraph.from_json_dict(data)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _int_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypermatch",
        description="Matching polynomials, spectral radius, and matching "
        "energy of r-uniform supertrees; cospectral-family verification.",
        epilog="The HG_TOL environment variable (default 1e-10) sets the relative "
        "tolerance to which the matching energy of a power superforest is "
        "certified (error bound <= HG_TOL * ME), and the absolute one of the "
        "suites' numeric comparisons (|difference| <= 10 * HG_TOL).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family and print its JSON")
    p.add_argument("--family", required=True, help="LoosePath, T, Q, R, W, or Z")
    p.add_argument("--r", type=int, required=True, help="edge size (>= 2)")
    p.add_argument("--params", type=_int_list, required=True, help="comma-separated integers")
    p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("matchpoly", help="matching polynomial of a hypergraph JSON file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="use brute-force enumeration (also for hypergraphs with cycles)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_matchpoly)

    for name, help_text in (
        ("rho", "spectral radius of a hypergraph JSON file"),
        ("me", "matching energy of a hypergraph JSON file "
               "(certified to HG_TOL for powers of forests only)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--summary", action="store_true", help="print the full spectral summary JSON")
        p.set_defaults(run=_cmd_scalar)

    p = sub.add_parser("cospectral", help="compare matching polynomials of two files")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(run=_cmd_cospectral)

    # an option left out stays unset, and the suite's signature gives its default
    p = sub.add_parser("suite", argument_default=argparse.SUPPRESS,
                       help="run a deterministic verification suite "
                       "(rho and ME must differ by at most 10 * HG_TOL, absolute)")
    p.add_argument("--name", required=True, choices=sorted(SUITES))
    p.add_argument("--r", dest="r_list", metavar="R", type=_int_list,
                   help="edge sizes, e.g. 2,3,4 (default 2,3,4,5)")
    p.add_argument("--seed", type=int,
                   help="random seed of coalesce and bridge (default 0); path-w ignores it")
    p.add_argument("--trials", type=int,
                   help="random trials of coalesce and bridge (default 25); path-w ignores it")
    p.add_argument("--m-max", type=int,
                   help="largest copy count of coalesce and bridge (default 4); path-w ignores it")
    p.add_argument("--m-range", type=_int_range,
                   help="path-w's values of m, lo:hi inclusive (default 6:10); coalesce and bridge ignore it")
    p.add_argument("--n-range", type=_int_range,
                   help="path-w's values of n, lo:hi inclusive (default 6:10); coalesce and bridge ignore it")
    p.add_argument("--json", dest="json_path", default=None, help="also write the JSON report here")
    p.set_defaults(run=_cmd_suite)
    return top


def _cmd_construct(args) -> int:
    if args.family not in _FAMILIES:
        raise HypergraphError(f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}")
    build, arity = _FAMILIES[args.family]
    if len(args.params) != arity:
        raise HypergraphError(f"family {args.family} takes {arity} parameter(s), got {len(args.params)}")
    built = build(args.r, *args.params)
    payload = built.hg.to_json_dict()
    payload["anchors"] = dict(sorted(built.anchors.items()))
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_matchpoly(args) -> int:
    hg = _load_hypergraph(args.file)
    phi = matching_polynomial_oracle(hg) if args.oracle else matching_polynomial(hg)
    _emit(json.dumps(phi.to_json_dict(), indent=2), args.output)
    return 0


def _cmd_scalar(args) -> int:
    hg = _load_hypergraph(args.file)
    if args.summary:
        print(json.dumps(spectral_summary(hg).to_json_dict(), indent=2))
    else:
        value = spectral_radius(hg) if args.command == "rho" else matching_energy(hg)
        print(f"{value:.15g}")
    return 0


def _cmd_cospectral(args) -> int:
    lhs = _load_hypergraph(args.lhs)
    rhs = _load_hypergraph(args.rhs)
    _shared_edge_size(lhs, rhs)  # raises HypergraphError if the edge sizes differ
    equal = matching_polynomial(lhs) == matching_polynomial(rhs)
    print("cospectral: matching polynomials are "
          + ("identical" if equal else "different"))
    return 0 if equal else 1


def _cmd_suite(args) -> int:
    # pass on the options given that this suite takes; the rest are ignored
    takes = inspect.signature(SUITES[args.name]).parameters
    report = run_suite(args.name, **{k: v for k, v in vars(args).items() if k in takes})
    print(report.human_table())
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json())
    return 0 if report.passed else 1


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away: not an input error. Point stdout at devnull
        # so that the flush at exit writes nowhere (the Python docs' idiom).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (HypergraphError, RootFindingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
