"""Output checks for each workload.

Each check gets the outputs of the first pass as plain data (polynomials
as {exponent: coefficient} dicts, None for an operation that raised and
counts as failed); run.py compares every later pass with the first. Each check returns a list of problems; an empty list means every
output was correct. Nothing is compared against a stored copy of earlier
output: the expected values come from `reference`, which does not use
hypermatch, or from properties the method must have.
"""

from __future__ import annotations

import json

import reference

MAX_PROBLEMS = 20
TOL = 1e-10  # hypermatch's HG_TOL: rho and ME must agree to this


def close(got: float, want: float, tol: float = TOL) -> bool:
    """|got - want| <= tol, relative to max(1, |want|)."""
    return abs(got - want) <= tol * max(1.0, abs(want))


def dense(terms: dict[int, int]) -> list[int]:
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return out


def sparse(coeffs: list[int]) -> dict[int, int]:
    return {e: c for e, c in enumerate(coeffs) if c}


def matching_shape(terms: dict[int, int], r: int) -> bool:
    """phi = sum_k (-1)^k m_k x^(n - kr) with m_0 = 1 and every m_k > 0
    for k <= nu: no other exponents, no gaps, alternating signs."""
    n = max(terms)
    nu = (n - min(terms)) // r
    expected = {n - k * r for k in range(nu + 1)}
    return (
        set(terms) == expected
        and terms[n] == 1
        and all(terms[n - k * r] * (-1) ** k > 0 for k in range(nu + 1))
    )


def _cap(problems: list[str]) -> list[str]:
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... {len(problems) - MAX_PROBLEMS} more"]
    return problems


def check_suites(names, expected_cases: dict[str, int], outputs) -> list[str]:
    """outputs[j] = (exit code, JSON report text) of suite names[j], or
    None for a suite that raised or wrote no report."""
    problems: list[str] = []
    top_root = {}
    for name, out in zip(names, outputs):
        if out is None:
            continue
        code, text = out
        if code != 0:
            problems.append(f"suite {name} exited {code}")
        report = json.loads(text)
        cases = report["cases"]
        if len(cases) != expected_cases[name]:
            problems.append(f"{name}: {len(cases)} cases, expected {expected_cases[name]}")
        for case in cases:
            label = f"{name} {json.dumps(case['params'], sort_keys=True)}"
            r = case["params"]["r"]
            sides = {}
            for side in ("lhs", "rhs"):
                terms = {int(t["exp"]): int(t["coef"]) for t in case[f"{side}_phi"]["terms"]}
                if not matching_shape(terms, r):
                    problems.append(f"{label}: {side} phi is not matching-shaped")
                sides[side] = terms
            if sides["lhs"] != sides["rhs"] or not case["phi_equal"]:
                problems.append(f"{label}: lhs and rhs phi differ")
            # A connected bridged object and its padded union share their
            # top root: the padding copies are proper subgraphs of it.
            for field, side in (
                ("rho_lhs", "lhs"),
                ("rho_rhs", "rhs"),
                ("rho_bridged_lhs", "lhs"),
                ("rho_bridged_rhs", "rhs"),
            ):
                if field not in case:
                    continue
                key = (r, tuple(sorted(sides[side].items())))
                if key not in top_root:
                    top_root[key] = reference.rho_from_phi(dense(sides[side]), r)
                if not close(case[field], top_root[key]):
                    problems.append(
                        f"{label}: {field} = {case[field]!r}, top root of phi is {top_root[key]!r}"
                    )
            if abs(case["me_lhs"] - case["me_rhs"]) > 10 * TOL:
                problems.append(f"{label}: me_lhs and me_rhs differ")
    return _cap(problems)


def check_phi_large(inputs, outputs) -> list[str]:
    """inputs[j] = (label, (r, n, edges)); outputs[j] =
    (phi, z, q, expanded reduction) with polynomials as term dicts."""
    problems: list[str] = []
    for (label, (r, n, edges)), out in zip(inputs, outputs):
        if out is None:
            continue
        phi, z, q, expanded = out
        want = reference.phi_dp(r, n, edges)
        if phi != sparse(want):
            problems.append(f"{label}: phi differs from the tree DP")
        want_z, want_q = reference.reduce_phi(want, r)
        if z != want_z or q != sparse(want_q):
            problems.append(f"{label}: reduction is not x^{want_z} q(x^{r})")
        if expanded != phi:
            problems.append(f"{label}: the expanded reduction is not phi")
    return _cap(problems)


def check_catalogue(inputs, outputs) -> tuple[list[str], int]:
    """inputs[j] = (r, n, edges); outputs[j] = (phi, rho, me, number of
    q roots, ((earlier index, isomorphic?), ...)).

    Returns the problems and the number of inputs whose ME was compared
    with no reference: hypermatch's matching energy misses TOL on some
    inputs whose q has a root of multiplicity three or more (a known
    fault, see README.md), so on those inputs ME is only checked against
    the other inputs of the same phi."""
    problems: list[str] = []
    me_exempt = 0
    me_ref: dict = {}
    members: dict = {}
    first: dict = {}
    # Isomorphism is an equivalence, so each input is compared with one
    # representative of each class found so far among its r and phi.
    iso_class: dict[int, int] = {}
    for j, ((r, n, edges), out) in enumerate(zip(inputs, outputs)):
        if out is None:
            continue
        phi, rho, me, n_roots, verdicts = out
        label = f"input {j} (r={r}, m={len(edges)})"
        want = reference.phi_dp(r, n, edges)
        if phi != sparse(want):
            problems.append(f"{label}: phi differs from the tree DP")
            continue
        _, q = reference.reduce_phi(want, r)
        if n_roots != len(q) - 1:
            problems.append(f"{label}: {n_roots} roots of q, expected {len(q) - 1}")
        rho_refs = [reference.rho_bisect(r, n, edges)]
        key = (r, tuple(want))
        if key not in me_ref:
            triple = reference.has_triple_root(q)
            me_ref[key] = None if triple else reference.matching_energy(r, q)
        me_refs = []
        if me_ref[key] is None:
            me_exempt += 1
        else:
            me_refs.append(me_ref[key])
        if r == 2:
            rho_refs.append(reference.rho_eigvalsh(n, edges))
            if me_refs:
                me_refs.append(reference.me_eigvalsh(n, edges))
        if not all(close(rho, x) for x in rho_refs):
            problems.append(f"{label}: rho = {rho!r}, references {rho_refs}")
        if not all(close(me, x) for x in me_refs):
            problems.append(f"{label}: me = {me!r}, references {me_refs}")
        k0, rho0, me0 = first.setdefault(key, (j, rho, me))
        if not (close(rho, rho0) and close(me, me0)):
            problems.append(f"{label}: same phi as input {k0} but other rho or me")
        group = members.setdefault(key, [])
        if [k for k, _ in verdicts] != group:
            problems.append(f"{label}: not compared with exactly the earlier inputs of its phi")
        for k in group:
            if iso_class[k] == k and reference.isomorphic(inputs[k], (r, n, edges)):
                iso_class[j] = k
                break
        else:
            iso_class[j] = j
        group.append(j)
        for k, verdict in verdicts:
            if verdict != (iso_class[k] == iso_class[j]):
                problems.append(f"{label}: isomorphism verdict {verdict} against input {k} is wrong")
    return _cap(problems), me_exempt
