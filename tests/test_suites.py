"""Suite harness: correctness, determinism, and failure reporting."""

import hashlib
import itertools
import json
import time

import pytest

from conftest import assert_same_report

import hypermatch.suites as suites
from hypermatch import (
    HypergraphError,
    SparsePolynomial,
    UniformHypergraph,
    check_cospectral,
    clear_polynomial_cache,
    disjoint_union,
    family_w,
    loose_path,
    matching_energy,
    matching_polynomial,
    run_suite,
    spectral_radius,
    suite_bridge,
    suite_coalesce,
    suite_path_w,
)
from hypermatch.hypergraph import rooted_superforest
from hypermatch.suites import SUITES, SuiteReport, _finalize


@pytest.fixture
def rho_rhs_off_by_5e_7(monkeypatch):
    """check_cospectral's rho of every second side (its rhs) 5e-7 too big."""
    calls = itertools.count()
    monkeypatch.setattr(
        "hypermatch.suites.spectral_radius",
        lambda hg: spectral_radius(hg) + 5e-7 * (next(calls) % 2),
    )


@pytest.fixture
def disagreeing_char_poly(monkeypatch):
    """A characteristic-polynomial oracle that never agrees with itself."""
    fresh = itertools.count()
    monkeypatch.setattr(
        "hypermatch.suites.tree_char_poly", lambda hg: SparsePolynomial({0: next(fresh)})
    )


class TestCheckCospectral:
    def test_self_comparison(self):
        hg = family_w(3, 5).hg
        case = check_cospectral(hg, hg, check_isomorphism=True)
        assert case["phi_equal"]
        assert case["isomorphic"]
        assert case["rho_lhs"] == case["rho_rhs"]
        assert case["passed"] is True
        assert "char_equal" not in case  # only r = 2 has the char-poly oracle

    @pytest.mark.parametrize("r", [2, 3])
    def test_phi_differs_by_an_isolated_vertex(self, r):
        # equal counts, rho and ME: only n tells the two phis apart
        lhs = loose_path(r, 3).hg
        rhs = disjoint_union(lhs, UniformHypergraph(r, 1))
        case = check_cospectral(lhs, rhs)
        assert case["rho_lhs"] == case["rho_rhs"] and case["me_lhs"] == case["me_rhs"]
        assert case["lhs_phi"] == matching_polynomial(lhs).to_json_dict()
        assert case["rhs_phi"] == matching_polynomial(rhs).to_json_dict()
        assert not case["phi_equal"] and not case["passed"]

    def test_numeric_comparison_is_absolute(self):
        # at the default HG_TOL, 10 * HG_TOL = 1e-9 bounds |a - b| whatever
        # the size of a and b: 2e-9 apart fails at 1000, a relative 2e-12
        assert not suites._close(1000.0, 1000.0 + 2e-9, suites.DEFAULT_TOL)
        assert suites._close(0.5, 0.5 + 5e-10, suites.DEFAULT_TOL)

    @pytest.fixture
    def tol_reads(self, monkeypatch):
        """Every read of HG_TOL, by suites and by spectra, appended to a list."""
        import hypermatch.spectra as spectra

        reads = []
        read = spectra.default_tol
        for module in (suites, spectra):
            monkeypatch.setattr(module, "default_tol", lambda: reads.append(1) or read())
        return reads

    @pytest.mark.parametrize("r", [2, 3])
    def test_hg_tol_read_once_per_case(self, tol_reads, r):
        lhs = disjoint_union(loose_path(r, 1).hg, family_w(r, 6).hg)
        rhs = disjoint_union(loose_path(r, 2).hg, family_w(r, 5).hg)
        clear_polynomial_cache()
        assert check_cospectral(lhs, rhs, check_isomorphism=True)["passed"]
        assert len(tol_reads) == 1
        assert check_cospectral(rhs, lhs)["passed"]  # warm records read it once too
        assert len(tol_reads) == 2

    @pytest.mark.parametrize("name, kwargs, per_run", [
        ("coalesce", {"r_list": (2, 3), "trials": 2, "m_max": 1}, 1),
        ("bridge", {"r_list": (2, 3), "trials": 2, "m_max": 2}, 2),  # and once for the bridged rho
        ("path-w", {"r_list": (2, 3), "m_range": (6, 7), "n_range": (6, 7)}, 1),
    ])
    def test_hg_tol_read_once_per_case_of_a_suite(self, tol_reads, name, kwargs, per_run):
        report = run_suite(name, **kwargs)
        assert report.passed
        assert len(tol_reads) == len(report.cases) + per_run

    def test_known_pair(self):
        r = 3
        lhs = disjoint_union(loose_path(r, 1).hg, family_w(r, 6).hg)
        rhs = disjoint_union(loose_path(r, 2).hg, family_w(r, 5).hg)
        case = check_cospectral(lhs, rhs, check_isomorphism=True)
        assert case["phi_equal"]
        assert not case["isomorphic"]
        assert abs(case["rho_lhs"] - case["rho_rhs"]) < 1e-9
        assert abs(case["me_lhs"] - case["me_rhs"]) < 1e-9
        assert case["passed"]

    def test_unequal_sizes(self):
        case = check_cospectral(loose_path(3, 1).hg, loose_path(3, 2).hg)
        assert not case["phi_equal"]
        assert case["passed"] is False

    @pytest.mark.usefixtures("disagreeing_char_poly")
    def test_r2_char_poly_mismatch_fails(self):
        hg = family_w(2, 5).hg
        case = check_cospectral(hg, hg)
        assert case["phi_equal"]
        assert case["char_equal"] is False
        assert case["passed"] is False

    def test_r_comes_from_the_side_with_edges(self):
        case = check_cospectral(UniformHypergraph(3, 2), loose_path(2, 1).hg)
        assert case["char_equal"] is False
        assert case["passed"] is False

    @pytest.mark.usefixtures("rho_rhs_off_by_5e_7")
    def test_hg_tol_decides_rho_agreement(self, monkeypatch):
        r = 3
        lhs = disjoint_union(loose_path(r, 1).hg, family_w(r, 6).hg)
        rhs = disjoint_union(loose_path(r, 2).hg, family_w(r, 5).hg)
        monkeypatch.setenv("HG_TOL", "1e-7")  # |drho| = 5e-7 <= 10 * 1e-7
        case = check_cospectral(lhs, rhs)
        assert case["rho_rhs"] - case["rho_lhs"] == pytest.approx(5e-7, rel=1e-6)
        assert case["passed"] is True
        monkeypatch.delenv("HG_TOL")  # the default 1e-10
        assert check_cospectral(lhs, rhs)["passed"] is False

    def test_mismatched_r_rejected(self):
        with pytest.raises(HypergraphError):
            check_cospectral(loose_path(2, 1).hg, loose_path(3, 1).hg)

    def test_each_side_searches_rho_from_its_own_roots(self, monkeypatch):
        import hypermatch.spectra as spectra

        seeds = []
        search = spectra._search_radius
        monkeypatch.setattr(
            spectra, "_search_radius",
            lambda shape, seed: seeds.append((shape, seed)) or search(shape, seed),
        )
        r = 3
        lhs = disjoint_union(loose_path(r, 1).hg, family_w(r, 6).hg)
        rhs = disjoint_union(loose_path(r, 2).hg, family_w(r, 5).hg)
        clear_polynomial_cache()
        case = check_cospectral(lhs, rhs)
        # each tree of each side is searched once, from its own roots of q
        assert [shape for shape, _ in seeds] == [*rooted_superforest(lhs)[1], *rooted_superforest(rhs)[1]]
        for shape, seed in seeds:
            assert seed == pytest.approx(search(shape, None), rel=1e-9)  # the seed is in units of rho^r
        for side, hg in (("rho_lhs", lhs), ("rho_rhs", rhs)):
            assert case[side] == max(search(shape, None) for shape in rooted_superforest(hg)[1]) ** (1.0 / r)
        check_cospectral(rhs, lhs)  # both sides served from their records
        assert len(seeds) == 4


class TestSuites:
    def test_coalesce_small(self):
        report = suite_coalesce(r_list=(2, 3), trials=3, seed=1, m_max=2)
        assert report.passed
        parts = {c["params"]["part"] for c in report.cases}
        assert parts == {"premise", "gluing", "chain"}
        premise = [c for c in report.cases if c["params"]["part"] == "premise"]
        for case in premise:
            assert case["deleted_phi_equal"]
            assert case["deleted_isomorphic"]
            assert case["isomorphic"] is False

    def test_bridge_small(self):
        report = suite_bridge(r_list=(2, 3), m_max=2, trials=4, seed=2)
        assert report.passed
        for case in report.cases:
            assert case["closed_form_equal"]
            assert abs(case["rho_bridged_lhs"] - case["rho_bridged_rhs"]) < 1e-9

    def test_path_w_small(self):
        report = suite_path_w(r_list=(2, 4), m_range=(6, 8), n_range=(6, 8))
        assert report.passed
        for case in report.cases:
            m, n = case["params"]["m"], case["params"]["n"]
            assert case["isomorphic"] == (m == n)

    def test_r2_cases_carry_char_poly_check(self):
        report = suite_path_w(r_list=(2,), m_range=(6, 7), n_range=(6, 7))
        assert all(c["char_equal"] for c in report.cases)

    @pytest.mark.usefixtures("disagreeing_char_poly")
    def test_char_poly_mismatch_fails_the_suite(self):
        report = suite_path_w(r_list=(2,), m_range=(6, 6), n_range=(6, 7))
        assert not report.passed
        assert all(c["char_equal"] is False and not c["passed"] for c in report.cases)
        assert report.cases[0]["repro"] == (
            "hypermatch suite --name path-w --r 2 --m-range 6:6 --n-range 6:7"
            ' # failing case: {"m": 6, "n": 6, "part": "swap", "r": 2}'
        )
        assert "suite path-w: FAIL" in report.human_table()

    def test_phi_wrong_alike_on_both_sides_fails_the_r2_oracle(self, monkeypatch):
        # phi + 1 on every side keeps phi_equal, so only the oracle can see it
        phi = suites.matching_polynomial
        monkeypatch.setattr(suites, "matching_polynomial", lambda hg: phi(hg) + SparsePolynomial.one())
        report = suite_path_w(r_list=(2,), m_range=(6, 7), n_range=(6, 7))
        assert len(report.cases) == 4 and not report.passed
        for case in report.cases:
            assert case["phi_equal"] and case["char_equal"] is False and not case["passed"]

    @pytest.mark.parametrize("suite, kwargs", [
        (suite_coalesce, {"r_list": ()}),
        (suite_bridge, {"m_max": 0}),
        (suite_path_w, {"m_range": (10, 6)}),
    ])
    def test_a_suite_that_runs_no_case_fails(self, suite, kwargs):
        report = suite(**kwargs)
        assert report.cases == []
        assert not report.passed
        assert "no case ran" in report.notes
        assert "FAIL" in report.human_table()

    @pytest.mark.parametrize("suite", [suite_coalesce, suite_bridge])
    @pytest.mark.parametrize("kwargs, name", [
        ({"trials": -1}, "trials"),
        ({"m_max": -2}, "m_max"),
        ({"trials": -5, "m_max": 1}, "trials"),
        ({"trials": 1, "m_max": -1}, "m_max"),
    ])
    def test_negative_count_raises(self, suite, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            suite(r_list=(3,), **kwargs)

    @pytest.mark.parametrize("suite", [suite_coalesce, suite_bridge])
    @pytest.mark.parametrize("kwargs, name", [
        ({"trials": True}, "trials"),
        ({"trials": 2.5}, "trials"),
        ({"m_max": 2.0}, "m_max"),
        ({"m_max": False}, "m_max"),
        ({"trials": "3", "m_max": -1}, "trials"),
    ])
    def test_count_that_is_no_integer_raises(self, suite, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            suite(r_list=(3,), **kwargs)

    def test_integer_types_count_as_their_value(self):
        class Two:  # an integer type that is no int, as numpy's are
            def __index__(self):
                return 2

        for suite in (suite_coalesce, suite_bridge):
            report = suite(r_list=(3,), trials=Two(), m_max=Two())
            assert report.to_json() == suite(r_list=(3,), trials=2, m_max=2).to_json()

    @pytest.mark.parametrize("suite", [suite_coalesce, suite_bridge])
    @pytest.mark.parametrize("seed", [2.5, True, 1.0, "1", None])
    def test_seed_that_is_no_integer_raises(self, monkeypatch, suite, seed):
        monkeypatch.setattr(suites, "check_cospectral", lambda *a, **k: pytest.fail("a case ran"))
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            suite(r_list=(3,), trials=1, m_max=1, seed=seed)

    @pytest.mark.usefixtures("rho_rhs_off_by_5e_7")
    @pytest.mark.parametrize("suite", [suite_coalesce, suite_bridge])
    def test_integer_seeds_give_repro_lines_the_cli_reads(self, suite):
        import numpy as np

        from hypermatch.cli import _build_parser

        for seed, text in ((np.int64(3), "3"), (-1, "-1")):
            report = suite(r_list=(3,), trials=2, m_max=1, seed=seed)
            assert report.to_json() == suite(r_list=(3,), trials=2, m_max=1, seed=int(text)).to_json()
            failing = [case for case in report.cases if not case["passed"]]
            assert failing  # every case fails under the fixture
            for case in failing:
                argv = case["repro"].split(" # ")[0].split()
                assert argv[0] == "hypermatch" and argv[argv.index("--seed") + 1] == text
                assert _build_parser().parse_args(argv[1:]).seed == int(text)

    @pytest.mark.parametrize("grid, name", [
        ({"m_range": (5, 6)}, "m_range"),
        ({"m_range": (1, 1)}, "m_range"),
        ({"n_range": (0, 8)}, "n_range"),
        ({"m_range": (3, 10), "n_range": (4, 10)}, "m_range"),
        ({"m_range": (10, 6), "n_range": (5, 5)}, "n_range"),
    ])
    def test_path_w_range_below_6_raises_before_any_case(self, monkeypatch, grid, name):
        monkeypatch.setattr(suites, "check_cospectral", lambda *a, **k: pytest.fail("a case ran"))
        with pytest.raises(ValueError, match=f"^{name} must start at 6 or more, got "):
            suite_path_w(r_list=(3,), **grid)

    @pytest.mark.parametrize("grid, name", [
        ({"m_range": (6.0, 7)}, "m_range"),
        ({"m_range": (True, 7)}, "m_range"),
        ({"n_range": (6, 6.5)}, "n_range"),
    ])
    def test_path_w_range_that_is_no_integer_raises(self, grid, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            suite_path_w(r_list=(3,), **grid)

    def test_zero_trials_keeps_the_other_parts(self):
        report = suite_coalesce(r_list=(3,), trials=0, m_max=1)
        assert report.passed
        assert {c["params"]["part"] for c in report.cases} == {"premise", "chain"}

    def test_run_suite_dispatch(self):
        report = run_suite("path-w", r_list=(3,), m_range=(6, 6), n_range=(6, 7))
        assert report.suite_name == "path-w"
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_reports_are_byte_identical_across_runs(self):
        runs = (
            lambda: suite_bridge(r_list=(2, 3), m_max=2, trials=3, seed=7),
            lambda: suite_coalesce(r_list=(2, 3), trials=3, seed=7, m_max=2),
            lambda: suite_path_w(r_list=(2, 3), m_range=(6, 8), n_range=(6, 8)),
        )
        for run in runs:
            clear_polynomial_cache()
            cold = run().to_json()
            warm = run().to_json()  # every side served from its record
            assert_same_report(warm, cold)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_report_is_one_line_of_compact_json(self, name):
        report = run_suite(name, r_list=(3,))
        text = report.to_json()
        assert "\n" not in text
        assert json.loads(text) == report.to_json_dict()
        assert_same_report(run_suite(name, r_list=(3,)).to_json(), text)

    def test_different_seeds_differ(self):
        a = suite_bridge(r_list=(3,), m_max=1, trials=3, seed=1)
        b = suite_bridge(r_list=(3,), m_max=1, trials=3, seed=2)
        assert a.to_json() != b.to_json()

    def test_json_schema_and_elapsed_exclusion(self):
        report = suite_path_w(r_list=(3,), m_range=(6, 6), n_range=(6, 6))
        data = json.loads(report.to_json())
        assert data["schema"] == 1
        assert data["suite_name"] == "path-w"
        assert "elapsed" not in data
        assert isinstance(data["cases"], list)
        case = data["cases"][0]
        for key in ("params", "lhs_phi", "rhs_phi", "phi_equal",
                    "rho_lhs", "rho_rhs", "me_lhs", "me_rhs"):
            assert key in case

    def test_human_table_mentions_verdict(self):
        report = suite_path_w(r_list=(3,), m_range=(6, 7), n_range=(6, 7))
        table = report.human_table()
        assert "suite path-w: PASS" in table
        assert "elapsed" in table


# sha256 of the cases of each default report, without ME and with each rho
# as float.hex(). ME is left out because its last bits depend on LAPACK;
# phi is exact, and rho^r depends only on IEEE +, -, * and / in
# `spectra._tree_pass`. rho itself is rho^r ** (1/r), taken by the C
# library's pow, which CI runs from glibc alone: another libm may move rho
# in its last bit. A change that alters phi or rho on purpose updates these
# and says why.
GOLDEN_PHI_RHO = {
    "coalesce": "6ec693b20f705b308ab55ad5e0435a81b4724544d39c2386884ec69a9b6bdf99",
    "bridge": "a754f5b9af8abe5d801fb7279b6c5ce8440ca94c578d301efb2b4e6de9b698ed",
    "path-w": "eaa1b9753ac410a81fd26ae7bca49afbb47d8b8b91557986e5a1a98518d2d7f0",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PHI_RHO))
def test_default_reports_keep_their_phi_and_rho(name):
    cases = json.loads(run_suite(name).to_json())["cases"]
    for case in cases:
        del case["me_lhs"], case["me_rhs"]
        for key in case:
            if key.startswith("rho"):
                case[key] = float.hex(case[key])
    digest = hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_PHI_RHO[name]


class TestSharedAcrossEdgeSizes:
    """A suite meets one core shape at several r, and the results kept per
    shape must not depend on which r met it first."""

    # coalesce's gluings and every bridge case draw their supertrees from
    # one generator across r, so at r = 5 alone they draw others: those
    # cases are compared on a cold cache by the test below instead
    @pytest.mark.parametrize("name", ["coalesce", "path-w"])
    def test_r5_cases_as_in_a_cold_r5_run(self, name):
        clear_polynomial_cache()
        every_r = [c for c in json.loads(run_suite(name).to_json())["cases"] if c["params"]["r"] == 5]
        clear_polynomial_cache()
        alone = json.loads(run_suite(name, r_list=(5,)).to_json())["cases"]
        assert len(every_r) == len(alone)
        for shared, cold in zip(every_r, alone):
            if shared["params"]["part"] != "gluing":
                assert shared == cold, shared["params"]

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_case_as_on_a_cold_cache(self, name, monkeypatch):
        clear_polynomial_cache()
        warm = run_suite(name).to_json_dict()
        check = suites.check_cospectral

        def cold_check(*args, **kwargs):
            clear_polynomial_cache()
            return check(*args, **kwargs)

        monkeypatch.setattr(suites, "check_cospectral", cold_check)
        cold = run_suite(name).to_json_dict()
        assert len(cold["cases"]) == len(warm["cases"])
        for case, warm_case in zip(cold["cases"], warm["cases"]):
            assert case == warm_case, case["params"]
        assert cold == warm

    @pytest.mark.parametrize("name", ["path-w", "bridge"])
    def test_records_warmed_in_reverse_give_the_cold_report(self, name, monkeypatch):
        # rho, then ME, of every side, last case first: each tree's rho is
        # searched with no seed or another side's, where a cold run seeds
        # it from its own roots of q; seeds move where a search starts,
        # never the float it returns
        clear_polynomial_cache()
        cold = run_suite(name, r_list=(3,)).to_json()
        sides = []
        check = suites.check_cospectral
        monkeypatch.setattr(suites, "check_cospectral", lambda lhs, rhs, **kw: sides.append((lhs, rhs)) or check(lhs, rhs, **kw))
        run_suite(name, r_list=(3,))
        monkeypatch.undo()
        clear_polynomial_cache()
        for lhs, rhs in reversed(sides):
            for hg in (rhs, lhs):
                spectral_radius(hg)
                matching_energy(hg)
        assert_same_report(run_suite(name, r_list=(3,)).to_json(), cold)


class TestBuildOnce:
    """Each family member and anchor-deleted side is built once per run,
    and only when a case needs it."""

    @staticmethod
    def _count(monkeypatch, name, calls):
        real = getattr(suites, name)
        monkeypatch.setattr(suites, name, lambda *a: calls.append((name, *a)) or real(*a))

    def test_path_w_builds_each_size_once(self, monkeypatch):
        calls = []
        for name in ("loose_path", "family_w"):
            self._count(monkeypatch, name, calls)
        report = suite_path_w(r_list=(3,))
        assert report.passed and len(report.cases) == 25
        assert sorted(calls) == sorted(
            [("loose_path", 3, t) for t in range(1, 6)] + [("family_w", 3, s) for s in range(5, 10)]
        )

    @pytest.mark.parametrize("grid", [{"m_range": (10, 6)}, {"n_range": (10, 6)}])
    def test_path_w_empty_grid_builds_nothing(self, monkeypatch, grid):
        calls = []
        for name in ("loose_path", "family_w"):
            self._count(monkeypatch, name, calls)
        report = suite_path_w(r_list=(3,), **grid)
        assert calls == []
        assert not report.passed and "no case ran" in report.notes

    def test_bridge_deletes_each_anchor_once_per_trial(self, monkeypatch):
        calls = []
        real = UniformHypergraph.delete_vertex
        monkeypatch.setattr(
            UniformHypergraph, "delete_vertex", lambda hg, v: calls.append(v) or real(hg, v)
        )
        report = suite_bridge(r_list=(3,), m_max=3, trials=4)
        assert report.passed and len(report.cases) == 12
        assert len(calls) == 2 * 4

    @pytest.mark.parametrize("name, kwargs, checked", [
        ("bridge", {"r_list": (3,), "trials": 3, "m_max": 2}, 0),
        ("path-w", {"r_list": (3,)}, 0),
        ("coalesce", {"r_list": (3,), "trials": 3, "m_max": 2}, 1),
    ])
    def test_suites_check_no_derived_side(self, monkeypatch, name, kwargs, checked):
        """Every side is derived from checked parts, so the constructor's
        checks run only on coalesce's one-vertex gamma of trial 0."""
        calls = []
        real = UniformHypergraph.__post_init__
        monkeypatch.setattr(UniformHypergraph, "__post_init__", lambda hg: calls.append(hg) or real(hg))
        assert run_suite(name, **kwargs).passed
        assert len(calls) == checked


class TestFailureReporting:
    def test_failing_case_gets_repro_command(self):
        report = SuiteReport("demo")
        report.cases.append(
            {
                "params": {"r": 3, "m": 6},
                "phi_equal": False,
                "rho_lhs": 1.0,
                "rho_rhs": 2.0,
                "me_lhs": 0.0,
                "me_rhs": 0.0,
                "passed": False,
            }
        )
        report.cases.append(
            {
                "params": {"r": 3, "m": 7},
                "phi_equal": True,
                "rho_lhs": 1.0,
                "rho_rhs": 1.0,
                "me_lhs": 0.0,
                "me_rhs": 0.0,
                "passed": True,
            }
        )
        out = _finalize(report, time.perf_counter(), [3], "--seed 0")
        assert not out.passed
        failing = out.cases[0]
        assert failing["repro"].startswith("hypermatch suite --name demo --r 3 --seed 0 # failing case: ")
        assert '"m": 6' in failing["repro"]
        assert "repro" not in out.cases[1]
        assert "FAIL" in out.human_table()

    @pytest.mark.usefixtures("rho_rhs_off_by_5e_7")
    @pytest.mark.parametrize("env, prefix", [(None, ""), ("1e-8", "HG_TOL=1e-08 ")])
    def test_repro_runs_at_the_failing_tolerance(self, monkeypatch, env, prefix):
        if env is None:
            monkeypatch.delenv("HG_TOL", raising=False)
        else:
            monkeypatch.setenv("HG_TOL", env)
        report = suite_path_w(r_list=(3,), m_range=(6, 6), n_range=(7, 7))
        assert not report.passed
        assert report.cases[0]["repro"].startswith(prefix + "hypermatch suite --name path-w")
        monkeypatch.setenv("HG_TOL", "1e-7")
        assert suite_path_w(r_list=(3,), m_range=(6, 6), n_range=(7, 7)).passed
