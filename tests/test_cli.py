"""Command-line interface: subcommands, exit codes, file formats."""

import inspect
import json
import math
import os
import re
import sys

import pytest

from conftest import assert_same_report, spider
from hypermatch import (
    UniformHypergraph,
    family_q,
    family_r,
    family_t,
    family_w,
    family_z,
    loose_path,
    matching_energy,
    matching_polynomial,
    run_suite,
    spectral_radius,
    spectral_summary,
)
from hypermatch.cli import _int_list, _int_range, main
from hypermatch.families import _FAMILIES
from hypermatch.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def construct_file(tmp_path, capsys, name, family, r, params):
    path = tmp_path / name
    code, _, err = run(
        capsys, "construct", "--family", family, "--r", str(r),
        "--params", params, "-o", str(path),
    )
    assert code == 0, err
    return path


class TestConstruct:
    def test_w6(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct", "--family", "W", "--r", "3", "--params", "6")
        assert code == 0
        data = json.loads(out)
        assert data["r"] == 3
        assert data["n"] == 13
        assert len(data["edges"]) == 6
        assert data["anchors"]["v1"] == 0
        assert "p1" in data["anchors"]

    def test_bad_family_exits_2(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "X", "--r", "3", "--params", "1")
        assert code == 2
        assert "unknown family" in err

    def test_bad_arity_exits_2(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "T", "--r", "3", "--params", "1")
        assert code == 2
        assert "family T takes 2 parameter(s), got 1" in err

    @pytest.mark.parametrize("family, params, constructor", [
        pytest.param("LoosePath", (3,), loose_path, id="LoosePath"),
        pytest.param("T", (1, 2), family_t, id="T"),
        pytest.param("Q", (1, 2, 1), family_q, id="Q"),
        pytest.param("R", (1, 3, 1, 3), family_r, id="R"),
        pytest.param("W", (6,), family_w, id="W"),
        pytest.param("Z", (4,), family_z, id="Z"),
    ])
    @pytest.mark.parametrize("r", [3, 4])
    def test_every_family_matches_its_constructor(self, capsys, family, params, constructor, r):
        code, out, err = run(
            capsys, "construct", "--family", family, "--r", str(r),
            "--params", ",".join(map(str, params)),
        )
        assert code == 0, err
        data = json.loads(out)
        direct = constructor(r, *params)
        assert UniformHypergraph.from_json_dict(data) == direct.hg
        assert data["anchors"] == direct.anchors

    def test_bad_flags_exit_2(self, capsys):
        assert run(capsys, "construct", "--family", "W")[0] == 2
        assert run(capsys, "frobnicate")[0] == 2
        code, out, err = run(capsys, "suite", "--name", "path-w", "--m-range", "6-10")
        assert (code, out) == (2, "")
        assert "expected lo:hi, got '6-10'" in err

    @pytest.mark.parametrize("params", ["1,,2", "1,2,", ",1,2", "1, ,2"])
    def test_empty_param_item_exits_2(self, capsys, params):
        # an empty item is a usage error, not dropped: "1,,2" is not T(1, 2)
        code, out, err = run(capsys, "construct", "--family", "T", "--r", "3", "--params", params)
        assert (code, out) == (2, "")
        assert "expected comma-separated integers" in err


class TestMatchpoly:
    def test_w6_terms(self, tmp_path, capsys):
        path = construct_file(tmp_path, capsys, "w6.json", "W", 3, "6")
        code, out, _ = run(capsys, "matchpoly", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["var"] == "x"
        assert data["terms"] == [
            {"exp": 13, "coef": "1"},
            {"exp": 10, "coef": "-6"},
            {"exp": 7, "coef": "8"},
        ]

    def test_oracle_flag_agrees(self, tmp_path, capsys):
        path = construct_file(tmp_path, capsys, "t.json", "T", 3, "1,2")
        _, fast, _ = run(capsys, "matchpoly", str(path))
        _, slow, _ = run(capsys, "matchpoly", str(path), "--oracle")
        assert json.loads(fast) == json.loads(slow)

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "matchpoly", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(capsys, "matchpoly", str(bad))[0] == 2
        bad.write_text(json.dumps([[0, 1], [1, 2]]))  # valid JSON, but no object
        code, out, err = run(capsys, "rho", str(bad))
        assert (code, out) == (2, "")
        assert "expected a JSON object" in err

    def test_invalid_hypergraph_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"r": 3, "n": 2, "edges": [[0, 1, 1]]}))
        assert run(capsys, "matchpoly", str(bad))[0] == 2

    def test_fractional_vertex_exits_2(self, tmp_path, capsys):
        # int() would read this as the path [[0, 1], [1, 2]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"r": 2, "n": 3, "edges": [[0, 1.9], [1.2, 2]]}))
        code, out, err = run(capsys, "matchpoly", str(bad))
        assert (code, out) == (2, "")
        assert "must be an integer, got 1.9" in err

    def test_cyclic_input_exits_2_and_names_the_oracle(self, tmp_path, capsys):
        triangle = tmp_path / "triangle.json"
        triangle.write_text(json.dumps({"r": 2, "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        code, out, err = run(capsys, "matchpoly", str(triangle))
        assert code == 2
        assert out == ""
        assert "superforest" in err and "--oracle" in err

    def test_oracle_flag_prints_phi_of_cyclic_input(self, tmp_path, capsys):
        triangle = tmp_path / "triangle.json"
        triangle.write_text(json.dumps({"r": 2, "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        code, out, _ = run(capsys, "matchpoly", str(triangle), "--oracle")
        assert code == 0
        assert json.loads(out)["terms"] == [
            {"exp": 3, "coef": "1"},
            {"exp": 1, "coef": "-3"},
        ]


class TestScalars:
    def test_rho_of_single_edge(self, tmp_path, capsys):
        path = construct_file(tmp_path, capsys, "p1.json", "LoosePath", 4, "1")
        code, out, _ = run(capsys, "rho", str(path))
        assert code == 0
        assert abs(float(out.strip()) - 1.0) < 1e-10

    def test_me_of_single_edge(self, tmp_path, capsys):
        path = construct_file(tmp_path, capsys, "p1.json", "LoosePath", 4, "1")
        code, out, _ = run(capsys, "me", str(path))
        assert abs(float(out.strip()) - 4.0) < 1e-10

    @pytest.mark.parametrize("t", [40, 1000])
    def test_rho_of_long_ordinary_path(self, tmp_path, capsys, t):
        path = construct_file(tmp_path, capsys, "path.json", "LoosePath", 2, str(t))
        code, out, err = run(capsys, "rho", str(path))
        assert code == 0, err
        assert float(out) == pytest.approx(2 * math.cos(math.pi / (t + 2)), rel=1e-10)

    def test_me_of_long_ordinary_path(self, tmp_path, capsys):
        t = 1000
        path = construct_file(tmp_path, capsys, "path.json", "LoosePath", 2, str(t))
        code, out, err = run(capsys, "me", str(path))
        assert code == 0, err
        expected = 2 * sum(2 * math.cos(math.pi * j / (t + 2)) for j in range(1, t // 2 + 1))
        assert float(out) == pytest.approx(expected, rel=1e-10)

    def test_me_root_finding_failure_exits_2(self, tmp_path, capsys):
        # no power of a forest, so its q of degree 501 overflows in root finding
        path = tmp_path / "spider.json"
        path.write_text(json.dumps(spider(3, 333).to_json_dict()))
        code, out, err = run(capsys, "me", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "overflows" in err and "Traceback" not in err

    def test_no_command_takes_tol(self, tmp_path, capsys):
        # the tolerance is set by HG_TOL alone
        path = construct_file(tmp_path, capsys, "p1.json", "LoosePath", 4, "1")
        for argv in (
            ("rho", str(path), "--tol", "1e-6"),
            ("rho", str(path), "--summary", "--tol", "1e-6"),
            ("me", str(path), "--tol", "1e-6"),
            ("suite", "--name", "path-w", "--r", "3", "--tol", "1e-6"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == "" and "--tol" in err

    def test_summary_json(self, tmp_path, capsys):
        path = construct_file(tmp_path, capsys, "w5.json", "W", 3, "5")
        code, out, _ = run(capsys, "rho", str(path), "--summary")
        data = json.loads(out)
        assert set(data) == {"rho", "me", "tol", "q_roots"}
        assert len(data["q_roots"]) == 2


def load(path) -> UniformHypergraph:
    return UniformHypergraph.from_json_dict(json.loads(path.read_text()))


class TestOutput:
    """Every value is printed as json.dumps(value, sort_keys=True) of the
    library's value, on one line, so a float prints as its repr."""

    SPECS = [
        # rho of W(6) at r = 3 prints as 1.5874010519682 at 15 digits
        ("w6.json", "W", 3, "6"),
        # the paper's premise pair at r = 3
        ("g.json", "R", 3, "1,1,2,4"),
        ("h.json", "R", 3, "1,3,1,3"),
    ]

    @pytest.fixture
    def paths(self, tmp_path, capsys):
        return [construct_file(tmp_path, capsys, *spec) for spec in self.SPECS]

    def test_rho_and_me_print_the_library_float(self, capsys, paths):
        for path in paths:
            hg = load(path)
            for command, value in (("rho", spectral_radius(hg)), ("me", matching_energy(hg))):
                code, out, _ = run(capsys, command, str(path))
                assert code == 0
                assert float(out) == value, (path.name, command)
                assert out == json.dumps(value) + "\n"

    def test_summary_holds_the_library_floats(self, capsys, paths):
        for path in paths:
            summary = spectral_summary(load(path))
            code, out, _ = run(capsys, "me", str(path), "--summary")
            assert code == 0
            data = json.loads(out)
            assert (data["rho"], data["me"], data["tol"]) == (summary.rho, summary.me, summary.tol)
            assert [complex(z["re"], z["im"]) for z in data["q_roots"]] == list(summary.q_roots)

    @pytest.mark.parametrize("name, family, r, params", SPECS)
    def test_each_command_prints_the_library_value(self, tmp_path, capsys, name, family, r, params):
        built = _FAMILIES[family][0](r, *map(int, params.split(",")))
        path = tmp_path / name
        out_path = tmp_path / "out.json"
        expected = {
            ("construct", "--family", family, "--r", str(r), "--params", params):
                {**built.hg.to_json_dict(), "anchors": built.anchors},
            ("matchpoly", str(path)): matching_polynomial(built.hg).to_json_dict(),
            ("me", str(path), "--summary"): spectral_summary(built.hg).to_json_dict(),
        }
        path.write_text(json.dumps(built.hg.to_json_dict()))
        for argv, value in expected.items():
            text = json.dumps(value, sort_keys=True) + "\n"
            assert run(capsys, *argv)[:2] == (0, text), argv[0]
            if argv[0] != "me":  # -o writes the same text
                assert run(capsys, *argv, "-o", str(out_path))[:2] == (0, "")
                assert out_path.read_text() == text


class TestCospectral:
    def test_premise_pair_with_trivial_gluing(self, tmp_path, capsys):
        a = construct_file(tmp_path, capsys, "a.json", "R", 3, "1,1,2,4")
        b = construct_file(tmp_path, capsys, "b.json", "R", 3, "1,3,1,3")
        code, out, _ = run(capsys, "cospectral", str(a), str(b))
        assert code == 0
        assert "identical" in out

    def test_unequal_pair_exits_1(self, tmp_path, capsys):
        a = construct_file(tmp_path, capsys, "a.json", "LoosePath", 3, "1")
        b = construct_file(tmp_path, capsys, "b.json", "LoosePath", 3, "2")
        code, out, _ = run(capsys, "cospectral", str(a), str(b))
        assert code == 1
        assert "different" in out

    @staticmethod
    def write(tmp_path, name, hg):
        path = tmp_path / name
        path.write_text(json.dumps(hg.to_json_dict()))
        return str(path)

    @pytest.mark.parametrize("r", [2, 3])
    def test_equal_counts_with_an_isolated_vertex_exit_1(self, tmp_path, capsys, r):
        # the counts agree, so only n tells the two phis apart
        path = loose_path(r, 3).hg
        a = self.write(tmp_path, "a.json", path)
        b = self.write(tmp_path, "b.json", UniformHypergraph(r, path.n + 1, path.edges))
        code, out, _ = run(capsys, "cospectral", a, b)
        assert code == 1
        assert out == "cospectral: matching polynomials are different\n"

    def test_edgeless_sides_at_two_edge_sizes_exit_0(self, tmp_path, capsys):
        # phi = x^4 on both sides, whatever r each file declares
        a = self.write(tmp_path, "a.json", UniformHypergraph(2, 4))
        b = self.write(tmp_path, "b.json", UniformHypergraph(3, 4))
        code, out, _ = run(capsys, "cospectral", a, b)
        assert code == 0
        assert out == "cospectral: matching polynomials are identical\n"

    def test_mismatched_r_exits_2(self, tmp_path, capsys):
        a = construct_file(tmp_path, capsys, "a.json", "LoosePath", 2, "1")
        b = construct_file(tmp_path, capsys, "b.json", "LoosePath", 3, "1")
        assert run(capsys, "cospectral", str(a), str(b))[0] == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        a = construct_file(tmp_path, capsys, "a.json", "LoosePath", 2, "1")
        assert run(capsys, "cospectral", str(a), "/gone.json")[0] == 2


class TestSuiteCommand:
    def test_help_names_the_suite_of_each_option(self, capsys):
        code, out, _ = run(capsys, "suite", "--help")
        assert code == 0
        assert "path-w ignores it" in out and "coalesce and bridge ignore it" in out

    def test_help_states_the_signature_defaults(self, capsys, monkeypatch):
        # the suite functions hold the defaults; the help prose repeats them
        monkeypatch.setenv("COLUMNS", "500")  # one line per option
        code, out, _ = run(capsys, "suite", "--help")
        assert code == 0
        stated = {}
        for option, value in re.findall(r"^ +--([\w-]+) .*\(default ([^)]+)\)", out, re.M):
            parse = _int_range if ":" in value else _int_list
            stated["r_list" if option == "r" else option.replace("-", "_")] = tuple(parse(value))
        taken = set()
        for suite in SUITES.values():
            for name, param in inspect.signature(suite).parameters.items():
                default = param.default
                assert stated[name] == (default if isinstance(default, tuple) else (default,)), name
                taken.add(name)
        assert set(stated) == taken

    @pytest.mark.parametrize("name, ignored", [
        *[pytest.param(name, (), id=name) for name in sorted(SUITES)],
        # the benchmark passes these to path-w, whose signature takes none of them
        pytest.param("path-w", ("--seed", "4", "--trials", "10", "--m-max", "2"), id="path-w-ignored"),
    ])
    def test_json_report_is_the_library_report(self, tmp_path, capsys, name, ignored):
        path = tmp_path / "report.json"
        assert run(capsys, "suite", "--name", name, "--r", "3", *ignored, "--json", str(path))[0] == 0
        assert_same_report(path.read_text(), run_suite(name, r_list=(3,)).to_json() + "\n")

    def test_path_w_passes_and_emits_json(self, capsys):
        code, out, _ = run(
            capsys, "suite", "--name", "path-w", "--r", "2,3",
            "--m-range", "6:7", "--n-range", "6:7",
        )
        assert code == 0
        assert "suite path-w: PASS" in out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert data["schema"] == 1
        assert data["passed"] is True
        # the report's line, after the table, is the library's report
        report = run_suite("path-w", r_list=(2, 3), m_range=(6, 7), n_range=(6, 7))
        assert payload == json.dumps(report.to_json_dict(), sort_keys=True) + "\n"

    def test_json_file_written_and_deterministic(self, tmp_path, capsys):
        args = (
            "suite", "--name", "bridge", "--r", "3", "--seed", "5",
            "--trials", "2", "--m-max", "2",
        )
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *args, "--json", str(pa))[0] == 0
        assert run(capsys, *args, "--json", str(pb))[0] == 0
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("name, options", [
        ("coalesce", ("--trials", "2", "--m-max", "1")),
        ("bridge", ("--trials", "2", "--m-max", "1")),
        ("path-w", ("--m-range", "6:7", "--n-range", "6:6")),
    ])
    @pytest.mark.parametrize("fail", [False, True], ids=["passing", "failing"])
    def test_repeated_edge_size_runs_once(self, tmp_path, capsys, monkeypatch, name, options, fail):
        if fail:  # every case fails, so the report carries each repro line
            monkeypatch.setattr("hypermatch.suites._close", lambda a, b, tol: False)
        reports = []
        for r in ("2,3", "3,2,2,3"):
            path = tmp_path / f"{r}.json"
            code, _, _ = run(capsys, "suite", "--name", name, "--r", r, *options, "--json", str(path))
            assert code == int(fail)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        if fail:
            assert f"--name {name} --r 2,3 ".encode() in reports[0]

    def test_coalesce_small(self, capsys):
        code, out, _ = run(
            capsys, "suite", "--name", "coalesce", "--r", "3",
            "--trials", "2", "--m-max", "1", "--seed", "0",
        )
        assert code == 0
        assert "premise" in out

    @pytest.mark.parametrize("r", ["", ",", "2,,3"])
    def test_empty_edge_size_item_exits_2(self, capsys, r):
        # an empty item is a usage error, not dropped to leave no case to run
        code, out, err = run(capsys, "suite", "--name", "path-w", "--r", r)
        assert (code, out) == (2, "")
        assert "expected comma-separated integers" in err

    def test_suite_with_no_case_exits_1(self, capsys):
        code, out, _ = run(capsys, "suite", "--name", "path-w", "--m-range", "10:6")
        assert code == 1
        assert "suite path-w: 0 case(s)" in out and "note: no case ran" in out

    @pytest.mark.parametrize("name", ["coalesce", "bridge"])
    @pytest.mark.parametrize("options, named", [
        (("--trials", "-5", "--m-max", "-2"), "trials"),
        (("--trials", "1", "--m-max", "-2"), "m_max"),
        (("--trials", "-1",), "trials"),
    ])
    def test_negative_count_exits_2(self, capsys, name, options, named):
        code, out, err = run(capsys, "suite", "--name", name, "--r", "3", *options)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {named} must be >= 0") and "Traceback" not in err

    @pytest.mark.parametrize("options, named", [
        (("--m-range", "5:6"), "m_range"),
        (("--m-range", "1:1"), "m_range"),
        (("--n-range", "6:10", "--m-range", "6:6", "--n-range", "4:9"), "n_range"),
    ])
    def test_path_w_range_below_6_exits_2_naming_it(self, capsys, options, named):
        code, out, err = run(capsys, "suite", "--name", "path-w", "--r", "3", *options)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {named} must start at 6 or more") and "Traceback" not in err

    def test_bridge_with_no_copy_exits_1(self, capsys):
        code, out, _ = run(capsys, "suite", "--name", "bridge", "--r", "3", "--m-max", "0")
        assert code == 1
        assert "note: no case ran" in out

    def test_bad_suite_name_exits_2(self, capsys):
        assert run(capsys, "suite", "--name", "wrong")[0] == 2

    def test_root_finding_error_fails_only_its_case(self, tmp_path, capsys, monkeypatch):
        from hypermatch import RootFindingError, disjoint_union, family_w, loose_path
        from hypermatch.suites import _energy

        # the lhs of (m, n) = (6, 7) and the rhs of (7, 6)
        bad = disjoint_union(loose_path(3, 1).hg, family_w(3, 6).hg)

        def failing(hg, tol):
            if hg == bad:
                raise RootFindingError("injected failure")
            return _energy(hg, tol)

        monkeypatch.setattr("hypermatch.suites._energy", failing)
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "suite", "--name", "path-w", "--r", "3", "--json", str(path))
        assert code == 1
        cases = json.loads(path.read_text())["cases"]
        assert len(cases) == 25
        failed = {(c["params"]["m"], c["params"]["n"]): c for c in cases if not c["passed"]}
        assert sorted(failed) == [(6, 7), (7, 6)]
        assert failed[6, 7]["me_lhs"] is None and failed[6, 7]["me_rhs"] > 0
        assert failed[7, 6]["me_rhs"] is None and failed[7, 6]["me_lhs"] > 0
        for case in failed.values():
            assert "injected failure" in case["error"]
            assert case["repro"].startswith("hypermatch suite --name path-w --r 3 ")
        assert not any("error" in c or "repro" in c for c in cases if c["passed"])
        rows = [line.split() for line in out.splitlines() if line.endswith("FAIL")]
        assert [row[3] for row in rows] == ["-", "-"]

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from hypermatch.suites import SuiteReport

        def fake(name, **kwargs):
            return SuiteReport(
                name,
                cases=[{
                    "params": {"r": 3}, "phi_equal": False, "passed": False,
                    "rho_lhs": 0.0, "rho_rhs": 1.0, "me_lhs": 0.0, "me_rhs": 0.0,
                }],
                passed=False,
            )

        monkeypatch.setattr("hypermatch.cli.run_suite", fake)
        code, out, _ = run(capsys, "suite", "--name", "path-w")
        assert code == 1
        assert "FAIL" in out


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    import hypermatch.cli as cli

    parser = cli._build_parser()  # built by the first call, here or in an earlier main, and kept

    def rebuilt(*args, **kwargs):
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", rebuilt)
    path = construct_file(tmp_path, capsys, "p1.json", "LoosePath", 4, "1")
    code, out, _ = run(capsys, "rho", str(path))
    assert code == 0 and float(out) == pytest.approx(1.0)
    code, out, _ = run(capsys, "suite", "--name", "path-w", "--r", "3", "--m-range", "6:6", "--n-range", "6:6")
    assert code == 0 and "suite path-w: PASS" in out
    assert cli._build_parser() is parser


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    path = construct_file(tmp_path, capsys, "p2.json", "LoosePath", 3, "2")
    monkeypatch.setenv("HG_TOL", "1e-6")
    code, out, _ = run(capsys, "rho", str(path), "--summary")
    assert code == 0
    assert json.loads(out)["tol"] == pytest.approx(1e-6)


@pytest.mark.parametrize("value", ["nan", "-1", "0", "abc", "inf"])
def test_invalid_env_tolerance_exits_2(tmp_path, capsys, monkeypatch, value):
    path = construct_file(tmp_path, capsys, "p2.json", "LoosePath", 3, "2")
    assert run(capsys, "me", str(path))[0] == 0  # a warm record must not mask the error
    monkeypatch.setenv("HG_TOL", value)
    for argv in (("me", str(path)), ("me", str(path), "--summary"),
                 ("suite", "--name", "path-w", "--r", "3"),
                 ("suite", "--name", "coalesce", "--r", "2", "--trials", "1", "--m-max", "1"),
                 ("suite", "--name", "bridge", "--r", "2", "--trials", "1", "--m-max", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: HG_TOL ") and "Traceback" not in err


class _ClosedPipe:
    """A standard output whose reader has gone away, on the file
    descriptor of a scratch file so that redirecting it harms nothing."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_quietly(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["suite", "--name", "path-w", "--r", "3"])
        assert code == 1
        assert capsys.readouterr().err == ""
        # what is still buffered for stdout is flushed to devnull at exit
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
