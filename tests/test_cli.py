"""CLI tests: exit codes, JSON/CSV report schemas, golden comparisons."""

import json
import os
import subprocess
import sys

import pytest

import robustz
from robustz.cli import _emit, main
from robustz.data_io import ConfigError, load_config

TIMING_FIELDS = ("ms",)


def strip_timings(doc):
    return {k: v for k, v in doc.items() if k not in TIMING_FIELDS}


def write_fixture(tmp_path, effects_rows, config_overrides=None):
    """A tiny dataset whose pairwise effects equal effects_rows entries."""
    csv_lines = ["grp,blk,y"]
    for value, blk, treated in effects_rows:
        csv_lines.append(f"{'t' if treated else 'c'},{blk},{value}")
    (tmp_path / "data.csv").write_text("\n".join(csv_lines) + "\n")
    doc = {
        "data_path": "data.csv",
        "treatment_rule": {
            "column": "grp",
            "treated_predicate": {"op": "==", "value": "t"},
            "control_predicate": {"op": "==", "value": "c"},
        },
        "outcome_column": "y",
        "covariate_rules": [{"column": "blk", "kind": "exact"}],
    }
    doc.update(config_overrides or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def negative_fixture(tmp_path):
    # single exact block with outcomes t={0,1}, c={4,2}: the canonical
    # all-negative 2x2 effects {(0,0):-4, (0,1):-2, (1,0):-3, (1,1):-1}
    csv_lines = [
        "grp,blk,y",
        "t,a,0",
        "t,a,1",
        "c,a,4",
        "c,a,2",
    ]
    (tmp_path / "data.csv").write_text("\n".join(csv_lines) + "\n")
    doc = {
        "data_path": "data.csv",
        "treatment_rule": {
            "column": "grp",
            "treated_predicate": {"op": "==", "value": "t"},
            "control_predicate": {"op": "==", "value": "c"},
        },
        "outcome_column": "y",
        "covariate_rules": [{"column": "blk", "kind": "exact"}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestMatch:
    def test_report_golden(self, negative_fixture, capsys):
        assert main(["match", "--config", str(negative_fixture)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert strip_timings(doc) == {
            "schema": "robustz-report/1",
            "command": "match",
            "treated": 2,
            "control": 2,
            "excluded": 0,
            "matched_treated": 2,
            "matched_control": 2,
            "nnz": 4,
            "blocks": 1,
            "identical_rows": True,
        }

    def test_empty_matches_exit_2(self, tmp_path, capsys):
        config = write_fixture(tmp_path, [(1.0, "a", True), (2.0, "b", False)])
        assert main(["match", "--config", str(config)]) == 2
        assert "no good matches" in capsys.readouterr().err
        out = tmp_path / "out"
        for command in (["test", "--n", "2"], ["sweep", "--sweep", "2:3"], ["oracle", "--n", "2"],
                        ["export", "--n", "2", "--kind", "qip", "--direction", "min",
                         "--case", "case1"]):
            assert main([command[0], "--config", str(config), *command[1:],
                         "--out", str(out)]) == 2, command
            captured = capsys.readouterr()
            assert captured.err == "no good matches\n"
            assert captured.out == ""
        assert not (tmp_path / "out.lp").exists()

    def test_coordinate_dump(self, negative_fixture, tmp_path, capsys):
        out = tmp_path / "coords.txt"
        assert main(["match", "--config", str(negative_fixture), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "0,0,-4.0"
        assert len(lines) == 4

    def test_bad_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["match", "--config", str(path)]) == 1

    @pytest.mark.parametrize("text, message", [
        ("grp,blk,y\nt,a,0,9\nc,a,4\n", "row 1: expected 3 fields, got 4"),
        ("grp,blk,y\nt,a\nc,a,4\n", "row 1: expected 3 fields, got 2"),
        ("grp,blk,y,blk\nt,a,0,a\nc,a,4,a\n", "column 'blk' appears 2 times in the header"),
    ], ids=["long_row", "short_row", "repeated_column"])
    def test_malformed_csv_exit_1(self, negative_fixture, capsys, text, message):
        (negative_fixture.parent / "data.csv").write_text(text)
        for command in (["match"], ["test", "--n", "2"]):
            assert main([*command, "--config", str(negative_fixture)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err

    def test_non_finite_caliper_covariate_exit_1(self, tmp_path, capsys):
        caliper = {"covariate_rules": [{"column": "blk", "kind": "caliper", "tolerance": 1}]}
        for bad in ("nan", "inf"):
            config = write_fixture(tmp_path, [(1.0, bad, True), (2.0, "0", False),
                                              (3.0, "100", False), (4.0, "inf", False)], caliper)
            assert main(["match", "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert "non-finite" in err and "'blk'" in err

    def test_non_finite_outcome_exit_1(self, tmp_path, capsys):
        for bad in ("inf", "-inf", "nan"):
            config = write_fixture(tmp_path, [(1.0, "a", True), (bad, "a", False)])
            assert main(["test", "--config", str(config), "--n", "2"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"row 2: non-finite outcome '{bad}'" in err

    def test_huge_finite_effect_exit_1(self, tmp_path, capsys):
        config = write_fixture(tmp_path, [(0.0, "a", True), (1e200, "a", True),
                                          (-3e200, "a", False), (2e200, "a", False)])
        assert main(["test", "--config", str(config), "--n", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "effect of pair (0, 0) exceeds 1e+100 in magnitude: 3e+200" in err


class TestTest:
    def test_golden_report(self, negative_fixture, capsys):
        assert main(["test", "--config", str(negative_fixture), "--n", "2"]) == 0
        doc = strip_timings(json.loads(capsys.readouterr().out))
        assert doc["n"] == 2
        assert doc["z_min"] == pytest.approx(-2.3570, abs=1e-4)
        assert doc["z_max"] == pytest.approx(-2.3570, abs=1e-4)
        assert doc["p_min"] == pytest.approx(0.9908, abs=1e-4)
        assert doc["classification"] == "absolute_robust"
        assert doc["case_min"] == "min_case2"
        assert doc["case_max"] == "max_case2"
        assert doc["allowable_gap"]["z_critical"] == pytest.approx(1.6449, abs=1e-4)

    def test_n_below_two_is_usage_error(self, negative_fixture, capsys):
        assert main(["test", "--config", str(negative_fixture), "--n", "1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_n_without_fixed_spec(self, negative_fixture, capsys):
        assert main(["test", "--config", str(negative_fixture)]) == 1

    def test_fixed_n_from_config(self, tmp_path, capsys):
        config = write_fixture(
            tmp_path,
            [(-4.0, "a", True), (1.0, "a", False), (-1.0, "b", True), (2.0, "b", False)],
            {"n_spec": {"mode": "fixed", "n": 2}},
        )
        assert main(["test", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2

    def test_no_pairs_exit_3(self, negative_fixture, capsys):
        assert main(["test", "--config", str(negative_fixture), "--n", "4"]) == 3

    def test_out_file(self, negative_fixture, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["test", "--config", str(negative_fixture), "--n", "2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["classification"] == "absolute_robust"

    @pytest.mark.parametrize("y, z", [(3.0, "inf"), (0.0, "-inf")])
    def test_equal_effects_report_infinite_z(self, tmp_path, capsys, y, z):
        # every eligible effect is y - 1: sigma is 0, so Z is a signed infinity
        config = write_fixture(tmp_path, [(y, "a", True), (y, "a", True),
                                          (1.0, "a", False), (1.0, "a", False)])
        assert main(["test", "--config", str(config), "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [doc[k] for k in ("z_min", "z_max", "gamma_min", "gamma_max")] == [z] * 4
        assert doc["degenerate_min"] and doc["degenerate_max"]
        assert "allowable_gap" not in doc

    @pytest.mark.parametrize("y", [3.0, 0.0, 1.0])
    def test_degenerate_reports_are_strict_json(self, tmp_path, capsys, y):
        # sigma is 0 for every effect y - 1, and y = 1 makes every effect zero
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        config = write_fixture(tmp_path, [(y, "a", True), (y, "a", True),
                                          (1.0, "a", False), (1.0, "a", False)])
        out = tmp_path / "report.json"
        assert main(["test", "--config", str(config), "--n", "2", "--out", str(out)]) == 0
        for text in (capsys.readouterr().out, out.read_text()):
            doc = json.loads(text, parse_constant=refuse)
            assert doc["degenerate_min"] and doc["degenerate_max"]
        if y == 1.0:
            assert (doc["z_min"], doc["z_max"]) == (0.0, 0.0)

    def test_nan_fails_loudly(self):
        with pytest.raises(ValueError):
            _emit({"z_min": float("nan")})


class TestSweep:
    def test_csv_with_no_pairs_row(self, negative_fixture, capsys):
        assert main(["sweep", "--config", str(negative_fixture),
                     "--sweep", "2:3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,z_min,z_max,p_min,p_max,classification,ms"
        assert lines[1].startswith("2,")
        assert "absolute_robust" in lines[1]
        assert lines[2].startswith("3,,,,,no_pairs,")

    def test_out_file_equals_stdout(self, negative_fixture, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(negative_fixture), "--sweep", "2:3",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == 3
        assert out.read_text() == text

    def test_fixed_n_configuration_needs_a_range(self, tmp_path, capsys):
        config = write_fixture(tmp_path, [(0.0, "a", True), (1.0, "a", False)],
                               {"n_spec": {"mode": "fixed", "n": 2}})
        assert main(["sweep", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: configuration fixes n; "
                                "use 'test' or pass --sweep/--binary-search\n")

    def test_binary_search_single_row(self, negative_fixture, capsys):
        assert main(["sweep", "--config", str(negative_fixture),
                     "--binary-search", "2:4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,")

    def test_conflicting_modes_usage_error(self, negative_fixture, capsys):
        assert main(["sweep", "--config", str(negative_fixture),
                     "--sweep", "2:3", "--binary-search", "2:3"]) == 1

    def test_invalid_range_usage_error(self, negative_fixture, tmp_path, capsys):
        # checked before the work: no CSV header or --out file
        out = tmp_path / "sweep.csv"
        for option, text, message in (("--sweep", "1:3", "invalid sweep range 1:3:1"),
                                      ("--sweep", "3:2", "invalid sweep range 3:2:1"),
                                      ("--binary-search", "10:5", "invalid search range 10:5")):
            argv = ["sweep", "--config", str(negative_fixture), option, text, "--out", str(out)]
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"usage error: {message}\n"
            assert not out.exists()

    def test_empty_range_is_a_usage_error(self, tmp_path, capsys):
        # an empty value is given, not absent; the data path is never read
        config = write_fixture(tmp_path, [], {"data_path": "missing.csv"})
        out = tmp_path / "sweep.csv"
        for options, message in ((["--sweep", ""], "malformed range ''"),
                                 (["--sweep", "2:x"], "malformed range '2:x'"),
                                 (["--sweep", "", "--binary-search", "2:3"],
                                  "--sweep and --binary-search are mutually exclusive")):
            argv = ["sweep", "--config", str(config), *options, "--out", str(out)]
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"usage error: {message}\n"
            assert not out.exists()

    def test_bad_alpha_usage_error(self, negative_fixture, tmp_path, capsys):
        # checked before the work: no report, CSV header or --out file
        out = tmp_path / "report.out"
        for command in (["test", "--n", "2"], ["sweep", "--sweep", "2:2"]):
            for alpha in ("1.5", "0", "nan"):
                argv = [command[0], "--config", str(negative_fixture), *command[1:],
                        "--alpha", alpha, "--out", str(out)]
                assert main(argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("usage error: alpha must be in (0, 1)")
                assert not out.exists()

    def test_sweep_spec_from_config(self, tmp_path, capsys):
        config = write_fixture(
            tmp_path,
            [(-4.0, "a", True), (1.0, "a", False), (-1.0, "b", True), (2.0, "b", False)],
            {"n_spec": {"mode": "sweep", "n_min": 2, "n_max": 2}},
        )
        assert main(["sweep", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_default_search_with_one_matched_treated_exit_3(self, tmp_path, capsys):
        # no n_spec: the largest-feasible-n search over the default range;
        # block b has no control, so only one treated unit matches
        config = write_fixture(
            tmp_path,
            [(0.0, "a", True), (1.0, "a", False), (2.0, "a", False), (0.5, "b", True)],
        )
        assert main(["sweep", "--config", str(config)]) == 3
        captured = capsys.readouterr()
        assert "no n in range is feasible" in captured.err
        assert captured.out == ""


class TestOracle:
    def test_golden_report(self, negative_fixture, capsys):
        assert main(["oracle", "--config", str(negative_fixture), "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "schema": "robustz-report/1",
            "command": "oracle",
            "n": 2,
            "z_min": -7.071067811865475,
            "z_max": -2.357022603955158,
            "argmin": [[0, 1], [1, 0]],
            "argmax": [[0, 0], [1, 1]],
            "enumerated": 2,
            "degenerate_seen": False,
        }

    def test_budget_refusal_exit_1(self, negative_fixture, capsys):
        assert main(["oracle", "--config", str(negative_fixture), "--n", "2",
                     "--oracle-budget", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: enumeration exceeded the budget of 1 assignments\n"
        assert captured.out == ""

    def test_too_large_n_exit_3(self, negative_fixture, capsys):
        assert main(["oracle", "--config", str(negative_fixture), "--n", "3"]) == 3


class TestCliRobustness:
    """Malformed inputs must exit nonzero without a traceback."""

    def test_bad_inputs_fail_cleanly(self, tmp_path, capsys):
        good_csv = tmp_path / "ok.csv"
        good_csv.write_text("grp,blk,y\nt,a,1\nc,a,2\n")

        def cfg(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
            return str(path)

        base = {
            "data_path": str(good_csv),
            "treatment_rule": {
                "column": "grp",
                "treated_predicate": {"op": "==", "value": "t"},
                "control_predicate": {"op": "==", "value": "c"},
            },
            "outcome_column": "y",
            "covariate_rules": [{"column": "blk", "kind": "exact"}],
        }
        bad_configs = [
            cfg("missing.json", dict(base, data_path="nowhere.csv")),
            cfg("badjson.json", "{broken"),
            cfg("badalpha.json", dict(base, alpha=2)),
            cfg("badrule.json", dict(base, covariate_rules=[{"column": "blk", "kind": "x"}])),
            cfg("badop.json", dict(base, treatment_rule={
                "column": "grp",
                "treated_predicate": {"op": "between", "value": 1},
                "control_predicate": {"op": "==", "value": "c"},
            })),
            cfg("extras.json", dict(base, surprise=True)),
            str(tmp_path / "does_not_exist.json"),
        ]
        for config in bad_configs:
            code = main(["test", "--config", config, "--n", "2"])
            assert code == 1, config
        # truncated / inconsistent CSV rows
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("grp,blk,y\nt,a\n")
        code = main(["test", "--config", cfg("ragged.json", dict(base, data_path=str(ragged))),
                     "--n", "2"])
        assert code == 1


    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_directory_path_fails_cleanly(self, negative_fixture, tmp_path, capsys, flag):
        # a repeated --config overrides the first one
        argv = ["test", "--config", str(negative_fixture), "--n", "2", flag, str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["test", "--n", "2"], ["sweep", "--sweep", "2:3"],
                                         ["oracle", "--n", "2"]])
    def test_bad_out_fails_before_the_work(self, negative_fixture, tmp_path, capsys, command):
        # a directory as --out: no report or CSV row reaches stdout first
        argv = [command[0], "--config", str(negative_fixture), *command[1:], "--out", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestExport:
    def test_qip_files_written(self, negative_fixture, tmp_path, capsys):
        base = tmp_path / "model"
        assert main(["export", "--config", str(negative_fixture), "--n", "2",
                     "--kind", "qip", "--direction", "min", "--case", "case1",
                     "--out", str(base)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["variables"] == 4
        assert (tmp_path / "model.lp").exists()
        assert (tmp_path / "model.json").exists()

    def test_ilp_files_written(self, negative_fixture, tmp_path, capsys):
        base = tmp_path / "model"
        assert main(["export", "--config", str(negative_fixture), "--n", "2",
                     "--kind", "ilp", "--direction", "max", "--b-l", "20", "--bl-range-note",
                     "--out", str(base)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["kind"], doc["case"], doc["variables"]) == ("ilp", None, 4)
        assert (doc["lp_path"], doc["sidecar_path"]) == (f"{base}.lp", f"{base}.json")
        sidecar = json.loads((tmp_path / "model.json").read_text())
        assert (sidecar["sense"], sidecar["b_l"]) == ("maximize", 20.0)
        assert sidecar["bl_grid_hint"] == [1.12e6, 26.12e6]
        assert [(v["name"], v["effect"], v["treated_id"], v["control_id"])
                for v in sidecar["variables"]] == [("a_0_0", -4.0, "1", "3"),
                                                   ("a_0_1", -2.0, "1", "4"),
                                                   ("a_1_0", -3.0, "2", "3"),
                                                   ("a_1_1", -1.0, "2", "4")]
        lp = (tmp_path / "model.lp").read_text().splitlines()
        assert " obj: - 4 a_0_0 - 2 a_0_1 - 3 a_1_0 - 1 a_1_1" in lp
        assert " variance_bound: + 16 a_0_0 + 4 a_0_1 + 9 a_1_0 + 1 a_1_1 <= 20" in lp

    def test_ilp_requires_positive_bound(self, negative_fixture, capsys):
        assert main(["export", "--config", str(negative_fixture), "--n", "2",
                     "--kind", "ilp", "--direction", "min", "--b-l", "-5"]) == 1

    def test_qip_requires_case(self, negative_fixture, capsys):
        assert main(["export", "--config", str(negative_fixture), "--n", "2",
                     "--kind", "qip", "--direction", "min"]) == 1

    @pytest.mark.parametrize("kind,missing", [("qip", "--case"), ("ilp", "--b-l")])
    def test_missing_option_checked_before_loading(self, tmp_path, capsys, kind, missing):
        # the data file does not exist, so only a check made before loading says usage
        config = write_fixture(tmp_path, [(0.0, "a", True), (1.0, "a", False)],
                               {"data_path": "nowhere.csv"})
        assert main(["export", "--config", str(config), "--n", "2",
                     "--kind", kind, "--direction", "min"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and missing in err

    @pytest.mark.parametrize("bound", ["-5", "0", "nan"])
    def test_bad_bound_checked_before_loading(self, tmp_path, capsys, bound):
        config = write_fixture(tmp_path, [(0.0, "a", True), (1.0, "a", False)],
                               {"data_path": "nowhere.csv"})
        assert main(["export", "--config", str(config), "--n", "2", "--kind", "ilp",
                     "--direction", "min", "--b-l", bound]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --b-l must be positive")


# (n_spec object, the same request as CLI flags, accepted?)
PAIR_COUNT_REQUESTS = [
    ({"mode": "fixed", "n": 1}, ["test", "--n", "1"], False),
    ({"mode": "fixed", "n": 2}, ["test", "--n", "2"], True),
    ({"mode": "sweep", "n_min": 2, "n_max": 3}, ["sweep", "--sweep", "2:3"], True),
    ({"mode": "sweep", "n_min": 1, "n_max": 3}, ["sweep", "--sweep", "1:3"], False),
    ({"mode": "sweep", "n_min": 3, "n_max": 2}, ["sweep", "--sweep", "3:2"], False),
    ({"mode": "sweep", "n_min": 2, "n_max": 3, "step": 0}, ["sweep", "--sweep", "2:3:0"], False),
    ({"mode": "binary_search", "n_min": 2, "n_max": 4}, ["sweep", "--binary-search", "2:4"], True),
    ({"mode": "binary_search", "n_min": 1, "n_max": 3}, ["sweep", "--binary-search", "1:3"], False),
    ({"mode": "binary_search", "n_min": 5, "n_max": 4}, ["sweep", "--binary-search", "5:4"], False),
]


class TestRunRequest:
    """The configuration and the flags state one request, checked by one set of rules."""

    @pytest.mark.parametrize("n_spec, argv, accepted", PAIR_COUNT_REQUESTS,
                             ids=[" ".join(r[1][1:]) for r in PAIR_COUNT_REQUESTS])
    def test_config_and_flags_agree(self, tmp_path, capsys, n_spec, argv, accepted):
        # the data file does not exist: an accepted request fails on reading it
        config = write_fixture(tmp_path, [(0.0, "a", True), (1.0, "a", False)],
                               {"data_path": "nowhere.csv"})
        assert main([argv[0], "--config", str(config), *argv[1:]]) == 1
        flag_err = capsys.readouterr().err
        assert flag_err.startswith("usage error:") is not accepted
        try:
            load_config(write_fixture(tmp_path, [], {"n_spec": n_spec}))
        except ConfigError as exc:
            assert not accepted
            assert flag_err == f"usage error: {str(exc).removeprefix('n_spec: ')}\n"
        else:
            assert accepted

    @pytest.mark.parametrize("argv", [
        ["test", "--n", "abc"],
        ["test", "--n", "2", "--alpha", "1.5"],
        ["test", "--n", "2", "--alpha", "nan"],
        ["test", "--n", "1"],
        ["sweep", "--sweep", "2:3", "--alpha", "1.5"],
        ["sweep", "--sweep", "2:3", "--alpha", "nan"],
        ["sweep", "--sweep", "1:3"],
        ["sweep", "--sweep", "3:2"],
        ["sweep", "--sweep", "2:3:0"],
        ["sweep", "--binary-search", "1:3"],
        ["sweep", "--binary-search", "5:4"],
        ["oracle", "--n", "1"],
        ["oracle", "--n", "2", "--oracle-budget", "0"],
        ["export", "--n", "1", "--kind", "qip", "--direction", "min", "--case", "case1"],
        ["export", "--n", "2", "--kind", "ilp", "--direction", "min", "--b-l", "-5"],
    ], ids=" ".join)
    def test_bad_value_checked_before_out_and_data(self, tmp_path, capsys, argv):
        config = write_fixture(tmp_path, [(0.0, "a", True), (1.0, "a", False)],
                               {"data_path": "nowhere.csv"})
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main([argv[0], "--config", str(config), *argv[1:],
                     "--out", str(out_dir / "result")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""
        assert list(out_dir.iterdir()) == []


def run_fresh(*args, cwd=None):
    """``python *args`` in a new interpreter that imports this checkout's robustz."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(robustz.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)


class TestColdStart:
    """A start imports only what its command runs; the rest loads on first use."""

    LAZY = {"BudgetExceededError": "oracle", "OracleResult": "oracle",
            "enumerate_extrema": "oracle", "ModelSpec": "qip_export",
            "export_ilp": "qip_export", "export_qip": "qip_export",
            "read_solution": "qip_export", "solution_to_values": "qip_export"}

    def test_cli_import_leaves_the_unused_modules_out(self):
        unused = ["statistics", "decimal", "fractions", "robustz.oracle", "robustz.qip_export"]
        proc = run_fresh("-c", f"import sys, robustz.cli; "
                               f"print([m for m in {unused!r} if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_lazy_names_import_from_the_package(self):
        names = ", ".join(self.LAZY)
        proc = run_fresh("-c", f"import json, sys; from robustz import {names}; "
                               f"print(json.dumps(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert {"robustz.oracle", "robustz.qip_export"} <= set(json.loads(proc.stdout))
        for name, module in self.LAZY.items():
            value = getattr(robustz, name)
            assert value is vars(sys.modules[f"robustz.{module}"])[name]
            assert name in dir(robustz)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'robustz' has no attribute 'nope'"):
            robustz.nope
        with pytest.raises(ImportError, match="cannot import name 'nope'"):
            from robustz import nope  # noqa: F401

    def test_oracle_and_export_from_a_fresh_start(self, negative_fixture, tmp_path):
        proc = run_fresh("-m", "robustz", "oracle", "--config", str(negative_fixture), "--n", "2",
                         "--oracle-budget", "1")
        assert proc.returncode == 1
        assert proc.stderr == "error: enumeration exceeded the budget of 1 assignments\n"
        assert proc.stdout == ""
        proc = run_fresh("-m", "robustz", "export", "--config", str(negative_fixture), "--n", "2",
                         "--kind", "qip", "--direction", "min", "--case", "case1",
                         "--out", str(tmp_path / "model"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["variables"] == 4
        assert (tmp_path / "model.lp").exists() and (tmp_path / "model.json").exists()
