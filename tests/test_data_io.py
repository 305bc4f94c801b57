"""Ingestion tests: CSV loading, treatment rules, config validation."""

import json
from dataclasses import replace

import pytest

from robustz.data_io import (ConfigError, DataError, Dataset, NSpec, Predicate, Unit,
                             load_config, load_dataset)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def base_config(tmp_path, **overrides):
    doc = {
        "data_path": "data.csv",
        "treatment_rule": {
            "column": "flyash",
            "treated_predicate": {"op": ">=", "value": 24.5},
            "control_predicate": {"op": "==", "value": 0},
        },
        "outcome_column": "strength",
        "covariate_rules": [
            {"column": "cement", "kind": "caliper", "tolerance": 30},
        ],
    }
    doc.update(overrides)
    return write_config(tmp_path, doc)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


FOUR_ROWS = (
    "flyash,cement,strength\n"
    "30,100,41.5\n"
    "0,102,38.0\n"
    "10,95,40.1\n"
    "25,99,45.2\n"
)


class TestPredicate:
    @pytest.mark.parametrize("op, raw, constant, hit", [
        ("==", "5", 5, True), ("==", "5.0", "5", True), ("==", "4", 5, False),
        ("!=", "5", 5, False), ("!=", "5.0", "5", False), ("!=", "4", 5, True),
        ("<=", "5", 5, True), ("<=", "6", 5.5, False), ("<=", "4", "5", True),
        (">=", "5", 5, True), (">=", "4", 5.5, False), (">=", "6", "5", True),
        ("<", "5", 5, False), ("<", "4", 5.5, True), ("<", "6", "5", False),
        (">", "5", 5, False), (">", "6", 5.5, True), (">", "4", "5", False),
        ("==", "t", "t", True), ("==", "t", "c", False), ("==", "5", "five", False),
        ("==", "t", 5, False),
        ("!=", "t", "t", False), ("!=", "t", "c", True), ("!=", "5", "five", True),
        ("!=", "t", 5, True),
    ])
    def test_each_op(self, op, raw, constant, hit):
        assert Predicate(((op, constant),)).matches(raw, "col") is hit

    @pytest.mark.parametrize("op", ["<=", ">=", "<", ">"])
    @pytest.mark.parametrize("raw, constant", [("t", 5), ("5", "t"), ("t", "t")])
    def test_ordered_op_on_text_raises(self, op, raw, constant):
        with pytest.raises(DataError, match=f"predicate {op} .* on column 'col'"):
            Predicate(((op, constant),)).matches(raw, "col")

    def test_clauses_are_a_conjunction(self):
        window = Predicate(((">=", 10), ("<", 20)))
        assert window.matches("10", "col")
        assert not window.matches("20", "col")
        assert not window.matches("9.5", "col")


class TestLoadDataset:
    def test_partition_by_predicates(self, tmp_path):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, FOUR_ROWS)
        ds = load_dataset(config.data_path, config)
        assert sum(u.treatment for u in ds.units) == 2
        assert sum(not u.treatment for u in ds.units) == 1
        assert ds.excluded == 1
        assert len(ds.units) + ds.excluded == 4

    def test_missing_column(self, tmp_path):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, "flyash,cement\n30,100\n0,90\n")
        with pytest.raises(DataError, match="missing column"):
            load_dataset(config.data_path, config)

    @pytest.mark.parametrize("text, message", [
        ("flyash,cement,strength\n30,100,41.5,9\n0,90,1\n", "row 1: expected 3 fields, got 4"),
        ("flyash,cement,strength\n30,100,41.5\n0,90\n", "row 2: expected 3 fields, got 2"),
        ("flyash,cement,strength,cement\n30,100,41.5,1\n0,90,1,2\n",
         "column 'cement' appears 2 times in the header"),
        ("", "empty file"),
    ], ids=["long_row", "short_row", "repeated_column", "empty_file"])
    def test_malformed_csv(self, tmp_path, text, message):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, text)
        with pytest.raises(DataError, match=message):
            load_dataset(config.data_path, config)

    def test_non_numeric_outcome(self, tmp_path):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, "flyash,cement,strength\n30,100,bad\n0,90,1\n")
        with pytest.raises(DataError, match="outcome"):
            load_dataset(config.data_path, config)

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    def test_non_finite_outcome(self, tmp_path, raw):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, f"flyash,cement,strength\n30,100,1\n0,90,{raw}\n")
        with pytest.raises(DataError, match=rf"row 2: non-finite outcome '{raw}'$"):
            load_dataset(config.data_path, config)

    def test_overlapping_predicates(self, tmp_path):
        path = base_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["treatment_rule"]["control_predicate"] = {"op": "<=", "value": 100}
        write_config(tmp_path, doc)
        config = load_config(path)
        write_csv(tmp_path, FOUR_ROWS)
        with pytest.raises(DataError, match="both"):
            load_dataset(config.data_path, config)

    def test_empty_control_group(self, tmp_path):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, "flyash,cement,strength\n30,100,41.5\n25,99,45.2\n")
        with pytest.raises(DataError, match="empty control"):
            load_dataset(config.data_path, config)

    @pytest.mark.parametrize("units, message", [
        ([Unit("1", {}, True, 1.0), Unit("2", {}, False, float("nan"))],
         "unit '2' has non-finite outcome nan"),
        ([Unit("1", {}, False, 1.0)], "empty treated group"),
    ], ids=["non_finite_outcome", "no_treated"])
    def test_dataset_invariants(self, units, message):
        with pytest.raises(DataError, match=message):
            Dataset(units=tuple(units))

    def test_missing_covariate_value(self, tmp_path):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, "flyash,cement,strength\n30,,41.5\n0,90,38.0\n")
        with pytest.raises(DataError, match="missing value"):
            load_dataset(config.data_path, config)

    def test_blank_lines_skipped(self, tmp_path):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, FOUR_ROWS + "\n\n")
        ds = load_dataset(config.data_path, config)
        assert len(ds.units) + ds.excluded == 4

    def test_bom_header_tolerated(self, tmp_path):
        config = load_config(base_config(tmp_path))
        (tmp_path / "data.csv").write_bytes(b"\xef\xbb\xbf" + FOUR_ROWS.encode())
        ds = load_dataset(config.data_path, config)
        assert sum(u.treatment for u in ds.units) == 2

    def test_deterministic(self, tmp_path):
        config = load_config(base_config(tmp_path))
        write_csv(tmp_path, FOUR_ROWS)
        a = load_dataset(config.data_path, config)
        b = load_dataset(config.data_path, config)
        assert a == b

    def test_categorical_covariates_preserved(self, tmp_path):
        path = write_config(tmp_path, {
            "data_path": "data.csv",
            "treatment_rule": {
                "column": "grp",
                "treated_predicate": {"op": "==", "value": "t"},
                "control_predicate": {"op": "==", "value": "c"},
            },
            "outcome_column": "y",
            "covariate_rules": [{"column": "color", "kind": "exact"}],
        })
        write_csv(tmp_path, "grp,color,y\nt,red,1.0\nc,red,2.0\n")
        config = load_config(path)
        ds = load_dataset(config.data_path, config)
        assert ds.units[0].covariates["color"] == "red"

    def test_conjunction_predicate(self, tmp_path):
        path = write_config(tmp_path, {
            "data_path": "data.csv",
            "treatment_rule": {
                "column": "x",
                "treated_predicate": [{"op": ">=", "value": 10}, {"op": "<", "value": 20}],
                "control_predicate": {"op": "<", "value": 10},
            },
            "outcome_column": "y",
            "covariate_rules": [{"column": "c", "kind": "exact"}],
        })
        write_csv(tmp_path, "x,y,c\n15,1.0,a\n5,2.0,a\n25,3.0,a\n")
        config = load_config(path)
        ds = load_dataset(config.data_path, config)
        assert sum(u.treatment for u in ds.units) == 1
        assert sum(not u.treatment for u in ds.units) == 1
        assert ds.excluded == 1

    @staticmethod
    def treatment_config(tmp_path, treated, control):
        return load_config(write_config(tmp_path, {
            "data_path": "data.csv",
            "treatment_rule": {"column": "x", "treated_predicate": treated,
                               "control_predicate": control},
            "outcome_column": "y",
            "covariate_rules": [{"column": "c", "kind": "exact"}],
        }))

    # each distinct treatment value is classified once, at its first row:
    # these pin that a value seen again gets the same class and that the
    # errors name the same rows
    @pytest.mark.parametrize("treated, control, values, bad", [
        ({"op": ">=", "value": 24.5}, {"op": "==", "value": 0},
         ["30", "0", "30", "none", "0", "none"], "predicate >= 24.5"),
        ({"op": "==", "value": 1}, {"op": "<=", "value": 0},
         ["1", "-1", "1", "x", "1", "x"], "predicate <= 0"),
        ([{"op": "!=", "value": "skip"}, {"op": ">=", "value": 10}],
         [{"op": "!=", "value": "skip"}, {"op": "<", "value": 10}],
         ["skip", "12", "skip", "5", "bad", "skip", "bad"], "predicate >= 10"),
    ], ids=["treated_ordering", "control_ordering", "conjunction"])
    def test_text_under_an_ordering_predicate(self, tmp_path, treated, control, values, bad):
        config = self.treatment_config(tmp_path, treated, control)
        first_text = next(k for k, x in enumerate(values) if x[0].isalpha() and x != "skip")
        # every row from the first text value on has a non-numeric outcome, so
        # an error raised at a later row would name that row's outcome
        outcomes = [str(k) if k < first_text else "late" for k in range(len(values))]
        write_csv(tmp_path, "x,c,y\n" + "".join(f"{x},a,{y}\n" for x, y in zip(values, outcomes)))
        message = f"{bad} on column 'x' needs numeric values, got '{values[first_text]}'"
        with pytest.raises(DataError, match=f"^{message}$"):
            load_dataset(config.data_path, config)

    def test_both_names_the_first_such_row(self, tmp_path):
        config = self.treatment_config(tmp_path, {"op": ">=", "value": 10},
                                       {"op": "<=", "value": 20})
        write_csv(tmp_path, "x,c,y\n30,a,1\n5,a,2\n30,a,3\n15,a,4\n5,a,5\n15.0,a,6\n15,a,7\n")
        with pytest.raises(DataError, match="row 4: satisfies both treated and control"):
            load_dataset(config.data_path, config)

    def test_repeated_values_keep_their_class(self, tmp_path):
        config = self.treatment_config(tmp_path, {"op": ">=", "value": 10},
                                       {"op": "==", "value": 0})
        values = ["12", "0", "5", "12", "0.0", "5", "7", "12", "5", "0", "12.0", "5.0"]
        write_csv(tmp_path, "x,c,y\n" + "".join(f"{x},{k % 2},{k}\n"
                                                for k, x in enumerate(values)))
        ds = load_dataset(config.data_path, config)
        treated, control = {"12", "12.0"}, {"0", "0.0"}
        assert ds.excluded == 5
        assert ds.units == tuple(Unit(str(k + 1), {"c": float(k % 2)}, x in treated, float(k))
                                 for k, x in enumerate(values) if x in treated | control)

    def test_text_values_keep_their_class(self, tmp_path):
        config = self.treatment_config(tmp_path, {"op": "==", "value": "t"},
                                       {"op": "==", "value": "c"})
        values = ["t", "c", "u", "t", "c", "c", "u", "t"]
        write_csv(tmp_path, "x,c,y\n" + "".join(f"{x},a,{k}\n" for k, x in enumerate(values)))
        ds = load_dataset(config.data_path, config)
        assert ds.excluded == 2
        assert [(u.id, u.treatment) for u in ds.units] == [
            (str(k + 1), x == "t") for k, x in enumerate(values) if x != "u"]


class TestLoadConfig:
    def test_alpha_defaults(self, tmp_path):
        config = load_config(base_config(tmp_path))
        assert config.alpha == 0.05

    def test_oracle_budget_defaults(self, tmp_path):
        config = load_config(base_config(tmp_path))
        assert config.oracle_budget == 10_000_000

    def test_minimal_fixed_n(self, tmp_path):
        config = load_config(base_config(tmp_path, n_spec={"mode": "fixed", "n": 20}))
        assert config.n_spec.mode == "fixed"
        assert config.n_spec.n == 20

    def test_sweep_range_validated(self, tmp_path):
        path = base_config(tmp_path, n_spec={"mode": "sweep", "n_min": 9, "n_max": 3})
        with pytest.raises(ConfigError, match="invalid sweep range 9:3:1"):
            load_config(path)

    @pytest.mark.parametrize("n_spec", [
        {"n": 3},
        {"mode": "bogus", "n": 3},
        {"mode": ["fixed"], "n": 3},
        {"mode": "fixed", "n": 3, "n_min": 2},
        {"mode": "fixed", "n": True},
        {"mode": "sweep", "n_min": 2, "n_max": "4"},
        {"mode": "binary_search", "n_min": 1},
        {"mode": "binary_search", "n_max": 4.0},
        [],
    ], ids=["no_mode", "unknown_mode", "list_mode", "unknown_key", "bool_n", "text_n_max",
            "open_search_from_1", "float_n_max", "not_an_object"])
    def test_n_spec_rejected(self, tmp_path, n_spec):
        with pytest.raises(ConfigError, match="n_spec"):
            load_config(base_config(tmp_path, n_spec=n_spec))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "configuration must be a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "outcome_column"},
         "missing required field 'outcome_column'"),
        (lambda doc: dict(doc, treatment_rule="flyash"), "treatment_rule must be an object"),
        (lambda doc: dict(doc, covariate_rules={}), "covariate_rules must be a list"),
        (lambda doc: dict(doc, data_path=""), "data_path must be a non-empty string"),
        (lambda doc: dict(doc, treatment_rule=dict(doc["treatment_rule"], treated_predicate=[])),
         "treated_predicate must be a predicate object or a non-empty list"),
        (lambda doc: dict(doc, treatment_rule=dict(doc["treatment_rule"], treated_predicate=[1])),
         "treated_predicate entries must be objects"),
        (lambda doc: dict(doc, treatment_rule=dict(doc["treatment_rule"],
                                                   treated_predicate={"op": "=="})),
         "treated_predicate: missing 'value'"),
        (lambda doc: dict(doc, treatment_rule={"column": "flyash"}),
         "treatment_rule: missing 'treated_predicate'"),
        (lambda doc: dict(doc, covariate_rules=["cement"]),
         r"covariate_rules\[0\] must be an object"),
        (lambda doc: dict(doc, covariate_rules=[{"column": "cement"}]),
         r"covariate_rules\[0\]: 'column' and 'kind' are required"),
    ], ids=["not_an_object", "missing_field", "rule_not_an_object", "rules_not_a_list",
            "empty_data_path", "empty_predicate_list", "predicate_entry_not_an_object",
            "predicate_without_value", "rule_missing_predicate", "covariate_rule_not_an_object",
            "covariate_rule_without_kind"])
    def test_malformed_document_rejected(self, tmp_path, edit, message):
        doc = json.loads(base_config(tmp_path).read_text())
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, edit(doc)))

    def test_unknown_top_level_field(self, tmp_path):
        path = base_config(tmp_path, extra_field=1)
        with pytest.raises(ConfigError, match="unknown field"):
            load_config(path)

    def test_unknown_predicate_field(self, tmp_path):
        path = write_config(tmp_path, {
            "data_path": "d.csv",
            "treatment_rule": {
                "column": "x",
                "treated_predicate": {"op": ">=", "value": 1, "oops": 2},
                "control_predicate": {"op": "<", "value": 1},
            },
            "outcome_column": "y",
            "covariate_rules": [],
        })
        with pytest.raises(ConfigError, match="unknown field"):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_alpha_range_enforced(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            load_config(base_config(tmp_path, alpha=1.0))

    def test_bad_op_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "data_path": "d.csv",
            "treatment_rule": {
                "column": "x",
                "treated_predicate": {"op": "~=", "value": 1},
                "control_predicate": {"op": "<", "value": 1},
            },
            "outcome_column": "y",
            "covariate_rules": [],
        })
        with pytest.raises(ConfigError, match="op"):
            load_config(path)

    def test_caliper_tolerance_validated(self, tmp_path):
        path = base_config(
            tmp_path,
            covariate_rules=[{"column": "cement", "kind": "caliper", "tolerance": -3}],
        )
        with pytest.raises(ConfigError, match=">= 0"):
            load_config(path)

    @pytest.mark.parametrize("overrides", [
        {"treatment_rule": {
            "column": "flyash",
            "treated_predicate": {"op": "==", "value": True},
            "control_predicate": {"op": "==", "value": 0},
        }},
        {"covariate_rules": [{"column": "cement", "kind": "caliper", "tolerance": True}]},
        {"n_spec": {"mode": "sweep", "n_min": 2, "n_max": 4, "step": True}},
        {"oracle_budget": True},
    ], ids=["predicate_value", "caliper_tolerance", "sweep_step", "oracle_budget"])
    def test_booleans_are_not_numbers(self, tmp_path, overrides):
        with pytest.raises(ConfigError):
            load_config(base_config(tmp_path, **overrides))

    def test_data_path_relative_to_config(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        config = load_config(base_config(sub))
        assert config.data_path == str(sub / "data.csv")

    def test_binary_search_default(self, tmp_path):
        config = load_config(base_config(tmp_path))
        assert config.n_spec.mode == "binary_search"
        assert config.n_spec.n_min == 2
        assert config.n_spec.n_max is None

    def test_shipped_study_configs_parse(self):
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        concrete = load_config(os.path.join(root, "configs", "concrete.json"))
        assert concrete.treatment_rule.column == "fly_ash"
        assert len(concrete.covariate_rules) == 7
        bike = load_config(os.path.join(root, "configs", "bike.json"))
        assert [r.kind for r in bike.covariate_rules].count("exact") == 3


class TestRunRequestRules:
    """NSpec and RunConfig check themselves, however they are built."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "fixed", "n": 1}, "n must be >= 2, got 1"),
        ({"mode": "fixed"}, "n must be an integer, got None"),
        ({"mode": "sweep", "n_min": 2, "n_max": 5, "step": False}, "step must be an integer"),
        ({"mode": "sweep", "n_min": 4, "n_max": 3}, "invalid sweep range 4:3:1"),
        ({"mode": "binary_search", "n_min": 1}, "invalid search range 1:$"),
        ({"mode": "binary_search", "n_min": 3, "n_max": 2}, "invalid search range 3:2"),
        ({"mode": "exhaustive", "n": 3}, "mode must be"),
    ])
    def test_n_spec_rules(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            NSpec(**kwargs)

    def test_open_search_range(self):
        assert NSpec(mode="binary_search", n_min=2).n_max is None

    @pytest.mark.parametrize("changes, message", [
        ({"alpha": float("nan")}, "alpha must be in"),
        ({"alpha": "0.05"}, "alpha must be in"),
        ({"oracle_budget": 0}, "oracle_budget must be a positive integer, got 0"),
        ({"oracle_budget": 5.0}, "oracle_budget must be a positive integer"),
    ])
    def test_replace_rechecks(self, tmp_path, changes, message):
        config = load_config(base_config(tmp_path))
        with pytest.raises(ValueError, match=message):
            replace(config, **changes)
