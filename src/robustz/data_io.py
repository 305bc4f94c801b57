"""Dataset and run-configuration ingestion.

A run configuration is a single JSON object; unknown fields anywhere in
it are rejected. The treatment rule carries two predicates over one
column (comparison against a constant, conjunctions as JSON arrays);
rows matching neither predicate are excluded, rows matching both are a
configuration error. Covariate rules are evaluated by the matching
stage; here they are only parsed and validated.

Rows with missing values in any configured column are rejected rather
than imputed: silently filling values would bias the match structure.
So are rows whose field count differs from the header's and headers
that name a configured column twice, which would otherwise be read by
dropping fields or taking the last copy.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from dataclasses import dataclass, field

from .data_types import DataError, Dataset, Unit
from .matching import CovariateRule, MatchingError
from .oracle import DEFAULT_BUDGET as DEFAULT_ORACLE_BUDGET

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<=": operator.le,
            ">=": operator.ge, "<": operator.lt, ">": operator.gt}
_OPS = tuple(_COMPARE)


class ConfigError(ValueError):
    """Raised when a run configuration is malformed or inconsistent."""


def _as_number(raw):
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class Predicate:
    """Conjunction of comparisons of one column value against constants."""

    clauses: tuple[tuple[str, float | str], ...]

    def matches(self, raw: str, column: str) -> bool:
        value_num = _as_number(raw)
        for op, constant in self.clauses:
            const_num = constant if isinstance(constant, (int, float)) else _as_number(constant)
            if value_num is not None and const_num is not None:
                hit = _COMPARE[op](value_num, const_num)
            elif op in ("==", "!="):
                hit = _COMPARE[op](raw, str(constant))
            else:
                raise DataError(
                    f"predicate {op} {constant!r} on column {column!r} "
                    f"needs numeric values, got {raw!r}"
                )
            if not hit:
                return False
        return True


@dataclass(frozen=True)
class TreatmentRule:
    column: str
    treated_predicate: Predicate
    control_predicate: Predicate


# the fields each pair-count mode reads
_N_FIELDS = {"fixed": ("n",), "sweep": ("n_min", "n_max", "step"),
             "binary_search": ("n_min", "n_max")}


def _mode_fields(mode) -> tuple[str, ...]:
    if not isinstance(mode, str) or mode not in _N_FIELDS:
        raise ValueError(f"mode must be 'fixed', 'sweep' or 'binary_search', got {mode!r}")
    return _N_FIELDS[mode]


@dataclass(frozen=True)
class NSpec:
    """Pair-count selection: a fixed n, a sweep range, or the largest feasible n.

    ``binary_search`` (the name is kept for compatibility) reports the
    largest n with n disjoint eligible pairs, read off the min
    assignment-solver pass; an absent ``n_max`` leaves the range open. A request outside these rules raises ``ValueError``.
    """

    mode: str                 # "fixed", "sweep", "binary_search"
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    step: int = 1

    def __post_init__(self):
        for name in _mode_fields(self.mode):
            value = getattr(self, name)
            if type(value) is not int and not (name == "n_max" and value is None
                                           and self.mode == "binary_search"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mode == "fixed":
            if self.n < 2:
                raise ValueError(f"n must be >= 2, got {self.n}")
        elif self.mode == "sweep":
            if not 2 <= self.n_min <= self.n_max or self.step < 1:
                raise ValueError(f"invalid sweep range {self.n_min}:{self.n_max}:{self.step}")
        elif self.n_min < 2 or self.n_max is not None and self.n_max < self.n_min:
            n_max = "" if self.n_max is None else self.n_max
            raise ValueError(f"invalid search range {self.n_min}:{n_max}")


@dataclass(frozen=True)
class RunConfig:
    """A run request; an alpha outside (0, 1) or a budget below 1 raises ``ValueError``."""

    data_path: str
    treatment_rule: TreatmentRule
    outcome_column: str
    covariate_rules: tuple[CovariateRule, ...]
    alpha: float = 0.05
    n_spec: NSpec = field(default_factory=lambda: NSpec(mode="binary_search", n_min=2))
    oracle_budget: int = DEFAULT_ORACLE_BUDGET

    def __post_init__(self):
        if not isinstance(self.alpha, (int, float)) or not 0.0 < self.alpha < 1.0:  # NaN as well
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if type(self.oracle_budget) is not int or self.oracle_budget < 1:
            raise ValueError(f"oracle_budget must be a positive integer, got {self.oracle_budget!r}")

    def columns(self) -> list[str]:
        cols = [self.treatment_rule.column, self.outcome_column]
        cols += [r.column for r in self.covariate_rules]
        return cols


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {where}")


def _parse_predicate(obj, where: str) -> Predicate:
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where} must be a predicate object or a non-empty list of them")
    clauses = []
    for clause in obj:
        if not isinstance(clause, dict):
            raise ConfigError(f"{where} entries must be objects with 'op' and 'value'")
        _reject_unknown(clause, {"op", "value"}, where)
        op = clause.get("op")
        if op not in _OPS:
            raise ConfigError(f"{where}: op must be one of {list(_OPS)}, got {op!r}")
        if "value" not in clause:
            raise ConfigError(f"{where}: missing 'value'")
        value = clause["value"]
        if not isinstance(value, (int, float, str)) or isinstance(value, bool):
            raise ConfigError(f"{where}: value must be a number or string")
        clauses.append((op, value))
    return Predicate(clauses=tuple(clauses))


def _parse_covariate_rule(obj, where: str) -> CovariateRule:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(obj, {"column", "kind", "tolerance"}, where)
    if "column" not in obj or "kind" not in obj:
        raise ConfigError(f"{where}: 'column' and 'kind' are required")
    try:
        return CovariateRule(
            column=obj["column"],
            kind=obj["kind"],
            tolerance=obj.get("tolerance"),
        )
    except MatchingError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_n_spec(obj) -> NSpec:
    if not isinstance(obj, dict):
        raise ConfigError("n_spec must be an object")
    try:
        _reject_unknown(obj, {"mode", *_mode_fields(obj.get("mode"))}, "n_spec")
        return NSpec(**{"n_min": 2, **obj} if obj["mode"] == "binary_search" else obj)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"n_spec: {exc}") from None


def load_config(json_path) -> RunConfig:
    """Parse and validate a run configuration file."""
    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {json_path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(doc, {"data_path", "treatment_rule", "outcome_column",
                          "covariate_rules", "alpha", "n_spec", "oracle_budget"},
                    "configuration")
    for required in ("data_path", "treatment_rule", "outcome_column", "covariate_rules"):
        if required not in doc:
            raise ConfigError(f"configuration: missing required field {required!r}")

    rule_obj = doc["treatment_rule"]
    if not isinstance(rule_obj, dict):
        raise ConfigError("treatment_rule must be an object")
    _reject_unknown(rule_obj, {"column", "treated_predicate", "control_predicate"},
                    "treatment_rule")
    for required in ("column", "treated_predicate", "control_predicate"):
        if required not in rule_obj:
            raise ConfigError(f"treatment_rule: missing {required!r}")
    treatment_rule = TreatmentRule(
        column=rule_obj["column"],
        treated_predicate=_parse_predicate(rule_obj["treated_predicate"],
                                           "treatment_rule.treated_predicate"),
        control_predicate=_parse_predicate(rule_obj["control_predicate"],
                                           "treatment_rule.control_predicate"),
    )

    rules_obj = doc["covariate_rules"]
    if not isinstance(rules_obj, list):
        raise ConfigError("covariate_rules must be a list")
    covariate_rules = tuple(
        _parse_covariate_rule(r, f"covariate_rules[{k}]") for k, r in enumerate(rules_obj)
    )

    optional = {k: doc[k] for k in ("alpha", "oracle_budget") if k in doc}
    if "n_spec" in doc:
        optional["n_spec"] = _parse_n_spec(doc["n_spec"])

    data_path = doc["data_path"]
    if not isinstance(data_path, str) or not data_path:
        raise ConfigError("data_path must be a non-empty string")
    if not os.path.isabs(data_path):
        data_path = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(json_path)),
                                                  data_path))

    try:
        return RunConfig(
            data_path=data_path,
            treatment_rule=treatment_rule,
            outcome_column=doc["outcome_column"],
            covariate_rules=covariate_rules,
            **optional,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_dataset(csv_path, config: RunConfig) -> Dataset:
    """Load a CSV and partition its rows by the treatment rule.

    Rows matching neither predicate are dropped (counted in
    ``Dataset.excluded``); a row matching both predicates is an error.
    """
    rule = config.treatment_rule
    covariate_cols = [r.column for r in config.covariate_rules]
    with open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: empty file") from None
        index = {name: k for k, name in enumerate(header)}
        for col in dict.fromkeys(config.columns()):
            if col not in index:
                raise DataError(f"{csv_path}: missing column {col!r}")
            if header.count(col) > 1:
                raise DataError(f"{csv_path}: column {col!r} appears {header.count(col)} "
                                f"times in the header")

        units = []
        excluded = 0
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue  # blank line (e.g. trailing newline)
            if len(row) != len(header):
                raise DataError(f"{csv_path} row {row_no}: expected {len(header)} fields, "
                                f"got {len(row)}")
            raw_t = row[index[rule.column]]
            is_treated = rule.treated_predicate.matches(raw_t, rule.column)
            is_control = rule.control_predicate.matches(raw_t, rule.column)
            if is_treated and is_control:
                raise DataError(
                    f"{csv_path} row {row_no}: satisfies both treated and control predicates"
                )
            if not is_treated and not is_control:
                excluded += 1
                continue
            raw_y = row[index[config.outcome_column]]
            outcome = _as_number(raw_y)
            if outcome is None:
                raise DataError(f"{csv_path} row {row_no}: non-numeric outcome {raw_y!r}")
            if not math.isfinite(outcome):
                raise DataError(f"{csv_path} row {row_no}: non-finite outcome {raw_y!r}")
            covariates = {}
            for col in covariate_cols:
                raw = row[index[col]]
                if raw == "":
                    raise DataError(f"{csv_path} row {row_no}: missing value in column {col!r}")
                num = _as_number(raw)
                covariates[col] = num if num is not None else raw
            units.append(Unit(
                id=str(row_no),
                covariates=covariates,
                treatment=is_treated,
                outcome=outcome,
            ))

    return Dataset(units=tuple(units), excluded=excluded)
