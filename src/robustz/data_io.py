"""Dataset and run-configuration ingestion.

A run configuration is a single JSON object; unknown fields anywhere in
it are rejected. The treatment rule carries two predicates over one
column (comparison against a constant, conjunctions as JSON arrays);
rows matching neither predicate are excluded, rows matching both are a
configuration error. Covariate rules are evaluated by the matching
stage; here they are only parsed and validated.

Rows with missing values in any configured column are rejected rather
than imputed: silently filling values would bias the match structure.
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

DEFAULT_ALPHA = 0.05

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


@dataclass(frozen=True)
class NSpec:
    """Pair-count selection: a fixed n, a sweep range, or the largest feasible n.

    ``binary_search`` (the name is kept for compatibility) reports the
    largest n with n disjoint eligible pairs, found with one ladder and at
    most one assignment-solver pass.
    """

    mode: str                 # "fixed", "sweep", "binary_search"
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    step: int = 1


@dataclass(frozen=True)
class RunConfig:
    data_path: str
    treatment_rule: TreatmentRule
    outcome_column: str
    covariate_rules: tuple[CovariateRule, ...]
    alpha: float = DEFAULT_ALPHA
    n_spec: NSpec = field(default_factory=lambda: NSpec(mode="binary_search", n_min=2))
    oracle_budget: int = DEFAULT_ORACLE_BUDGET

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


def _parse_n_spec(obj, where: str) -> NSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    mode = obj.get("mode")
    if mode == "fixed":
        _reject_unknown(obj, {"mode", "n"}, where)
        n = obj.get("n")
        if not isinstance(n, int) or n < 2:
            raise ConfigError(f"{where}: fixed mode needs an integer n >= 2")
        return NSpec(mode="fixed", n=n)
    if mode == "sweep":
        _reject_unknown(obj, {"mode", "n_min", "n_max", "step"}, where)
        n_min, n_max = obj.get("n_min"), obj.get("n_max")
        step = obj.get("step", 1)
        if not (isinstance(n_min, int) and isinstance(n_max, int)):
            raise ConfigError(f"{where}: sweep mode needs integer n_min and n_max")
        if n_min > n_max:
            raise ConfigError(f"{where}: n_min={n_min} exceeds n_max={n_max}")
        if n_min < 2:
            raise ConfigError(f"{where}: n_min must be >= 2")
        if not isinstance(step, int) or isinstance(step, bool) or step < 1:
            raise ConfigError(f"{where}: step must be a positive integer")
        return NSpec(mode="sweep", n_min=n_min, n_max=n_max, step=step)
    if mode == "binary_search":
        _reject_unknown(obj, {"mode", "n_min", "n_max"}, where)
        n_min = obj.get("n_min", 2)
        n_max = obj.get("n_max")
        if not isinstance(n_min, int) or n_min < 2:
            raise ConfigError(f"{where}: n_min must be an integer >= 2")
        if n_max is not None:
            if not isinstance(n_max, int):
                raise ConfigError(f"{where}: n_max must be an integer")
            if n_min > n_max:
                raise ConfigError(f"{where}: n_min={n_min} exceeds n_max={n_max}")
        return NSpec(mode="binary_search", n_min=n_min, n_max=n_max)
    raise ConfigError(f"{where}: mode must be 'fixed', 'sweep' or 'binary_search'")


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

    alpha = doc.get("alpha", DEFAULT_ALPHA)
    if not isinstance(alpha, (int, float)) or not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha!r}")

    n_spec = _parse_n_spec(doc["n_spec"], "n_spec") if "n_spec" in doc \
        else NSpec(mode="binary_search", n_min=2)

    budget = doc.get("oracle_budget", DEFAULT_ORACLE_BUDGET)
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ConfigError(f"oracle_budget must be a positive integer, got {budget!r}")

    data_path = doc["data_path"]
    if not isinstance(data_path, str) or not data_path:
        raise ConfigError("data_path must be a non-empty string")
    if not os.path.isabs(data_path):
        data_path = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(json_path)),
                                                  data_path))

    return RunConfig(
        data_path=data_path,
        treatment_rule=treatment_rule,
        outcome_column=doc["outcome_column"],
        covariate_rules=covariate_rules,
        alpha=float(alpha),
        n_spec=n_spec,
        oracle_budget=budget,
    )


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
        for col in dict.fromkeys([rule.column, config.outcome_column, *covariate_cols]):
            if col not in index:
                raise DataError(f"{csv_path}: missing column {col!r}")

        units = []
        excluded = 0
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue  # blank line (e.g. trailing newline)
            if len(row) < len(header):
                raise DataError(f"{csv_path} row {row_no}: expected {len(header)} fields")
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
            if outcome is None or not math.isfinite(outcome):
                raise DataError(f"{csv_path} row {row_no}: non-numeric outcome {raw_y!r}")
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
