"""Portable solver model files for the assignment test problems.

Two families are emitted in LP-style text (grammar in
``docs/model_format.md``) plus a JSON sidecar with the variable maps:

* quadratic models, one per direction/sign-regime pair, whose objective
  is the coupling of the two competing sums: ``Q - S^2`` or ``S^2 - Q``
  with ``Q = sum(effect^2 * a)`` and ``S = sum(effect * a)``. ``S^2`` is
  expanded into explicit diagonal and pairwise products, so no auxiliary
  variables are introduced.
* the grid-linearized model: a linear effect-sum objective under the
  extra bound ``sum(effect^2 * a) <= b_l``.

Every model carries one binary variable per eligible pair (eligibility
is structural: ineligible pairs get no variable at all), row and column
one-to-one constraints, the exact-cardinality constraint, and the sign
constraint of its regime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from .matching import EffectMatrix

SCHEMA = "robustz-model/1"

# practical grid range of the variance bound observed at bike-study scale
BL_RANGE_HINT = (1.12e6, 26.12e6)

_OBJECTIVE_SIGN = {
    ("min", "case1"): 1.0,   # maximize Q - S^2
    ("min", "case2"): -1.0,  # maximize S^2 - Q
    ("max", "case1"): -1.0,  # maximize S^2 - Q
    ("max", "case2"): 1.0,   # maximize Q - S^2
}

_SIGN_OP = {"case1": ">=", "case2": "<="}


def _fmt(x: float) -> str:
    return format(x, ".17g")


@dataclass(frozen=True)
class ModelSpec:
    """A model over assignment variables; every coefficient derives from the effects."""

    kind: str                     # "qip" or "ilp"
    direction: str
    case: str | None
    n: int
    variables: tuple[tuple[int, int], ...]
    effects: tuple[float, ...]    # aligned with variables
    treated_ids: tuple[str, ...]
    control_ids: tuple[str, ...]
    b_l: float | None = None
    bl_range_note: bool = False

    @property
    def sense(self) -> str:
        return "minimize" if self.kind == "ilp" and self.direction == "min" else "maximize"

    @property
    def sign_op(self) -> str | None:
        """Relation of the sign constraint ``S <op> 0``; None for the linear model."""
        return _SIGN_OP[self.case] if self.kind == "qip" else None

    def var_name(self, pair: tuple[int, int]) -> str:
        return f"a_{pair[0]}_{pair[1]}"

    def objective_terms(self):
        """The objective as ``(coefficient, p, q)`` terms; the file and the audit both read them.

        ``q`` is None for a linear term, ``p`` for a square and a later variable for a cross
        product; cross products come last.
        """
        pairs = list(zip(self.variables, self.effects))
        if self.kind == "ilp":
            yield from ((e, p, None) for p, e in pairs)
            return
        sq = _OBJECTIVE_SIGN[(self.direction, self.case)]
        for p, e in pairs:
            yield sq * e ** 2, p, None
            yield -sq * e ** 2, p, p
        for a, (p, e) in enumerate(pairs):
            for q, f in pairs[a + 1:]:
                yield -sq * 2.0 * e * f, p, q

    def evaluate_objective(self, values: Mapping[tuple[int, int], float]) -> float:
        """Objective value at an assignment vector (missing entries are 0)."""
        get = values.get

        def term(c, p, q):
            if q is None:
                return c * get(p, 0.0)
            if q == p:
                return c * get(p, 0.0) ** 2
            return c * get(p, 0.0) * get(q, 0.0)

        return math.fsum(term(*t) for t in self.objective_terms())

    def check_constraints(self, values: Mapping[tuple[int, int], float]) -> dict:
        """Per-constraint satisfaction flags at a 0/1 assignment vector."""
        get = values.get
        row_sums: dict[int, float] = {}
        col_sums: dict[int, float] = {}
        total = 0.0
        for i, j in self.variables:
            v = get((i, j), 0.0)
            row_sums[i] = row_sums.get(i, 0.0) + v
            col_sums[j] = col_sums.get(j, 0.0) + v
            total += v
        effect_sum = math.fsum(e * get(p, 0.0) for p, e in zip(self.variables, self.effects))
        flags = {
            "rows": all(s <= 1.0 for s in row_sums.values()),
            "cols": all(s <= 1.0 for s in col_sums.values()),
            "cardinality": total == float(self.n),
        }
        flags["structural"] = flags["rows"] and flags["cols"] and flags["cardinality"]
        if self.sign_op is not None:
            flags["sign"] = effect_sum >= 0.0 if self.sign_op == ">=" else effect_sum <= 0.0
        if self.kind == "ilp":
            qsum = math.fsum(e ** 2 * get(p, 0.0) for p, e in zip(self.variables, self.effects))
            flags["variance_bound"] = qsum <= self.b_l
        flags["all"] = all(v for k, v in flags.items() if k not in ("structural", "all"))
        return flags

    def render_lp(self) -> str:
        pairs = list(zip(self.variables, self.effects))
        m = len(pairs)
        lines = [f"\\ {SCHEMA}"]
        lines.append(f"\\ kind={self.kind} direction={self.direction}"
                     f" case={self.case or '-'} n={self.n}")
        lines.append(f"\\ variables={m}"
                     f" quadratic_cross_terms={m * (m - 1) // 2 if self.kind == 'qip' else 0}")
        if self.kind == "ilp":
            lines.append(f"\\ variance bound b_l={_fmt(self.b_l)}; if b_l is below the"
                         " smallest effect^2 the model is infeasible for any n >= 1")
            if self.bl_range_note:
                lo, hi = BL_RANGE_HINT
                lines.append(f"\\ practical b_l grid range hint: {_fmt(lo)} to {_fmt(hi)}")
        lines.append("Maximize" if self.sense == "maximize" else "Minimize")

        obj_terms, quad = [], []
        for c, p, q in self.objective_terms():
            if q is None:
                obj_terms.append(_term(c, self.var_name(p)))
            else:
                # LP quadratic objective convention: [ doubled terms ] / 2
                product = " ^ 2" if q == p else f" * {self.var_name(q)}"
                quad.append(_term(2.0 * c, self.var_name(p) + product))
        if quad:
            obj_terms.append("+ [ " + _wrap(quad) + " ] / 2")
        lines.append(" obj: " + _wrap(obj_terms))

        lines.append("Subject To")
        rows: dict[int, list[str]] = {}
        cols: dict[int, list[str]] = {}
        for p in self.variables:
            rows.setdefault(p[0], []).append(self.var_name(p))
            cols.setdefault(p[1], []).append(self.var_name(p))
        for i in sorted(rows):
            lines.append(f" row_{i}: " + " + ".join(rows[i]) + " <= 1")
        for j in sorted(cols):
            lines.append(f" col_{j}: " + " + ".join(cols[j]) + " <= 1")
        lines.append(" card: " + " + ".join(self.var_name(p) for p in self.variables)
                     + f" = {self.n}")
        if self.sign_op is not None:
            sign_terms = [_term(e, self.var_name(p)) for p, e in pairs]
            lines.append(" sign: " + _wrap(sign_terms) + f" {self.sign_op} 0")
        if self.kind == "ilp":
            bl_terms = [f"+ {_fmt(e ** 2)} {self.var_name(p)}" for p, e in pairs]
            lines.append(" variance_bound: " + _wrap(bl_terms) + f" <= {_fmt(self.b_l)}")

        lines.append("Binary")
        lines.append(_wrap([self.var_name(p) for p in self.variables], sep=" "))
        lines.append("End")
        return "\n".join(lines) + "\n"

    def sidecar(self) -> dict:
        def ids(p, effect):
            i, j = p
            return {"name": self.var_name(p), "i": i, "j": j, "effect": effect,
                    "treated_id": self.treated_ids[i], "control_id": self.control_ids[j]}

        doc = {
            "schema": SCHEMA,
            "kind": self.kind,
            "sense": self.sense,
            "direction": self.direction,
            "case": self.case,
            "n": self.n,
            "variables": [ids(p, e) for p, e in zip(self.variables, self.effects)],
        }
        if self.kind == "ilp":
            doc["b_l"] = self.b_l
            if self.bl_range_note:
                doc["bl_grid_hint"] = list(BL_RANGE_HINT)
        return doc

    def write(self, base_path) -> tuple[str, str]:
        lp_path = f"{base_path}.lp"
        json_path = f"{base_path}.json"
        with open(lp_path, "w", encoding="utf-8") as fh:
            fh.write(self.render_lp())
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(self.sidecar(), fh, indent=2)
            fh.write("\n")
        return lp_path, json_path


def _term(c: float, name: str) -> str:
    return f"{'+' if c >= 0 else '-'} {_fmt(abs(c))} {name}"


def _wrap(terms: list[str], per_line: int = 6, sep: str = " ") -> str:
    chunks = [sep.join(terms[k:k + per_line]) for k in range(0, len(terms), per_line)]
    return ("\n  ").join(chunks)


def _model_fields(em: EffectMatrix, n: int) -> dict:
    """The fields both exports take from the effect core: one variable per eligible pair."""
    if n < 2:
        raise ValueError(f"model export needs n >= 2, got n={n}")
    if em.nnz == 0:
        raise ValueError("cannot export a model with no eligible pairs")
    return {
        "n": n,
        "variables": tuple(zip(em.match.rows.tolist(), em.match.cols.tolist())),
        "effects": tuple(em.values.tolist()),
        "treated_ids": em.match.treated_ids,
        "control_ids": em.match.control_ids,
    }


def export_qip(em: EffectMatrix, n: int, direction: str, case: str) -> ModelSpec:
    """Quadratic coupling model for one direction/sign-regime pair."""
    fields = _model_fields(em, n)
    if (direction, case) not in _OBJECTIVE_SIGN:
        raise ValueError(f"unknown direction/case combination ({direction!r}, {case!r})")
    return ModelSpec(kind="qip", direction=direction, case=case, **fields)


def export_ilp(em: EffectMatrix, n: int, direction: str, b_l: float,
               bl_range_note: bool = False) -> ModelSpec:
    """Grid-linearized model: linear effect-sum objective under a variance bound."""
    fields = _model_fields(em, n)
    if direction not in ("min", "max"):
        raise ValueError(f"unknown direction {direction!r}")
    if not b_l > 0:
        raise ValueError(f"b_l must be positive, got {b_l!r}")
    return ModelSpec(kind="ilp", direction=direction, case=None, b_l=float(b_l),
                     bl_range_note=bl_range_note, **fields)


def read_solution(path) -> dict[str, float]:
    """Thin reader for ``name value`` solution files (verification only)."""
    out: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("\\"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed solution line: {line!r}")
            out[parts[0]] = float(parts[1])
    return out


def solution_to_values(spec: ModelSpec, solution: Mapping[str, float]) -> dict[tuple[int, int], float]:
    """Map a named solution onto the model's (i, j) variable keys."""
    by_name = {spec.var_name(p): p for p in spec.variables}
    return {by_name[name]: val for name, val in solution.items() if name in by_name}
