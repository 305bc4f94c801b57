"""Portable solver model files for the assignment test problems.

Two families are emitted in LP-style text (grammar in
``docs/model_format.md``) plus a JSON sidecar with the variable maps:

* quadratic models, one per direction/sign-regime pair, whose objective
  is the coupling of the two competing sums: ``Q - S^2`` or ``S^2 - Q``
  with ``Q = sum(effect^2 * a)`` and ``S = sum(effect * a)``. ``S`` is
  stated once, as the free continuous variable ``s`` of the ``sdef`` row,
  so the objective has one linear term per variable and the square ``s^2``.
* the grid-linearized model: a linear effect-sum objective under the
  extra bound ``sum(effect^2 * a) <= b_l``.

Every model carries one binary variable per eligible pair of the effect
matrix it holds (eligibility is structural: ineligible pairs get no
variable at all), row and column one-to-one constraints, the
exact-cardinality constraint, and the sign constraint of its regime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .matching import EffectMatrix

SCHEMA = "robustz-model/2"

# the free continuous variable that the ``sdef`` row pins to S
S_VAR = "s"

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
    """A model with one binary variable per eligible pair of the effect matrix it holds.

    Every coefficient and id derives from ``em``, so no field can disagree with it.
    """

    kind: str                     # "qip" or "ilp"
    direction: str
    case: str | None
    n: int
    em: EffectMatrix
    b_l: float | None = None
    bl_range_note: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"model export needs n >= 2, got n={self.n}")
        if self.em.nnz == 0:
            raise ValueError("cannot export a model with no eligible pairs")
        if self.kind == "qip" and (self.direction, self.case) not in _OBJECTIVE_SIGN:
            raise ValueError(f"unknown direction/case combination ({self.direction!r}, {self.case!r})")
        if self.kind == "ilp" and self.direction not in ("min", "max"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind == "ilp" and not self.b_l > 0:  # NaN as well
            raise ValueError(f"b_l must be positive, got {self.b_l!r}")

    @cached_property
    def variables(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.em.match.rows.tolist(), self.em.match.cols.tolist()))

    def _pairs(self):
        """``(variable, effect)`` in variable order."""
        return zip(self.variables, self.em.values.tolist())

    @property
    def sense(self) -> str:
        return "minimize" if self.kind == "ilp" and self.direction == "min" else "maximize"

    @property
    def sign_op(self) -> str | None:
        """Relation of the sign constraint ``S <op> 0``; None for the linear model."""
        return _SIGN_OP[self.case] if self.kind == "qip" else None

    def var_name(self, pair) -> str:
        return S_VAR if pair == S_VAR else f"a_{pair[0]}_{pair[1]}"

    def objective_terms(self):
        """The objective as ``(coefficient, p, q)`` terms; the file and the audit both read them.

        ``q`` is None for a linear term and ``p`` for a square; the quadratic models end
        with the one square, of ``S_VAR``.
        """
        if self.kind == "ilp":
            yield from ((e, p, None) for p, e in self._pairs())
            return
        sq = _OBJECTIVE_SIGN[(self.direction, self.case)]
        yield from ((sq * e ** 2, p, None) for p, e in self._pairs())
        yield -sq, S_VAR, S_VAR

    def effect_sum(self, values: Mapping[tuple[int, int], float]) -> float:
        """``S`` at an assignment vector (missing entries are 0)."""
        return math.fsum(e * values.get(p, 0.0) for p, e in self._pairs())

    def evaluate_objective(self, values: Mapping[tuple[int, int], float]) -> float:
        """Objective value at an assignment vector (missing entries are 0), ``s`` being its S."""
        s = self.effect_sum(values)

        def x(p):
            return s if p == S_VAR else values.get(p, 0.0)

        return math.fsum(c * x(p) * (1.0 if q is None else x(q))
                         for c, p, q in self.objective_terms())

    def check_constraints(self, values: Mapping[tuple[int, int], float]) -> dict:
        """Per-constraint satisfaction flags at a 0/1 assignment vector."""
        x = np.array([values.get(p, 0.0) for p in self.variables], dtype=np.float64)
        effect_sum = self.effect_sum(values)
        flags = {  # bincount and cumsum both add in pair order
            "rows": bool((np.bincount(self.em.match.rows, weights=x) <= 1.0).all()),
            "cols": bool((np.bincount(self.em.match.cols, weights=x) <= 1.0).all()),
            "cardinality": bool(np.cumsum(x)[-1] == self.n),
        }
        flags["structural"] = flags["rows"] and flags["cols"] and flags["cardinality"]
        if self.sign_op is not None:
            flags["sign"] = effect_sum >= 0.0 if self.sign_op == ">=" else effect_sum <= 0.0
        if self.kind == "ilp":
            qsum = math.fsum(e ** 2 * values.get(p, 0.0) for p, e in self._pairs())
            flags["variance_bound"] = qsum <= self.b_l
        flags["all"] = all(v for k, v in flags.items() if k not in ("structural", "all"))
        return flags

    def lp_lines(self):
        """The LP text line by line (without newlines); ``write`` streams it to the file."""
        yield f"\\ {SCHEMA}"
        yield (f"\\ kind={self.kind} direction={self.direction}"
               f" case={self.case or '-'} n={self.n}")
        yield f"\\ variables={len(self.variables)}"
        if self.kind == "ilp":
            yield (f"\\ variance bound b_l={_fmt(self.b_l)}; if b_l is below the"
                   " smallest effect^2 the model is infeasible for any n >= 1")
            if self.bl_range_note:
                lo, hi = BL_RANGE_HINT
                yield f"\\ practical b_l grid range hint: {_fmt(lo)} to {_fmt(hi)}"
        yield "Maximize" if self.sense == "maximize" else "Minimize"

        # the one square follows the LP objective convention: [ doubled term ] / 2
        yield from _wrap(" obj: ", [
            _term(c, self.var_name(p)) if q is None
            else f"+ [ {_term(2.0 * c, self.var_name(p) + ' ^ 2')} ] / 2"
            for c, p, q in self.objective_terms()])

        yield "Subject To"
        rows: dict[int, list[str]] = {}
        cols: dict[int, list[str]] = {}
        for p in self.variables:
            term = f"+ {self.var_name(p)}"
            rows.setdefault(p[0], []).append(term)
            cols.setdefault(p[1], []).append(term)
        for i in sorted(rows):
            yield from _wrap(f" row_{i}: ", rows[i], " <= 1")
        for j in sorted(cols):
            yield from _wrap(f" col_{j}: ", cols[j], " <= 1")
        yield from _wrap(" card: ", [f"+ {self.var_name(p)}" for p in self.variables],
                         f" = {self.n}")
        pairs = self._pairs()
        if self.kind == "qip":
            yield from _wrap(" sdef: ", [_term(e, self.var_name(p)) for p, e in pairs]
                             + [_term(-1.0, S_VAR)], " = 0")
            yield f" sign: {S_VAR} {self.sign_op} 0"
            yield "Bounds"
            yield f" {S_VAR} free"
        else:
            yield from _wrap(" variance_bound: ", [f"+ {_fmt(e ** 2)} {self.var_name(p)}"
                                                   for p, e in pairs], f" <= {_fmt(self.b_l)}")

        yield "Binary"
        yield from _wrap("", [self.var_name(p) for p in self.variables])
        yield "End"

    def sidecar(self) -> dict:
        def ids(p, effect):
            i, j = p
            return {"name": self.var_name(p), "i": i, "j": j, "effect": effect,
                    "treated_id": self.em.match.treated_ids[i],
                    "control_id": self.em.match.control_ids[j]}

        doc = {
            "schema": SCHEMA,
            "kind": self.kind,
            "sense": self.sense,
            "direction": self.direction,
            "case": self.case,
            "n": self.n,
            "variables": [ids(p, e) for p, e in self._pairs()],
        }
        if self.kind == "ilp":
            doc["b_l"] = float(self.b_l)
            if self.bl_range_note:
                doc["bl_grid_hint"] = list(BL_RANGE_HINT)
        return doc

    def write(self, base_path) -> tuple[str, str]:
        lp_path = f"{base_path}.lp"
        json_path = f"{base_path}.json"
        with open(lp_path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in self.lp_lines())
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(self.sidecar(), fh, indent=2)
            fh.write("\n")
        return lp_path, json_path


def _term(c: float, name: str) -> str:
    return f"{'+' if c >= 0 else '-'} {_fmt(abs(c))} {name}"


def _wrap(head: str, terms: list[str], tail: str = "", per_line: int = 6):
    """Lines of one expression: ``per_line`` terms each, continuations indented by two spaces."""
    for k in range(0, len(terms), per_line):
        line = ("  " if k else head) + " ".join(terms[k:k + per_line])
        yield line + tail if k + per_line >= len(terms) else line


def export_qip(em: EffectMatrix, n: int, direction: str, case: str) -> ModelSpec:
    """Quadratic coupling model for one direction/sign-regime pair."""
    return ModelSpec(kind="qip", direction=direction, case=case, n=n, em=em)


def export_ilp(em: EffectMatrix, n: int, direction: str, b_l: float,
               bl_range_note: bool = False) -> ModelSpec:
    """Grid-linearized model: linear effect-sum objective under a variance bound."""
    return ModelSpec(kind="ilp", direction=direction, case=None, n=n, em=em, b_l=b_l,
                     bl_range_note=bl_range_note)


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
