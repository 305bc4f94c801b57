"""Exhaustive ground truth for desk-scale instances.

Enumerates every valid assignment of exactly n eligible, row- and
column-disjoint pairs by backtracking over treated rows in sorted
order, and reports exact extremes of the Z statistic (degenerate
assignments included, with their signed-infinity values).
"""

from __future__ import annotations

from dataclasses import dataclass

from .matching import EffectMatrix
from .statistic import Assignment, stats_from_values, z_statistic

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Enumeration would evaluate more assignments than the budget allows."""


@dataclass(frozen=True)
class OracleResult:
    z_max: float
    z_min: float
    argmax: Assignment
    argmin: Assignment
    enumerated: int
    degenerate_seen: bool


def enumerate_extrema(em: EffectMatrix, n: int,
                      budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact max/min Z over all n-pair assignments within the eligibility set."""
    if n < 2:
        raise ValueError(f"oracle needs n >= 2, got n={n}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")

    # (j, effect) per treated row with eligible pairs, read off the row slices once
    start = em.match.row_start.tolist()
    row_options = {i: list(zip(em.match.cols[lo:hi].tolist(), em.values[lo:hi].tolist()))
                   for i, (lo, hi) in enumerate(zip(start, start[1:])) if lo < hi}
    rows = list(row_options)

    best = {
        "count": 0,
        "z_max": None,
        "z_min": None,
        "argmax": None,
        "argmin": None,
        "degenerate": False,
    }
    used_cols: set[int] = set()
    picked: list[tuple[int, int, float]] = []

    def evaluate() -> None:
        best["count"] += 1
        if best["count"] > budget:
            raise BudgetExceededError(
                f"enumeration exceeded the budget of {budget} assignments"
            )
        pairs = frozenset((i, j) for i, j, _ in picked)
        stats = stats_from_values(v for _, _, v in picked)
        z = z_statistic(stats)
        if stats.degenerate:
            best["degenerate"] = True
        if best["z_max"] is None or z > best["z_max"]:
            best["z_max"] = z
            best["argmax"] = pairs
        if best["z_min"] is None or z < best["z_min"]:
            best["z_min"] = z
            best["argmin"] = pairs

    def backtrack(idx: int, needed: int) -> None:
        if needed == 0:
            evaluate()
            return
        if len(rows) - idx < needed:
            return
        i = rows[idx]
        for j, v in row_options[i]:
            if j in used_cols:
                continue
            used_cols.add(j)
            picked.append((i, j, v))
            backtrack(idx + 1, needed - 1)
            picked.pop()
            used_cols.remove(j)
        # the row may also be skipped entirely
        backtrack(idx + 1, needed)

    backtrack(0, n)

    if best["z_max"] is None:
        raise ValueError(f"no assignment of {n} disjoint eligible pairs exists")
    return OracleResult(
        z_max=best["z_max"],
        z_min=best["z_min"],
        argmax=Assignment(pairs=best["argmax"]),
        argmin=Assignment(pairs=best["argmin"]),
        enumerated=best["count"],
        degenerate_seen=best["degenerate"],
    )
