"""Exhaustive ground truth for desk-scale instances.

Enumerates every valid assignment of exactly n eligible, row- and
column-disjoint pairs and reports exact extremes of the Z statistic
(degenerate assignments included, with their signed-infinity values).
Assignments come in a fixed order: treated rows ascending, each row's
columns ascending, and every assignment that uses a row before any that
skips it. Ties keep the first assignment in that order. The budget counts
evaluated assignments, and the recursion is n levels deep, whatever the
number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data_io import DEFAULT_ORACLE_BUDGET
from .matching import EffectMatrix
from .statistic import Assignment, stats_from_values, z_statistic


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


def _assignments(rows, start, n, picked, used):
    """Yield ``picked``, extended in place, once per n pairs from rows[start:] in unused columns."""
    for r in range(start, len(rows) - n + 1):
        for pair in rows[r]:
            if pair[1] in used:
                continue
            picked.append(pair)
            if n == 1:
                yield picked
            else:
                used.add(pair[1])
                yield from _assignments(rows, r + 1, n - 1, picked, used)
                used.remove(pair[1])
            picked.pop()


def enumerate_extrema(em: EffectMatrix, n: int,
                      budget: int = DEFAULT_ORACLE_BUDGET) -> OracleResult:
    """Exact max/min Z over all n-pair assignments within the eligibility set."""
    if n < 2:
        raise ValueError(f"oracle needs n >= 2, got n={n}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")

    # (i, j, effect) per treated row with eligible pairs, read off the row slices once
    triples = list(zip(em.match.rows.tolist(), em.match.cols.tolist(), em.values.tolist()))
    start = em.match.row_start.tolist()
    rows = [triples[lo:hi] for lo, hi in zip(start, start[1:]) if lo < hi]
    count, degenerate = 0, False
    z_max = z_min = argmax = argmin = None
    for picked in _assignments(rows, 0, n, [], set()):
        count += 1
        if count > budget:
            raise BudgetExceededError(f"enumeration exceeded the budget of {budget} assignments")
        stats = stats_from_values(v for _, _, v in picked)
        z = z_statistic(stats)
        degenerate = degenerate or stats.degenerate
        if z_max is None or z > z_max:
            z_max, argmax = z, frozenset((i, j) for i, j, _ in picked)
        if z_min is None or z < z_min:
            z_min, argmin = z, frozenset((i, j) for i, j, _ in picked)
    if z_max is None:
        raise ValueError(f"no assignment of {n} disjoint eligible pairs exists")
    return OracleResult(z_max, z_min, Assignment(argmax), Assignment(argmin), count, degenerate)
