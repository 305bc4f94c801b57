"""Minimum-cost bipartite assignment and the linear-feasibility case test.

The sign regime without a quadratic bound only asks whether an n-pair
assignment with the right effect-sum sign exists. That is an assignment
problem: solve for a minimum (or maximum) total-effect matching, take
the n cheapest (or dearest) of its pairs, and check the sign of their
sum; the attainable level is then exactly 0.

The matching itself is found with successive shortest augmenting paths
under dual potentials, which tolerates negative costs directly (no
big-M padding, no cost shifting) and extends to rectangular or
deficient instances by stopping at maximum cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greedy import GreedySolution, Infeasible
from .matching import EffectMatrix
from .statistic import Assignment


@dataclass(frozen=True)
class CostMatching:
    """A min-cost (or max-cost) matching of maximum cardinality."""

    pairs: tuple[tuple[int, int, float], ...]
    total_cost: float
    cardinality: int


def _solve_assignment(em: EffectMatrix, negate: bool):
    """Match rows to columns minimizing total (possibly negated) cost.

    One Dijkstra per augmentation, seeded from every still-free row at
    distance zero, so each augmentation uses the globally shortest
    augmenting path; that keeps the matching cost-minimal at every
    cardinality even when the final matching cannot cover all rows.
    Initial duals are zero on rows and the column minima on columns,
    which makes every reduced cost nonnegative without shifting costs.
    """
    if em.nnz == 0:
        raise ValueError("empty eligibility: no pairs to assign")
    n_cols = em.n_control
    costs = -em.values if negate else em.values
    spans = em.match.row_spans()
    rows = list(spans)
    adj_cols = {i: em.match.cols[span] for i, span in spans.items()}
    adj_costs = {i: costs[span] for i, span in spans.items()}

    v = np.full(n_cols, math.inf)
    for i in rows:
        np.minimum.at(v, adj_cols[i], adj_costs[i])
    v[~np.isfinite(v)] = 0.0
    u = {i: 0.0 for i in rows}
    match_row = {i: -1 for i in rows}
    match_col = np.full(n_cols, -1, dtype=np.int64)
    free = list(rows)

    while free:
        dist = np.full(n_cols, math.inf)
        final_dist = np.full(n_cols, math.inf)
        pred = np.full(n_cols, -1, dtype=np.int64)
        visited = np.zeros(n_cols, dtype=bool)

        for i in free:
            cols_i = adj_cols[i]
            nd = adj_costs[i] - u[i] - v[cols_i]
            better = nd < dist[cols_i]
            sel = cols_i[better]
            dist[sel] = nd[better]
            pred[sel] = i

        while True:
            j = int(np.argmin(dist))
            dj = dist[j]
            if not math.isfinite(dj):
                break
            final_dist[j] = dj
            visited[j] = True
            dist[j] = math.inf
            if match_col[j] < 0:
                continue
            i = int(match_col[j])
            cols_i = adj_cols[i]
            nd = dj + adj_costs[i] - u[i] - v[cols_i]
            better = (nd < dist[cols_i]) & ~visited[cols_i]
            sel = cols_i[better]
            dist[sel] = nd[better]
            pred[sel] = i

        # reduced distances hide the endpoint duals, so the cheapest
        # augmenting path is the free column minimizing dist + v
        reachable_free = np.flatnonzero(visited & (match_col < 0))
        if len(reachable_free) == 0:
            break  # no augmenting path from any free row: cardinality is maximal
        found = int(reachable_free[int(np.argmin(final_dist[reachable_free]
                                                 + v[reachable_free]))])
        delta = final_dist[found]
        visited[found] = False
        upd = np.flatnonzero(visited & (final_dist <= delta))
        for j in upd:
            mc = int(match_col[j])
            if mc >= 0:
                u[mc] += delta - final_dist[j]
        v[upd] -= delta - final_dist[upd]
        for i in free:
            u[i] += delta

        j = found
        while True:
            i = int(pred[j])
            match_col[j] = i
            match_row[i], j = j, match_row[i]
            if j < 0:
                break
        free.remove(i)

    pairs = []
    for i in rows:  # ascending, so pairs come out in (i, j) order
        j = int(match_row[i])
        if j >= 0:
            pairs.append((i, j, em.values[em.match.position(i, j)].item()))
    total = math.fsum(c for _, _, c in pairs)
    return CostMatching(pairs=tuple(pairs), total_cost=total, cardinality=len(pairs))


def hungarian_min(em: EffectMatrix) -> CostMatching:
    """Minimum total-effect matching of maximum cardinality."""
    return _solve_assignment(em, negate=False)


def hungarian_max(em: EffectMatrix) -> CostMatching:
    """Maximum total-effect matching of maximum cardinality."""
    return _solve_assignment(em, negate=True)


def case3_selection(em: EffectMatrix, n: int, direction: str):
    """The n pairs of the direction's optimal matching, or None if < n exist.

    Selection order is cost-ascending for min and cost-descending for max,
    ties broken by (i, j), which biases the pick toward the sign constraint.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"unknown direction {direction!r}")
    if em.nnz == 0:
        return None
    matching = hungarian_min(em) if direction == "min" else hungarian_max(em)
    if matching.cardinality < n:
        return None
    sign = 1.0 if direction == "min" else -1.0
    ranked = sorted(matching.pairs, key=lambda p: sign * p[2])  # stable: pairs are (i, j)-ordered
    return Assignment(pairs=frozenset((i, j) for i, j, _ in ranked[:n]))


def case3_verdict(selection, em: EffectMatrix, direction: str):
    """Apply the sign test to a case-3 selection; level is 0 when feasible."""
    if selection is None:
        return Infeasible("maximum matching has fewer than n pairs")
    stats = em.pair_stats(selection.pairs)
    if direction == "min" and stats.S > 0.0:
        return Infeasible("selected effect sum is positive")
    if direction == "max" and stats.S < 0.0:
        return Infeasible("selected effect sum is negative")
    return GreedySolution(
        assignment=selection,
        stats=stats,
        gamma=0.0,
        case=f"{direction}_case3",
    )


def case3_test(em: EffectMatrix, n: int, direction: str):
    """Linear-feasibility case: GreedySolution with level 0, or Infeasible."""
    if n < 2:
        raise ValueError(f"case-3 test needs n >= 2, got n={n}")
    return case3_verdict(case3_selection(em, n, direction), em, direction)
