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
    start = em.match.row_start.tolist()  # Python ints: numpy scalar indexing slows the loops
    cols = em.match.cols
    costs = -em.values if negate else em.values

    v = np.full(n_cols, math.inf)
    np.minimum.at(v, cols, costs)
    v[~np.isfinite(v)] = 0.0
    u = np.zeros(em.n_treated)
    match_row = np.full(em.n_treated, -1, dtype=np.int64)
    match_col = np.full(n_cols, -1, dtype=np.int64)
    free = np.flatnonzero(np.diff(em.match.row_start)).tolist()  # rows with pairs, ascending

    while free:
        dist = np.full(n_cols, math.inf)
        final_dist = np.full(n_cols, math.inf)
        pred = np.full(n_cols, -1, dtype=np.int64)
        visited = np.zeros(n_cols, dtype=bool)

        for i in free:
            lo, hi = start[i], start[i + 1]
            cols_i = cols[lo:hi]
            nd = costs[lo:hi] - u[i] - v[cols_i]
            better = nd < dist[cols_i]
            sel = cols_i[better]
            dist[sel] = nd[better]
            pred[sel] = i

        while True:
            j = int(dist.argmin())
            dj = dist[j]
            if not math.isfinite(dj):
                break
            final_dist[j] = dj
            visited[j] = True
            dist[j] = math.inf
            i = int(match_col[j])
            if i < 0:
                continue
            lo, hi = start[i], start[i + 1]
            cols_i = cols[lo:hi]
            nd = dj + costs[lo:hi] - u[i] - v[cols_i]
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
        matched = upd[match_col[upd] >= 0]  # distinct rows, so the fancy += adds once each
        u[match_col[matched]] += delta - final_dist[matched]
        v[upd] -= delta - final_dist[upd]
        u[free] += delta

        j = found
        while True:
            i = int(pred[j])
            match_col[j] = i
            match_row[i], j = j, match_row[i]
            if j < 0:
                break
        free.remove(i)

    rows = np.flatnonzero(match_row >= 0).tolist()  # ascending: pairs in (i, j) order
    pairs = [(i, j, em.values[em.match.position(i, j)].item())
             for i, j in zip(rows, match_row[rows].tolist())]
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
