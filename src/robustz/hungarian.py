"""Minimum-cost bipartite assignment and the linear case's selection.

The sign regime without a quadratic bound only asks whether an n-pair
assignment with the right effect-sum sign exists. That is an assignment
problem: solve for a minimum (or maximum) total-effect matching and take
the n cheapest (or dearest) of its pairs. The case ladder checks the
sign of their sum and reports the Z statistic of that selection.

The matching itself is found with successive shortest augmenting paths
under dual potentials, which tolerates negative costs directly (no
big-M padding, no cost shifting) and extends to rectangular or
deficient instances by stopping at maximum cardinality. Each path comes
from a heap-ordered Dijkstra over the columns:

* The free rows share one scalar potential, which starts at the least
  cost and rises by the same amount at each augmentation; a row gets
  its own entry when it is matched. Every column starts at potential 0,
  so every reduced cost starts nonnegative.
* Columns leave the heap by (distance, column). A path's true cost is
  its distance plus the free-row potential plus its end column's
  potential, and every free column keeps potential 0, so the first free
  column to leave the heap ends the shortest path (ties to the lowest
  column) and the search stops there (the shortest-augmenting-path
  stop of Jonker and Volgenant, Computing 38, 1987).
* A popped row's pairs are relaxed in a Python loop when it has at most
  ``WIDE_ROW`` of them and with one numpy slice otherwise.

Neither direction's matching depends on n, so each is solved once per
effect matrix and shared by every test on it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np

from .matching import EffectMatrix
from .statistic import Assignment

# Widest row whose pairs are relaxed in a Python loop rather than one numpy
# slice. Degree ladder on random square maps (every row the same width,
# U(-100, 100) effects), the full solve with the loop alone over the solve
# with numpy alone, best of 3 each, two runs on a 2-core Intel Xeon: at
# side 300, widths 16-32 read 0.42-0.64, 48 0.57-0.94, 64 0.91-1.00, 96
# 1.03-1.20, 128 1.24-1.26, 192 1.12-1.43; at side 600, 32 read 0.51-0.96,
# 64 0.90-1.10, 96 1.20-1.22, 128 1.05-1.24. The loop wins below 64 and
# numpy from 96 up.
WIDE_ROW = 64


@dataclass(frozen=True)
class CostMatching:
    """A min-cost (or max-cost) matching of maximum cardinality.

    ``live_pops`` counts the Dijkstra's heap pops that settled a column,
    summed over all augmentations: the solver's work, not its result, so
    it takes no part in equality or repr.
    """

    pairs: tuple[tuple[int, int, float], ...]
    total_cost: float
    cardinality: int
    live_pops: int = field(compare=False, repr=False)


# solved matchings by effect matrix, then by negate; no strong reference to the matrix
_SOLVED: weakref.WeakKeyDictionary[EffectMatrix, dict[bool, CostMatching]] = (
    weakref.WeakKeyDictionary())


def _solve_assignment(em: EffectMatrix, negate: bool):
    """Match rows to columns minimizing total (possibly negated) cost.

    One Dijkstra per augmentation, seeded from every still-free row at
    distance zero, so each augmentation uses the globally shortest
    augmenting path; that keeps the matching cost-minimal at every
    cardinality even when the final matching cannot cover all rows.
    Initial duals are 0 on columns and the least cost ``free_u`` on the
    free rows, which share it, so every reduced cost starts nonnegative
    without shifting costs.

    The sink argument: a path from a free row to free column j costs its
    reduced distance plus ``free_u`` plus ``v[j]``. After an augmentation
    only the settled columns' potentials change, and a free column is
    settled only as a sink, which it stops being; so every free column
    keeps ``v = 0``, the path cost is the distance plus a constant, and
    the first free column popped ends a shortest path. Columns pop by
    (distance, column), so ties go to the lowest column.

    Each Dijkstra is seeded per column with the least cost over the free
    rows' pairs, its lowest row as predecessor. Each column's pairs are
    sorted once by (cost, row), and the seed only moves forward past rows
    that got matched, since a matched row stays matched. The state
    (``dist``, ``pred``, the matches) is held in Python lists, and a
    popped column's distance becomes -inf, which marks it visited. Rows
    wider than ``WIDE_ROW`` (a measured crossover; see its comment) relax
    with numpy against ``dist_a``, a copy of ``dist`` kept only when such
    a row exists.
    """
    if em.nnz == 0:
        raise ValueError("empty eligibility: no pairs to assign")
    n_rows, n_cols = em.n_treated, em.n_control
    start = em.match.row_start.tolist()  # Python ints: numpy scalar indexing slows the loops
    cols = em.match.cols
    costs = -em.values if negate else em.values
    cols_l, costs_l = cols.tolist(), costs.tolist()
    row_pairs = [list(zip(cols_l[lo:hi], costs_l[lo:hi])) for lo, hi in zip(start, start[1:])]
    wide = max(map(len, row_pairs)) > WIDE_ROW
    inf = math.inf

    v_a = np.zeros(n_cols)  # a free column's potential stays 0: it is popped only as a sink
    v = v_a.tolist()
    u = [0.0] * n_rows  # matched rows; every free row is at free_u
    free_u = costs.min().item()  # every reduced cost starts nonnegative
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols
    # each column's pairs by (cost, row); a column's seed is its first pair
    # from a free row, and rows only ever leave the free set, so it only advances
    order = np.lexsort((em.match.rows, costs, cols))
    by_row, by_cost = em.match.rows[order].tolist(), costs[order].tolist()
    col_end = np.searchsorted(cols[order], np.arange(1, n_cols + 1)).tolist()
    seed_at = [0] + col_end[:-1]
    seed_cost = np.array([by_cost[k] if k < end else inf for k, end in zip(seed_at, col_end)])
    seed_row = [by_row[k] if k < end else n_rows for k, end in zip(seed_at, col_end)]
    live_pops = 0

    while True:  # until no free row has an augmenting path
        dist_a = (seed_cost - free_u) - v_a
        reached = np.flatnonzero(np.isfinite(dist_a))
        heap = list(zip(dist_a[reached].tolist(), reached.tolist()))
        heapify(heap)
        dist = dist_a.tolist()
        pred = seed_row[:]

        popped = []  # (matched column, final distance) in pop order
        found = -1
        while heap:
            dj, j = heappop(heap)
            if dj > dist[j]:
                continue  # stale entry, or the column was popped already
            live_pops += 1
            i = match_col[j]
            if i < 0:
                found, found_d = j, dj  # the sink: no later pop is shorter
                break
            dist[j] = -inf
            if wide:
                dist_a[j] = -inf
            popped.append((j, dj))
            ui = u[i]
            if len(row_pairs[i]) <= WIDE_ROW:
                for c, cost in row_pairs[i]:
                    d = dj + cost - ui - v[c]
                    if d < dist[c]:
                        dist[c] = d
                        pred[c] = i
                        heappush(heap, (d, c))
                        if wide:
                            dist_a[c] = d
            else:
                cols_i = cols[start[i]:start[i + 1]]
                nd = dj + costs[start[i]:start[i + 1]] - ui - v_a[cols_i]
                better = nd < dist_a[cols_i]
                cols_i, nd = cols_i[better], nd[better]
                dist_a[cols_i] = nd
                for c, d in zip(cols_i.tolist(), nd.tolist()):
                    dist[c] = d
                    pred[c] = i
                    heappush(heap, (d, c))

        if found < 0:
            break  # no augmenting path from any free row: cardinality is maximal
        for j, d in popped:
            u[match_col[j]] += found_d - d
            v[j] -= found_d - d
        free_u += found_d
        moved = [j for j, _ in popped]
        v_a[moved] = [v[j] for j in moved]

        j = found
        while True:
            i = pred[j]
            match_col[j] = i
            match_row[i], j = j, match_row[i]
            if j < 0:
                break
        u[i] = free_u
        for c, _ in row_pairs[i]:
            if seed_row[c] == i:
                k, end = seed_at[c] + 1, col_end[c]
                while k < end and match_row[by_row[k]] >= 0:
                    k += 1
                seed_at[c] = k
                seed_cost[c], seed_row[c] = (by_cost[k], by_row[k]) if k < end else (inf, n_rows)

    pairs = [(i, j, em.values[em.match.position(i, j)].item())
             for i, j in enumerate(match_row) if j >= 0]
    total = math.fsum(c for _, _, c in pairs)
    return CostMatching(pairs=tuple(pairs), total_cost=total, cardinality=len(pairs),
                        live_pops=live_pops)


def _matching(em: EffectMatrix, negate: bool) -> CostMatching:
    """The direction's matching, solved once per effect matrix.

    Neither direction's matching depends on n, so the feasible-n search,
    the reported test and every n of a sweep share one pass each. The
    cache holds the matrix weakly; a matrix is not modified once built.
    """
    by_direction = _SOLVED.setdefault(em, {})
    if negate not in by_direction:
        by_direction[negate] = _solve_assignment(em, negate)
    return by_direction[negate]


def hungarian_min(em: EffectMatrix) -> CostMatching:
    """Minimum total-effect matching of maximum cardinality."""
    return _matching(em, negate=False)


def hungarian_max(em: EffectMatrix) -> CostMatching:
    """Maximum total-effect matching of maximum cardinality."""
    return _matching(em, negate=True)


def case3_selection(em: EffectMatrix, n: int, direction: str):
    """The n pairs of the direction's optimal matching, or None if < n exist.

    Selection order is cost-ascending for min and cost-descending for max,
    ties broken by (i, j), which biases the pick toward the sign constraint.
    The pick is a heuristic: the n best pairs of a full matching need not
    be the best n-matching, and where several full matchings share the
    optimal total, the solver's tie rules decide which one is read.
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

