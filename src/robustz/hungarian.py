"""Minimum-cost bipartite assignment and the linear case's selection.

The sign regime without a quadratic bound only asks whether an n-pair
assignment with the right effect-sum sign exists. That is an assignment
problem over exactly n pairs: the minimum (or maximum) total-effect
n-matching has the least (or greatest) effect sum S of any n-pair
assignment. The solver below passes through such a matching at its n-th
augmentation, so the case ladder replays the first n augmentations of
the direction's solve, checks the sign of their S and reports the Z
statistic of that selection.

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
* A popped row's pairs are relaxed in one Python loop. On rows of a few
  dozen pairs, as caliper matching gives, the loop is faster than a
  numpy slice. Rows of hundreds of pairs relax more slowly than a slice
  would (about twice the solve time at 300 pairs per row); that trade
  stands until a benchmark workload has such rows.

Neither direction's matching depends on n, so each effect matrix has
one pass per direction, a ``CostMatching`` kept in the matrix's
``derived`` store, shared by every test on it and advanced only as far
as it is read: ``case3_selection`` at n stops the pass after its n-th
augmentation, and a larger n, or ``hungarian_min``/``hungarian_max``
(which return the pass run to maximum cardinality), resume it. The pass
keeps one record of the matching, its log of augmenting paths;
``assignment(k)`` replays the first k of them, and a caller that wants
the effect sum reads it from that assignment's ``pair_stats``.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

import numpy as np

from .matching import EffectMatrix
from .statistic import Assignment


def _augmenting_paths(n_rows: int, n_cols: int, row_start: np.ndarray, rows: np.ndarray,
                      cols: np.ndarray, costs: np.ndarray):
    """Match rows to columns minimizing total cost, one augmentation per step.

    A generator over the eligible pairs' arrays (``costs`` aligned with
    ``rows``/``cols``): it yields each augmentation's path, the (row,
    column) pairs it matched, and returns ``live_pops``, the number of
    heap pops that settled a column, once no free row has an augmenting
    path. It holds no reference to the matrix, so a suspended pass does
    not keep the matrix alive.

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
    that got matched, since a matched row stays matched. ``dist`` starts
    as ``dist_a = (seed_cost - free_u) - v_a`` over every column, but the
    heap gets only the columns with ``dist_a`` at most ``bound``, the
    least ``dist_a`` of a free column: that column's own entry ends the
    search at the latest, so no larger seed could pop before the sink.
    When no free column has a finite seed, every finite column is seeded.
    The state (``dist``, ``pred``, the matches) is held in Python lists,
    and a popped column's distance becomes -inf, which marks it visited;
    during a search ``dist`` is the one copy of the distances, and every
    popped row relaxes its pairs in the same Python loop (see the module
    docstring for why there is no numpy path).
    """
    start = row_start.tolist()
    cols_l, costs_l = cols.tolist(), costs.tolist()
    row_pairs = [list(zip(cols_l[lo:hi], costs_l[lo:hi])) for lo, hi in zip(start, start[1:])]
    inf = math.inf

    v_a = np.zeros(n_cols)  # a free column's potential stays 0: it is popped only as a sink
    v = v_a.tolist()
    u = [0.0] * n_rows  # matched rows; every free row is at free_u
    free_u = costs.min().item()  # every reduced cost starts nonnegative
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols
    free_col = np.ones(n_cols, dtype=bool)
    # each column's pairs by (cost, row); a column's seed is its first pair
    # from a free row, and rows only ever leave the free set, so it only advances
    order = np.lexsort((rows, costs, cols))
    by_row = rows[order].tolist()
    by_cost = [costs_l[k] for k in order.tolist()]  # the float objects row_pairs holds
    col_end = np.searchsorted(cols[order], np.arange(1, n_cols + 1)).tolist()
    seed_at = [0] + col_end[:-1]
    seed_cost = np.array([by_cost[k] if k < end else inf for k, end in zip(seed_at, col_end)])
    seed_row = [by_row[k] if k < end else n_rows for k, end in zip(seed_at, col_end)]
    # the suspended pass keeps only what its searches read
    del start, cols_l, costs_l, order, row_start, rows, cols, costs
    live_pops = 0

    while True:  # until no free row has an augmenting path
        dist_a = (seed_cost - free_u) - v_a
        bound = dist_a[free_col].min(initial=inf)
        reached = np.flatnonzero(dist_a <= bound if bound < inf else dist_a < inf)
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
            popped.append((j, dj))
            ui = u[i]
            for c, cost in row_pairs[i]:
                d = dj + cost - ui - v[c]
                if d < dist[c]:
                    dist[c] = d
                    pred[c] = i
                    heappush(heap, (d, c))

        if found < 0:
            return live_pops  # no augmenting path from any free row
        for j, d in popped:
            u[match_col[j]] += found_d - d
            v[j] -= found_d - d
        free_u += found_d
        moved = [j for j, _ in popped]
        v_a[moved] = [v[j] for j in moved]
        free_col[found] = False

        path = []
        j = found
        while True:
            i = pred[j]
            path.append((i, j))
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
        yield tuple(path)


class CostMatching:
    """One direction's pass over one matrix, advanced only as far as it is read.

    ``augmentations`` is the solver's log: per augmentation, in order, the
    (row, column) pairs its path matched, one per row on the path (a path
    re-matches its rows and unmatches none). Replaying the first k
    entries, each row taking the column of its latest entry, gives the
    matching the solver held after k augmentations (``assignment(k)``).
    That is a minimum-cost k-matching, because each augmentation follows a
    globally shortest augmenting path from every free row. The log holds a
    few pairs per augmentation, where snapshots of the matching would hold
    k each.

    ``live_pops`` is None while the pass can go on; once no augmenting
    path is left it counts the Dijkstra's heap pops that settled a column,
    summed over all augmentations, and ``cardinality`` is the maximum.
    """

    def __init__(self, em: EffectMatrix, negate: bool):
        if em.nnz == 0:
            raise ValueError("empty eligibility: no pairs to assign")
        self.augmentations: list[tuple[tuple[int, int], ...]] = []
        self.live_pops: int | None = None
        self._paths = _augmenting_paths(em.n_treated, em.n_control, em.match.row_start,
                                        em.match.rows, em.match.cols,
                                        -em.values if negate else em.values)

    @property
    def cardinality(self) -> int:
        """Augmentations made so far: the matching's size after them."""
        return len(self.augmentations)

    def reach(self, n: float) -> bool:
        """Advance to n augmentations; False if the pass ends first."""
        while len(self.augmentations) < n and self.live_pops is None:
            try:
                self.augmentations.append(next(self._paths))
            except StopIteration as stop:
                self.live_pops = stop.value
        return len(self.augmentations) >= n

    def assignment(self, k: int) -> Assignment:
        """The matching held after the first k augmentations, replayed from the log."""
        row_col = {}
        for path in self.augmentations[:k]:
            row_col.update(path)
        return Assignment(pairs=frozenset(row_col.items()))


def _pass(em: EffectMatrix, negate: bool) -> CostMatching:
    """The direction's pass over the matrix, started once per effect matrix.

    Neither direction's matching depends on n, so the feasible-n search,
    the reported test and every n of a sweep share one pass each, kept in
    the matrix's ``derived`` store under ``("pass", negate)``.
    """
    if ("pass", negate) not in em.derived:
        em.derived["pass", negate] = CostMatching(em, negate)
    return em.derived["pass", negate]


def hungarian_min(em: EffectMatrix) -> CostMatching:
    """The minimum total-effect pass, run to maximum cardinality."""
    run = _pass(em, negate=False)
    run.reach(math.inf)
    return run


def hungarian_max(em: EffectMatrix) -> CostMatching:
    """The maximum total-effect pass, run to maximum cardinality."""
    run = _pass(em, negate=True)
    run.reach(math.inf)
    return run


def case3_selection(em: EffectMatrix, n: int, direction: str):
    """The direction's optimal n-pair assignment, or None if < n pairs exist.

    Replays the first n augmentations of the direction's pass, which runs
    only that far unless an earlier call took it further, so the
    selection is a minimum (max: maximum) total-effect n-matching and its
    effect sum S is the least (greatest) of any n-pair assignment, however
    ties fall. Among assignments of equal S, which one is read (and so its
    Z) follows the solver's tie rules.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"unknown direction {direction!r}")
    if em.nnz == 0:
        return None
    run = _pass(em, negate=direction == "max")
    return run.assignment(n) if run.reach(n) else None
