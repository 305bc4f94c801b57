"""Minimum-cost bipartite assignment and the linear case's selection.

The sign regime without a quadratic bound only asks whether an n-pair
assignment with the right effect-sum sign exists. That is an assignment
problem over exactly n pairs: the minimum total-effect n-matching has
the least effect sum S of any n-pair assignment. The solver below passes
through such a matching at its n-th augmentation, so the case ladder
replays the first n augmentations of the matrix's pass, checks the sign
of their S and reports the Z statistic of that selection. The solver
only minimizes: the maximum total-effect matching of a matrix is the
minimum one of ``em.negated()``, which keeps a pass of its own.

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
* Setup ranks the pairs by (cost, (i, j)) once, and that one rank
  orders each row's pairs and each column's. The search state
  (distances, predecessors and a heap of the free columns' seed costs,
  which bounds each search) lives for the whole pass; a search resets
  only the distances it wrote.
* A popped row's pairs are relaxed in one Python loop, in (cost,
  column) order, which stops at the first pair that would land past the
  nearest free column's seed distance: no such pair can pop before the
  sink. On a random 250x250 map at 20 pairs per row that skips four
  relaxations in five, and since the loop seldom reaches a wide row's
  end it beats a numpy slice there too: a full pass on a 600x600 map
  at 300 pairs per row takes 0.26 s, against 0.47 s when rows wider
  than 64 pairs relax as a slice (best of 3, 2-core Intel Xeon).

The matching does not depend on n, so each effect matrix has one pass,
a ``CostMatching`` kept in the matrix's ``derived`` store, shared by
every test on it and advanced only as far as it is read:
``case3_selection`` at n stops the pass after its n-th augmentation,
and a larger n, or ``hungarian_min`` (which returns the pass run to
maximum cardinality), resumes it. The pass keeps one record of the
matching, its log of augmenting paths; ``assignment(k)`` replays the
first k of them, and a caller that wants the effect sum reads it from
that assignment's ``pair_stats``.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

import numpy as np

from .greedy import stable_order
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

    Setup sorts the pairs once: the pairs come in (i, j) order, so
    ``stable_order`` gives ``rank``, each pair's place in (cost, (i, j))
    order, in which equal costs (``0.0`` and ``-0.0`` among them) keep
    the (i, j) order. Sorting the int64 keys ``rows * nnz + rank`` and
    ``cols * nnz + rank`` gives each row's pairs in (cost, column) order
    and each column's in (cost, row) order. The keys are distinct, so
    numpy's default sort gives the one order, and they fit in int64
    while ``n_rows * nnz`` and ``n_cols * nnz`` stay below ``2**63``.

    Each Dijkstra is seeded per column with the least cost over the free
    rows' pairs, its lowest row as predecessor: a column's seed is its
    first pair, in (cost, row) order, from a free row, and it only moves
    forward past rows that got matched, since a matched row stays
    matched. A column's seed distance is ``dist_a = (seed_cost - free_u)
    - v_a``, and the heap gets only the columns with ``dist_a`` at most
    ``bound``, the least ``dist_a`` of a free column: that column's own
    entry ends the search at the latest, so no larger seed could pop
    before the sink. A free column has ``v = 0``, so ``bound`` is the
    least free seed cost minus ``free_u``, and since rounding is monotone
    that is the same float as the least difference. A lazy heap of (seed
    cost, column) over the free columns keeps that least seed cost. An
    entry is stale once its column is matched (it never becomes free
    again) or its seed has advanced to a dearer pair, which its cost no
    longer equal to ``seed_cost`` shows (a seed advanced at equal cost
    leaves the entry's value right); an advanced seed pushes a new entry.
    When no free column has a finite seed, ``bound`` is inf and every
    finite column is seeded.

    ``dist`` and ``pred`` are Python lists built once per pass. Between
    searches every ``dist`` entry is inf; a search writes its seeds'
    entries, a popped column's distance becomes -inf, which marks it
    visited, and once the sink pops the search resets to inf exactly the
    entries it wrote: the columns left in its heap, the popped columns
    and the sink (every column it gave a finite distance was pushed, and
    left the heap only by a pop). ``pred`` is never reset, because a
    path reads it only at columns this search popped. During a search
    ``dist`` is the one copy of the distances.

    The sink pops at distance ``bound`` or less, so a search relaxes only
    up to ``bound``. Each row's pairs are kept in (cost, column) order,
    and every popped row relaxes them in one Python loop with two cuts:

    * A relaxation is admitted when ``d < dist[c] and d <= bound``, so a
      column first reached past ``bound`` is never pushed, while a tie at
      exactly ``bound`` still is and the lowest column still wins it.
      This is the set a search that started ``dist`` at ``dist_a``
      capped at the float just above ``bound`` would admit: for a
      float ``d``, ``d <= bound`` is ``d < nextafter(bound, inf)``, and a
      seeded column's ``dist_a`` is at most ``bound`` already. When
      ``bound`` is inf it admits every finite ``d``.
    * The loop breaks at the first pair with ``dj + cost - ui`` above
      ``bound``. Column potentials only fall from 0, so ``v <= 0`` and,
      rounding being monotone, subtracting ``v[c]`` gives a distance no
      smaller; along a cost-sorted row that partial sum only grows, so
      every later pair lands past ``bound`` too.

    Neither cut changes the search: every column whose final distance is
    at most ``bound`` gets the same distance and predecessor, and no other
    column pops before the sink. The order within a row changes nothing
    either, since each column appears once per row and the heap orders
    entries by (distance, column). When ``bound`` is inf, there is no
    break either. The potentials then move in one loop over the popped
    columns, which also collects them for ``v_a``.
    """
    nnz = len(costs)
    rank = np.empty(nnz, dtype=np.int64)  # each pair's place in (cost, (i, j)) order
    rank[stable_order(costs, np.argsort(costs))] = np.arange(nnz)
    start = row_start.tolist()
    costs_l = costs.tolist()
    row_order = np.argsort(rows * nnz + rank)  # each row's pairs by (cost, column)
    pairs = list(zip(cols[row_order].tolist(), [costs_l[k] for k in row_order.tolist()]))
    row_pairs = [pairs[lo:hi] for lo, hi in zip(start, start[1:])]
    inf = math.inf

    v_a = np.zeros(n_cols)  # a free column's potential stays 0: it is popped only as a sink
    v = v_a.tolist()
    u = [0.0] * n_rows  # matched rows; every free row is at free_u
    free_u = costs.min().item()  # every reduced cost starts nonnegative
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols
    # each column's pairs by (cost, row); a column's seed is its first pair
    # from a free row, and rows only ever leave the free set, so it only advances
    order = np.argsort(cols * nnz + rank)
    by_row = rows[order].tolist()
    by_cost = [costs_l[k] for k in order.tolist()]  # the float objects row_pairs holds
    col_end = np.searchsorted(cols[order], np.arange(1, n_cols + 1)).tolist()
    seed_at = [0] + col_end[:-1]
    seed_cost = np.array([by_cost[k] if k < end else inf for k, end in zip(seed_at, col_end)])
    seed_row = [by_row[k] if k < end else n_rows for k, end in zip(seed_at, col_end)]
    # (seed cost, column) of the free columns; stale once the column is matched or its seed advances
    free_seeds = [(c, j) for j, c in enumerate(seed_cost.tolist()) if c < inf]
    heapify(free_seeds)
    dist = [inf] * n_cols  # inf between searches; a popped column is -inf
    pred = [-1] * n_cols  # read only where this search wrote it
    # the suspended pass keeps only what its searches read
    del rank, start, costs_l, row_order, order, pairs, row_start, rows, cols, costs
    live_pops = 0

    while True:  # until no free row has an augmenting path
        while free_seeds and (match_col[free_seeds[0][1]] >= 0
                              or free_seeds[0][0] != seed_cost[free_seeds[0][1]]):
            heappop(free_seeds)
        bound = free_seeds[0][0] - free_u if free_seeds else inf
        dist_a = (seed_cost - free_u) - v_a
        reached = np.flatnonzero(dist_a <= bound if bound < inf else dist_a < inf)
        heap = list(zip(dist_a[reached].tolist(), reached.tolist()))
        for d, c in heap:
            dist[c] = d
            pred[c] = seed_row[c]
        heapify(heap)

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
                d = dj + cost - ui
                if d > bound:
                    break
                d -= v[c]
                if d < dist[c] and d <= bound:
                    dist[c] = d
                    pred[c] = i
                    heappush(heap, (d, c))

        if found < 0:
            return live_pops  # no augmenting path from any free row
        dist[found] = inf
        for _, c in heap:
            dist[c] = inf
        moved = []
        for j, d in popped:
            delta = found_d - d
            u[match_col[j]] += delta
            v[j] -= delta
            dist[j] = inf
            moved.append(j)
        free_u += found_d
        v_a[moved] = [v[j] for j in moved]

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
                if k < end and match_col[c] < 0:
                    heappush(free_seeds, (by_cost[k], c))
        yield tuple(path)


class CostMatching:
    """The minimum total-effect pass over one matrix, advanced only as far as it is read.

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

    def __init__(self, em: EffectMatrix):
        if em.nnz == 0:
            raise ValueError("empty eligibility: no pairs to assign")
        self.augmentations: list[tuple[tuple[int, int], ...]] = []
        self.live_pops: int | None = None
        self._paths = _augmenting_paths(em.n_treated, em.n_control, em.match.row_start,
                                        em.match.rows, em.match.cols, em.values)

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


def _pass(em: EffectMatrix) -> CostMatching:
    """The matrix's pass, started once per effect matrix.

    The matching does not depend on n, so the feasible-n search, the
    reported test and every n of a sweep share one pass, kept in the
    matrix's ``derived`` store under ``"pass"``.
    """
    if "pass" not in em.derived:
        em.derived["pass"] = CostMatching(em)
    return em.derived["pass"]


def hungarian_min(em: EffectMatrix) -> CostMatching:
    """The minimum total-effect pass, run to maximum cardinality."""
    run = _pass(em)
    run.reach(math.inf)
    return run


def hungarian_max(em: EffectMatrix) -> CostMatching:
    """The maximum total-effect pass: the minimum one of ``em.negated()``."""
    return hungarian_min(em.negated())


def case3_selection(em: EffectMatrix, n: int):
    """The minimum total-effect n-pair assignment, or None if < n pairs exist.

    Replays the first n augmentations of the matrix's pass, which runs
    only that far unless an earlier call took it further, so the
    selection is a minimum total-effect n-matching and its effect sum S
    is the least of any n-pair assignment, however ties fall. Among
    assignments of equal S, which one is read (and so its Z) follows the
    solver's tie rules. The greatest S is read off ``em.negated()``.
    """
    if em.nnz == 0:
        return None
    run = _pass(em)
    return run.assignment(n) if run.reach(n) else None
