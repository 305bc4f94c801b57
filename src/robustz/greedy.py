"""Greedy schemes over the sorted effect list.

Both extremal directions of the robust Z test reduce to four sign
regimes. The two that admit a quadratic level bound are solved greedily
on the ascending effect list:

* minimization, case 2 (level <= 0, effect sum <= 0): repeatedly take
  the most negative remaining entry; infeasible as soon as the smallest
  remaining effect is positive. A used row or column is never freed, so
  the smallest remaining entry only moves forward and one scan of the
  list finds every pick.
* minimization, case 1 (level >= 0, effect sum >= 0): build couples.
  Each round picks an anchor (the most negative entry if its magnitude
  is covered by the most positive one, otherwise the most positive) and
  the partner that makes the couple sum smallest while keeping it
  nonnegative; odd n finishes with the single smallest entry that keeps
  the running sum nonnegative.

The maximization cases are the exact mirror image: negate every effect,
solve the mirrored minimization case, negate the effect sum back. Case 1
scans the ascending list from the top, which is case 2 on the negated
list; case 2 walks the mirrored list. The sorted list, and the mirror
once maximization case 2 needs it, depend on neither n nor the
direction, so each is built once per effect matrix and shared by every
later solve. Every selection removes all entries sharing the chosen row
or column, so the output is always a valid one-to-one assignment, and
its Z statistic is the level the case reaches.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .matching import EffectMatrix, stable_order
from .statistic import Assignment, PairStats, stats_from_values


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SortedEffectList:
    """Eligible pair effects in ascending value order, ties by (i, j).

    The arrays are read-only: one list is shared by both directions and
    every n solved on its matrix.
    """

    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    n_treated: int
    n_control: int

    @cached_property
    def mirror(self) -> "SortedEffectList":
        """The negated effects in ascending order, ties by (i, j); built once per list.

        Only maximization case 2 walks it. Reversing the list would put tied
        entries in descending (i, j) order, so each run of ties is put back
        in list order.
        """
        negated = -self.values
        order = stable_order(negated, np.arange(len(negated) - 1, -1, -1))
        return replace(self, values=_read_only(negated[order]),
                       rows=_read_only(self.rows[order]), cols=_read_only(self.cols[order]))


@dataclass(frozen=True)
class Infeasible:
    reason: str


@dataclass(frozen=True)
class GreedySolution:
    assignment: Assignment
    stats: PairStats
    case: str


# one sorted list per effect matrix; no strong reference to the matrix
_SORTED: weakref.WeakKeyDictionary[EffectMatrix, SortedEffectList] = (
    weakref.WeakKeyDictionary())


def build_sorted_list(em: EffectMatrix) -> SortedEffectList:
    """All eligible effects (zeros included) in the matrix's value order.

    The list does not depend on n or the direction, so it is built once per
    matrix and shared by every later call. The cache holds the matrix weakly;
    a matrix is not modified once built.
    """
    ylist = _SORTED.get(em)
    if ylist is None:
        order = em.order
        ylist = SortedEffectList(
            _read_only(em.values[order]), _read_only(em.match.rows[order]),
            _read_only(em.match.cols[order]), em.n_treated, em.n_control)
        _SORTED[em] = ylist
    return ylist


def _views(ylist: SortedEffectList) -> tuple[memoryview, memoryview, memoryview]:
    """The list's values, rows and cols as memoryviews.

    An index returns a Python float or int as fast as a list does, without
    copying the whole list per call (numpy scalar access would slow a walk).
    """
    return memoryview(ylist.values), memoryview(ylist.rows), memoryview(ylist.cols)


class _ListState:
    """Doubly linked view of the sorted list, for case 1.

    An entry is dead once its row or column is used. A walk skips dead
    entries and points the links it passed at the entry where it stopped
    (trail compression), so repeated scans stay near-linear overall. The
    links are read through memoryviews, as the list is.
    """

    __slots__ = ("values", "rows", "cols", "m", "nxt", "prv", "row_used", "col_used")

    def __init__(self, ylist: SortedEffectList):
        self.values, self.rows, self.cols = _views(ylist)
        m = len(self.values)
        self.m = m
        self.nxt = memoryview(np.arange(1, m + 1))
        self.prv = memoryview(np.arange(-1, m - 1))
        self.row_used = bytearray(ylist.n_treated)
        self.col_used = bytearray(ylist.n_control)

    def assign(self, k: int) -> None:
        self.row_used[self.rows[k]] = 1
        self.col_used[self.cols[k]] = 1

    def _seek(self, k: int, links: memoryview, end: int):
        """First assignable index from k along ``links`` (stop at ``end``), else None.

        The dead entries passed over are linked straight to the stop.
        """
        trail = []
        while k != end and (self.row_used[self.rows[k]] or self.col_used[self.cols[k]]):
            trail.append(k)
            k = links[k]
        for t in trail:
            links[t] = k
        return None if k == end else k

    def forward(self, k: int):
        """Smallest assignable index >= k in sort order, else None."""
        return self._seek(k, self.nxt, self.m)


def _partner(state: _ListState, threshold: float, anchor: int):
    """Smallest assignable entry with value >= threshold, disjoint from anchor."""
    k = state.forward(bisect_left(state.values, threshold))
    a_row, a_col = state.rows[anchor], state.cols[anchor]
    while k is not None:
        if k != anchor and state.rows[k] != a_row and state.cols[k] != a_col:
            return k
        k = state.forward(state.nxt[k])
    return None


def _candidate(state: _ListState, k: int, links: memoryview, end: int, barred: set):
    """First assignable index from k along ``links`` (stop at ``end``) not in barred."""
    k = state._seek(k, links, end)
    while k is not None and k in barred:
        k = state._seek(links[k], links, end)
    return k


def _solution_from(rows, cols, chosen: list[int], picked, case: str) -> GreedySolution:
    pairs = [(rows[k], cols[k]) for k in chosen]
    return GreedySolution(
        assignment=Assignment(pairs=frozenset(pairs)),
        stats=stats_from_values(picked),
        case=case,
    )


def _top_down(values: memoryview):
    """Indices of an ascending list from the largest value down.

    Each run of equal values (``0.0 == -0.0``) comes in ascending index
    order, which is the mirrored list's order.
    """
    k = len(values) - 1
    while k >= 0:
        v = values[k]
        if k and values[k - 1] == v:
            lo = bisect_left(values, v, 0, k)
            yield from range(lo, k + 1)
            k = lo
        else:
            yield k
        k -= 1


def _min_case2(ylist: SortedEffectList, n: int, mirrored: bool = False):
    """Case 2 as one scan: the first n assignable entries in list order.

    ``mirrored`` runs case 2 of the negated list without building it: the
    list is read from the top (see ``_top_down``) and every value negated.
    """
    values, rows, cols = _views(ylist)
    sign = -1.0 if mirrored else 1.0
    row_used, col_used = bytearray(ylist.n_treated), bytearray(ylist.n_control)
    chosen = []
    for k in _top_down(values) if mirrored else range(len(values)):
        i, j = rows[k], cols[k]
        if row_used[i] or col_used[j]:
            continue
        if sign * values[k] > 0.0:
            return Infeasible("smallest remaining effect is positive")
        row_used[i] = col_used[j] = 1
        chosen.append(k)
        if len(chosen) == n:
            break
    else:
        return Infeasible("eligible pairs exhausted before n assignments")
    picked = [sign * values[k] for k in chosen]
    if math.fsum(picked) > 0.0:
        return Infeasible("selected effect sum is positive")
    return _solution_from(rows, cols, chosen, picked, "min_case2")


def _min_case1(state: _ListState, n: int):
    chosen = []
    running = 0.0
    rounds = (n + 1) // 2
    for r in range(rounds):
        if n % 2 == 1 and r == rounds - 1:
            # final odd entry: smallest one keeping the total nonnegative.
            # couples are nonnegative by exact float comparison, but the
            # running sum carries rounding, so acceptance re-checks the
            # exactly-rounded total the final statistics will report
            base = [state.values[c] for c in chosen]
            k = state.forward(bisect_left(state.values, -running))
            while k is not None and math.fsum(base + [state.values[k]]) < 0.0:
                k = state.forward(state.nxt[k])
            if k is None:
                return Infeasible("no remaining effect keeps the sum nonnegative")
            state.assign(k)
            chosen.append(k)
            running += state.values[k]
            continue
        barred: set = set()
        top = _candidate(state, state.m - 1, state.prv, -1, barred)
        if top is None:
            return Infeasible("eligible pairs exhausted before n assignments")
        if state.values[top] < 0.0:
            return Infeasible("largest remaining effect is negative")
        while True:
            low = _candidate(state, 0, state.nxt, state.m, barred)
            if low is None:
                return Infeasible("no anchor admits a nonnegative couple")
            high = _candidate(state, state.m - 1, state.prv, -1, barred)
            anchor = low if abs(state.values[low]) <= state.values[high] else high
            q = _partner(state, -state.values[anchor], anchor=anchor)
            if q is None:
                barred.add(anchor)
                continue
            state.assign(anchor)
            state.assign(q)
            chosen.extend((anchor, q))
            running += state.values[anchor] + state.values[q]
            break
    return _solution_from(state.rows, state.cols, chosen,
                          [state.values[k] for k in chosen], "min_case1")


def greedy_min(ylist: SortedEffectList, n: int, case: str):
    """Minimization greedy for one sign regime; GreedySolution or Infeasible."""
    if n < 2:
        raise ValueError(f"greedy solver needs n >= 2, got n={n}")
    if case not in ("case1", "case2"):
        raise ValueError(f"unknown minimization case {case!r}")
    if case == "case2":
        return _min_case2(ylist, n)
    return _min_case1(_ListState(ylist), n)


def greedy_max(ylist: SortedEffectList, n: int, case: str):
    """Maximization greedy by reflection of the mirrored minimization case.

    Case 1 reads this list from the top; case 2 walks ``ylist.mirror``,
    built on its first call and reused by every later one.
    """
    if n < 2:
        raise ValueError(f"greedy solver needs n >= 2, got n={n}")
    if case not in ("case1", "case2"):
        raise ValueError(f"unknown maximization case {case!r}")
    if case == "case1":
        mirrored = _min_case2(ylist, n, mirrored=True)
    else:
        mirrored = _min_case1(_ListState(ylist.mirror), n)
    if isinstance(mirrored, Infeasible):
        return mirrored
    return GreedySolution(
        assignment=mirrored.assignment,
        stats=replace(mirrored.stats, S=-mirrored.stats.S + 0.0),
        case=f"max_{case}",
    )
