"""Greedy schemes over the sorted effect list.

Both extremal directions of the robust Z test reduce to four sign
regimes. The two that admit a quadratic level bound are solved greedily
on the ascending effect list:

* minimization, case 2 (level <= 0, effect sum <= 0): repeatedly take
  the most negative remaining entry; infeasible as soon as the smallest
  remaining effect is positive. A used row or column is never freed, so
  the smallest remaining entry only moves forward and one scan of the
  list finds every pick. No pick depends on n, so the scan is one walk
  kept with the list: the picks at n are its first n, and a larger n
  walks on from where the last call stopped.
* minimization, case 1 (level >= 0, effect sum >= 0): build couples.
  Each round picks an anchor (the most negative entry if its magnitude
  is covered by the most positive one, otherwise the most positive) and
  the partner that makes the couple sum smallest while keeping it
  nonnegative; an anchor without one is passed over for the rest of the
  round. Odd n finishes with the single smallest entry that keeps the
  running sum nonnegative.

Maximization is minimization of ``em.negated()``: its case 1 is case 2
of the negated effects and its case 2 their case 1, and ``reflect``
renames the case and negates the effect sum back. The sorted list does
not depend on n, so it is built once per effect matrix (the negated
matrix keeps its own) and shared by every later solve. It is sorted
lazily: only as far as a reader has read, which for the case-2 walk is
a little more than the largest n it was asked for and for case 1 the
whole list, and what was sorted is kept for every later n as one
read-only head. The value order and its (i, j) tie rule live here.
Every selection removes all entries sharing the chosen row or column,
so the output is always a valid one-to-one assignment, and its Z
statistic is the level the case reaches.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .matching import EffectMatrix
from .statistic import Assignment, PairStats, stats_from_values


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SortedEffectList:
    """Eligible pair effects in ascending value order, ties by (i, j), sorted lazily.

    The list holds the effect column in (i, j) order and sorts only as far
    as its readers ask: ``prefix(k)`` grows the sorted head by one slab, the
    unsorted entries up to a threshold that ``np.partition`` picks, ordered
    by ``stable_order``. Every entry equal to the threshold joins the slab,
    so a run of equal values (``0.0 == -0.0``) never straddles two slabs
    and the head is always the head of the one stable order.

    The head's arrays are read-only: one list is shared by every n solved
    on its matrix, and a growth replaces them. ``case2`` is the list's
    case-2 walk, shared the same way.
    """

    def __init__(self, effects: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 n_treated: int, n_control: int):
        self.n_treated, self.n_control = n_treated, n_control
        self._effects, self._rows, self._cols = effects, rows, cols
        self._head = tuple(_read_only(a[:0]) for a in (effects, rows, cols))
        self._bound = -math.inf  # every entry at or below it is in the head
        self.case2 = _Case2Walk(n_treated, n_control)

    def __len__(self) -> int:
        return len(self._effects)

    def prefix(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, rows and cols of the sorted head, at least ``min(k, len(self))`` entries.

        The head holds everything sorted so far, so it may be longer than
        asked. The first growth sorts at least 1/64 of the list and each
        later one at least eight times the head, so a list grows at most
        three times whatever its readers ask (each growth reads the whole
        column once, and copies the head, at most 1/7 of what is sorted).
        """
        size = len(self._head[0])
        if size < min(k, len(self)):
            self._grow(max(k, 8 * size, -(-len(self) // 64)))
        return self._head

    def _grow(self, k: int) -> None:
        """Sort the slab that makes the head at least ``min(k, len(self))`` entries."""
        v = self._effects
        thr = np.partition(v, k - 1)[k - 1] if k < len(v) else math.inf
        slab = np.flatnonzero((v > self._bound) & (v <= thr))  # ascending (i, j)
        sv = v[slab]
        local = stable_order(sv, np.argsort(sv))
        order = slab[local]
        self._head = tuple(_read_only(np.concatenate((head, tail))) for head, tail in
                           zip(self._head, (sv[local], self._rows[order], self._cols[order])))
        self._bound = thr


def stable_order(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, from any ``order`` that sorts ``values``.

    numpy's stable sort of floats is a merge sort, several times slower
    than its default sort. Without ties ``order`` is already the stable
    order. Otherwise each run of equal values (``0.0`` and ``-0.0`` are
    equal) is put back in index order by sorting the int64 key
    ``run * m + order``. The keys are distinct, so numpy's default sort,
    the fastest on them, gives the one ascending order.
    """
    m = len(order)
    v = values[order]
    changes = v[1:] != v[:-1]
    if changes.all():
        return order
    run = np.zeros(m, dtype=np.int64)
    np.cumsum(changes, out=run[1:])
    run *= m  # below m * m, which fits in int64 for any m below 3e9
    key = run + order
    key.sort()
    key -= run
    return key


@dataclass(frozen=True)
class Attempt:
    """One ladder rung's outcome, the same record for every rung.

    ``reason`` is set when the rung failed: it built no ``assignment``, or
    the one it built has an effect sum of the wrong sign.
    """

    case: str
    assignment: Assignment | None = None
    stats: PairStats | None = None
    reason: str | None = None


_REFLECTED = {"min_case2": "max_case1", "min_case3": "max_case3", "min_case1": "max_case2"}


def reflect(attempt: Attempt) -> Attempt:
    """A min rung on ``em.negated()`` as the max rung on ``em``: the case renamed, S negated."""
    stats = None if attempt.stats is None else replace(attempt.stats, S=-attempt.stats.S + 0.0)
    return replace(attempt, case=_REFLECTED[attempt.case], stats=stats)


def build_sorted_list(em: EffectMatrix) -> SortedEffectList:
    """All eligible effects (zeros included) in ascending value order, ties by (i, j).

    The list does not depend on n, so it is built once per
    matrix into its ``derived`` store and shared by every later call; it
    sorts itself as far as its readers ask, and keeps what it sorted.
    """
    if "sorted" not in em.derived:
        em.derived["sorted"] = SortedEffectList(em.values, em.match.rows, em.match.cols,
                                                em.n_treated, em.n_control)
    return em.derived["sorted"]


def _views(ylist: SortedEffectList, k: int) -> tuple[memoryview, memoryview, memoryview]:
    """The values, rows and cols of ``ylist.prefix(k)`` as memoryviews.

    An index returns a Python float or int as fast as a list does, without
    copying the whole list per call (numpy scalar access would slow a walk).
    """
    values, rows, cols = ylist.prefix(k)
    return memoryview(values), memoryview(rows), memoryview(cols)


class _ListState:
    """Doubly linked view of the sorted list, for case 1.

    An entry is dead once its row or column is used. A walk skips dead
    entries and points the links it passed at the entry where it stopped
    (trail compression), so repeated scans stay near-linear overall. The
    links are read through memoryviews, as the list is.
    """

    __slots__ = ("values", "rows", "cols", "m", "nxt", "prv", "row_used", "col_used")

    def __init__(self, ylist: SortedEffectList):
        self.values, self.rows, self.cols = _views(ylist, len(ylist))
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
        if state.rows[k] != a_row and state.cols[k] != a_col:
            return k
        k = state.forward(state.nxt[k])
    return None


class _Case2Walk:
    """Case 2's scan of one sorted list, kept for every n solved on it.

    The scan takes the first assignable entry in list order until one is
    positive or the list ends, and no decision depends on n: the picks at
    n are the first n picks of one walk. ``pairs`` and ``values`` hold the
    picks in list order and ``reason`` why the walk stopped, once it has.
    ``entries`` is the unread rest of the sorted head the walk last
    asked for, which ends at list position ``read``; a ``for`` over it
    resumes where the last one broke off.
    """

    __slots__ = ("row_used", "col_used", "pairs", "values", "entries", "read", "reason")

    def __init__(self, n_treated: int, n_control: int):
        self.row_used, self.col_used = bytearray(n_treated), bytearray(n_control)
        self.pairs: list[tuple[int, int]] = []
        self.values: list[float] = []
        self.entries = iter(())
        self.read = 0
        self.reason: str | None = None

    def reach(self, ylist: SortedEffectList, n: int) -> None:
        """Walk on until there are n picks or the walk stops.

        A head of about 2n entries is asked for at a time; when that runs
        out first, a longer one is asked for and the walk resumes at ``read``.
        """
        row_used, col_used, pairs, picked = self.row_used, self.col_used, self.pairs, self.values
        while len(pairs) < n and self.reason is None:
            for v, i, j in self.entries:
                if row_used[i] or col_used[j]:
                    continue
                if v > 0.0:
                    self.reason = "smallest remaining effect is positive"
                    return
                row_used[i] = col_used[j] = 1
                pairs.append((i, j))
                picked.append(v)
                if len(pairs) == n:
                    return
            start = self.read
            if start == len(ylist):
                self.reason = "eligible pairs exhausted before n assignments"
                return
            values, rows, cols = _views(ylist, max(2 * n, start + 1))
            self.entries = zip(values[start:], rows[start:], cols[start:])
            self.read = len(values)


def _min_case2(ylist: SortedEffectList, n: int):
    """Case 2 at n: the first n picks of the list's walk, or why it stopped short."""
    walk = ylist.case2
    walk.reach(ylist, n)
    if len(walk.pairs) < n:
        return Attempt("min_case2", reason=walk.reason)
    return Attempt("min_case2", Assignment(pairs=frozenset(walk.pairs[:n])),
                   stats_from_values(walk.values[:n]))


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
                return Attempt("min_case1", reason="no remaining effect keeps the sum nonnegative")
            state.assign(k)
            chosen.append(k)
            running += state.values[k]
            continue
        top = state._seek(state.m - 1, state.prv, -1)
        if top is None:
            return Attempt("min_case1", reason="eligible pairs exhausted before n assignments")
        if state.values[top] < 0.0:
            return Attempt("min_case1", reason="largest remaining effect is negative")
        # an anchor without a partner is passed over for the rest of the
        # round: nothing is assigned within it, so those are exactly the
        # assignable entries below lo or above hi
        lo, hi = 0, state.m - 1
        while True:
            low = state.forward(lo)
            high = state._seek(hi, state.prv, -1)
            if low is None or high is None or low > high:
                return Attempt("min_case1", reason="no anchor admits a nonnegative couple")
            anchor = low if abs(state.values[low]) <= state.values[high] else high
            q = _partner(state, -state.values[anchor], anchor=anchor)
            if q is None:
                if anchor == low:
                    lo = low + 1
                else:
                    hi = high - 1
                continue
            state.assign(anchor)
            state.assign(q)
            chosen.extend((anchor, q))
            running += state.values[anchor] + state.values[q]
            break
    pairs = frozenset((state.rows[k], state.cols[k]) for k in chosen)
    return Attempt("min_case1", Assignment(pairs=pairs),
                   stats_from_values([state.values[k] for k in chosen]))


def greedy_min(ylist: SortedEffectList, n: int, case: str):
    """Minimization greedy for one sign regime, as an ``Attempt``."""
    if n < 2:
        raise ValueError(f"greedy solver needs n >= 2, got n={n}")
    if case not in ("case1", "case2"):
        raise ValueError(f"unknown minimization case {case!r}")
    if case == "case2":
        return _min_case2(ylist, n)
    return _min_case1(_ListState(ylist), n)


def greedy_max(em: EffectMatrix, n: int, case: str):
    """Maximization greedy: the swapped minimization case on ``em.negated()``, reflected."""
    if n < 2:
        raise ValueError(f"greedy solver needs n >= 2, got n={n}")
    if case not in ("case1", "case2"):
        raise ValueError(f"unknown maximization case {case!r}")
    swapped = "case2" if case == "case1" else "case1"
    return reflect(greedy_min(build_sorted_list(em.negated()), n, swapped))
