"""Case ladder, robust test assembly, n-sweeps and feasible-n search.

Per direction the ladder tries the sign regimes in the order that can
only improve the level: minimization runs case 2 (level <= 0), then the
linear case (level 0), then case 1 (level >= 0); maximization mirrors
it. Each rung is one ``Attempt``: it builds an assignment, or says why
it could not, and the first one that meets its case's sign condition is
the direction's witness. The test's bounds are the extreme Z values over
every assignment either ladder built, never a level on its own.

The linear case takes the direction's optimal n-pair assignment, read
off the assignment solver's n-th augmentation; the solver runs once per
effect matrix and direction. When its maximum matching has fewer than n
pairs no rung can find n disjoint pairs, and the direction has none.
When all three cases fail otherwise, the linear case's selection is
returned flagged ``fallback``, so a sweep never reports a spurious "no
pairs" while the cardinality constraint is satisfiable.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, replace

from .greedy import Attempt, build_sorted_list, greedy_max, greedy_min
from .hungarian import case3_selection, hungarian_min
from .matching import EffectMatrix
from .statistic import (
    TestResult,
    classify_robustness,
    p_values,
    z_statistic,
)

FALLBACK = "fallback"


class NoPairsError(RuntimeError):
    """A direction could not produce n disjoint eligible pairs."""


# greedy cases per direction, in the order that can only improve the level;
# None is the linear case. Names, not functions, so a rebinding of the
# solvers in this module's namespace is seen at call time.
_LADDERS = {"min": ("case2", None, "case1"), "max": ("case1", None, "case2")}


def _label(attempt: Attempt) -> str:
    """The case a result names: the attempt's rung, or FALLBACK if it failed that rung."""
    return attempt.case if attempt.reason is None else FALLBACK


def _linear(em: EffectMatrix, n: int, direction: str) -> Attempt:
    """The linear rung: the direction's optimal n-pair assignment and its sign check."""
    tag = f"{direction}_case3"
    selection = case3_selection(em, n, direction)
    if selection is None:
        return Attempt(tag, reason=f"no assignment of {n} disjoint eligible pairs exists")
    stats = em.pair_stats(selection.pairs)
    wrong = stats.S > 0.0 if direction == "min" else stats.S < 0.0
    return Attempt(tag, selection, stats, "effect sum has the wrong sign" if wrong else None)


def solve(em: EffectMatrix, n: int, direction: str, trace: list | None = None) -> Attempt:
    """The direction's witness: the first rung's Attempt that meets its sign condition.

    Without one it is the linear rung's, labelled FALLBACK, and without an
    assignment no n disjoint pairs exist. ``trace``, when given, collects
    every rung's Attempt in ladder order.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"solver needs n >= 2, got n={n}")
    if direction not in _LADDERS:
        raise ValueError(f"unknown direction {direction!r}")

    ylist = build_sorted_list(em)
    greedy = greedy_min if direction == "min" else greedy_max
    for case in _LADDERS[direction]:
        attempt = _linear(em, n, direction) if case is None else greedy(ylist, n, case)
        if trace is not None:
            trace.append(attempt)
        if attempt.reason is None:
            return attempt
        if case is None:
            if attempt.assignment is None:  # no rung can find n disjoint pairs
                return attempt
            linear = attempt
    return replace(linear, case=_label(linear))


def run_test(em: EffectMatrix, n: int, alpha: float) -> TestResult:
    """Both directions at one n, with P-values and robustness class.

    ``z_min``/``z_max`` are the least and greatest Z over every attempt of
    both ladders that built an assignment, so the interval never claims
    more than the built assignments support. On equal Z the direction's
    own witness stays the source, then the other direction's witness, then
    the other attempts in ladder order.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    pool: list[Attempt] = []
    low = solve(em, n, "min", pool)
    if low.assignment is None:
        raise NoPairsError(low.reason)
    # both directions' solver passes reach the same maximum cardinality, so
    # the max side builds an n-pair assignment too, at the latest its linear rung
    high = solve(em, n, "max", pool)
    others = [a for a in pool if a.assignment not in (None, low.assignment, high.assignment)]
    # min/max keep the first of equal values, so the order is the tie rule
    scored = [(z_statistic(a.stats), a) for a in (low, high, *others)]
    z_min, src_min = min(scored, key=lambda c: c[0])
    z_max, src_max = max([scored[1], scored[0], *scored[2:]], key=lambda c: c[0])
    p_min, p_max = p_values(z_max, z_min)
    return TestResult(
        n=n,
        z_min=z_min,
        z_max=z_max,
        case_used_min=_label(src_min),
        case_used_max=_label(src_max),
        p_min=p_min,
        p_max=p_max,
        classification=classify_robustness(p_min, p_max, alpha),
        assignment_min=src_min.assignment,
        assignment_max=src_max.assignment,
        degenerate_min=src_min.stats.degenerate,
        degenerate_max=src_max.stats.degenerate,
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    result: TestResult | None
    elapsed_ms: float

    @property
    def no_pairs(self) -> bool:
        return self.result is None


def iter_sweep(em: EffectMatrix, ns, alpha: float = 0.05):
    """Yield one SweepRow per n, in input order (rows stream as computed)."""
    for n in ns:
        start = time.perf_counter()
        try:
            result = run_test(em, n, alpha)
        except NoPairsError:
            result = None
        elapsed = (time.perf_counter() - start) * 1000.0
        yield SweepRow(n=n, result=result, elapsed_ms=elapsed)


def find_max_feasible_n(em: EffectMatrix, n_min: int = 2,
                        n_max: int | None = None) -> int | None:
    """Largest n in [n_min, n_max] with n disjoint eligible pairs, else None.

    Feasibility is matchability, so the answer is the maximum matching
    size capped by the range, and the min assignment-solver pass decides
    it: an n-pair assignment exists exactly when the pass reaches n
    augmentations. ``n_max`` defaults to the smaller matched side.
    """
    if n_max is not None and n_min > n_max:
        raise ValueError(f"invalid search range [{n_min}, {n_max}]")
    top = min(em.match.matched_treated, em.match.matched_control)
    if n_max is not None:
        top = min(top, n_max)
    low = max(n_min, 2)
    if top < low:
        return None
    if case3_selection(em, top, "min") is not None:
        return top
    cardinality = hungarian_min(em).cardinality  # that selection ended the min pass
    return cardinality if cardinality >= low else None
