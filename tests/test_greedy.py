"""Greedy solver tests: sorted list, both cases, reflection, bounds."""

import gc
import math
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

from robustz import greedy
from robustz.greedy import (
    GreedySolution,
    Infeasible,
    build_sorted_list,
    greedy_max,
    greedy_min,
)
from robustz.matching import stable_order
from robustz.statistic import stats_from_values, validate_assignment, z_statistic

from conftest import brute_force_extrema, make_em, random_instance


def ylist_of(effects):
    return build_sorted_list(make_em(effects))


def entries(yl):
    return list(zip(yl.values.tolist(), yl.rows.tolist(), yl.cols.tolist()))


class TestSortedList:
    def test_ascending_order(self):
        yl = ylist_of({(0, 0): 4, (0, 1): 3, (1, 0): 2, (1, 1): 1})
        assert entries(yl) == [(1.0, 1, 1), (2.0, 1, 0), (3.0, 0, 1), (4.0, 0, 0)]

    def test_zero_effects_kept(self):
        yl = ylist_of({(0, 0): 0.0, (1, 1): 1.0})
        assert (0.0, 0, 0) in entries(yl)

    def test_ties_break_lexicographically(self):
        yl = ylist_of({(0, 1): 2.0, (1, 0): 2.0})
        assert entries(yl) == [(2.0, 0, 1), (2.0, 1, 0)]

    def test_mirror_is_the_stable_sort_of_the_negated_list(self, rng):
        for _ in range(100):
            em, _ = random_instance(rng)
            draw = rng.choice((lambda: rng.uniform(-5.0, 5.0), lambda: rng.randint(-2, 2),
                               lambda: rng.choice((0.0, -0.0))))
            yl = ylist_of({k: draw() for k in em.effect})
            order = np.argsort(-yl.values, kind="stable")
            assert entries(yl.mirror) == list(zip((-yl.values[order]).tolist(),
                                                  yl.rows[order].tolist(),
                                                  yl.cols[order].tolist()))


class TestSharedList:
    def test_one_list_per_matrix(self):
        em = make_em({(0, 0): 1.0, (1, 1): -1.0})
        assert build_sorted_list(em) is build_sorted_list(em)

    def test_one_mirror_per_list(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return stable_order(*args)

        monkeypatch.setattr(greedy, "stable_order", counted)
        em = make_em({(i, j): float(i - 2 * j) for i in range(5) for j in range(5)})
        for n in (2, 3, 4):
            for case in ("case1", "case2"):
                greedy_max(build_sorted_list(em), n, case)
        assert len(calls) == 1

    def test_max_case1_builds_no_mirror(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return stable_order(*args)

        monkeypatch.setattr(greedy, "stable_order", counted)
        em = make_em({(i, j): float((i + j) % 3) for i in range(5) for j in range(5)})
        for n in (2, 3, 4, 5):
            greedy_max(build_sorted_list(em), n, "case1")
        assert calls == []

    def test_arrays_are_read_only(self):
        yl = ylist_of({(0, 0): 1.0, (1, 1): -1.0})
        for lst in (yl, yl.mirror):
            for array in (lst.values, lst.rows, lst.cols):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[1]

    def test_cache_does_not_keep_the_matrix_alive(self):
        em = make_em({(0, 0): 1.0, (1, 1): -1.0, (0, 1): 2.0})
        greedy_max(build_sorted_list(em), 2, "case1")
        ref = weakref.ref(em)
        del em
        gc.collect()
        assert ref() is None


class TestGreedyMinCase2:
    def test_all_negative_picks_most_negative_first(self):
        yl = ylist_of({(0, 0): -4, (0, 1): -2, (1, 0): -3, (1, 1): -1})
        sol = greedy_min(yl, 2, "case2")
        assert sorted(sol.assignment.pairs) == [(0, 0), (1, 1)]
        assert sol.stats.S == -5.0
        assert sol.stats.Q == 17.0
        assert z_statistic(sol.stats) == pytest.approx(-2.3570, abs=1e-4)

    def test_stops_when_minimum_turns_positive(self):
        yl = ylist_of({(0, 0): -1, (0, 1): 2, (1, 0): 2, (1, 1): 3})
        assert isinstance(greedy_min(yl, 2, "case2"), Infeasible)

    def test_exhaustion_is_infeasible(self):
        yl = ylist_of({(0, 0): -1.0})
        result = greedy_min(yl, 2, "case2")
        assert isinstance(result, Infeasible)
        assert "exhausted" in result.reason

    def test_zero_effects_assignable(self):
        # the stop test is strictly positive: zero-valued eligible pairs
        # stay assignable and keep the selection sum nonpositive
        yl = ylist_of({(0, 0): -3.0, (1, 1): 0.0})
        sol = greedy_min(yl, 2, "case2")
        assert sorted(sol.assignment.pairs) == [(0, 0), (1, 1)]
        assert sol.stats.S == -3.0
        assert z_statistic(sol.stats) == pytest.approx(-(2 * 9 / (2 * 9 - 9)) ** 0.5, abs=1e-9)

    def test_degenerate_selection_gets_signed_infinity(self):
        yl = ylist_of({(0, 0): -3, (1, 1): -3})
        sol = greedy_min(yl, 2, "case2")
        assert z_statistic(sol.stats) == -math.inf
        assert sol.stats.degenerate


_REASONS = {"positive": "smallest remaining effect is positive",
            "exhausted": "eligible pairs exhausted before n assignments",
            "sum": "selected effect sum is positive"}


def first_assignable(effects, n, sign):
    """Reference case 2: the first n disjoint pairs in (sign * value, i, j) order.

    ``sign`` -1 is case 2 of the negated map, which maximization case 1 solves.
    Returns the pairs, or the key of the reason the case fails.
    """
    rows, cols, picks = set(), set(), []
    for i, j in sorted(effects, key=lambda p: (sign * effects[p], p)):
        if i in rows or j in cols:
            continue
        if sign * effects[(i, j)] > 0.0:
            return "positive"
        rows.add(i)
        cols.add(j)
        picks.append((i, j))
        if len(picks) == n:
            break
    else:
        return "exhausted"
    if sign * math.fsum(effects[p] for p in picks) > 0.0:
        return "sum"
    return picks


class TestCase2Scan:
    def test_both_directions_match_the_reference(self, rng):
        kinds = (lambda: rng.choice((-1.0, -0.0, 0.0, 1.0, 2.0)),
                 lambda: rng.choice((-0.0, 0.0)),
                 lambda: 1.5,
                 lambda: float(rng.randint(-2, 2)),
                 lambda: rng.uniform(-5.0, 5.0))
        feasible = 0
        for _ in range(400):
            nt, nc = rng.randint(1, 7), rng.randint(1, 7)
            draw = rng.choice(kinds)
            effects = {(i, j): draw() for i in range(nt) for j in range(nc)
                       if rng.random() < 0.7}
            yl = build_sorted_list(make_em(effects, nt, nc))
            for n in range(2, 6):
                for sol, sign in ((greedy_min(yl, n, "case2"), 1.0),
                                  (greedy_max(yl, n, "case1"), -1.0)):
                    want = first_assignable(effects, n, sign)
                    if isinstance(want, str):
                        assert sol == Infeasible(_REASONS[want])
                        continue
                    feasible += 1
                    assert sol.assignment.pairs == frozenset(want)
                    S = math.fsum(effects[p] for p in want)
                    # a zero sum reads +0.0 in both directions
                    assert repr(sol.stats.S) == repr(S + 0.0)
        assert feasible > 800, feasible

    def test_max_ties_from_the_top_in_index_order(self):
        # the two top entries tie, and -0.0 ties 0.0: each tie goes to the
        # lower (i, j) first, as in the mirrored list
        yl = ylist_of({(0, 0): 0.0, (0, 1): 2.0, (1, 0): 2.0, (1, 1): -0.0, (2, 2): 0.0})
        sol = greedy_max(yl, 2, "case1")
        assert sorted(sol.assignment.pairs) == [(0, 1), (1, 0)]
        sol = greedy_max(ylist_of({(0, 0): -0.0, (1, 1): 0.0, (2, 2): -0.0}), 2, "case1")
        assert sorted(sol.assignment.pairs) == [(0, 0), (1, 1)]
        assert repr(sol.stats.S) == "0.0"


class TestGreedyMinCase1:
    def test_anchor_partner_couple(self):
        yl = ylist_of({(0, 0): -1, (0, 1): 2, (1, 0): 2, (1, 1): 3})
        sol = greedy_min(yl, 2, "case1")
        assert sorted(sol.assignment.pairs) == [(0, 0), (1, 1)]
        assert sol.stats.S == 2.0
        assert sol.stats.Q == 10.0
        assert z_statistic(sol.stats) == pytest.approx(0.7071, abs=1e-4)

    def test_all_negative_is_infeasible(self):
        yl = ylist_of({(0, 0): -4, (0, 1): -2, (1, 0): -3, (1, 1): -1})
        result = greedy_min(yl, 2, "case1")
        assert isinstance(result, Infeasible)
        assert "negative" in result.reason

    def test_odd_n_final_single(self):
        # anchor 5@(1,1) (|-9| > 5), partner -2@(0,0); the single then
        # takes 1@(2,2), the smallest entry keeping the sum nonnegative
        yl = ylist_of({(0, 0): -2, (1, 1): 5, (2, 2): 1, (2, 0): -9})
        sol = greedy_min(yl, 3, "case1")
        assert sorted(sol.assignment.pairs) == [(0, 0), (1, 1), (2, 2)]
        assert sol.stats.S == 4.0
        assert sol.stats.Q == 30.0
        assert z_statistic(sol.stats) == pytest.approx((3 * 16 / 74) ** 0.5, abs=1e-9)

    def test_odd_n_single_skips_negative_entries(self):
        # couple (-2, 2) sums to zero, so the final single must be the
        # smallest nonnegative remaining entry, not -1
        yl = ylist_of({(0, 0): -2.0, (1, 1): 5.0, (2, 2): 1.0,
                       (3, 3): -1.0, (4, 4): 2.0})
        sol = greedy_min(yl, 3, "case1")
        assert sorted(sol.assignment.pairs) == [(0, 0), (2, 2), (4, 4)]
        assert sol.stats.S == 1.0
        assert z_statistic(sol.stats) == pytest.approx((3 * 1 / 26) ** 0.5, abs=1e-9)

    def test_positive_entries_pair_smallest(self):
        yl = ylist_of({(0, 0): 4, (0, 1): 3, (1, 0): 2, (1, 1): 1})
        sol = greedy_min(yl, 2, "case1")
        # anchor 1@(1,1); the only disjoint partner is 4@(0,0)
        assert sorted(sol.assignment.pairs) == [(0, 0), (1, 1)]
        assert z_statistic(sol.stats) == pytest.approx(2.3570, abs=1e-4)


_CASE1_REASONS = {"exhausted": "eligible pairs exhausted before n assignments",
                  "negative": "largest remaining effect is negative",
                  "anchor": "no anchor admits a nonnegative couple",
                  "single": "no remaining effect keeps the sum nonnegative"}


def couples_walk(effects, n, sign):
    """Reference case 1: the couples walk, rescanning every live entry each step.

    Entries are ordered by (sign * value, i, j); an entry is live while its
    row and column are unused. ``sign`` -1 is case 1 of the negated map,
    which maximization case 2 solves. Returns the picked (value, pair)
    entries in pick order and the number of barred anchors, or the key of
    the reason the case fails.
    """
    entries = sorted((sign * v, p) for p, v in effects.items())
    rows, cols, picks, barred_total = set(), set(), [], 0

    def live():
        return [e for e in entries if e[1][0] not in rows and e[1][1] not in cols]

    def take(e):
        picks.append(e)
        rows.add(e[1][0])
        cols.add(e[1][1])

    running = 0.0
    rounds = (n + 1) // 2
    for r in range(rounds):
        if n % 2 == 1 and r == rounds - 1:
            base = [v for v, _ in picks]
            single = next((e for e in live()
                           if e[0] >= -running and math.fsum(base + [e[0]]) >= 0.0), None)
            if single is None:
                return "single"
            take(single)
            running += single[0]
            continue
        alive = live()
        if not alive:
            return "exhausted"
        if alive[-1][0] < 0.0:
            return "negative"
        barred = set()
        while True:
            unbarred = [e for e in alive if e[1] not in barred]
            if not unbarred:
                return "anchor"
            low, high = unbarred[0], unbarred[-1]
            anchor = low if abs(low[0]) <= high[0] else high
            a_row, a_col = anchor[1]
            # the partner may be a barred entry: only anchors are barred
            partner = next((e for e in alive if e[0] >= -anchor[0]
                            and e[1][0] != a_row and e[1][1] != a_col), None)
            if partner is not None:
                break
            barred.add(anchor[1])
            barred_total += 1
        take(anchor)
        take(partner)
        running += anchor[0] + partner[0]
    return picks, barred_total


class TestCase1Walk:
    def test_both_directions_match_the_rescan_reference(self):
        # tie-heavy maps up to 30 x 30: many anchors get barred, and walks of
        # up to 15 rounds compress the links over and over
        rng = random.Random(20261019)
        kinds = (lambda: rng.choice((-0.0, 0.0)),
                 lambda: float(rng.randint(-3, 3)),
                 lambda: rng.choice((-3.0, -2.0, -1.0, -0.0, 0.0, 3.0)))
        feasible = long_walks = barred = no_anchor = 0
        for _ in range(160):
            nt, nc = rng.randint(2, 30), rng.randint(2, 30)
            density = rng.uniform(0.1, 1.0)
            draw = rng.choice(kinds)
            effects = {(i, j): draw() for i in range(nt) for j in range(nc)
                       if rng.random() < density}
            if not effects:
                continue
            yl = build_sorted_list(make_em(effects, nt, nc))
            side = min(nt, nc)
            for n in sorted({2, 3, rng.randint(4, max(4, side)), max(4, side)}):
                for sol, sign in ((greedy_min(yl, n, "case1"), 1.0),
                                  (greedy_max(yl, n, "case2"), -1.0)):
                    want = couples_walk(effects, n, sign)
                    if isinstance(want, str):
                        assert sol == Infeasible(_CASE1_REASONS[want])
                        no_anchor += want == "anchor"
                        continue
                    picks, barred_here = want
                    feasible += 1
                    long_walks += n >= 12
                    barred += barred_here
                    stats = stats_from_values(v for v, _ in picks)
                    if sign < 0.0:
                        stats = replace(stats, S=-stats.S + 0.0)
                    assert sol.assignment.pairs == frozenset(p for _, p in picks)
                    assert repr(sol.stats) == repr(stats)
                    assert sol.case == ("min_case1" if sign > 0.0 else "max_case2")
        counts = (feasible, long_walks, barred, no_anchor)
        # 1,022, 156, 58 and 66 at this seed
        assert feasible > 800 and long_walks > 100 and barred > 30 and no_anchor > 30, counts


class TestGreedyMax:
    def test_reflection_of_positive_instance(self):
        yl = ylist_of({(0, 0): 4, (0, 1): 3, (1, 0): 2, (1, 1): 1})
        sol = greedy_max(yl, 2, "case1")
        assert sorted(sol.assignment.pairs) == [(0, 0), (1, 1)]
        assert z_statistic(sol.stats) == pytest.approx(2.3570, abs=1e-4)
        assert sol.case == "max_case1"

    def test_case1_needs_nonnegative_sum(self):
        yl = ylist_of({(0, 0): -4, (0, 1): -2, (1, 0): -3, (1, 1): -1})
        assert isinstance(greedy_max(yl, 2, "case1"), Infeasible)

    def test_case2_matches_oracle_maximum(self):
        yl = ylist_of({(0, 0): -4, (0, 1): -2, (1, 0): -3, (1, 1): -1})
        sol = greedy_max(yl, 2, "case2")
        assert z_statistic(sol.stats) == pytest.approx(-2.3570, abs=1e-4)

    def test_small_n_rejected(self):
        yl = ylist_of({(0, 0): 1.0})
        with pytest.raises(ValueError):
            greedy_max(yl, 1, "case1")
        with pytest.raises(ValueError):
            greedy_min(yl, 1, "case2")


def _check_solution(sol: GreedySolution, em, n: int):
    validate_assignment(sol.assignment, em)
    assert sol.assignment.n == n
    if sol.case.endswith("case1"):
        assert sol.stats.S >= 0.0
        assert z_statistic(sol.stats) >= 0.0
    elif sol.case.endswith("case2"):
        assert sol.stats.S <= 0.0
        assert z_statistic(sol.stats) <= 0.0


class TestRandomizedProperties:
    def test_feasibility_invariants(self, rng):
        for _ in range(300):
            em, n = random_instance(rng)
            yl = build_sorted_list(em)
            for case in ("case1", "case2"):
                for solver in (greedy_min, greedy_max):
                    sol = solver(yl, n, case)
                    if isinstance(sol, GreedySolution):
                        _check_solution(sol, em, n)

    def test_reflection_symmetry(self, rng):
        # integer effects in [-3, 3] tie often, so the assignments compared
        # here depend on the mirrored list ordering ties by (i, j)
        mirror = {"case1": "case2", "case2": "case1"}
        for _ in range(300):
            em, n = random_instance(rng)
            em = make_em({k: rng.randint(-3, 3) for k in em.effect},
                         em.n_treated, em.n_control)
            neg = make_em({k: -v for k, v in em.effect.items()},
                          em.n_treated, em.n_control)
            for case in ("case1", "case2"):
                fwd = greedy_max(build_sorted_list(em), n, case)
                bwd = greedy_min(build_sorted_list(neg), n, mirror[case])
                if isinstance(fwd, Infeasible):
                    assert isinstance(bwd, Infeasible)
                else:
                    z_fwd, z_bwd = z_statistic(fwd.stats), z_statistic(bwd.stats)
                    assert z_fwd == -z_bwd or z_fwd == z_bwd == 0.0
                    assert fwd.assignment.pairs == bwd.assignment.pairs

    def test_heuristic_bounds_vs_brute_force(self, rng):
        checked = 0
        for _ in range(250):
            em, n = random_instance(rng)
            if em.nnz > 20:
                continue
            extrema = brute_force_extrema(em, n)
            if extrema is None:
                continue
            bf_min, bf_max = extrema
            yl = build_sorted_list(em)
            for case in ("case1", "case2"):
                lo = greedy_min(yl, n, case)
                if isinstance(lo, GreedySolution):
                    z = z_statistic(lo.stats)
                    assert z >= bf_min - 1e-9 * max(1.0, abs(z), abs(bf_min))
                    checked += 1
                hi = greedy_max(yl, n, case)
                if isinstance(hi, GreedySolution):
                    z = z_statistic(hi.stats)
                    assert z <= bf_max + 1e-9 * max(1.0, abs(z), abs(bf_max))
                    checked += 1
        assert checked > 100

    def test_determinism(self, rng):
        for _ in range(50):
            em, n = random_instance(rng)
            yl1 = build_sorted_list(em)
            yl2 = build_sorted_list(em)
            for case in ("case1", "case2"):
                a = greedy_min(yl1, n, case)
                b = greedy_min(yl2, n, case)
                if isinstance(a, GreedySolution):
                    assert a.assignment.pairs == b.assignment.pairs
                    assert z_statistic(a.stats) == z_statistic(b.stats)
                else:
                    assert isinstance(b, Infeasible)


class TestRestrictedOptimality:
    def test_forced_same_sign_blocks_are_exact(self, rng):
        # n x n complete block, identical effect rows, all one sign: any
        # perfect matching picks the same value multiset, so the greedy
        # level must equal the exhaustive extremum exactly
        for _ in range(60):
            n = rng.randint(2, 4)
            sign = rng.choice((-1.0, 1.0))
            base = rng.uniform(1.0, 9.0)
            controls = [rng.uniform(0.1, base - 0.05) for _ in range(n)]
            effects = {
                (i, j): sign * (base - controls[j])
                for i in range(n)
                for j in range(n)
            }
            em = make_em(effects, n, n)
            bf_min, bf_max = brute_force_extrema(em, n)
            yl = build_sorted_list(em)
            if sign < 0:
                sol = greedy_min(yl, n, "case2")
                assert isinstance(sol, GreedySolution)
                assert z_statistic(sol.stats) == pytest.approx(bf_min, abs=1e-9)
            else:
                sol = greedy_max(yl, n, "case1")
                assert isinstance(sol, GreedySolution)
                assert z_statistic(sol.stats) == pytest.approx(bf_max, abs=1e-9)


class TestScalingSmoke:
    def test_forward_walk_cost_stays_linearish(self):
        # light version of the doubling-ladder bound; the acceptance
        # suite runs the strict one
        import time

        rng = random.Random(3)
        times = []
        sizes = [10_000, 20_000, 40_000]
        n = 50
        for nnz in sizes:
            side = int(nnz**0.5 * 2)
            effects = {}
            while len(effects) < nnz:
                effects[(rng.randrange(side), rng.randrange(side))] = rng.uniform(-10, 10)
            em = make_em(effects, side, side)
            yl = build_sorted_list(em)
            start = time.perf_counter()
            greedy_min(yl, n, "case2")
            greedy_min(yl, n, "case1")
            times.append(time.perf_counter() - start)
        bound = [max(n, math.log(s)) * s for s in sizes]
        constants = [t / b for t, b in zip(times, bound)]
        assert max(constants) <= 8 * min(constants)
