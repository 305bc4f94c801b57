"""Case ladder, robust test assembly, sweeps and the feasible-n search."""

import json
import math
import random
from collections import Counter

import numpy as np
import pytest

import robustz.hungarian as hungarian
import robustz.orchestrator as orchestrator
from robustz.greedy import build_sorted_list, greedy_max, greedy_min
from robustz.hungarian import hungarian_min
from robustz.orchestrator import (
    FALLBACK,
    NoPairsError,
    find_max_feasible_n,
    iter_sweep,
    run_test,
    solve,
)
from robustz.oracle import enumerate_extrema
from robustz.statistic import (
    Assignment,
    classify_robustness,
    p_values,
    validate_assignment,
    z_statistic,
)

from conftest import (brute_force_extrema, count_pass_starts, make_em, max_matching_size,
                      random_instance)

POSITIVE = {(0, 0): 4.0, (0, 1): 3.0, (1, 0): 2.0, (1, 1): 1.0}
NEGATIVE = {(0, 0): -4.0, (0, 1): -2.0, (1, 0): -3.0, (1, 1): -1.0}
# exactly one valid 3-assignment; all three minimization cases fail on it
FALLBACK_FIXTURE = {(0, 0): 2.43, (1, 1): 4.63, (1, 2): -2.83,
                    (2, 0): 2.34, (2, 2): 3.05}


class TestSolve:
    def test_ladder_order_min(self):
        trace = []
        sol = solve(make_em(POSITIVE), 2, "min", trace=trace)
        assert [a.case for a in trace] == ["min_case2", "min_case3", "min_case1"]
        assert sol.case == "min_case1"
        assert z_statistic(sol.stats) == pytest.approx(2.3570, abs=1e-4)

    def test_ladder_order_max(self):
        trace = []
        sol = solve(make_em(NEGATIVE), 2, "max", trace=trace)
        assert [a.case for a in trace] == ["max_case1", "max_case3", "max_case2"]
        assert sol.case == "max_case2"
        assert z_statistic(sol.stats) == pytest.approx(-2.3570, abs=1e-4)

    def test_first_feasible_case_wins(self):
        trace = []
        sol = solve(make_em(NEGATIVE), 2, "min", trace=trace)
        assert [a.case for a in trace] == ["min_case2"]
        assert z_statistic(sol.stats) == pytest.approx(-2.3570, abs=1e-4)

    def test_n_must_be_an_integer(self):
        # both greedy rungs answer at n = 3 here, so no slice would catch a float
        em = make_em({(0, 0): -1.0, (1, 1): -2.0, (2, 2): -3.0, (0, 1): 5.0, (1, 2): 4.0,
                      (2, 0): 6.0})
        with pytest.raises(TypeError):
            run_test(em, 3.0, 0.05)
        assert run_test(em, np.int64(3), 0.05).n == 3

    def test_no_pairs_when_matching_too_small(self):
        em = make_em({(0, 0): 1.0, (0, 1): 2.0}, 1, 2)
        result = solve(em, 2, "min")
        assert result.assignment is None

    def test_no_pairs_stops_at_the_case3_rung(self):
        # both rows share column 0 only: no later rung can find 2 disjoint pairs
        em = make_em({(0, 0): 1.0, (1, 0): -2.0}, 2, 2)
        for direction, first in (("min", "min_case2"), ("max", "max_case1")):
            trace = []
            assert solve(em, 2, direction, trace).assignment is None
            assert [a.case for a in trace] == [first, f"{direction}_case3"]

    def test_empty_eligibility_is_no_pairs(self):
        em = make_em({}, 2, 2)
        assert solve(em, 2, "min").assignment is None
        assert solve(em, 2, "max").assignment is None

    def test_fallback_returns_actual_z(self):
        trace = []
        sol = solve(make_em(FALLBACK_FIXTURE, 3, 3), 3, "min", trace=trace)
        assert [a.case for a in trace] == ["min_case2", "min_case3", "min_case1"]
        assert all(a.reason is not None for a in trace)
        assert sol.case == FALLBACK
        assert z_statistic(sol.stats) == pytest.approx(6.3020, abs=1e-3)

    def test_fallback_reads_the_selection_once(self, monkeypatch):
        calls = []
        original = hungarian.case3_selection

        def counted(*args):
            calls.append(args[1:])
            return original(*args)

        for module in (orchestrator, hungarian):  # a call through either binding counts
            monkeypatch.setattr(module, "case3_selection", counted)
        assert solve(make_em(FALLBACK_FIXTURE, 3, 3), 3, "min").case == FALLBACK
        assert calls == [(3, "min")]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            solve(make_em(POSITIVE), 1, "min")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            solve(make_em(POSITIVE), 2, "sideways")


class TestRunTest:
    def test_all_negative_absolute_robust(self):
        result = run_test(make_em(NEGATIVE), 2, 0.05)
        assert result.z_min == pytest.approx(-2.3570, abs=1e-4)
        assert result.z_max == pytest.approx(-2.3570, abs=1e-4)
        assert result.p_min == pytest.approx(0.9908, abs=1e-4)
        assert result.p_max == pytest.approx(0.9908, abs=1e-4)
        assert result.classification == "absolute_robust"

    def test_all_positive_coincides_at_greedy_level(self):
        result = run_test(make_em(POSITIVE), 2, 0.05)
        assert result.z_min == pytest.approx(2.3570, abs=1e-4)
        assert result.z_max == pytest.approx(2.3570, abs=1e-4)
        assert result.classification == "absolute_robust"

    def test_all_zero_effects(self):
        em = make_em({(i, j): 0.0 for i in range(2) for j in range(2)})
        result = run_test(em, 2, 0.05)
        assert result.z_min == result.z_max == 0.0
        assert result.p_min == result.p_max == 0.5
        assert result.classification == "absolute_robust"

    def test_no_pairs_raises(self):
        em = make_em({(0, 0): 1.0}, 2, 2)
        with pytest.raises(NoPairsError):
            run_test(em, 2, 0.05)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            run_test(make_em(POSITIVE), 2, 1.2)

    def test_mixed_signs_not_robust(self):
        em = make_em({(0, 0): -5.0, (0, 1): 4.0, (1, 0): 3.0, (1, 1): -6.0})
        result = run_test(em, 2, 0.05)
        assert result.z_min < 0 < result.z_max
        assert result.classification == "not_robust"


class TestPooledBounds:
    """Each bound is the extreme Z over every attempt of both ladders."""

    # n = 2: the max ladder's case-3 selection {(0, 0), (1, 1)} (S = -3)
    # fails its sign check, but its Z is the exact minimum; the other
    # assignment (S = -4) gives the exact maximum
    DROPPED_MIN = {(0, 0): -1.0, (0, 1): -6.0, (1, 0): 2.0, (1, 1): -2.0}

    def test_failed_case3_selection_bounds_the_interval(self):
        em = make_em(self.DROPPED_MIN)
        exact = enumerate_extrema(em, 2)
        result = run_test(em, 2, 0.05)
        assert result.z_min == exact.z_min == pytest.approx(-4.2426, abs=1e-4)
        assert result.z_max == exact.z_max == pytest.approx(-0.7071, abs=1e-4)
        assert result.case_used_min == FALLBACK
        assert result.assignment_min == Assignment(frozenset({(0, 0), (1, 1)}))
        assert result.classification == "not_robust"

    def test_bounds_are_extremes_of_the_built_attempts(self):
        rng = random.Random(11)
        widened = 0
        for _ in range(1500):
            em, n = random_instance(rng)
            try:
                result = run_test(em, n, 0.05)
            except NoPairsError:
                continue
            traces = {d: [] for d in ("min", "max")}
            witness = {d: solve(em, n, d, traces[d]) for d in traces}
            zs = [z_statistic(a.stats) for d in traces for a in traces[d]
                  if a.assignment is not None]
            # each bound is a built attempt's Z, and none lies outside them
            assert min(zs) == result.z_min and max(zs) == result.z_max
            widened += (result.z_min < z_statistic(witness["min"].stats)
                        or result.z_max > z_statistic(witness["max"].stats))
        assert widened > 0

    def test_greedy_witnesses_start_no_solver_pass(self, monkeypatch):
        em = make_em({(0, 0): -4.0, (0, 1): 5.0, (1, 0): 6.0, (1, 1): -3.0})
        calls = count_pass_starts(monkeypatch)
        result = run_test(em, 2, 0.05)
        assert (result.case_used_min, result.case_used_max) == ("min_case2", "max_case1")
        assert calls == []


class TestOrderingInvariants:
    def test_z_min_le_z_max_on_random_instances(self, rng):
        solved = 0
        for _ in range(400):
            em, n = random_instance(rng)
            try:
                result = run_test(em, n, 0.05)
            except NoPairsError:
                continue
            solved += 1
            assert result.z_min <= result.z_max
            assert result.p_min <= result.p_max
            validate_assignment(result.assignment_min, em)
            validate_assignment(result.assignment_max, em)
        assert solved > 200

    def test_only_assignment_gives_both_bounds(self):
        # only one valid assignment exists; the min ladder takes it in the
        # linear case and the max ladder in case 2, so both bounds are its Z
        em = make_em({(0, 1): 8.811, (1, 0): -9.744, (1, 1): 6.825}, 2, 2)
        lo = solve(em, 2, "min")
        hi = solve(em, 2, "max")
        assert lo.case == "min_case3" and hi.case == "max_case2"
        assert lo.assignment == hi.assignment == Assignment(frozenset({(0, 1), (1, 0)}))
        z = z_statistic(em.pair_stats(lo.assignment.pairs))
        assert z < 0.0
        result = run_test(em, 2, 0.05)
        assert result.z_min == result.z_max == z
        assert (result.case_used_min, result.case_used_max) == ("min_case3", "max_case2")
        assert result.classification == "absolute_robust"

    def test_every_bound_is_its_witness_z(self):
        rng = random.Random(7)
        bounds = 0
        for _ in range(3000):
            em, n = random_instance(rng)
            try:
                result = run_test(em, n, 0.05)
            except NoPairsError:
                continue
            assert result.z_min == z_statistic(em.pair_stats(result.assignment_min.pairs))
            assert result.z_max == z_statistic(em.pair_stats(result.assignment_max.pairs))
            bounds += 2
        assert bounds == 5766

    def test_oracle_sandwich(self, rng):
        def slack(*values):  # criterion 1's relative slack
            return 1e-9 * max(1.0, *(abs(v) for v in values if math.isfinite(v)))

        checked = exact = greedy_exact = 0
        for _ in range(300):
            em, n = random_instance(rng)
            if em.nnz > 20:
                continue
            extrema = brute_force_extrema(em, n)
            lo = solve(em, n, "min")
            if extrema is None:
                assert lo.assignment is None
                continue
            hi = solve(em, n, "max")
            bf_min, bf_max = extrema
            z_lo, z_hi = z_statistic(lo.stats), z_statistic(hi.stats)
            assert bf_min <= z_lo + 1e-9 * max(1.0, abs(bf_min), abs(z_lo))
            assert z_hi <= bf_max + 1e-9 * max(1.0, abs(bf_max), abs(z_hi))
            # any valid witness passes the sandwich; the count of witnesses that
            # reach the brute-force extreme is what can show a poor one. Case 3
            # alone reaches it as often here, so the greedy rungs' own count
            # is pinned as well
            for sol, z, extreme in ((lo, z_lo, bf_min), (hi, z_hi, bf_max)):
                hit = abs(z - extreme) <= slack(extreme, z)
                exact += hit
                greedy_exact += hit and sol.case.endswith(("case1", "case2"))
            checked += 1
        assert checked > 100
        assert exact >= 367, (exact, checked)
        assert greedy_exact >= 217, greedy_exact

    def test_reflection_identity_at_solver_level(self, rng):
        for _ in range(200):
            em, n = random_instance(rng)
            neg = make_em({k: -v for k, v in em.effect.items()},
                          em.n_treated, em.n_control)
            hi = solve(em, n, "max")
            lo = solve(neg, n, "min")
            if hi.assignment is None:
                assert lo.assignment is None
            else:
                z_hi, z_lo = z_statistic(hi.stats), z_statistic(lo.stats)
                assert z_hi == -z_lo or z_hi == z_lo == 0.0


class TestClassificationAgainstOracle:
    """``run_test``'s class next to the class of the exact extremes.

    The ladder witnesses are heuristic, so some misses remain; reporting
    their Z values rather than the ladder levels is what keeps the count
    low (371 misses on this generator when levels were reported, 346 of
    them ``absolute_robust`` where the exact class is ``not_robust``).
    The threshold tightens as the extremes become exact: reading case 3
    off the solver's n-th augmentation, so that its S is exact, took it
    from 32 to 26 (``alpha -> not`` from 22 to 16); bounding over every
    assignment both ladders built, failed case-3 selections included,
    took it from 26 to 7.
    """

    MAX_MISSES = 7  # 7 at this generator, all alpha -> not

    def test_misses_within_threshold(self):
        rng = random.Random(5)
        tests = 0
        misses = Counter()
        for _ in range(1521):
            nt, nc = rng.randint(2, 6), rng.randint(2, 6)
            density = rng.uniform(0.3, 1.0)
            effects = {(i, j): rng.uniform(-10.0, 10.0)
                       for i in range(nt) for j in range(nc) if rng.random() < density}
            em = make_em(effects, nt, nc)
            for n in range(2, min(nt, nc, 5) + 1):
                try:
                    got = run_test(em, n, 0.05).classification
                except NoPairsError:
                    continue
                exact = enumerate_extrema(em, n)
                want = classify_robustness(*p_values(exact.z_max, exact.z_min), 0.05)
                tests += 1
                if got != want:
                    misses[(got, want)] += 1
        assert tests == 3099
        assert sum(misses.values()) <= self.MAX_MISSES, dict(misses)


class TestPythonScalars:
    """The solvers walk numpy arrays, but what they return is plain Python."""

    @staticmethod
    def _check_pairs(pairs):
        for pair in pairs:
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(x) is int for x in pair), pair
        json.dumps(sorted(pairs))

    @staticmethod
    def _check_stats(stats):
        assert type(stats.S) is float and type(stats.Q) is float
        assert type(stats.sigma_hat) is float and type(stats.n) is int

    def test_solver_outputs_are_python_scalars(self, rng):
        checked = 0
        for trial in range(300):
            em, n = random_instance(rng, max_side=6)
            if trial % 2:  # integer-valued effects in [-3, 3], so ties are common
                em = make_em({k: round(v / 3) for k, v in em.effect.items()},
                             em.n_treated, em.n_control)
            if em.nnz == 0:
                continue
            m = hungarian_min(em)
            for path in m.augmentations:
                self._check_pairs(path)
            matched = m.assignment(m.cardinality).pairs
            self._check_pairs(matched)
            self._check_stats(em.pair_stats(matched))
            assert type(m.live_pops) is int
            ylist = build_sorted_list(em)
            for solver in (greedy_min, greedy_max):
                for case in ("case1", "case2"):
                    sol = solver(ylist, n, case)
                    if sol.assignment is not None:
                        self._check_pairs(sol.assignment.pairs)
                        self._check_stats(sol.stats)
                        checked += 1
            try:
                result = run_test(em, n, 0.05)
            except NoPairsError:
                continue
            self._check_pairs(result.assignment_min.pairs)
            self._check_pairs(result.assignment_max.pairs)
            assert type(result.z_min) is float and type(result.z_max) is float
        assert checked > 200


class TestSweep:
    def test_range_with_no_pairs_tail(self):
        rows = list(iter_sweep(make_em(POSITIVE), [2, 3], 0.05))
        assert [r.n for r in rows] == [2, 3]
        assert not rows[0].no_pairs
        assert rows[1].no_pairs

    def test_step(self):
        em = make_em({(i, j): float(i + j + 1) for i in range(4) for j in range(4)})
        rows = list(iter_sweep(em, range(2, 5, 2), 0.05))
        assert [r.n for r in rows] == [2, 4]

    def test_rows_stream_one_test_at_a_time(self, monkeypatch):
        ns = []
        original = orchestrator.run_test

        def counted(em, n, alpha):
            ns.append(n)
            return original(em, n, alpha)

        monkeypatch.setattr(orchestrator, "run_test", counted)
        em = make_em({(i, j): float(i + j + 1) for i in range(4) for j in range(4)})
        row = next(iter_sweep(em, [2, 3, 4]))
        assert row.n == 2 and not row.no_pairs
        assert ns == [2]


class TestFindMaxFeasibleN:
    def test_single_candidate(self):
        assert find_max_feasible_n(make_em(POSITIVE), 2, 2) == 2

    def test_diagonal_eligibility(self):
        em = make_em({(i, i): float(i + 1) for i in range(3)}, 3, 3)
        assert find_max_feasible_n(em, 2, 3) == 3

    def test_default_upper_bound_uses_matched_counts(self):
        em = make_em(POSITIVE)
        assert find_max_feasible_n(em) == 2

    def test_none_when_nothing_feasible(self):
        em = make_em({(0, 0): 1.0, (0, 1): 2.0}, 1, 2)
        assert find_max_feasible_n(em, 2, 2) is None

    def test_agrees_with_linear_scan(self, rng):
        for _ in range(60):
            em, _ = random_instance(rng, max_side=6)
            cap = min(em.match.matched_treated, em.match.matched_control)
            if cap < 2:
                continue
            expected = max_matching_size(em)
            found = find_max_feasible_n(em, 2, cap)
            linear = None
            for n in range(2, cap + 1):
                lo = solve(em, n, "min")
                hi = solve(em, n, "max")
                if lo.assignment is not None and hi.assignment is not None:
                    linear = n
            assert found == linear
            if expected >= 2:
                assert found == expected
            else:
                assert found is None

    def test_default_range_below_two_matched_units(self):
        em = make_em({(0, 0): 1.0, (0, 1): 2.0}, 1, 2)
        assert find_max_feasible_n(em) is None
        assert find_max_feasible_n(em, 3) is None

    def test_explicit_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            find_max_feasible_n(make_em(POSITIVE), 3, 2)

    @staticmethod
    def _count_calls(monkeypatch):
        """``solve`` calls, and the ``negate`` flag of each solver pass started."""
        solves = []
        original = orchestrator.solve

        def counted(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "solve", counted)
        return solves, count_pass_starts(monkeypatch)

    def test_range_above_matching_skips_cardinality_pass(self, monkeypatch):
        # three matched units per side, but rows 0 and 1 share column 0 only
        em = make_em({(0, 0): 1.0, (1, 0): 2.0, (2, 0): 3.0, (2, 1): 4.0, (2, 2): 5.0})
        assert max_matching_size(em) == 2
        solves, passes = self._count_calls(monkeypatch)
        assert find_max_feasible_n(em, 3, 3) is None
        assert (len(solves), passes) == (0, [False])
        # the cardinality is read off the min pass that the first search ended
        assert find_max_feasible_n(em) == 2
        assert (len(solves), passes) == (0, [False])

    def test_one_ladder_and_one_cardinality_pass(self, rng, monkeypatch):
        # no ladder runs at all: the min pass alone decides
        solves, passes = self._count_calls(monkeypatch)
        for _ in range(60):
            em, _ = random_instance(rng, max_side=6, density=rng.uniform(0.2, 0.9))
            cap = min(em.match.matched_treated, em.match.matched_control)
            size = max_matching_size(em)
            for n_min, n_max in ((2, None), (2, cap), (2, cap + 3), (3, 4), (size, size)):
                if n_max is not None and n_min > n_max:
                    continue
                solves.clear()
                passes.clear()
                found = find_max_feasible_n(em, n_min, n_max)
                assert not solves and passes in ([], [False])
                top = size if n_max is None else min(size, n_max)
                assert found == (top if top >= max(n_min, 2) else None)


class TestSharedAssignmentPasses:
    """Each direction has one pass per effect matrix."""

    # max matching 3 of 4 matched units per side (rows 0 and 3 share
    # column 0 only); the greedy cases take the trap pairs (2, 0) and
    # (2, 1) first and fail, so both ladders reach case 3 at n = 3
    TRAPS = {(0, 0): 1.0, (1, 1): 1.0, (2, 0): -10.0, (2, 1): 10.0, (2, 2): 1.0,
             (2, 3): 1.0, (3, 0): 1.0}
    # max matching 4; both ladders reach case 3 at every n = 2..4
    CASE3_EVERY_N = {(0, 2): 2.0, (1, 1): -2.0, (1, 3): -3.0, (2, 0): 2.0, (2, 2): 3.0,
                     (3, 3): -1.0}

    @staticmethod
    def _reaches_case3(em, n):
        traces = {d: [] for d in ("min", "max")}
        for direction, trace in traces.items():
            solve(em, n, direction, trace)
        cases = {d: [a.case for a in trace] for d, trace in traces.items()}
        return "min_case3" in cases["min"] and "max_case3" in cases["max"]

    def test_search_and_reported_test_share_two_passes(self, monkeypatch):
        em = make_em(self.TRAPS)
        assert self._reaches_case3(make_em(self.TRAPS), 3)  # on its own matrix: em stays unsolved
        calls = count_pass_starts(monkeypatch)
        n = find_max_feasible_n(em)
        assert n == 3
        run_test(em, n, 0.05)
        assert sorted(calls) == [False, True]

    def test_sweep_reaching_case3_costs_two_passes(self, monkeypatch):
        em = make_em(self.CASE3_EVERY_N)
        assert all(self._reaches_case3(make_em(self.CASE3_EVERY_N), n) for n in (2, 3, 4))
        calls = count_pass_starts(monkeypatch)
        rows = list(iter_sweep(em, [2, 3, 4]))
        assert [r.no_pairs for r in rows] == [False, False, False]
        assert sorted(calls) == [False, True]

    def test_min_side_without_n_pairs_skips_the_max_ladder(self, monkeypatch):
        # three matched units per side, but rows 0 and 1 share column 0 only
        em = make_em({(0, 0): 1.0, (1, 0): 2.0, (2, 0): 3.0, (2, 1): 4.0, (2, 2): 5.0})
        calls = count_pass_starts(monkeypatch)
        with pytest.raises(NoPairsError, match="no assignment of 3 disjoint eligible pairs"):
            run_test(em, 3, 0.05)
        assert calls == [False]
        # the min fallback reads the matching its linear rung solved: no second pass
        calls.clear()
        fallback = make_em(FALLBACK_FIXTURE, 3, 3)
        assert solve(fallback, 3, "min").case == FALLBACK
        solve(fallback, 3, "max")
        assert calls == [False]

    def test_a_new_matrix_is_solved_again(self, monkeypatch):
        calls = count_pass_starts(monkeypatch)
        first = hungarian_min(make_em(POSITIVE))
        second = hungarian_min(make_em(POSITIVE))
        assert first is not second
        assert (first.augmentations, first.live_pops) == (second.augmentations, second.live_pops)
        assert calls == [False, False]
