"""Assignment solver tests: exactness, deficiency handling, case 3."""

import copy
import gc
import itertools
import math
import pickle
import random
import time
import weakref

import numpy as np
import pytest

import robustz.orchestrator as orchestrator
from robustz.greedy import Attempt
from robustz.hungarian import case3_selection, hungarian_max, hungarian_min
from robustz.orchestrator import FALLBACK, run_test, solve
from robustz.statistic import validate_assignment, z_statistic

from conftest import count_pass_starts, make_em, max_matching_size, random_instance


def full_matching(em, m):
    """The pass's maximum-cardinality matching, sorted by row, and its effect sum."""
    pairs = sorted(m.assignment(m.cardinality).pairs)
    return pairs, em.pair_stats(pairs).S


def brute_min_total(costs, rows, cols):
    """Min total over max-cardinality matchings by subset enumeration."""
    best_card = 0
    best_total = None
    for k in range(min(len(rows), len(cols)), 0, -1):
        for row_combo in itertools.combinations(rows, k):
            for col_perm in itertools.permutations(cols, k):
                pairs = tuple(zip(row_combo, col_perm))
                if not all(p in costs for p in pairs):
                    continue
                total = sum(costs[p] for p in pairs)
                if k > best_card or (k == best_card and total < best_total):
                    best_card, best_total = k, total
        if best_card == k:
            break
    return best_card, best_total


def brute_k_extremes(effects, n_rows):
    """{k: (min, max) total over k-matchings}, by a row-by-row walk over used-column sets."""
    reach = {0: (0.0, 0.0)}  # used columns as a bitmask -> (min, max) total
    for i in range(n_rows):
        grown = dict(reach)  # row i left unmatched
        for mask, (lo, hi) in reach.items():
            for (r, j), c in effects.items():
                if r != i or mask >> j & 1:
                    continue
                key = mask | 1 << j
                old_lo, old_hi = grown.get(key, (math.inf, -math.inf))
                grown[key] = (min(old_lo, lo + c), max(old_hi, hi + c))
        reach = grown
    best = {}
    for mask, (lo, hi) in reach.items():
        k = bin(mask).count("1")
        old_lo, old_hi = best.get(k, (math.inf, -math.inf))
        best[k] = (min(old_lo, lo), max(old_hi, hi))
    del best[0]
    return best


def benchmark_map():
    """The assign-mixed workload's shape: 250 x 250, 20 pairs per row, U(-100, 100)."""
    rng = np.random.default_rng(1)
    effects = {}
    for i in range(250):
        cols = rng.choice(250, size=20, replace=False).tolist()
        effects.update(((i, j), v) for j, v in zip(cols, rng.uniform(-100, 100, 20).tolist()))
    return make_em(effects, 250, 250)


class TestHungarianDense:
    def test_dominant_diagonal(self):
        em = make_em({(0, 0): 1, (0, 1): 10, (1, 0): 10, (1, 1): 1})
        assert full_matching(em, hungarian_min(em)) == ([(0, 0), (1, 1)], 2.0)

    def test_anti_diagonal(self):
        em = make_em({(0, 0): 4, (0, 1): 1, (1, 0): 2, (1, 1): 3})
        assert full_matching(em, hungarian_min(em)) == ([(0, 1), (1, 0)], 3.0)

    def test_three_by_three(self):
        grid = [[7, 5, 9], [8, 4, 6], [3, 9, 5]]
        em = make_em({(i, j): grid[i][j] for i in range(3) for j in range(3)})
        assert full_matching(em, hungarian_min(em)) == ([(0, 1), (1, 2), (2, 0)], 14.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hungarian_min(make_em({}, 2, 2))

    def test_exact_on_random_dense(self, rng):
        for _ in range(120):
            k = rng.randint(2, 6)
            costs = {(i, j): rng.uniform(-50, 50) for i in range(k) for j in range(k)}
            em = make_em(costs, k, k)
            best = min(
                sum(costs[(i, p)] for i, p in enumerate(perm))
                for perm in itertools.permutations(range(k))
            )
            assert full_matching(em, hungarian_min(em))[1] == pytest.approx(best, abs=1e-9)

    def test_max_is_negated_min(self, rng):
        for _ in range(40):
            k = rng.randint(2, 5)
            costs = {(i, j): rng.uniform(-9, 9) for i in range(k) for j in range(k)}
            em = make_em(costs, k, k)
            neg = make_em({p: -c for p, c in costs.items()}, k, k)
            assert full_matching(em, hungarian_max(em))[1] == pytest.approx(
                -full_matching(neg, hungarian_min(neg))[1], abs=1e-9
            )


class TestHungarianSparse:
    def test_rectangular_and_deficient(self, rng):
        for _ in range(120):
            nt, nc = rng.randint(2, 5), rng.randint(2, 5)
            costs = {}
            for i in range(nt):
                for j in range(nc):
                    if rng.random() < 0.55:
                        costs[(i, j)] = rng.uniform(-20, 20)
            if not costs:
                continue
            em = make_em(costs, nt, nc)
            card, total = brute_min_total(costs, range(nt), range(nc))
            m = hungarian_min(em)
            assert m.cardinality == card
            assert full_matching(em, m)[1] == pytest.approx(total, abs=1e-9)

    def test_cardinality_matches_independent_matcher(self, rng):
        for _ in range(60):
            nt, nc = rng.randint(2, 7), rng.randint(2, 7)
            costs = {}
            for i in range(nt):
                for j in range(nc):
                    if rng.random() < 0.4:
                        costs[(i, j)] = rng.uniform(-5, 5)
            if not costs:
                continue
            em = make_em(costs, nt, nc)
            assert hungarian_min(em).cardinality == max_matching_size(em)

    def test_both_directions_reach_the_same_cardinality(self):
        # run_test relies on it: a max side never lacks the n pairs the min side found
        rng = random.Random(27)
        deficient = 0
        while deficient < 40:
            nt, nc = rng.randint(3, 8), rng.randint(3, 8)
            costs = {(i, j): float(rng.randint(-3, 3)) for i in range(nt) for j in range(nc)
                     if rng.random() < 0.25}
            if not costs:
                continue
            em = make_em(costs, nt, nc)
            size = max_matching_size(em)
            if size == min(em.match.matched_treated, em.match.matched_control):
                continue
            deficient += 1
            assert hungarian_min(em).cardinality == hungarian_max(em).cardinality == size

    def test_cubic_time_expectation(self):
        rng = random.Random(1)
        times = []
        for k in (50, 100, 200, 400):
            costs = {(i, j): rng.uniform(-100, 100) for i in range(k) for j in range(k)}
            em = make_em(costs, k, k)
            start = time.perf_counter()
            hungarian_min(em)
            times.append(time.perf_counter() - start)
        constants = [t / k**3 for t, k in zip(times, (50, 100, 200, 400))]
        # the normalized cubic constant should not blow up along the ladder
        assert constants[-1] <= 8 * max(constants[0], 1e-12)

    def test_each_search_stops_at_its_sink(self):
        # a search that ran until its heap emptied would settle every
        # reachable column per augmentation: 250 x 250 = 62,500 pops
        em = benchmark_map()
        passes = hungarian_min(em), hungarian_max(em)
        assert [m.cardinality for m in passes] == [250, 250]
        # the benchmark's own shape: a pruning that changed which columns
        # settle would change these counts
        assert [m.live_pops for m in passes] == [9_384, 10_918]

    def test_a_search_without_a_seeded_free_column_admits_every_distance(self):
        # the second search's only free column, 1, has no pair from the free
        # row 1, so its bound is inf: every finite distance is admitted and
        # no row's relaxation is cut short
        m = hungarian_min(make_em({(0, 0): -5.0, (0, 1): 0.0, (1, 0): 0.0}, 2, 2))
        assert m.augmentations == [((0, 0),), ((0, 1), (1, 0))]
        assert m.live_pops == 3

    def test_a_free_column_whose_cheapest_row_is_matched_elsewhere(self):
        # column 1's cheapest pair is row 0's, but row 0 takes column 0
        # first, so column 1's seed advances to row 1 at cost 3 and the
        # second search's bound must come from that seed: the stale entry
        # at cost 0 would bound it below column 1's own seed distance
        m = hungarian_min(make_em({(0, 0): -2.0, (0, 1): 0.0, (1, 1): 3.0}, 2, 2))
        assert m.augmentations == [((0, 0),), ((1, 1),)]
        assert m.live_pops == 2

    def test_a_column_seed_tie_goes_to_the_lowest_row(self):
        # column 2's two pairs tie at cost 0, so its seed, and with it the
        # first path, takes the lower row 0; row 1 then reaches column 2
        # only by moving row 0 on to column 0
        m = hungarian_min(make_em({(0, 0): 1.0, (0, 1): 1.0, (0, 2): 0.0, (1, 2): 0.0}, 2, 3))
        assert m.augmentations == [((0, 2),), ((0, 0), (1, 2))]
        assert m.live_pops == 3


class TestCase3:
    """The linear case: ``case3_selection`` and its rung in ``solve``."""

    @staticmethod
    def _case3_only(monkeypatch):
        # every greedy rung fails, so each ladder reaches the case-3 rung
        monkeypatch.setattr(orchestrator, "greedy_min",
                            lambda ylist, n, case: Attempt(f"min_{case}", reason="off"))

    def test_positive_sums_infeasible(self):
        em = make_em({(0, 0): -1, (0, 1): 2, (1, 0): 2, (1, 1): 3})
        assert em.pair_stats(case3_selection(em, 2).pairs).S == 2.0
        trace = []
        assert solve(em, 2, "min", trace).case == "min_case1"
        assert [a.case for a in trace] == ["min_case2", "min_case3", "min_case1"]

    def test_negative_instance_reports_its_witness(self, monkeypatch):
        self._case3_only(monkeypatch)
        em = make_em({(0, 0): -4, (0, 1): -2, (1, 0): -3, (1, 1): -1})
        sol = solve(em, 2, "min")
        assert sol.assignment is not None
        assert sol.case == "min_case3"
        assert sol.assignment == case3_selection(em, 2)
        assert sol.stats.S == -5.0
        assert z_statistic(sol.stats) == pytest.approx(-2.3570, abs=1e-4)

    def test_all_zero_effects_feasible_both_ways(self, monkeypatch):
        self._case3_only(monkeypatch)
        em = make_em({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
        for direction in ("min", "max"):
            sol = solve(em, 2, direction)
            assert sol.case == f"{direction}_case3"
            assert z_statistic(sol.stats) == 0.0

    def test_equal_sum_matchings_keep_the_solvers_tie_rule(self):
        # both full matchings of test_negative_instance_reports_its_witness's
        # map have S = -5: the selection's S is exact, but which of them it
        # reads (and so its Z) is the solver's tie rule, not the lesser Z
        em = make_em({(0, 0): -4, (0, 1): -2, (1, 0): -3, (1, 1): -1})
        stats = [em.pair_stats(p) for p in ({(0, 0), (1, 1)}, {(0, 1), (1, 0)})]
        assert [s.S for s in stats] == [-5.0, -5.0]
        assert [z_statistic(s) for s in stats] == pytest.approx([-2.3570, -7.0711], abs=1e-4)
        selection = case3_selection(em, 2)
        assert selection.pairs == {(0, 0), (1, 1)}
        assert z_statistic(em.pair_stats(selection.pairs)) == pytest.approx(-2.3570, abs=1e-4)

    def test_every_prefix_is_an_optimal_k_matching(self):
        rng = random.Random(20261019)
        checks = deficient = 0
        for index in range(600):
            nt, nc = rng.randint(2, 6), rng.randint(2, 6)
            density = rng.uniform(0.2, 1.0)
            kind = index % 3
            effects = {}
            for i in range(nt):
                for j in range(nc):
                    if rng.random() < density:
                        if kind == 0:
                            effects[(i, j)] = rng.uniform(-10.0, 10.0)
                        elif kind == 1:
                            effects[(i, j)] = float(rng.randint(-3, 3))
                        else:
                            effects[(i, j)] = rng.choice((-1.0, -0.0, 0.0, 1.0, 2.0))
            if not effects:
                continue
            em = make_em(effects, nt, nc)
            best = brute_k_extremes(effects, nt)
            top = max(best)
            deficient += top < min(em.match.matched_treated, em.match.matched_control)
            for side, pick in ((em, 0), (em.negated(), 1)):
                assert case3_selection(side, top + 1) is None
                for k in range(1, top + 1):
                    selection = case3_selection(side, k)
                    validate_assignment(selection, em)
                    assert selection.n == k
                    total = math.fsum(effects[p] for p in selection.pairs)
                    assert total == pytest.approx(best[k][pick], abs=1e-9), (index, pick, k)
                    checks += 1
        assert checks > 3000 and deficient >= 10  # 3,552 and 15 at this seed

    def test_matching_too_small_infeasible(self):
        em = make_em({(0, 0): -1.0}, 2, 2)
        assert case3_selection(em, 2) is None
        result = solve(em, 2, "min")
        assert result.assignment is None
        assert "no assignment of 2" in result.reason

    def test_small_n_rejected(self):
        em = make_em({(0, 0): -1.0})
        for direction in ("min", "max"):
            with pytest.raises(ValueError, match="n >= 2"):
                solve(em, 1, direction)

    def test_unknown_direction_rejected(self):
        # the direction lives in solve alone, which checks it before it
        # builds the negated matrix
        em = make_em({(0, 0): -1.0, (1, 1): 1.0})
        with pytest.raises(ValueError, match="^unknown direction 'up'$"):
            solve(em, 2, "up")
        assert "negated" not in em.derived

    def test_feasible_output_respects_sign(self, rng, monkeypatch):
        self._case3_only(monkeypatch)
        for _ in range(200):
            em, n = random_instance(rng)
            for direction in ("min", "max"):
                selection = case3_selection(em if direction == "min" else em.negated(), n)
                sol = solve(em, n, direction)
                if selection is None:
                    assert sol.assignment is None
                    continue
                validate_assignment(sol.assignment, em)
                assert sol.assignment == selection
                z = z_statistic(sol.stats)
                assert z == z_statistic(em.pair_stats(selection.pairs))
                sign = 1.0 if direction == "min" else -1.0
                if sol.case == f"{direction}_case3":
                    assert sign * sol.stats.S <= 0.0 and sign * z <= 0.0
                else:
                    assert sol.case == FALLBACK and sign * sol.stats.S > 0.0


class TestResumablePass:
    """One pass per matrix, advanced only as far as it is read."""

    @staticmethod
    def _effects(side=40, degree=5):
        rng = np.random.default_rng(3)
        effects = {}
        for i in range(side):
            cols = rng.choice(side, size=degree, replace=False).tolist()
            effects.update(((i, j), v) for j, v in zip(cols, rng.uniform(-100, 100, degree).tolist()))
        return effects

    def _em(self):
        em = make_em(self._effects(), 40, 40)
        assert max_matching_size(em) == 40
        return em

    def test_case3_runs_only_n_augmentations(self):
        em = self._em()
        for side in (em, em.negated()):
            for n in (30, 34):
                assert case3_selection(side, n).n == n
                assert side.derived["pass"].cardinality == n
            assert case3_selection(side, 31).n == 31  # read off the log
            assert side.derived["pass"].cardinality == 34

    def test_full_solve_resumes_the_pass(self, monkeypatch):
        fresh = {solver: solver(self._em()) for solver in (hungarian_min, hungarian_max)}
        em = self._em()
        calls = count_pass_starts(monkeypatch)
        for solver, side in ((hungarian_min, em), (hungarian_max, em.negated())):
            selection = case3_selection(side, 36)
            advanced = side.derived["pass"]
            full = solver(em)
            assert full is advanced  # resumed, not started again
            want = fresh[solver]
            assert full_matching(em, full) == full_matching(em, want)
            assert full.cardinality == want.cardinality == 40
            assert full.augmentations == want.augmentations
            assert full.live_pops == want.live_pops
            assert case3_selection(side, 36) == selection
            assert case3_selection(side, 41) is None
            for k in range(1, full.cardinality + 1):
                assert full.assignment(k) == case3_selection(side, k)
        assert calls == [em, em.negated()]

    def test_each_pass_keeps_its_own_search_state(self):
        # the passes of a matrix and of its negation, advanced in turn one
        # augmentation at a time, search exactly as each does alone
        alone = hungarian_min(benchmark_map()), hungarian_max(benchmark_map())
        em = benchmark_map()
        runs = []
        for side in (em, em.negated()):
            assert case3_selection(side, 1).n == 1
            runs.append(side.derived["pass"])
        for k in range(2, 252):
            for run in runs:
                assert run.reach(k) == (k <= 250)
        for run, want in zip(runs, alone):
            assert run.augmentations == want.augmentations
            assert run.live_pops == want.live_pops
        assert [run.live_pops for run in runs] == [9_384, 10_918]

    def test_a_suspended_pass_does_not_hold_the_matrix(self):
        em = self._em()
        assert "pass" not in em.derived and "negated" not in em.derived
        result = run_test(em, 36, 0.05)
        assert (result.case_used_min, result.case_used_max) == ("min_case3", "max_case3")
        runs = [em.derived["pass"], em.negated().derived["pass"]]
        assert all(run.cardinality == 36 for run in runs)
        ref = weakref.ref(em)
        del em, runs
        gc.collect()
        assert ref() is None


class TestDerivedStore:
    """What a matrix derives is kept on it, refers not back to it and is never copied."""

    def _solved(self):
        em = make_em(TestResumablePass._effects(), 40, 40)
        result = run_test(em, 36, 0.05)
        assert (result.case_used_min, result.case_used_max) == ("min_case3", "max_case3")
        assert len(em.effect) == em.nnz
        return em, result

    def test_the_matrix_is_freed_by_reference_counting(self):
        em, _ = self._solved()
        ref = weakref.ref(em)
        enabled = gc.isenabled()
        gc.disable()  # a cycle through a stored value would keep the matrix
        try:
            del em
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_the_negated_matrix_is_freed_with_it(self):
        # run_test leaves both passes suspended; the negated matrix, its list
        # and its pass hold no reference back, so no cycle waits for the collector
        em, _ = self._solved()
        neg = em.negated()
        assert neg.derived["pass"].live_pops is None and em.derived["pass"].live_pops is None
        refs = weakref.ref(em), weakref.ref(neg)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del em, neg
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_copies_start_with_an_empty_store(self):
        em, result = self._solved()
        for twin in (pickle.loads(pickle.dumps(em)), copy.deepcopy(em), copy.copy(em)):
            assert twin.derived == {}
            assert twin.values.tolist() == em.values.tolist()
            assert run_test(twin, 36, 0.05) == result
        assert run_test(em, 36, 0.05) == result


# every sixth TestScipyOracle map has rows wider than this, far wider than
# caliper matching usually gives, so such rows stay a tested input
WIDE_ROW = 64


class TestScipyOracle:
    """Optimality at medium size against scipy's dense assignment solver."""

    @staticmethod
    def _instance(rng, k):
        nt = int(rng.integers(20, 151))
        nc = int(rng.integers(20, 151)) if k % 2 else max(20, nt + int(rng.integers(-5, 6)))
        top = int(rng.integers(2, 9))
        kind = k % 3
        effects = {}
        for i in range(nt):
            degree = int(rng.integers(2, top + 1))
            if k % 6 == 5 and i % 10 == 0:
                degree = min(nc, int(rng.integers(WIDE_ROW + 1, 2 * WIDE_ROW)))
            for j in rng.choice(nc, size=min(degree, nc), replace=False).tolist():
                if kind == 0:
                    effects[(i, j)] = rng.uniform(-100.0, 100.0)
                elif kind == 1:
                    effects[(i, j)] = float(rng.integers(-3, 4))
                else:
                    effects[(i, j)] = round(rng.uniform(-10.0, 10.0), 3)
        return make_em(effects, nt, nc), effects

    @staticmethod
    def _reference(effects, nt, nc, sign):
        """Cardinality and cost of a max-cardinality min-cost matching, big-M padded."""
        from scipy.optimize import linear_sum_assignment

        big = math.fsum(abs(c) for c in effects.values()) + 2.0
        matrix = np.zeros((nt, nc))
        for (i, j), c in effects.items():
            matrix[i, j] = sign * c - big
        rows, cols = linear_sum_assignment(matrix)
        chosen = [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if (i, j) in effects]
        return len(chosen), math.fsum(effects[p] for p in chosen)

    def test_matches_linear_sum_assignment(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(20261018)
        deficient = wide = 0
        for k in range(60):
            em, effects = self._instance(rng, k)
            wide += int(np.diff(em.match.row_start).max() > WIDE_ROW)
            for solver, sign in ((hungarian_min, 1.0), (hungarian_max, -1.0)):
                m = solver(em)
                card, total = self._reference(effects, em.n_treated, em.n_control, sign)
                pairs, cost = full_matching(em, m)
                assert m.cardinality == card
                assert cost == pytest.approx(total, rel=1e-9, abs=1e-9)
                assert all(p in effects for p in pairs)
                assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == card
            deficient += card < min(em.match.matched_treated, em.match.matched_control)
        assert deficient >= 10 and wide >= 8  # 15 and 9 at this seed

    @staticmethod
    def _k_reference(effects, nt, nc, k, sign):
        """Least cost of any k-matching: a square assignment padded to exactly k real pairs.

        n_c - k dummy rows take the unmatched real columns and n_t - k dummy
        columns the unmatched real rows, each at cost 0; ineligible real
        pairs and dummy-to-dummy pairs cost more than any k-matching can.
        """
        from scipy.optimize import linear_sum_assignment

        big = 2.0 * math.fsum(abs(c) for c in effects.values()) + 2.0
        matrix = np.zeros((nt + nc - k, nc + nt - k))
        matrix[:nt, :nc] = big
        matrix[nt:, nc:] = big
        for (i, j), c in effects.items():
            matrix[i, j] = sign * c
        rows, cols = linear_sum_assignment(matrix)
        chosen = [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < nt and j < nc]
        assert len(chosen) == k and all(p in effects for p in chosen)
        return math.fsum(sign * effects[p] for p in chosen)

    def test_sampled_prefixes_match_padded_linear_sum_assignment(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(20261020)
        checks = 0
        for index in range(60):
            em, effects = self._instance(rng, index)
            for solver, sign in ((hungarian_min, 1.0), (hungarian_max, -1.0)):
                m = solver(em)
                card = m.cardinality
                for k in sorted({1, card // 4, card // 2, 3 * card // 4, card - 1} - {0}):
                    total = math.fsum(sign * effects[p] for p in m.assignment(k).pairs)
                    want = self._k_reference(effects, em.n_treated, em.n_control, k, sign)
                    assert total == pytest.approx(want, rel=1e-9, abs=1e-9), (index, sign, k)
                    checks += 1
        assert checks == 600  # 1, the quartiles and cardinality - 1, both ways
