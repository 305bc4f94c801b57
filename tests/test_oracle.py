"""Exhaustive enumerator tests: exactness, counting, duality, budget."""

import math

import pytest

from robustz.oracle import BudgetExceededError, enumerate_extrema
from robustz.statistic import stats_from_values, validate_assignment, z_statistic

from conftest import brute_force_extrema, make_em, random_instance


class TestKnownInstances:
    def test_positive_two_by_two(self):
        em = make_em({(0, 0): 4, (0, 1): 3, (1, 0): 2, (1, 1): 1})
        res = enumerate_extrema(em, 2)
        assert res.z_max == pytest.approx(7.0711, abs=1e-4)
        assert res.z_min == pytest.approx(2.3570, abs=1e-4)
        assert res.enumerated == 2
        assert not res.degenerate_seen

    def test_degenerate_assignment_included(self):
        em = make_em({(0, 0): -1, (0, 1): 2, (1, 0): 2, (1, 1): 3})
        res = enumerate_extrema(em, 2)
        assert res.z_min == pytest.approx(0.7071, abs=1e-4)
        assert res.z_max == math.inf
        assert res.degenerate_seen

    def test_no_assignment_possible(self):
        em = make_em({(0, 0): 1.0}, 2, 2)
        with pytest.raises(ValueError, match="no assignment"):
            enumerate_extrema(em, 2)

    def test_small_n_rejected(self):
        em = make_em({(0, 0): 1.0})
        with pytest.raises(ValueError, match="n >= 2"):
            enumerate_extrema(em, 1)


class TestCounting:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_full_grid_counts_factorial(self, k):
        em = make_em({(i, j): float(i * k + j + 1) for i in range(k) for j in range(k)})
        res = enumerate_extrema(em, k)
        assert res.enumerated == math.factorial(k)

    def test_budget_enforced(self):
        # the budget counts evaluated assignments: this map has 4! = 24 of them
        em = make_em({(i, j): float(i + j) for i in range(4) for j in range(4)})
        assert enumerate_extrema(em, 4, budget=24).enumerated == 24
        for budget in (10, 23):
            with pytest.raises(BudgetExceededError):
                enumerate_extrema(em, 4, budget=budget)

    def test_many_rows_do_not_deepen_the_recursion(self):
        # 1,100 rows share column 0 and one more row holds column 1, so each
        # assignment pairs some row r < 1100 with the last row
        rows = 1100
        effects = {(r, 0): float(r % 7) for r in range(rows)}
        effects[(rows, 1)] = 1.0
        res = enumerate_extrema(make_em(effects), 2)
        assert res.enumerated == rows
        z = [z_statistic(stats_from_values([r % 7, 1.0])) for r in range(rows)]
        assert (res.z_min, res.z_max) == (min(z), max(z))
        # ties keep the first assignment in row order
        assert res.argmin.pairs == {(z.index(min(z)), 0), (rows, 1)}
        assert res.argmax.pairs == {(z.index(max(z)), 0), (rows, 1)}

    def test_budget_validated(self):
        em = make_em({(0, 0): 1.0, (1, 1): 2.0})
        with pytest.raises(ValueError, match="budget"):
            enumerate_extrema(em, 2, budget=0)


class TestSymmetries:
    def test_exchange_symmetry(self, rng):
        for _ in range(40):
            em, n = random_instance(rng, max_side=4)
            try:
                base = enumerate_extrema(em, n)
            except ValueError:
                continue
            perm_t = list(range(em.n_treated))
            perm_c = list(range(em.n_control))
            rng.shuffle(perm_t)
            rng.shuffle(perm_c)
            relabeled = make_em(
                {(perm_t[i], perm_c[j]): v for (i, j), v in em.effect.items()},
                em.n_treated, em.n_control,
            )
            other = enumerate_extrema(relabeled, n)
            assert other.z_max == pytest.approx(base.z_max, abs=1e-12) or \
                (math.isinf(other.z_max) and other.z_max == base.z_max)
            assert other.z_min == pytest.approx(base.z_min, abs=1e-12) or \
                (math.isinf(other.z_min) and other.z_min == base.z_min)

    def test_negation_duality(self, rng):
        for _ in range(40):
            em, n = random_instance(rng, max_side=4)
            neg = make_em({k: -v for k, v in em.effect.items()},
                          em.n_treated, em.n_control)
            try:
                base = enumerate_extrema(em, n)
            except ValueError:
                continue
            mirrored = enumerate_extrema(neg, n)
            assert base.z_max == -mirrored.z_min
            assert base.z_min == -mirrored.z_max

    def test_agrees_with_itertools_route(self, rng):
        for _ in range(80):
            em, n = random_instance(rng, max_side=4)
            expected = brute_force_extrema(em, n)
            if expected is None:
                with pytest.raises(ValueError):
                    enumerate_extrema(em, n)
                continue
            res = enumerate_extrema(em, n)
            bf_min, bf_max = expected
            for got, want in ((res.z_min, bf_min), (res.z_max, bf_max)):
                if math.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            validate_assignment(res.argmin, em)
            validate_assignment(res.argmax, em)
            assert res.argmin.n == n
            assert res.argmax.n == n
