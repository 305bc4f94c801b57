"""Statistic-layer tests: S/Q/sigma, Z, level roots, tails, P-values."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustz.statistic import (
    Assignment,
    DegenerateStatisticError,
    classify_robustness,
    gamma_roots,
    normal_upper_tail,
    normal_upper_tail_inverse,
    p_values,
    robustness_margin,
    stats_from_values,
    validate_assignment,
    z_statistic,
)

from conftest import make_em, simpson_upper_tail, z_by_mean_std


class TestAssignmentStats:
    """The stats of an assignment's pairs, as the linear rung reads them."""

    def test_basic_values(self):
        em = make_em({(0, 0): 4, (1, 1): 1})
        stats = em.pair_stats({(0, 0), (1, 1)})
        assert stats.S == 5.0
        assert stats.Q == 17.0
        assert stats.sigma_hat == pytest.approx(1.5, abs=1e-12)
        assert not stats.degenerate

    def test_cancellation(self):
        em = make_em({(0, 0): 3.25, (1, 1): -3.25})
        stats = em.pair_stats({(0, 0), (1, 1)})
        assert stats.S == 0.0

    def test_zero_variance_is_degenerate(self):
        em = make_em({(0, 0): 2, (1, 1): 2})
        stats = em.pair_stats({(0, 0), (1, 1)})
        assert stats.degenerate
        assert stats.sigma_hat == 0.0


class TestValidateAssignment:
    def test_accepts_one_to_one_eligible_pairs(self):
        em = make_em({(0, 0): 4, (0, 1): 1, (1, 1): 2})
        validate_assignment(Assignment(frozenset({(0, 0), (1, 1)})), em)

    def test_rejects_ineligible_pair(self):
        em = make_em({(0, 0): 4, (1, 1): 1})
        with pytest.raises(ValueError, match="not eligible"):
            validate_assignment(Assignment(frozenset({(0, 1), (1, 0)})), em)

    def test_rejects_a_float_pair(self):
        em = make_em({(0, 0): 4, (1, 1): 2})
        with pytest.raises(ValueError, match=r"pair \(0\.5, 0\) is not eligible"):
            validate_assignment(Assignment(frozenset({(0.5, 0), (1, 1)})), em)

    def test_rejects_duplicate_row(self):
        em = make_em({(0, 0): 4, (0, 1): 1, (1, 1): 2})
        with pytest.raises(ValueError, match="treated index 0 used twice"):
            validate_assignment(Assignment(frozenset({(0, 0), (0, 1)})), em)

    def test_rejects_duplicate_column(self):
        em = make_em({(0, 0): 4, (1, 0): 1, (1, 1): 2})
        with pytest.raises(ValueError, match="control index 0 used twice"):
            validate_assignment(Assignment(frozenset({(0, 0), (1, 0)})), em)


class TestZStatistic:
    def test_known_value(self):
        stats = stats_from_values([4, 1])
        assert z_statistic(stats) == pytest.approx(2.3570, abs=1e-4)

    def test_zero_mean(self):
        assert z_statistic(stats_from_values([2, -2])) == 0.0

    def test_degenerate_positive_is_inf(self):
        assert z_statistic(stats_from_values([2, 2])) == math.inf

    def test_degenerate_negative_is_neg_inf(self):
        assert z_statistic(stats_from_values([-2, -2])) == -math.inf

    def test_degenerate_zero_is_zero(self):
        assert z_statistic(stats_from_values([0, 0])) == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            z_statistic(stats_from_values([1]))

    def test_matches_mean_std_route(self, rng):
        for _ in range(200):
            vals = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 6))]
            assert z_statistic(stats_from_values(vals)) == pytest.approx(
                z_by_mean_std(vals), rel=1e-9, abs=1e-9
            )


class TestGammaRoots:
    def test_known_roots(self):
        lo, hi = gamma_roots(5, 13, 2)
        assert hi == pytest.approx(7.0711, abs=1e-4)
        assert lo == -hi

    def test_zero_sum_forces_zero(self):
        assert gamma_roots(0, 5, 3) == (0.0, 0.0)

    def test_matches_z_magnitude(self):
        _, hi = gamma_roots(5, 17, 2)
        assert hi == pytest.approx(z_statistic(stats_from_values([4, 1])), abs=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateStatisticError):
            gamma_roots(4, 8, 2)  # n*Q == S^2

    def test_consistency_over_random_assignments(self, rng):
        # |gamma| from the root formula equals |Z| from the ratio formula
        for _ in range(10_000):
            vals = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 5))]
            stats = stats_from_values(vals)
            assert stats.n * stats.Q - stats.S**2 >= 0.0
            if stats.degenerate:
                continue
            _, hi = gamma_roots(stats.S, stats.Q, stats.n)
            assert hi == pytest.approx(abs(z_statistic(stats)), rel=1e-9, abs=1e-9)


class TestNormalTail:
    def test_half_at_zero(self):
        assert normal_upper_tail(0.0) == 0.5

    def test_quantile_value(self):
        assert normal_upper_tail(1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_against_quadrature(self):
        for z in (-3.0, -1.2, -0.3, 0.7, 1.959964, 2.5, 4.0):
            assert normal_upper_tail(z) == pytest.approx(
                simpson_upper_tail(z), abs=1e-10
            )

    def test_quadrature_sweep_within_1e10(self):
        for k in range(33):
            z = -8.0 + 0.5 * k
            assert abs(normal_upper_tail(z) - simpson_upper_tail(z)) <= 1e-10

    def test_infinities(self):
        assert normal_upper_tail(math.inf) == 0.0
        assert normal_upper_tail(-math.inf) == 1.0

    def test_monotone_on_grid(self):
        zs = [-8 + 16 * k / 999 for k in range(1000)]
        tails = [normal_upper_tail(z) for z in zs]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @given(st.floats(min_value=-8, max_value=8, allow_nan=False))
    @settings(max_examples=200)
    def test_symmetry(self, z):
        assert normal_upper_tail(z) + normal_upper_tail(-z) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_inverse_round_trip(self):
        for p in (0.4, 0.1, 0.05, 0.025, 0.001):
            z = normal_upper_tail_inverse(p)
            assert normal_upper_tail(z) == pytest.approx(p, abs=1e-9)

    def test_inverse_rejects_bad_p(self):
        with pytest.raises(ValueError):
            normal_upper_tail_inverse(0.0)


class TestPValues:
    def test_reported_pair(self):
        p_min, p_max = p_values(12.257, 0.927)
        assert p_min < 1e-30
        assert p_max == pytest.approx(0.1770, abs=1e-3)

    def test_equal_statistics(self):
        p_min, p_max = p_values(1.3, 1.3)
        assert p_min == p_max

    def test_infinite_limits(self):
        assert p_values(math.inf, -math.inf) == (0.0, 1.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            p_values(1.0, 2.0)

    def test_interval_is_ordered(self, rng):
        for _ in range(500):
            a, b = sorted((rng.uniform(-6, 6), rng.uniform(-6, 6)))
            p_min, p_max = p_values(b, a)
            assert p_min <= p_max


class TestClassification:
    def test_absolute(self):
        assert classify_robustness(0.9908, 0.9908, 0.05) == "absolute_robust"

    def test_alpha(self):
        assert classify_robustness(0.01, 0.04, 0.05) == "alpha_robust"

    def test_not_robust(self):
        assert classify_robustness(0.01, 0.90, 0.05) == "not_robust"

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            classify_robustness(0.5, 0.4, 0.05)


class TestRobustnessMargin:
    def test_wide_margin(self):
        m = robustness_margin(4.0, 0.05)
        assert m.z_critical == pytest.approx(1.6449, abs=1e-4)
        assert m.relative_margin == pytest.approx(0.589, abs=1e-3)

    def test_fixed_point(self):
        z_crit = normal_upper_tail_inverse(0.05)
        assert robustness_margin(z_crit, 0.05).absolute_margin == pytest.approx(
            0.0, abs=1e-9
        )

    def test_moderate_margin(self):
        assert robustness_margin(2.0, 0.05).relative_margin == pytest.approx(
            0.178, abs=1e-3
        )

    def test_zero_statistic(self):
        assert robustness_margin(0.0, 0.05).relative_margin is None

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            robustness_margin(2.0, 1.5)


class TestOrderFreeStats:
    """fsum makes the pair statistics independent of the order of the values."""

    @staticmethod
    def _value_lists(rng):
        draws = (lambda: rng.uniform(-100.0, 100.0),
                 lambda: float(rng.randint(-3, 3)),
                 lambda: round(rng.uniform(-10.0, 10.0), 3),
                 lambda: rng.choice((0.0, -0.0, 1.5, -1.5)),
                 lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 12.0))
        for index in range(300):
            draw = draws[index % len(draws)]
            yield index % len(draws), [draw() for _ in range(rng.randint(2, 40))]

    def test_stats_from_values_ignores_order(self):
        rng = random.Random(20261018)
        plain_sum_moved = 0
        for kind, values in self._value_lists(rng):
            expected = repr(stats_from_values(values))
            for _ in range(4):
                shuffled = rng.sample(values, len(values))
                assert repr(stats_from_values(shuffled)) == expected
                plain_sum_moved += kind == 4 and sum(shuffled) != sum(values)
            if stats_from_values(values).S == 0.0:
                assert expected.startswith("PairStats(S=0.0,")
        assert plain_sum_moved > 0  # the mixed-magnitude lists do reorder a plain sum

    def test_pair_stats_ignores_pair_order(self):
        rng = random.Random(20261019)
        for _, values in self._value_lists(rng):
            em = make_em({(k, k): v for k, v in enumerate(values)})
            pairs = [(k, k) for k in range(len(values))]
            expected = repr(em.pair_stats(pairs))
            for _ in range(2):
                assert repr(em.pair_stats(rng.sample(pairs, len(pairs)))) == expected


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=2, max_size=8))
@settings(max_examples=300)
def test_power_mean_inequality(values):
    stats = stats_from_values(values)
    # the power-mean bound, up to float rounding
    assert stats.n * stats.Q - stats.S**2 >= -1e-9 * max(1.0, stats.Q)
    assert stats.sigma_hat >= 0.0
