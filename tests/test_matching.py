"""Eligibility construction, effect matrices and block structure."""

import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustz import matching
from robustz.data_io import Dataset, Unit
from robustz.greedy import build_sorted_list
from robustz.matching import (
    Block,
    CovariateRule,
    EffectMatrix,
    MatchMatrix,
    MatchingError,
    build_effect_matrix,
    build_match_matrix,
    partition_blocks,
    write_coordinate_list,
)
from robustz.qip_export import export_qip
from robustz.statistic import stats_from_values

from conftest import make_em


def dataset_from(rows):
    """rows: list of (covariates dict, treatment flag, outcome)."""
    units = tuple(
        Unit(id=str(k + 1), covariates=cov, treatment=t, outcome=float(y))
        for k, (cov, t, y) in enumerate(rows)
    )
    return Dataset(units=units)


class TestCovariateRule:
    def test_caliper_requires_tolerance(self):
        with pytest.raises(MatchingError, match="tolerance"):
            CovariateRule(column="x", kind="caliper")

    def test_negative_tolerance_rejected(self):
        for bad in (-1, float("nan")):
            with pytest.raises(MatchingError, match=">= 0"):
                CovariateRule(column="x", kind="caliper", tolerance=bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(MatchingError, match="kind"):
            CovariateRule(column="x", kind="fuzzy")

    def test_exact_rule_takes_no_tolerance(self):
        with pytest.raises(MatchingError, match="exact rule for 'c' does not take a tolerance"):
            CovariateRule("c", "exact", 1.0)


class TestBuildMatchMatrix:
    def test_identical_covariates_exact_match(self):
        ds = dataset_from([
            ({"a": 1.0, "b": "red"}, True, 5.0),
            ({"a": 1.0, "b": "red"}, False, 3.0),
        ])
        rules = [CovariateRule("a", "exact"), CovariateRule("b", "exact")]
        mm = build_match_matrix(ds, rules)
        assert (mm.rows.tolist(), mm.cols.tolist()) == ([0], [0])

    def test_caliper_excludes_wide_gap(self):
        ds = dataset_from([({"x": 5.0}, True, 1.0), ({"x": 8.0}, False, 2.0)])
        mm = build_match_matrix(ds, [CovariateRule("x", "caliper", tolerance=2)])
        assert mm.nnz == 0

    def test_caliper_boundary_is_inclusive(self):
        ds = dataset_from([({"x": 5.0}, True, 1.0), ({"x": 7.0}, False, 2.0)])
        mm = build_match_matrix(ds, [CovariateRule("x", "caliper", tolerance=2)])
        assert (mm.rows.tolist(), mm.cols.tolist()) == ([0], [0])

    def test_caliper_on_categorical_rejected(self):
        ds = dataset_from([({"x": "red"}, True, 1.0), ({"x": "red"}, False, 2.0)])
        with pytest.raises(MatchingError, match="categorical"):
            build_match_matrix(ds, [CovariateRule("x", "caliper", tolerance=1)])

    def test_missing_column_rejected(self):
        ds = dataset_from([({"x": 1.0}, True, 1.0), ({"x": 1.0}, False, 2.0)])
        with pytest.raises(MatchingError, match="no value"):
            build_match_matrix(ds, [CovariateRule("y", "exact")])

    def test_rules_required(self):
        ds = dataset_from([({"x": 1.0}, True, 1.0), ({"x": 1.0}, False, 2.0)])
        with pytest.raises(MatchingError, match="at least one"):
            build_match_matrix(ds, [])

    def test_mixed_rules(self):
        ds = dataset_from([
            ({"g": "a", "x": 10.0}, True, 1.0),
            ({"g": "a", "x": 11.0}, False, 2.0),   # eligible
            ({"g": "b", "x": 10.0}, False, 2.0),   # exact mismatch
            ({"g": "a", "x": 14.0}, False, 2.0),   # caliper mismatch
        ])
        rules = [CovariateRule("g", "exact"), CovariateRule("x", "caliper", tolerance=2)]
        mm = build_match_matrix(ds, rules)
        assert (mm.rows.tolist(), mm.cols.tolist()) == ([0], [0])

    def test_non_finite_covariates_rejected(self):
        # NaN is rejected under any rule, +-inf only under a caliper
        cases = [("exact", None, float("nan")), ("caliper", 1, float("nan")),
                 ("caliper", 1, float("inf")), ("caliper", 1, float("-inf"))]
        for kind, tol, bad in cases:
            ds = dataset_from([({"x": 0.0}, True, 1.0), ({"x": bad}, False, 2.0)])
            with pytest.raises(MatchingError, match=r"unit '2' .*non-finite.*'x'"):
                build_match_matrix(ds, [CovariateRule("x", kind, tolerance=tol)])
        ds = dataset_from([({"x": float("inf")}, True, 1.0), ({"x": float("inf")}, False, 2.0)])
        mm = build_match_matrix(ds, [CovariateRule("x", "exact")])
        assert (mm.rows.tolist(), mm.cols.tolist()) == ([0], [0])

    def test_first_bad_unit_in_rule_then_file_order(self):
        # unit 2 (a control) is bad under the second rule only, unit 3 (a
        # treated unit) under the first: the first rule's unit is named
        ds = dataset_from([
            ({"g": "a", "x": 1.0}, True, 1.0),
            ({"g": "a", "x": "wide"}, False, 2.0),
            ({"g": float("nan"), "x": 1.0}, True, 1.0),
        ])
        rules = [CovariateRule("g", "exact"), CovariateRule("x", "caliper", tolerance=1)]
        with pytest.raises(MatchingError, match=r"unit '3' .*non-finite.*'g'"):
            build_match_matrix(ds, rules)
        with pytest.raises(MatchingError, match=r"categorical column 'x' \(unit '2'"):
            build_match_matrix(ds, rules[::-1])

    def test_matches_all_pairs_reference(self):
        # every (i, j) checked against every rule, with no grouping: the
        # pairs, and their (i, j) order, must be what the library builds
        rng = random.Random(41)
        for trial in range(150):
            n_units = rng.randint(2, 24)
            rules = []
            for c in range(rng.randint(1, 3)):
                if rng.random() < 0.4:
                    rules.append(CovariateRule(f"x{c}", "exact"))
                else:
                    rules.append(CovariateRule(f"x{c}", "caliper",
                                               tolerance=rng.choice([0, 0.5, 1, 2, 3, 1.25])))
            units = []
            for k in range(n_units):
                cov = {}
                for r in rules:
                    if r.kind == "exact":
                        cov[r.column] = rng.choice(["a", "b", 1, 1.0, 2.5])
                    elif rng.random() < 0.5:
                        cov[r.column] = rng.randint(-3, 3)  # many gaps equal to the bound
                    else:
                        cov[r.column] = rng.choice([0.0, 0.5, 1.25, 2.5, rng.uniform(-3, 3)])
                units.append((cov, k % 2 == 0 or rng.random() < 0.3, float(k)))
            units[1] = (units[1][0], False, 1.0)
            ds = dataset_from(units)
            treated = [u for u in ds.units if u.treatment]
            control = [u for u in ds.units if not u.treatment]
            expected = [
                (i, j) for i, t in enumerate(treated) for j, c in enumerate(control)
                if all(t.covariates[r.column] == c.covariates[r.column] if r.kind == "exact"
                       else abs(t.covariates[r.column] - c.covariates[r.column]) <= r.tolerance
                       for r in rules)
            ]
            mm = build_match_matrix(ds, rules)
            assert list(zip(mm.rows.tolist(), mm.cols.tolist())) == expected, trial
            assert mm.treated_ids == tuple(u.id for u in treated)
            assert mm.control_ids == tuple(u.id for u in control)

    def test_window_edge_pairs_are_eligible(self):
        # x - tol rounds above c here (1.1 - 1 > 0.1), yet |x - c| <= tol holds
        for x, c, tol in [(1.1, 0.1, 1), (3.1, 0.1, 3), (2.7, 0.2, 2.5)]:
            for t_val, c_val in [(x, c), (c, x)]:
                ds = dataset_from([({"x": t_val}, True, 1.0), ({"x": c_val}, False, 2.0)])
                mm = build_match_matrix(ds, [CovariateRule("x", "caliper", tolerance=tol)])
                assert mm.nnz == 1, (t_val, c_val, tol)

    def test_matches_all_pairs_reference_across_chunks(self, monkeypatch):
        # 300 units: many tiny exact groups and one wide group, built 7
        # candidates per chunk, so chunks split between rows and a wide row
        # is a chunk of its own
        monkeypatch.setattr(matching, "_CHUNK", 7)
        rng = random.Random(73)
        edges = [0.1, 0.2, 1.1, 2.7, 3.1, -0.1, -1.1, 0.0, -0.0]
        widest = 0
        for trial in range(6):
            rules = [CovariateRule("g", "exact"),
                     CovariateRule("x", "caliper", tolerance=rng.choice([0, 1, 2.5, 3])),
                     CovariateRule("y", "caliper", tolerance=rng.choice([0.5, 1, 3]))]
            rows = []
            for k in range(300):
                cov = {"g": "wide" if k % 2 else rng.randrange(60),
                       "x": rng.choice([rng.randint(-3, 3), rng.choice(edges), rng.uniform(-3, 3)]),
                       "y": rng.choice([rng.randint(-2, 2), rng.choice(edges)])}
                rows.append((cov, rng.random() < 0.5, float(k)))
            ds = dataset_from(rows)
            treated = [u for u in ds.units if u.treatment]
            control = [u for u in ds.units if not u.treatment]
            expected = [
                (i, j) for i, t in enumerate(treated) for j, c in enumerate(control)
                if t.covariates["g"] == c.covariates["g"]
                and all(abs(t.covariates[r.column] - c.covariates[r.column]) <= r.tolerance
                        for r in rules[1:])
            ]
            mm = build_match_matrix(ds, rules)
            assert list(zip(mm.rows.tolist(), mm.cols.tolist())) == expected, trial
            widest = max(widest, np.diff(mm.row_start).max())
        assert widest > 7

    def test_integer_caliper_values_beyond_2_52_rejected(self):
        # float64 differences of ints within 2**52 are exact, as int ones are
        big = 2**52
        rule = [CovariateRule("x", "caliper", tolerance=2**53 - 1)]
        for t_val, c_val, eligible in [(big, -big + 1, True), (big, -big, False),
                                       (-big + 1, big, True), (-big, big, False)]:
            ds = dataset_from([({"x": t_val}, True, 1.0), ({"x": c_val}, False, 2.0)])
            assert build_match_matrix(ds, rule).nnz == eligible, (t_val, c_val)
        for bad in (big + 1, -big - 1, 2**200):
            ds = dataset_from([({"x": 0}, True, 1.0), ({"x": bad}, False, 2.0)])
            with pytest.raises(MatchingError, match=r"unit '2' .*beyond 2\*\*52.*'x'"):
                build_match_matrix(ds, rule)
        # an exact rule compares such ints as before
        ds = dataset_from([({"x": big + 1}, True, 1.0), ({"x": big + 1}, False, 2.0)])
        assert build_match_matrix(ds, [CovariateRule("x", "exact")]).nnz == 1

    def test_constructor_rejects_bad_pair_arrays(self):
        # the first offending pair is named, at the first index and at the last
        bad = [
            ([0, 2], [0, 0], r"\(2, 0\) out of range 2x3"),
            ([0, 1], [0, 3], r"\(1, 3\) out of range 2x3"),
            ([-1, 0], [0, 0], r"\(-1, 0\) out of range 2x3"),
            ([0, 0], [-1, 0], r"\(0, -1\) out of range 2x3"),
            ([1, 0, 5], [0, 7, 0], r"\(0, 7\) out of range 2x3"),
            ([0, 0, 1, 1], [1, 3, 0, 0], r"\(0, 3\) out of range 2x3"),
            ([0, 0, 1, 1], [0, 1, 2, 3], r"\(1, 3\) out of range 2x3"),
            ([0, 1, 1], [1, 2, 2], r"\(1, 2\) repeated"),
            ([0, 0, 1], [1, 1, 2], r"\(0, 1\) repeated"),
            ([0, 1, 0], [1, 0, 2], r"\(0, 2\) out of \(i, j\) order"),
            ([1, 0, 0], [0, 1, 2], r"\(0, 1\) out of \(i, j\) order"),
            ([0, 0, 1, 1], [0, 2, 1, 0], r"\(1, 0\) out of \(i, j\) order"),
            ([0, 0], [2, 1], r"\(0, 1\) out of \(i, j\) order"),
            ([0, 0, 0, 1], [2, 1, 1, 0], r"\(0, 1\) out of \(i, j\) order"),
        ]
        # ids, or counts that stand for synthetic ids: the same checks
        for ids_t, ids_c in ((("t0", "t1"), ("c0", "c1", "c2")), (2, 3)):
            for rows, cols, message in bad:
                with pytest.raises(MatchingError, match=message):
                    MatchMatrix(ids_t, ids_c, rows, cols)
            mm = MatchMatrix(ids_t, ids_c, [0, 0, 1], [0, 2, 1])
            assert mm.row_start.tolist() == [0, 2, 3]
            assert (mm.n_treated, mm.n_control) == (2, 3)
            assert (mm.matched_treated, mm.matched_control) == (2, 3)
            assert mm.positions([0], [2]).tolist() == [1]
            with pytest.raises(KeyError):
                mm.positions([1], [0])
        # rows with no pair, before, between and after the others
        for nt, rows, cols, row_start in ((4, [0, 0, 1], [0, 2, 1], [0, 2, 3, 3, 3]),
                                          (4, [2], [1], [0, 0, 0, 1, 1]),
                                          (3, [], [], [0, 0, 0, 0]), (0, [], [], [0])):
            mm = MatchMatrix(nt, 3, rows, cols)
            assert mm.row_start.tolist() == row_start
            assert mm.row_start.dtype == np.intp

    def test_constructor_rejects_pairs_that_are_not_integers(self):
        for rows, cols in (([0.5, 1.7], [0, 1.9]), ([0.0, 1.0], [0, 1]), ([0, "1"], [0, 1]),
                           ([0, 2**70], [0, 1])):
            with pytest.raises(MatchingError, match="is not two integers"):
                MatchMatrix(2, 2, rows, cols)
        # integer arrays of any width and plain lists of ints are read as before
        mm = MatchMatrix(2, 2, np.array([0, 1], dtype=np.int32), [0, 1])
        assert mm.rows.dtype == mm.cols.dtype == np.int64
        assert MatchMatrix(0, 0, [], []).nnz == 0

    def test_constructor_rejects_pair_arrays_that_are_not_aligned(self):
        for rows, cols in (([0, 1], [0]), ([[0, 1]], [[0, 1]]), (0, 0)):
            with pytest.raises(MatchingError, match="one 1-D shape"):
                MatchMatrix(2, 2, rows, cols)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 10))
    @settings(max_examples=200)
    def test_caliper_is_symmetric(self, x, y, tol):
        ds1 = dataset_from([({"x": x}, True, 1.0), ({"x": y}, False, 2.0)])
        ds2 = dataset_from([({"x": y}, True, 1.0), ({"x": x}, False, 2.0)])
        rule = [CovariateRule("x", "caliper", tolerance=tol)]
        assert build_match_matrix(ds1, rule).nnz == build_match_matrix(ds2, rule).nnz


class TestBuildEffectMatrix:
    def test_direct_subtraction(self):
        ds = dataset_from([
            ({"g": "a"}, True, 5.0),
            ({"g": "a"}, True, 3.0),
            ({"g": "a"}, False, 1.0),
            ({"g": "a"}, False, 2.0),
        ])
        mm = build_match_matrix(ds, [CovariateRule("g", "exact")])
        em = build_effect_matrix(mm, ds)
        assert em.effect == {(0, 0): 4.0, (0, 1): 3.0, (1, 0): 2.0, (1, 1): 1.0}

    def test_ineligible_pair_absent(self):
        ds = dataset_from([
            ({"g": "a"}, True, 5.0),
            ({"g": "a"}, False, 1.0),
            ({"g": "b"}, False, 7.0),
        ])
        mm = build_match_matrix(ds, [CovariateRule("g", "exact")])
        em = build_effect_matrix(mm, ds)
        assert (0, 1) not in em.effect

    def test_effect_is_a_read_only_dict_of_every_pair(self):
        em = make_em({(0, 0): 1.5, (0, 2): -2.0, (1, 1): 0.0, (2, 0): 7.0})
        pairs = zip(em.match.rows.tolist(), em.match.cols.tolist())
        assert em.effect == dict(zip(pairs, em.values.tolist()))
        assert em.effect is em.effect  # built once
        with pytest.raises(TypeError):
            em.effect[(0, 0)] = 3.0
        assert (0.5, 0) not in em.effect
        assert (2**70, 0) not in em.effect

    def test_pair_stats_rejects_pairs_that_are_not_integers(self):
        em = make_em({(0, 0): 1.0, (1, 1): 2.0})
        for bad in ((0.7, 0), ("1", 1), (2**70, 0)):
            with pytest.raises(KeyError):
                em.pair_stats([bad, (1, 1)])
        assert em.pair_stats([]).n == 0
        assert em.match.positions([], []).tolist() == []

    def test_short_value_column_rejected(self):
        mm = MatchMatrix(3, 3, [0, 1, 2], [0, 1, 2])
        with pytest.raises(MatchingError, match=r"shape \(2,\), expected \(3,\)"):
            EffectMatrix(mm, [1.0, 2.0])

    def test_long_value_column_rejected(self):
        mm = MatchMatrix(3, 3, [0, 1, 2], [0, 1, 2])
        with pytest.raises(MatchingError, match=r"shape \(4,\), expected \(3,\)"):
            EffectMatrix(mm, [1.0, 2.0, 3.0, 4.0])

    def test_two_dimensional_value_column_rejected(self):
        mm = MatchMatrix(3, 3, [0, 1, 2], [0, 1, 2])
        with pytest.raises(MatchingError, match=r"shape \(3, 1\), expected \(3,\)"):
            EffectMatrix(mm, [[1.0], [2.0], [3.0]])

    def test_zero_effect_is_stored(self):
        ds = dataset_from([({"g": "a"}, True, 5.0), ({"g": "a"}, False, 5.0)])
        mm = build_match_matrix(ds, [CovariateRule("g", "exact")])
        em = build_effect_matrix(mm, ds)
        assert em.effect[(0, 0)] == 0.0

    def test_match_id_missing_from_dataset(self):
        ds = dataset_from([({"g": "a"}, True, 5.0), ({"g": "a"}, False, 1.0)])
        mm = MatchMatrix(("1", "9"), ("2",), [0], [0])
        with pytest.raises(MatchingError, match="match matrix id '9' not found in dataset"):
            build_effect_matrix(mm, ds)

    def test_overflowing_effect_rejected(self):
        ds = dataset_from([({"g": "a"}, True, 1e308), ({"g": "a"}, False, -1e308)])
        mm = build_match_matrix(ds, [CovariateRule("g", "exact")])
        with pytest.raises(MatchingError, match="not finite"):
            build_effect_matrix(mm, ds)

    def test_non_finite_effect_map_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(MatchingError, match="not finite"):
                make_em({(0, 0): bad, (1, 1): 1.0})

    def test_huge_finite_effect_rejected(self):
        # 1e160 is finite, but its square overflows the pair statistics
        with pytest.raises(MatchingError, match=r"\(1, 1\) exceeds 1e\+100 in magnitude: -1e\+160"):
            make_em({(0, 0): 1.0, (1, 1): -1e160})
        ds = dataset_from([({"g": "a"}, True, 1e200), ({"g": "a"}, False, -1e200)])
        mm = build_match_matrix(ds, [CovariateRule("g", "exact")])
        with pytest.raises(MatchingError, match=r"exceeds 1e\+100 in magnitude: 2e\+200"):
            build_effect_matrix(mm, ds)
        at_bound = make_em({(0, 0): 1e100, (1, 1): -1e100}).pair_stats([(0, 0), (1, 1)])
        assert (at_bound.S, at_bound.Q) == (0.0, 2e200)

    def test_first_bad_value_is_named(self):
        mm = MatchMatrix(4, 4, [0, 1, 2, 3], [3, 2, 1, 0])
        nan, inf = float("nan"), float("inf")
        bad = [
            ({0: nan}, r"\(0, 3\) is not finite: nan"),
            ({3: nan}, r"\(3, 0\) is not finite: nan"),
            ({0: inf}, r"\(0, 3\) is not finite: inf"),
            ({3: -inf}, r"\(3, 0\) is not finite: -inf"),
            ({0: 2e100}, r"\(0, 3\) exceeds 1e\+100 in magnitude: 2e\+100"),
            ({3: -1.5e100}, r"\(3, 0\) exceeds 1e\+100 in magnitude: -1.5e\+100"),
            ({1: 1e101, 2: nan}, r"\(1, 2\) exceeds"),
            ({1: -inf, 3: 1e101}, r"\(1, 2\) is not finite: -inf"),
        ]
        for at, message in bad:
            values = [1.0, -0.0, 1e100, -1e100]
            for k, v in at.items():
                values[k] = v
            with pytest.raises(MatchingError, match=message):
                EffectMatrix(mm, values)
        assert EffectMatrix(mm, [1.0, -0.0, 1e100, -1e100]).nnz == 4
        empty = EffectMatrix(MatchMatrix(0, 0, [], []), [])
        assert (empty.nnz, empty.values.dtype, empty.match.row_start.tolist()) == (
            0, np.float64, [0])

    def test_from_effects_rejects_keys_past_int64(self):
        # the first key that is not two int64 integers is named; numpy ints are integers
        for effects, pair in (
                ({(2**70, 0): 1.0}, (2**70, 0)),
                ({(0, 0): 1.0, (1, -2**63 - 1): 2.0, (2**64, 1): 3.0}, (1, -2**63 - 1)),
                ({(np.int64(0), np.int64(1)): 1.0, (1, 2**64): 2.0}, (1, 2**64))):
            with pytest.raises(MatchingError, match=rf"eligible pair \({pair[0]}, {pair[1]}\) "
                                                    "is not two integers"):
                EffectMatrix.from_effects(effects)
        em = EffectMatrix.from_effects({(np.int64(1), np.int64(0)): 1.0, (0, 1): 2.0})
        assert em.effect == {(0, 1): 2.0, (1, 0): 1.0}

    def test_from_effects_rejects_keys_out_of_range(self):
        # (0, n_control) shares its (i, j) code with (1, 0): it is named, not merged
        bad = [
            ({(1, 0): 1.0, (0, 3): 2.0}, (2, 3), r"\(0, 3\) out of range 2x3"),
            ({(0, 3): 1.0, (1, 0): 2.0}, (2, 3), r"\(0, 3\) out of range 2x3"),
            ({(0, 0): 1.0, (2, 0): 2.0}, (2, 3), r"\(2, 0\) out of range 2x3"),
            ({(1, 1): 1.0, (0, -1): 2.0}, (2, 3), r"\(0, -1\) out of range 2x3"),
            ({(-1, 2): 1.0, (0, 0): 2.0}, (None, 3), r"\(-1, 2\) out of range 1x3"),
            ({(0, 0): 1.0, (1, 1): 2.0}, (1, None), r"\(1, 1\) out of range 1x2"),
            ({(0, 0): 1.0}, (0, 0), r"\(0, 0\) out of range 0x0"),
        ]
        for effects, (nt, nc), message in bad:
            with pytest.raises(MatchingError, match=message):
                EffectMatrix.from_effects(effects, nt, nc)

    def test_from_effects_equals_the_argsort_reference(self, rng):
        def reference(effects, nt, nc):
            # the pairs in (i, j) order by an argsort of their codes
            keys = list(effects)
            rows = np.array([i for i, _ in keys], dtype=np.int64)
            cols = np.array([j for _, j in keys], dtype=np.int64)
            nt = max(rows.tolist(), default=-1) + 1 if nt is None else nt
            nc = max(cols.tolist(), default=-1) + 1 if nc is None else nc
            order = np.argsort(rows * nc + cols, kind="stable")
            rows, cols = rows[order], cols[order]
            values = np.array(list(effects.values()), dtype=np.float64)[order]
            return (rows, cols, np.searchsorted(rows, np.arange(nt + 1)), rows * nc + cols,
                    values)

        cases = [({}, None, None), ({}, 3, 2), ({(0, 0): -0.0}, None, None),
                 ({(2, 1): 1.5}, 4, 3)]
        # n_treated * n_control * nnz just below 2**63 (packed), at it (argsorted), and
        # past it, where the last pair's packed key would overflow int64 (argsorted)
        cases.append(({(0, 2**61 - 2): 1.0, (0, 5): -2.0, (0, 0): 0.0, (0, 2**60): 3.0},
                      1, 2**61 - 1))
        cases.append(({(1, 2**60 - 1): 1.0, (0, 5): -2.0, (1, 0): 0.0, (0, 2**59): 3.0},
                      2, 2**60))
        cases.append(({(0, 2**59): 3.0, (1, 2**60 - 1): 1.0, (0, 5): -2.0, (1, 0): 0.0,
                       (1, 7): 0.5}, 2, 2**60))
        for _ in range(200):
            nt, nc = rng.randint(1, 30), rng.randint(1, 30)
            pairs = [(i, j) for i in range(nt) for j in range(nc) if rng.random() < 0.3]
            rng.shuffle(pairs)
            effects = {pair: rng.choice((rng.uniform(-10.0, 10.0), -0.0, 0.0, 1e100))
                       for pair in pairs}
            cases.append((effects, nt + rng.randint(0, 3), nc + rng.randint(0, 3)))
            cases.append((effects, None, None))
        for effects, nt, nc in cases:
            em = EffectMatrix.from_effects(effects, nt, nc)
            mm = em.match
            for got, want in zip((mm.rows, mm.cols, mm.row_start, mm._codes, em.values),
                                 reference(effects, nt, nc)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_order_is_the_stable_argsort(self, rng):
        def random_map(draw, side):
            return {(i, j): draw() for i in range(side) for j in range(side)
                    if rng.random() < 0.7}

        maps = [{}, {(0, 0): 1.5}, {(i, j): 2.0 for i in range(6) for j in range(6)}]
        for _ in range(60):
            side = rng.randint(1, 12)
            maps.append(random_map(lambda: rng.uniform(-10.0, 10.0), side))
            maps.append(random_map(lambda: rng.randint(-3, 3), side))
            maps.append(random_map(lambda: rng.choice((0.0, -0.0, -1.0, 1.0)), side))
        for effects in maps:
            em = make_em(effects)
            yl = build_sorted_list(em)
            order = np.argsort(em.values, kind="stable")
            assert tuple(a.tolist() for a in yl.prefix(len(yl))) == (
                em.values[order].tolist(), em.match.rows[order].tolist(),
                em.match.cols[order].tolist())

    def test_from_effects_ids_are_synthetic(self):
        em = make_em({(2, 0): -1.0, (0, 1): 1.0}, 3, 2)
        assert em.match.treated_ids == ("t0", "t1", "t2")
        assert em.match.control_ids == ("c0", "c1")
        assert em.match.treated_ids is em.match.treated_ids  # built once
        assert make_em({(1, 3): 0.5}).match.control_ids == ("c0", "c1", "c2", "c3")
        doc = export_qip(em, 2, "min", "case1").sidecar()
        assert [(v["name"], v["treated_id"], v["control_id"]) for v in doc["variables"]] == [
            ("a_0_1", "t0", "c1"), ("a_2_0", "t2", "c0")]

    def test_arrays_are_read_only(self):
        em = make_em({(0, 0): 1.0, (1, 1): -1.0})
        with pytest.raises(ValueError, match="read-only"):
            em.values[0] = em.values[1]

    def test_positions_builds_its_codes_once(self):
        mm = make_em({(0, 1): 1.0, (1, 0): 2.0, (2, 2): 3.0}).match
        codes = mm._codes  # built by the constructor, which checks their order
        assert codes.tolist() == [1, 3, 8]
        assert mm.positions([2, 0], [2, 1]).tolist() == [2, 0]
        assert mm.positions([1], [0]).tolist() == [1]
        assert mm._codes is codes

    def test_positions_equal_the_per_pair_lookup(self, rng):
        for _ in range(200):
            nt, nc = rng.randint(1, 9), rng.randint(1, 9)
            em = make_em({(i, j): rng.uniform(-10.0, 10.0) for i in range(nt) for j in range(nc)
                          if rng.random() < 0.5}, nt, nc)
            mm = em.match
            index = {pair: k for k, pair in enumerate(zip(mm.rows.tolist(), mm.cols.tolist()))}
            pairs = list(index)
            rng.shuffle(pairs)
            pairs = pairs[:rng.randint(0, len(pairs))]
            expected = [index[pair] for pair in pairs]
            assert mm.positions([i for i, _ in pairs], [j for _, j in pairs]).tolist() == expected
            stats = em.pair_stats(pairs)
            assert stats == stats_from_values(em.values[expected].tolist())
            # (i, n_control) shares its code with (i + 1, 0): the range check tells them apart
            absent = [(i, j) for i in range(-1, nt + 1) for j in range(-1, nc + 1)
                      if (i, j) not in index]
            bad = rng.choice(absent)
            assert bad not in em.effect
            with pytest.raises(KeyError) as caught:
                mm.positions([bad[0]], [bad[1]])
            assert caught.value.args == (bad,)
            for first in (pairs + [bad, absent[0]], [bad] + pairs):
                with pytest.raises(KeyError) as caught:
                    em.pair_stats(first)
                assert caught.value.args == (bad,)

    def test_matched_control_counts_distinct_columns(self, rng):
        assert make_em({}, 3, 4).match.matched_control == 0
        for _ in range(50):
            nt, nc = rng.randint(1, 8), rng.randint(1, 8)
            em = make_em({(i, j): 1.0 for i in range(nt) for j in range(nc)
                          if rng.random() < 0.3}, nt, nc)
            assert em.match.matched_control == len(np.unique(em.match.cols))


class TestNegated:
    EFFECTS = {(0, 0): 1.5, (0, 2): -0.0, (1, 1): 0.0, (2, 0): -7.25, (2, 2): 3.0}

    def test_built_once_over_the_same_match(self):
        em = make_em(self.EFFECTS)
        neg = em.negated()
        assert em.negated() is neg
        assert neg.match is em.match
        assert "negated" not in neg.derived  # no reference back to em

    def test_values_are_the_bitwise_negation_and_read_only(self):
        em = make_em(self.EFFECTS)
        neg = em.negated()
        assert neg.values.tobytes() == (-em.values).tobytes()  # signed zeros flip too
        assert em.negated().negated().values.tobytes() == em.values.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            neg.values[0] = 1.0

    def test_copies_start_without_it(self):
        em = make_em(self.EFFECTS)
        em.negated()
        for twin in (pickle.loads(pickle.dumps(em)), copy.deepcopy(em), copy.copy(em)):
            assert twin.derived == {}
            assert twin.negated() is not em.negated()
            assert twin.negated().values.tobytes() == em.negated().values.tobytes()


class TestPartitionBlocks:
    def test_two_components(self):
        em = make_em({(0, 0): 1, (1, 1): 2}, 2, 2)
        blocks = partition_blocks(em.match)
        assert blocks == (Block((0,), (0,), True), Block((1,), (1,), True))

    def test_complete_bipartite_single_block(self):
        em = make_em({(i, j): 1 for i in range(3) for j in range(3)})
        blocks = partition_blocks(em.match)
        assert len(blocks) == 1
        assert blocks[0].identical_rows

    def test_chain_block_without_identical_rows(self):
        em = make_em({(0, 0): 1, (1, 0): 1, (1, 1): 1}, 2, 2)
        blocks = partition_blocks(em.match)
        assert len(blocks) == 1
        assert not blocks[0].identical_rows

    def test_exact_matching_gives_identical_rows(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = []
            for _ in range(rng.randint(4, 12)):
                cov = {"g": rng.choice("abcd"), "h": rng.choice("xy")}
                rows.append((cov, rng.random() < 0.5, rng.uniform(0, 10)))
            if not any(t for _, t, _ in rows) or all(t for _, t, _ in rows):
                continue
            ds = dataset_from(rows)
            mm = build_match_matrix(
                ds, [CovariateRule("g", "exact"), CovariateRule("h", "exact")]
            )
            assert all(b.identical_rows for b in partition_blocks(mm))

    def test_bijection_sums_within_identical_row_blocks(self):
        # any bijection between fixed treated/control subsets of an
        # exactly-matched block has the same total effect
        rng = random.Random(11)
        rows = []
        for _ in range(16):
            cov = {"g": rng.choice("ab")}
            rows.append((cov, rng.random() < 0.5, rng.uniform(-5, 5)))
        rows.append(({"g": "a"}, True, 1.0))
        rows.append(({"g": "a"}, False, 0.0))
        ds = dataset_from(rows)
        mm = build_match_matrix(ds, [CovariateRule("g", "exact")])
        em = build_effect_matrix(mm, ds)
        for block in partition_blocks(mm):
            assert block.identical_rows
            for k in range(1, min(4, len(block.treated), len(block.control)) + 1):
                t_sub = block.treated[:k]
                c_sub = block.control[:k]
                sums = {
                    round(sum(em.effect[(i, j)] for i, j in zip(t_sub, perm)), 9)
                    for perm in itertools.permutations(c_sub)
                }
                assert len(sums) == 1


class TestPartitionCoverage:
    def test_blocks_disjoint_and_cover_matched_indices(self, rng):
        from conftest import random_instance

        for _ in range(60):
            em, _ = random_instance(rng, max_side=7)
            seen_t, seen_c = set(), set()
            for block in partition_blocks(em.match):
                assert seen_t.isdisjoint(block.treated)
                assert seen_c.isdisjoint(block.control)
                seen_t.update(block.treated)
                seen_c.update(block.control)
            assert seen_t == set(em.match.rows.tolist())
            assert seen_c == set(em.match.cols.tolist())


class TestGridScale:
    def test_caliper_only_grid_at_study_scale(self):
        # ~500x530 all-caliper grid (no exact rules, so one big group):
        # must stay well under interactive latency
        import time

        rng = random.Random(9)
        rows = []
        for k in range(1030):
            cov = {f"x{c}": rng.uniform(0, 100) for c in range(7)}
            rows.append((cov, k < 501, rng.uniform(0, 80)))
        ds = dataset_from(rows)
        rules = [CovariateRule(f"x{c}", "caliper", tolerance=8.0) for c in range(7)]
        start = time.perf_counter()
        mm = build_match_matrix(ds, rules)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert mm.n_treated == 501
        assert mm.n_control == 529
        # spot-check a handful of pairs against the rule definition
        treated = [u for u in ds.units if u.treatment]
        control = [u for u in ds.units if not u.treatment]
        for i, j in zip(mm.rows[:20].tolist(), mm.cols[:20].tolist()):
            assert all(
                abs(treated[i].covariates[r.column] - control[j].covariates[r.column])
                <= r.tolerance
                for r in rules
            )


class TestCoordinateDump:
    def test_sorted_lines(self, tmp_path):
        em = make_em({(1, 0): 2.5, (0, 1): -1.0, (0, 0): 3.0})
        path = tmp_path / "dump.txt"
        write_coordinate_list(em, path)
        lines = path.read_text().splitlines()
        assert lines == ["0,0,3.0", "0,1,-1.0", "1,0,2.5"]
