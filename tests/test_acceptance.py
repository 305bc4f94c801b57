"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <id>: PASS`` line on success (run
with ``pytest -s`` to see them against a live terminal). Criterion 6
needs the two public study datasets on disk (see README and
``scripts/fetch_datasets.py``) and skips with an explicit message when
they are absent.
"""

import math
import os
import random
import time

import numpy as np
import pytest

from robustz.data_io import load_config, load_dataset
from robustz.greedy import build_sorted_list, greedy_max, greedy_min
from robustz.hungarian import hungarian_min
from robustz.matching import EffectMatrix, build_effect_matrix, build_match_matrix
from robustz.oracle import enumerate_extrema
from robustz.orchestrator import (
    find_max_feasible_n,
    run_test,
    solve,
)
from robustz.qip_export import export_qip
from robustz.statistic import (
    classify_robustness,
    gamma_roots,
    normal_upper_tail,
    stats_from_values,
    validate_assignment,
    z_statistic,
)

from conftest import all_assignments, make_em, simpson_upper_tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "data")
CONFIG_DIR = os.path.join(ROOT, "configs")


def _report(tag, detail=""):
    print(f"ACCEPTANCE {tag}: PASS {detail}".rstrip())


def _rel_slack(*values, tol=1e-9):
    return tol * max(1.0, *(abs(v) for v in values if math.isfinite(v)))


def test_criterion_1_oracle_sandwich():
    """Greedy results are feasible, bracketed by exhaustive extrema, and mostly reach them."""
    rng = random.Random(101)
    start = time.perf_counter()
    instances = 0
    exact = 0
    trials = 0
    while instances < 200:
        trials += 1
        assert trials < 5000, "instance generator starved"
        nt, nc = rng.randint(2, 5), rng.randint(2, 5)
        density = rng.uniform(0.5, 1.0)
        effects = {
            (i, j): rng.uniform(-10, 10)
            for i in range(nt)
            for j in range(nc)
            if rng.random() < density
        }
        n = rng.choice([2, 3, 4])
        if n > min(nt, nc) or len(effects) < n:
            continue
        em = make_em(effects, nt, nc)
        lo = solve(em, n, "min")
        hi = solve(em, n, "max")
        if lo.assignment is None:
            assert hi.assignment is None
            continue
        oracle = enumerate_extrema(em, n)
        for sol in (lo, hi):
            validate_assignment(sol.assignment, em)
            assert sol.assignment.n == n
            if sol.case.endswith("case1"):
                assert sol.stats.S >= 0.0
            elif sol.case.endswith("case2"):
                assert sol.stats.S <= 0.0
        z_lo, z_hi = z_statistic(lo.stats), z_statistic(hi.stats)
        assert oracle.z_min <= z_lo + _rel_slack(oracle.z_min, z_lo)
        assert z_hi <= oracle.z_max + _rel_slack(oracle.z_max, z_hi)
        # any valid witness passes the sandwich; the count of witnesses that
        # reach the oracle's extreme is what can show a poor one
        exact += abs(z_lo - oracle.z_min) <= _rel_slack(oracle.z_min, z_lo)
        exact += abs(z_hi - oracle.z_max) <= _rel_slack(oracle.z_max, z_hi)
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert exact >= 230, exact
    _report(1, f"({instances} instances, {exact} of {2 * instances} witnesses exact, "
               f"{elapsed:.1f}s)")


def test_criterion_2_restricted_optimality():
    """Forced same-sign identical-row blocks: greedy equals the oracle."""
    rng = random.Random(202)
    start = time.perf_counter()
    for trial in range(50):
        n = rng.randint(2, 4)
        sign = -1.0 if trial % 2 == 0 else 1.0
        treated_level = rng.uniform(5.0, 9.0)
        controls = [treated_level - sign * rng.uniform(0.5, 4.0) for _ in range(n)]
        effects = {
            (i, j): treated_level - controls[j] for i in range(n) for j in range(n)
        }
        em = make_em(effects, n, n)
        oracle = enumerate_extrema(em, n)
        if sign < 0:  # all effects negative: minimization, quadratic case 2
            sol = greedy_min(build_sorted_list(em), n, "case2")
            assert sol.assignment is not None
            assert z_statistic(sol.stats) == pytest.approx(oracle.z_min, abs=1e-9)
        else:  # all effects positive: maximization, quadratic case 1
            sol = greedy_max(build_sorted_list(em), n, "case1")
            assert sol.assignment is not None
            assert z_statistic(sol.stats) == pytest.approx(oracle.z_max, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, f"(50 instances, {elapsed:.1f}s)")


def test_criterion_3_hungarian_exactness():
    """Assignment totals equal permutation brute force, exactly."""
    import itertools

    rng = random.Random(303)
    start = time.perf_counter()
    for trial in range(500):
        k = rng.randint(2, 7)
        costs = {(i, j): rng.uniform(-100, 100) for i in range(k) for j in range(k)}
        em = make_em(costs, k, k)
        best = min(
            math.fsum(costs[(i, p)] for i, p in enumerate(perm))
            for perm in itertools.permutations(range(k))
        )
        m = hungarian_min(em)
        assert em.pair_stats(m.assignment(m.cardinality).pairs).S == best
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"(500 matrices, {elapsed:.1f}s)")


def test_criterion_4_gamma_z_consistency_and_reflection():
    """Level roots match |Z| and the two directions mirror exactly."""
    rng = random.Random(404)
    for _ in range(10_000):
        vals = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 5))]
        stats = stats_from_values(vals)
        if stats.degenerate:
            continue
        _, hi = gamma_roots(stats.S, stats.Q, stats.n)
        z = abs(z_statistic(stats))
        assert abs(hi - z) <= _rel_slack(hi, z)

    mirrored = 0
    for _ in range(1000):
        nt, nc = rng.randint(2, 5), rng.randint(2, 5)
        effects = {
            (i, j): rng.uniform(-10, 10)
            for i in range(nt)
            for j in range(nc)
            if rng.random() < 0.7
        }
        n = rng.choice([2, 3])
        em = make_em(effects, nt, nc)
        neg = make_em({k: -v for k, v in effects.items()}, nt, nc)
        hi = solve(em, n, "max")
        lo = solve(neg, n, "min")
        if hi.assignment is None:
            assert lo.assignment is None
            continue
        z_hi, z_lo = z_statistic(hi.stats), z_statistic(lo.stats)
        assert z_hi == -z_lo or z_hi == z_lo == 0.0
        mirrored += 1
    assert mirrored > 500
    _report(4, f"(10000 assignments, {mirrored} mirrored instances)")


def test_criterion_5_normal_tail():
    """Exact half point, quadrature agreement, grid monotonicity."""
    assert normal_upper_tail(0.0) == 0.5
    assert abs(normal_upper_tail(1.959964) - 0.025) <= 1e-6
    assert normal_upper_tail(1.959964) == pytest.approx(
        simpson_upper_tail(1.959964), abs=1e-10
    )
    zs = [-8 + 16 * k / 999 for k in range(1000)]
    tails = [normal_upper_tail(z) for z in zs]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    _report(5)


def _load_study(config_name, data_file):
    data_path = os.path.join(DATA_DIR, data_file)
    if not os.path.exists(data_path):
        pytest.skip(
            f"{data_file} not present; run scripts/fetch_datasets.py "
            "(needs network) and re-run"
        )
    config = load_config(os.path.join(CONFIG_DIR, config_name))
    dataset = load_dataset(config.data_path, config)
    match = build_match_matrix(dataset, list(config.covariate_rules))
    return config, dataset, match, build_effect_matrix(match, dataset)


def test_criterion_6_concrete_reproduction():
    """Concrete study: structural counts exact, statistics best effort."""
    config, dataset, match, em = _load_study("concrete.json", "concrete.csv")
    assert sum(u.treatment for u in dataset.units) == 501
    assert sum(not u.treatment for u in dataset.units) == 529
    assert match.matched_treated == 68
    assert match.matched_control == 60
    assert match.nnz == 146
    result = run_test(em, 20, config.alpha)
    assert result.z_max == pytest.approx(12.257, rel=0.05)
    assert result.z_min == pytest.approx(0.927, abs=0.1)
    assert find_max_feasible_n(em) == 38
    _report("6a", f"(concrete: nnz=146, z_max={result.z_max:.3f}, "
                  f"z_min={result.z_min:.3f})")


def test_criterion_6_bike_reproduction():
    """Bike study: eligibility size exact, statistics best effort."""
    config, dataset, match, em = _load_study("bike.json", "bike_day.csv")
    assert match.nnz == 326
    result = run_test(em, 50, config.alpha)
    assert result.z_max == pytest.approx(6.9736, rel=0.05)
    assert result.z_min == pytest.approx(-11.5334, rel=0.05)
    _report("6b", f"(bike: nnz=326, z_max={result.z_max:.4f}, "
                  f"z_min={result.z_min:.4f})")


def _synthetic_instance(nnz, n_treated, n_control, seed):
    gen = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < nnz:
        draw = gen.integers(0, n_treated * n_control, size=nnz + nnz // 4)
        for code in draw.tolist():
            pairs.add(code)
            if len(pairs) == nnz:
                break
    codes = np.fromiter(pairs, dtype=np.int64, count=nnz)
    values = gen.uniform(-100.0, 100.0, size=nnz)
    effects = {}
    for code, value in zip(codes.tolist(), values.tolist()):
        effects[(code // n_control, code % n_control)] = value
    return EffectMatrix.from_effects(effects, n_treated, n_control)


def test_criterion_7_scalability():
    """Large-instance wall time, and per-pair cost that does not grow with list size."""
    em = _synthetic_instance(350_000, 35_000, 27_000, seed=7)
    start = time.perf_counter()
    result = run_test(em, 3_800, 0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    assert result.z_min <= result.z_max

    sizes = [10_000, 20_000, 40_000, 80_000]
    n = 50
    warmup = _synthetic_instance(sizes[0], sizes[0] // 20, sizes[0] // 20, seed=1)
    solve(warmup, n, "min")
    solve(warmup, n, "max")
    constants = []
    for nnz in sizes:
        side = nnz // 20
        em_k = _synthetic_instance(nnz, side, side, seed=nnz)
        solve(em_k, n, "min")  # untimed: sorts as much of the cached list as the timed solves read
        solve(em_k, n, "max")
        samples = []
        for _ in range(3):
            # one sub-millisecond pair is at the mercy of a scheduler stall
            t0 = time.perf_counter()
            for _ in range(50):
                lo = solve(em_k, n, "min")
                hi = solve(em_k, n, "max")
            samples.append((time.perf_counter() - t0) / 50)
            assert lo.assignment is not None
            assert hi.assignment is not None
        t = sorted(samples)[1]
        constants.append(t / (max(n, math.log(nnz)) * nnz))
    # bounds growth only: a walk whose per-pair cost falls with size passes
    for k in range(1, len(constants)):
        assert constants[k] <= 2.0 * min(constants[:k]), constants
    _report(7, f"(350k instance in {elapsed:.1f}s; scaling constants "
               f"{[f'{c:.2e}' for c in constants]})")


def test_criterion_8_robustness_semantics():
    """All three classifications arise from constructed fixtures."""
    assert classify_robustness(0.3, 0.3, 0.05) == "absolute_robust"

    absolute = make_em({(0, 0): -4, (0, 1): -2, (1, 0): -3, (1, 1): -1})
    res = run_test(absolute, 2, 0.05)
    assert res.p_min == res.p_max
    assert res.classification == "absolute_robust"

    # min ladder pairs 1 with 5.828427 (Z=2), max takes {30, 10} (Z=2.83)
    alpha_fixture = make_em({(0, 0): 1.0, (0, 1): 30.0, (1, 0): 10.0,
                             (1, 1): 5.828427})
    res = run_test(alpha_fixture, 2, 0.05)
    assert res.p_min < res.p_max
    assert res.p_max - res.p_min <= 0.05
    assert res.classification == "alpha_robust"

    mixed = make_em({(0, 0): -5.0, (0, 1): 4.0, (1, 0): 3.0, (1, 1): -6.0})
    res = run_test(mixed, 2, 0.05)
    assert res.p_max - res.p_min > 0.05
    assert res.classification == "not_robust"
    _report(8)


def test_criterion_9_qip_round_trip():
    """Exported objectives reproduce the coupled S/Q expression."""
    rng = random.Random(909)
    combos = [("min", "case1"), ("min", "case2"), ("max", "case1"), ("max", "case2")]
    checked = 0
    while checked < 100:
        nt, nc = rng.randint(2, 4), rng.randint(2, 4)
        effects = {
            (i, j): rng.uniform(-10, 10)
            for i in range(nt)
            for j in range(nc)
            if rng.random() < 0.8
        }
        n = 2
        em = make_em(effects, nt, nc)
        assignments = list(all_assignments(em, n))
        if not assignments:
            continue
        pairs = assignments[rng.randrange(len(assignments))]
        vec = {p: 1.0 for p in pairs}
        direction, case = combos[checked % 4]
        spec = export_qip(em, n, direction, case)
        stats = stats_from_values(em.effect[p] for p in sorted(pairs))
        coupled = stats.Q - stats.S**2
        if (direction, case) in (("min", "case2"), ("max", "case1")):
            coupled = -coupled
        got = spec.evaluate_objective(vec)
        assert abs(got - coupled) <= _rel_slack(got, coupled)
        flags = spec.check_constraints(vec)
        assert flags["structural"]
        checked += 1
    _report(9, "(100 vectors)")
