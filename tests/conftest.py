"""Shared fixtures and independent oracles for the test suite.

The brute-force helpers here are deliberately written as different
algorithms from the library code they check: assignment enumeration
goes through itertools (not backtracking), the Z formula goes through
mean/variance (not S/Q), and the normal tail goes through Simpson
quadrature (not erfc).
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

import robustz.hungarian as hungarian
from robustz.matching import EffectMatrix


def make_em(effects, n_treated=None, n_control=None) -> EffectMatrix:
    return EffectMatrix.from_effects(
        {k: float(v) for k, v in effects.items()}, n_treated, n_control
    )


def z_by_mean_std(values) -> float:
    """Independent Z route: sqrt(n) * mean / population std."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    if var <= 0.0:
        if mean > 0.0:
            return math.inf
        if mean < 0.0:
            return -math.inf
        return 0.0
    return math.sqrt(n) * mean / math.sqrt(var)


def all_assignments(em: EffectMatrix, n: int):
    """Every n-pair one-to-one assignment, via itertools enumeration."""
    eligible = set(zip(em.match.rows.tolist(), em.match.cols.tolist()))
    rows = sorted({i for i, _ in eligible})
    cols = sorted({j for _, j in eligible})
    for row_combo in itertools.combinations(rows, n):
        for col_combo in itertools.permutations(cols, n):
            pairs = tuple(zip(row_combo, col_combo))
            if all(p in eligible for p in pairs):
                yield frozenset(pairs)


def brute_force_extrema(em: EffectMatrix, n: int):
    """(z_min, z_max) over all assignments, or None when none exist."""
    z_min = z_max = None
    for pairs in all_assignments(em, n):
        z = z_by_mean_std([em.effect[p] for p in pairs])
        if z_min is None or z < z_min:
            z_min = z
        if z_max is None or z > z_max:
            z_max = z
    if z_min is None:
        return None
    return z_min, z_max


def max_matching_size(em: EffectMatrix) -> int:
    """Maximum bipartite matching by plain augmenting-path search."""
    adj: dict[int, list[int]] = {}
    for i, j in zip(em.match.rows.tolist(), em.match.cols.tolist()):
        adj.setdefault(i, []).append(j)
    match_col: dict[int, int] = {}

    def augment(i, seen):
        for j in adj.get(i, []):
            if j in seen:
                continue
            seen.add(j)
            if j not in match_col or augment(match_col[j], seen):
                match_col[j] = i
                return True
        return False

    size = 0
    for i in adj:
        if augment(i, set()):
            size += 1
    return size


def simpson_upper_tail(z: float, steps: int = 40000) -> float:
    """Quadrature oracle for P(N(0,1) > z), |z| <= 12."""
    def density(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    a, b = 0.0, abs(z)
    if b == 0.0:
        return 0.5
    h = (b - a) / steps
    total = density(a) + density(b)
    for k in range(1, steps):
        total += density(a + k * h) * (4 if k % 2 else 2)
    integral = total * h / 3.0
    return 0.5 - integral if z > 0 else 0.5 + integral


def random_instance(rng: random.Random, max_side: int = 5, n_lo: int = 2,
                    n_hi: int = 4, density: float | None = None,
                    lo: float = -10.0, hi: float = 10.0):
    """Random sparse effect matrix plus a compatible pair count."""
    nt = rng.randint(2, max_side)
    nc = rng.randint(2, max_side)
    dens = density if density is not None else rng.uniform(0.5, 1.0)
    effects = {}
    for i in range(nt):
        for j in range(nc):
            if rng.random() < dens:
                effects[(i, j)] = rng.uniform(lo, hi)
    n = rng.randint(n_lo, min(n_hi, max(n_lo, min(nt, nc))))
    return make_em(effects, nt, nc), n


def count_pass_starts(monkeypatch) -> list[bool]:
    """From now on, record the ``negate`` flag of every assignment-solver pass started."""
    calls = []
    original = hungarian.CostMatching

    def counted(em, negate):
        calls.append(negate)
        return original(em, negate)

    monkeypatch.setattr(hungarian, "CostMatching", counted)
    return calls


@pytest.fixture
def rng():
    return random.Random(20240817)
