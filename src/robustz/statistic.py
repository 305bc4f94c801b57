"""Pair statistics, the Z statistic, its level roots, and P-values.

For an assignment of n matched pairs with effects v_1..v_n:

    S = sum(v_k)          Q = sum(v_k^2)
    sigma_hat = sqrt(Q/n - (S/n)^2)
    Z = (S / sqrt(n)) / sigma_hat

The extremal level gamma attainable by an assignment satisfies the
quadratic relation (n * gamma^2 / (n + gamma^2)) * Q = S^2, whose roots
are gamma = +/- sqrt(n S^2 / (n Q - S^2)); |gamma| equals |Z| of the same
assignment, which gives an independent cross-check of both formulas.

Degenerate assignments (sigma_hat = 0) are kept as limits of the
statistic: Z is +inf for S > 0, -inf for S < 0 and 0 for S = 0. The
one-sided P-value of a test statistic z is the upper tail of the
standard normal distribution, P(N(0,1) > z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .matching import EffectMatrix

_SQRT2 = math.sqrt(2.0)


class DegenerateStatisticError(ValueError):
    """Signals that n*Q == S^2, where the level roots escape to infinity."""


@dataclass(frozen=True)
class Assignment:
    """A one-to-one selection of eligible (treated, control) pairs."""

    pairs: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PairStats:
    S: float
    Q: float
    n: int
    sigma_hat: float
    degenerate: bool


@dataclass(frozen=True)
class TestResult:
    """Both extremal directions of the robust test at one pair count."""

    n: int
    z_min: float
    z_max: float
    case_used_min: str
    case_used_max: str
    p_min: float
    p_max: float
    classification: str
    assignment_min: Assignment
    assignment_max: Assignment
    degenerate_min: bool
    degenerate_max: bool


def validate_assignment(a: Assignment, em: EffectMatrix) -> None:
    """Check one-to-one structure and eligibility of every pair."""
    rows = set()
    cols = set()
    for i, j in a.pairs:
        try:
            em.match.positions([i], [j])
        except KeyError:
            raise ValueError(f"pair ({i}, {j}) is not eligible") from None
        if i in rows:
            raise ValueError(f"treated index {i} used twice")
        if j in cols:
            raise ValueError(f"control index {j} used twice")
        rows.add(i)
        cols.add(j)


def stats_from_values(values: Iterable[float]) -> PairStats:
    """S, Q and sigma_hat of the values, taken in any order.

    ``math.fsum`` rounds each sum correctly, so S and Q (a sum of squares each
    rounded on its own) do not depend on the order; a zero sum is +0.0.
    """
    vals = list(values)
    count = len(vals)
    S = math.fsum(vals)
    Q = math.fsum(v * v for v in vals)
    disc = count * Q - S * S
    if disc <= 0.0:
        return PairStats(S=S, Q=Q, n=count, sigma_hat=0.0, degenerate=True)
    variance = Q / count - (S / count) ** 2
    sigma = math.sqrt(variance) if variance > 0.0 else 0.0
    return PairStats(S=S, Q=Q, n=count, sigma_hat=sigma, degenerate=sigma == 0.0)


def z_statistic(stats: PairStats) -> float:
    """Z = (S/sqrt(n)) / sigma_hat, with signed-infinity degenerate limits."""
    if stats.n < 2:
        raise ValueError(f"Z statistic needs n >= 2, got n={stats.n}")
    if stats.degenerate:
        if stats.S > 0.0:
            return math.inf
        if stats.S < 0.0:
            return -math.inf
        return 0.0
    return (stats.S / math.sqrt(stats.n)) / stats.sigma_hat


def gamma_roots(S: float, Q: float, n: int) -> tuple[float, float]:
    """Both roots of the extremal-level quadratic, (gamma_min, gamma_max).

    Raises DegenerateStatisticError when n*Q - S^2 <= 0 (the roots are
    unbounded; callers map this onto the signed-infinity conventions).
    """
    disc = n * Q - S * S
    if disc <= 0.0:
        raise DegenerateStatisticError(f"n*Q - S^2 = {disc!r} is not positive")
    root = math.sqrt(n * S * S / disc)
    return (-root, root)


def normal_upper_tail(z: float) -> float:
    """P(N(0,1) > z) via the complementary error function."""
    if math.isinf(z):
        return 0.0 if z > 0 else 1.0
    return 0.5 * math.erfc(z / _SQRT2)


def normal_upper_tail_inverse(p: float) -> float:
    """z with normal_upper_tail(z) = p."""
    # imported here, its only reader: ``statistics`` pulls in ``fractions``
    # and ``decimal``, which would cost every start of the package
    from statistics import NormalDist

    if not 0.0 < p < 1.0:
        raise ValueError(f"tail probability must be in (0, 1), got {p!r}")
    return -NormalDist().inv_cdf(p)


def p_values(z_max: float, z_min: float) -> tuple[float, float]:
    """(p_min, p_max) = upper tails of z_max and z_min respectively."""
    if z_min > z_max:
        raise ValueError(f"z_min={z_min!r} exceeds z_max={z_max!r}")
    return normal_upper_tail(z_max), normal_upper_tail(z_min)


ABSOLUTE_ROBUST = "absolute_robust"
ALPHA_ROBUST = "alpha_robust"
NOT_ROBUST = "not_robust"

_ABSOLUTE_TOL = 1e-12


def classify_robustness(p_min: float, p_max: float, alpha: float) -> str:
    """Robustness class of the P-value interval at significance alpha."""
    if not 0.0 <= p_min <= p_max <= 1.0:
        raise ValueError(f"invalid P-value interval [{p_min!r}, {p_max!r}]")
    if p_max - p_min <= _ABSOLUTE_TOL:
        return ABSOLUTE_ROBUST
    if p_max - p_min <= alpha:
        return ALPHA_ROBUST
    return NOT_ROBUST


@dataclass(frozen=True)
class RobustnessMargin:
    """How far a statistic sits above the rejection threshold."""

    z_critical: float
    absolute_margin: float
    relative_margin: float | None


def robustness_margin(z: float, alpha: float) -> RobustnessMargin:
    """Maximum allowable optimality gap before the inference at alpha flips.

    ``absolute_margin = z - z_crit`` and ``relative_margin`` is that gap as
    a fraction of z (None when z == 0).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    z_crit = normal_upper_tail_inverse(alpha)
    absolute = z - z_crit
    relative = absolute / z if z != 0.0 else None
    return RobustnessMargin(z_critical=z_crit, absolute_margin=absolute, relative_margin=relative)
