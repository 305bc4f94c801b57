"""Good-match eligibility and treatment-effect matrices.

A matched-pair study starts from a bipartite eligibility structure over
(treated, control) units: pair (i, j) is eligible when every covariate
rule holds. Eligibility is kept sparse, as two index arrays ``rows`` and
``cols`` in (i, j) order that the MatchMatrix owns; the finite per-pair
treatment effects ``y_t[i] - y_c[j]`` are a column aligned with them,
built once for every later layer, so a zero-valued effect stays
distinguishable from "not a match".

The eligibility build never visits a pair that differs on an exact
column, and visits only the pairs inside each treated unit's window on
the first caliper: controls are sorted by (exact group, first caliper
value), each treated unit gets its window from one ``searchsorted``, and
the candidates of the windows are filtered by every caliper in numpy,
a bounded chunk of candidates at a time.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .statistic import PairStats, stats_from_values

if TYPE_CHECKING:
    from .data_io import Dataset


class MatchingError(ValueError):
    """Raised when covariate rules cannot be applied to the data."""


# Largest accepted effect magnitude: below it n*S*S, n*Q and (S/n)**2 stay
# finite for every n < 1e36, above it they (or fsum) can overflow.
MAX_EFFECT = 1e100

# Largest accepted integer caliper value: below it the float64 difference of
# two such ints is exact, as Python's int difference is; 2**53 and
# -(2**52 + 1) are 3*2**52 + 1 apart, which float64 rounds to 3*2**52.
MAX_CALIPER_INT = 2**52

# Candidate pairs filtered per pass of the eligibility build. Rows are never
# split, so one treated unit with a wider window is a pass of its own.
_CHUNK = 2**16

# Relative widening of a caliper window. The bounds x - tol and x + tol are
# rounded, and so is the filter's |x - c|, each by at most (|x| + tol) * 2**-53;
# a window widened by (|x| + tol) * 2**-48 holds every control the filter
# accepts (1.1 - 1 > 0.1 in floats, yet |1.1 - 0.1| <= 1).
_MARGIN = 2.0**-48


_NUMERIC = (int, float)


@dataclass(frozen=True)
class CovariateRule:
    """One eligibility criterion on a single covariate column.

    ``exact`` requires equal values (numeric or categorical);
    ``caliper`` requires ``|x_i - x_j| <= tolerance`` on numeric values.
    The caliper bound is inclusive.
    """

    column: str
    kind: str  # "exact" or "caliper"
    tolerance: float | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "caliper"):
            raise MatchingError(f"unknown rule kind {self.kind!r} for column {self.column!r}")
        if self.kind == "caliper":
            if (self.tolerance is None or isinstance(self.tolerance, bool)
                    or not isinstance(self.tolerance, _NUMERIC)):
                raise MatchingError(f"caliper rule for {self.column!r} needs a numeric tolerance")
            if not self.tolerance >= 0:  # NaN as well
                raise MatchingError(f"caliper tolerance for {self.column!r} must be >= 0")
        elif self.tolerance is not None:
            raise MatchingError(f"exact rule for {self.column!r} does not take a tolerance")


def _int64_pairs(rows: np.ndarray, cols: np.ndarray, error) -> tuple[np.ndarray, np.ndarray]:
    """rows and cols as int64; raises ``error(pair)`` for the first pair not two int64 integers."""
    if rows.dtype.kind != "i" or cols.dtype.kind != "i":  # read pair by pair: 0.5, "1", 2**70 fail
        for pair in zip(rows.tolist(), cols.tolist()):
            if not all(isinstance(x, int) and -2**63 <= x < 2**63 for x in pair):
                raise error(pair)
    return rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)


class MatchMatrix:
    """Sparse bipartite eligibility over treated rows x control columns.

    The eligible pairs are the int64 arrays ``rows`` and ``cols`` in strictly
    increasing (i, j) order, those of row i at ``row_start[i]:row_start[i + 1]``;
    ``positions`` finds pairs by their codes ``i * n_control + j``, which the
    constructor builds to check that order. This class owns that format:
    every later layer indexes these arrays.

    A side given as a count instead of ids has the synthetic ids ``t0, t1, ...``
    (treated) or ``c0, c1, ...`` (control), built when they are first read.
    """

    def __init__(self, treated_ids: tuple[str, ...] | int, control_ids: tuple[str, ...] | int,
                 rows, cols):
        nt, nc = (ids if isinstance(ids, int) else len(ids) for ids in (treated_ids, control_ids))
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise MatchingError(f"rows and cols need one 1-D shape, got {rows.shape}, {cols.shape}")
        rows, cols = _int64_pairs(
            rows, cols, lambda pair: MatchingError(f"eligible pair {pair} is not two integers"))
        out = np.flatnonzero((rows < 0) | (rows >= nt) | (cols < 0) | (cols >= nc))
        if len(out):
            k = out[0]
            raise MatchingError(f"eligible pair ({rows[k]}, {cols[k]}) out of range {nt}x{nc}")
        code = rows * nc + cols
        bad = np.flatnonzero(np.diff(code) <= 0)  # neither distinct nor in (i, j) order
        if len(bad):
            k = bad[0] + 1
            what = "repeated" if code[k] == code[k - 1] else "out of (i, j) order"
            raise MatchingError(f"eligible pair ({rows[k]}, {cols[k]}) {what}")
        self._ids = {"t": treated_ids, "c": control_ids}
        self.n_treated, self.n_control = nt, nc
        self.rows, self.cols, self._codes = rows, cols, code
        self.row_start = np.searchsorted(rows, np.arange(nt + 1))

    def _read_ids(self, side: str) -> tuple[str, ...]:
        ids = self._ids[side]
        if isinstance(ids, int):
            ids = self._ids[side] = tuple(f"{side}{k}" for k in range(ids))
        return ids

    @property
    def treated_ids(self) -> tuple[str, ...]:
        return self._read_ids("t")

    @property
    def control_ids(self) -> tuple[str, ...]:
        return self._read_ids("c")

    @property
    def nnz(self) -> int:
        return len(self.rows)

    @property
    def matched_treated(self) -> int:
        """Number of distinct treated rows with at least one eligible pair."""
        return int(np.count_nonzero(np.diff(self.row_start)))

    @property
    def matched_control(self) -> int:
        """Number of distinct control columns with at least one eligible pair."""
        return int(np.count_nonzero(np.bincount(self.cols, minlength=self.n_control)))

    def positions(self, rows, cols) -> np.ndarray:
        """Indices of eligible pairs (rows[k], cols[k]); KeyError for the first other pair.

        One ``searchsorted`` over the pairs' increasing (i, j) codes; a pair
        that is not two int64 integers (0.5, "1", 2**70) is never eligible.
        """
        rows, cols = _int64_pairs(np.asarray(rows), np.asarray(cols), KeyError)
        nc = self.n_control
        want = rows * nc + cols
        found = np.searchsorted(self._codes, want)
        ok = (rows >= 0) & (rows < self.n_treated) & (cols >= 0) & (cols < nc) & (found < self.nnz)
        ok[ok] = self._codes[found[ok]] == want[ok]
        bad = np.flatnonzero(~ok)
        if len(bad):
            raise KeyError((rows[bad[0]].item(), cols[bad[0]].item()))
        return found


class EffectMatrix:
    """Treatment effects of the eligible pairs of a MatchMatrix, as a column.

    ``values[k]`` is the effect of pair ``(match.rows[k], match.cols[k])``;
    an effect that is not finite or exceeds ``MAX_EFFECT`` in magnitude
    raises MatchingError. ``values`` is read-only and a matrix is never
    modified, so what is derived from it alone (the sorted list, one solver
    pass per direction, ``effect``) is built on first use into its
    ``derived`` dict and kept for its life. No stored value refers back to
    the matrix; a pickle or copy starts with an empty store (a suspended
    pass is a generator, which does not pickle).
    """

    def __init__(self, match: MatchMatrix, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (match.nnz,):
            raise MatchingError(f"effect column has shape {values.shape}, expected ({match.nnz},)")
        bad = np.flatnonzero(~(np.abs(values) <= MAX_EFFECT))  # NaN fails the test too
        if len(bad):
            k, v = bad[0], values[bad[0]].item()
            what = (f"is not finite: {v!r}" if not math.isfinite(v)
                    else f"exceeds {MAX_EFFECT:g} in magnitude: {v!r}")
            raise MatchingError(f"effect of pair ({match.rows[k]}, {match.cols[k]}) {what}")
        # a read-only view: the caller's own array keeps its flags
        self.match, self.values = match, values.view()
        self.values.setflags(write=False)
        self.nnz, self.n_treated, self.n_control = match.nnz, match.n_treated, match.n_control
        self.derived: dict = {}

    def __getstate__(self):
        return {**self.__dict__, "derived": {}}

    @property
    def effect(self) -> Mapping[tuple[int, int], float]:
        """Read-only (i, j) -> effect dict of every eligible pair, built on first read."""
        if "effect" not in self.derived:
            pairs = zip(self.match.rows.tolist(), self.match.cols.tolist())
            self.derived["effect"] = MappingProxyType(dict(zip(pairs, self.values.tolist())))
        return self.derived["effect"]

    def pair_stats(self, pairs: Iterable[tuple[int, int]]) -> PairStats:
        """S, Q, n and sigma_hat of the effects of eligible pairs, given in any order."""
        ij = np.array(list(pairs)).reshape(-1, 2)
        return stats_from_values(self.values[self.match.positions(ij[:, 0], ij[:, 1])].tolist())

    @classmethod
    def from_effects(cls, effects: Mapping[tuple[int, int], float],
                     n_treated: int | None = None,
                     n_control: int | None = None) -> "EffectMatrix":
        """Build a standalone matrix from an index->effect map (synthetic ids, built on first read)."""
        nnz = len(effects)
        rows, cols = (np.fromiter(map(itemgetter(side), effects), dtype=np.int64, count=nnz)
                      for side in (0, 1))
        nt = int(n_treated) if n_treated is not None else int(rows.max(initial=-1)) + 1
        nc = int(n_control) if n_control is not None else int(cols.max(initial=-1)) + 1
        by_ij = np.argsort(rows * nc + cols)  # the map's keys are distinct
        mm = MatchMatrix(nt, nc, rows[by_ij], cols[by_ij])
        return cls(mm, np.fromiter(effects.values(), dtype=np.float64, count=nnz)[by_ij])


@dataclass(frozen=True)
class Block:
    """One connected component of the eligibility graph."""

    treated: tuple[int, ...]
    control: tuple[int, ...]
    identical_rows: bool


def _value_key(v):
    # numeric values compare as numbers, everything else as exact strings
    if isinstance(v, _NUMERIC):
        return ("n", float(v))
    return ("s", v)


_MISSING = object()


def _rule_column(rule: CovariateRule, units) -> list:
    """The rule's value for every unit, in unit order, checked as it is read.

    The first unit whose value the rule cannot use raises MatchingError: a
    missing value, NaN (it compares unequal to everything and passes no
    ``> tol`` test, so a NaN caliper value would match every control), and
    for a caliper a non-numeric value, an infinity (inf - inf is NaN as
    well) or an integer beyond ``MAX_CALIPER_INT``.
    """
    column, caliper = rule.column, rule.kind == "caliper"
    values = []
    for unit in units:
        value = unit.covariates.get(column, _MISSING)
        if value is _MISSING:
            raise MatchingError(f"unit {unit.id!r} has no value for column {column!r}")
        if caliper and not isinstance(value, _NUMERIC):
            raise MatchingError(
                f"caliper rule on categorical column {column!r} "
                f"(unit {unit.id!r} has non-numeric value)"
            )
        if isinstance(value, float) and (math.isnan(value) or caliper and math.isinf(value)):
            raise MatchingError(
                f"unit {unit.id!r} has non-finite value {value!r} in column {column!r}")
        if caliper and isinstance(value, int) and abs(value) > MAX_CALIPER_INT:
            raise MatchingError(
                f"unit {unit.id!r} has integer value {value!r} beyond 2**52 "
                f"in caliper column {column!r}")
        values.append(value)
    return values


def build_match_matrix(dataset: Dataset, rules: list[CovariateRule]) -> MatchMatrix:
    """Evaluate covariate rules over the treated x control grid.

    Pair (i, j) is eligible iff every rule holds. Each unit's exact-column
    key becomes a group id, and the controls are sorted once by (group id,
    first caliper value). Treated unit i at value x, with that caliper's
    tolerance tol, takes the window of its group's controls whose value lies
    in ``[x - tol - m, x + tol + m]``, found with ``searchsorted`` for all
    units at once. The margin ``m = (|x| + tol) * 2**-48`` covers the rounding
    of the bounds, which alone would drop pairs the rule accepts, so a window
    may also hold a few pairs just outside the rule: every caliper, the first
    included, is then checked with the exact ``|x_i - x_j| <= tol``. Windows
    are expanded into (i, j) candidates ``_CHUNK`` at a time (whole rows per
    chunk) and each chunk is sorted back into (i, j) order.
    """
    if not rules:
        raise MatchingError("at least one covariate rule is required")
    units = dataset.units
    # one walk per rule, in rule order: the first bad unit named is the
    # first in (rule, file) order
    columns = [(rule, _rule_column(rule, units)) for rule in rules]
    is_treated = np.fromiter((u.treatment for u in units), dtype=bool, count=len(units))
    t_at, c_at = np.flatnonzero(is_treated), np.flatnonzero(~is_treated)
    nt, nc = len(t_at), len(c_at)

    exact = [map(_value_key, col) for rule, col in columns if rule.kind == "exact"]
    keys = zip(*exact) if exact else repeat((), len(units))
    groups: dict[tuple, int] = {}
    gid = np.fromiter((groups.setdefault(k, len(groups)) for k in keys),
                      dtype=np.int64, count=len(units))
    t_gid, c_gid = gid[t_at], gid[c_at]
    calipers = [(np.array(col, dtype=np.float64), float(rule.tolerance))
                for rule, col in columns if rule.kind == "caliper"]
    t_val = [col[t_at] for col, _ in calipers]
    c_val = [col[c_at] for col, _ in calipers]
    tols = [tol for _, tol in calipers]
    # the first caliper orders each group; without one a group is one window
    tx, cx, tol0 = (t_val[0], c_val[0], tols[0]) if calipers else (np.zeros(nt), np.zeros(nc), 0.0)

    # (group, value) as one int64 key: group id times width plus value rank
    distinct, c_rank = np.unique(cx, return_inverse=True)
    width = len(distinct) + 1
    key = c_gid * width + c_rank
    by_key = np.argsort(key)
    key = key[by_key]
    with np.errstate(over="ignore"):
        margin = (np.abs(tx) + tol0) * _MARGIN
        low, high = tx - tol0 - margin, tx + tol0 + margin
    lo = np.searchsorted(key, t_gid * width + np.searchsorted(distinct, low, "left"))
    hi = np.searchsorted(key, t_gid * width + np.searchsorted(distinct, high, "right"))

    counts = hi - lo
    ends = np.cumsum(counts)
    codes = []
    a = 0  # a Dataset has units on both sides
    while a < nt:
        done = int(ends[a - 1]) if a else 0
        b = max(int(np.searchsorted(ends, done + _CHUNK, "right")), a + 1)
        n_rows = counts[a:b]
        i = np.repeat(np.arange(a, b), n_rows)
        # candidate k of the chunk is entry k - first[row] of its row's window
        first = ends[a:b] - n_rows - done
        j = by_key[np.arange(len(i)) + np.repeat(lo[a:b] - first, n_rows)]
        with np.errstate(over="ignore"):
            for t, c, tol in zip(t_val, c_val, tols):
                keep = np.abs(t[i] - c[j]) <= tol
                i, j = i[keep], j[keep]
        codes.append(np.sort(i * nc + j))
        a = b
    rows, cols = np.divmod(np.concatenate(codes), nc)

    return MatchMatrix(tuple(units[k].id for k in t_at.tolist()),
                       tuple(units[k].id for k in c_at.tolist()), rows, cols)


def build_effect_matrix(match: MatchMatrix, dataset: Dataset) -> EffectMatrix:
    """Attach the effect y_t[i] - y_c[j] to every eligible pair."""
    by_id = {u.id: u for u in dataset.units}
    try:
        t_out = np.array([by_id[tid].outcome for tid in match.treated_ids], dtype=np.float64)
        c_out = np.array([by_id[cid].outcome for cid in match.control_ids], dtype=np.float64)
    except KeyError as exc:
        raise MatchingError(f"match matrix id {exc.args[0]!r} not found in dataset") from exc
    with np.errstate(over="ignore"):  # an overflow to inf is rejected as not finite
        values = t_out[match.rows] - c_out[match.cols]
    return EffectMatrix(match, values)


def partition_blocks(match: MatchMatrix) -> tuple[Block, ...]:
    """Connected components of the eligibility graph, by smallest treated row.

    Each block carries an ``identical_rows`` flag: true when every treated
    row in the block has the same eligible column set, which is exactly the
    structure that exact matching induces.
    """
    nt = match.n_treated
    parent = list(range(nt + match.n_control))  # union-find over rows, then columns

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    cols = match.cols.tolist()
    for i, j in zip(match.rows.tolist(), cols):
        parent[find(nt + j)] = find(i)  # j's root joins i's

    # rows and columns are visited ascending, so every component lists its
    # members ascending and the components come out by smallest treated row
    start = match.row_start.tolist()
    comp_t: dict[int, list[int]] = {}
    comp_c: dict[int, list[int]] = {}
    for i in np.flatnonzero(np.diff(match.row_start)).tolist():
        comp_t.setdefault(find(i), []).append(i)
    for j in np.unique(match.cols).tolist():
        comp_c.setdefault(find(nt + j), []).append(j)

    blocks = []
    for root, t_idx in comp_t.items():
        col_sets = {tuple(cols[start[i]:start[i + 1]]) for i in t_idx}
        blocks.append(Block(treated=tuple(t_idx), control=tuple(comp_c[root]),
                            identical_rows=len(col_sets) == 1))
    return tuple(blocks)


def write_coordinate_list(em: EffectMatrix, path) -> None:
    """Dump the eligibility structure as ``i,j,effect`` lines sorted by (i, j)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, v in zip(em.match.rows.tolist(), em.match.cols.tolist(), em.values.tolist()):
            fh.write(f"{i},{j},{v!r}\n")
