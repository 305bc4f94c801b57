#!/usr/bin/env python3
"""Print SHA-256 digests over the solver outputs and model files on seeded instances.

A refactor that must not change results runs this before and after the
change and compares the lines it prints: ``solvers sha256 ...`` covers
every solver output below, ``models sha256 ...`` the exported models
alone, so a change to the model file format can be shown to leave the
solver results alone. The instances are fixed by the seed, in two tiers:

* 1,500 small instances: 1-8 treated and control units, eligibility
  density U(0.1, 1), and effects drawn, one kind per instance, as
  U(-10, 10) floats, integers in [-3, 3] or values in {-1, -0.0, 0.0, 1,
  2} (the last two are tie-heavy; the signed zeros compare equal, so they
  share tie runs, and a zero effect sum must read +0.0 in both
  directions). Per instance the digest covers
  ``hungarian_min``/``hungarian_max`` (each pass's full matching,
  replayed from its log, as row-sorted (row, column, effect) triples,
  their ``math.fsum`` and the cardinality, then the search order it
  took: its ``augmentations`` log and ``live_pops``; the text is the
  repr the pass's former frozen record printed, so digests from before
  and after that record was merged into the pass compare equal),
  ``partition_blocks`` (blocks and ``identical_rows`` flags, printed as
  the repr of the one-field ``BlockPartition`` record it once returned),
  ``enumerate_extrema`` at n = 2 and 3,
  ``find_max_feasible_n``, and at n = 2..5 ``greedy_min``/``greedy_max``
  in both cases (with ``pair_stats`` of each greedy assignment's pairs in
  a seeded shuffled order), ``case3_selection`` on the matrix and on
  its ``negated()`` matrix, ``solve`` with every attempt it traced in
  both directions, and ``run_test``. The models
  digest covers, per instance, the LP lines, sidecar, objective value and
  constraint flags of the four quadratic models and two linear models at
  n = 2.
* 40 medium instances: 30-150 treated units and within 10 of that many
  controls, 2 to k eligible controls per treated unit with k drawn from
  2-8 per instance (11 of the maps are deficient: the maximum matching
  is smaller than both matched sides), in every fourth instance a few
  rows of 80-140 pairs (far wider than caliper matching usually gives,
  so the assignment solver's relaxation loop also runs on wide rows),
  and effects drawn as U(-100, 100), integers in [-3, 3] or U(-10, 10)
  rounded to 3 decimals. These have long alternating paths; the digest
  covers ``hungarian_min``/``hungarian_max`` (in the same text, also
  with their logs and ``live_pops``), ``run_test`` at n =
  maximum matching - {0, 2}, which reaches case 3 in both directions
  and, twice, the fallback, and at n = 10, 20 and 40 (each capped at
  the maximum matching) ``greedy_min``/``greedy_max`` in both cases,
  whose case-1 couples walks run for up to 20 rounds, and
  ``case3_selection`` on the matrix and its ``negated()`` matrix, whose
  replays run over long alternating paths.

Assignments enter as sorted pair lists, ladder attempts as their case,
pairs, stats and reason, and errors as their type and message.

Usage: python3 scripts/solver_digest.py   (takes no options)
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from robustz.greedy import Attempt, build_sorted_list, greedy_max, greedy_min  # noqa: E402
from robustz.hungarian import (CostMatching, case3_selection, hungarian_max,  # noqa: E402
                               hungarian_min)
from robustz.matching import EffectMatrix, partition_blocks  # noqa: E402
from robustz.oracle import enumerate_extrema  # noqa: E402
from robustz.orchestrator import find_max_feasible_n, run_test, solve  # noqa: E402
from robustz.qip_export import export_ilp, export_qip  # noqa: E402
from robustz.statistic import Assignment, TestResult  # noqa: E402

SEED = 20261018
INSTANCES = 1500
NS = (2, 3, 4, 5)
MEDIUM_SEED = 20261019
SHUFFLE_SEED = 20261020
MEDIUM_INSTANCES = 40
MEDIUM_NS = (10, 20, 40)


def _instance(rng: random.Random) -> EffectMatrix:
    nt, nc = rng.randint(1, 8), rng.randint(1, 8)
    density = rng.uniform(0.1, 1.0)
    kind = rng.randrange(3)
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
    return EffectMatrix.from_effects(effects, nt, nc)


def _medium_instance(rng: random.Random, index: int) -> EffectMatrix:
    nt = rng.randint(30, 150)
    nc = min(150, max(30, nt + rng.randint(-10, 10)))
    top = rng.randint(2, 8)
    kind = index % 3
    effects = {}
    for i in range(nt):
        degree = rng.randint(2, top)
        if index % 4 == 3 and i % 25 == 0:
            degree = rng.randint(80, 140)
        for j in rng.sample(range(nc), min(degree, nc)):
            if kind == 0:
                effects[(i, j)] = rng.uniform(-100.0, 100.0)
            elif kind == 1:
                effects[(i, j)] = float(rng.randint(-3, 3))
            else:
                effects[(i, j)] = round(rng.uniform(-10.0, 10.0), 3)
    return EffectMatrix.from_effects(effects, nt, nc)


def _cost_matching(em: EffectMatrix, m: CostMatching) -> str:
    """A full pass as its record printed before the pass became the record.

    The replay of the whole log, sorted by row, each pair with its
    ``em.values`` entry; their ``math.fsum`` and the cardinality; then the
    log and the pop count.
    """
    ij = sorted(m.assignment(m.cardinality).pairs)
    at = em.match.positions([i for i, _ in ij], [j for _, j in ij])
    pairs = tuple((i, j, v) for (i, j), v in zip(ij, em.values[at].tolist()))
    total = math.fsum(v for _, _, v in pairs)
    matching = f"CostMatching(pairs={pairs!r}, total_cost={total!r}, cardinality={m.cardinality!r})"
    return f"({matching}, {tuple(m.augmentations)!r}, {m.live_pops!r})"


def _partition(blocks) -> str:
    """The blocks as the repr of the one-field record they were once returned in."""
    return f"BlockPartition(blocks={blocks!r})"


def _canon(result) -> str:
    if isinstance(result, Attempt):
        pairs = None if result.assignment is None else sorted(result.assignment.pairs)
        return repr((result.case, pairs, result.stats, result.reason))
    if isinstance(result, Assignment):
        return repr(sorted(result.pairs))
    if isinstance(result, TestResult):
        fields = dict(vars(result))
        fields["assignment_min"] = sorted(result.assignment_min.pairs)
        fields["assignment_max"] = sorted(result.assignment_max.pairs)
        return repr(sorted(fields.items()))
    return repr(result)


def _call(fn, *args, canon=_canon) -> str:
    try:
        return canon(fn(*args))
    except Exception as exc:  # the error itself is part of the compared output
        return f"{type(exc).__name__}: {exc}"


def _full_passes(em: EffectMatrix) -> list[str]:
    return [_call(solver, em, canon=lambda m: _cost_matching(em, m))
            for solver in (hungarian_min, hungarian_max)]


def _solve_traced(em: EffectMatrix, n: int, direction: str) -> str:
    trace: list = []
    return _call(solve, em, n, direction, trace) + repr([_canon(a) for a in trace])


def _shuffled_pair_stats(em: EffectMatrix, result, rng: random.Random) -> str:
    if result.assignment is None:
        return "-"
    pairs = sorted(result.assignment.pairs)
    rng.shuffle(pairs)
    return _call(em.pair_stats, pairs)


def _model(export, *args) -> str:
    spec = export(*args)
    vec = {p: float(k % 2 == 0) for k, p in enumerate(spec.variables)}
    return "\n".join([*spec.lp_lines(), json.dumps(spec.sidecar()),
                      repr(spec.evaluate_objective(vec)), repr(spec.check_constraints(vec))])


def _models(em: EffectMatrix) -> list[str]:
    out = [_call(_model, export_qip, em, 2, direction, case)
           for direction in ("min", "max") for case in ("case1", "case2")]
    out += [_call(_model, export_ilp, em, 2, "min", 25.0),
            _call(_model, export_ilp, em, 2, "max", 25.0, True)]
    return out


def digest() -> tuple[str, str]:
    """Hex digests of the solver outputs and of the exported models."""
    rng = random.Random(SEED)
    shuffle_rng = random.Random(SHUFFLE_SEED)
    h, models = hashlib.sha256(), hashlib.sha256()
    for _ in range(INSTANCES):
        em = _instance(rng)
        out = [*_full_passes(em), _call(partition_blocks, em.match, canon=_partition),
               _call(enumerate_extrema, em, 2), _call(enumerate_extrema, em, 3)]
        ylist = build_sorted_list(em)
        for n in NS:
            for fn, arg in ((greedy_min, ylist), (greedy_max, em)):
                for case in ("case1", "case2"):
                    result = fn(arg, n, case)
                    out += [_canon(result), _shuffled_pair_stats(em, result, shuffle_rng)]
            out += [_call(case3_selection, em, n), _call(case3_selection, em.negated(), n),
                    _solve_traced(em, n, "min"), _solve_traced(em, n, "max"),
                    _call(run_test, em, n, 0.05)]
        out.append(_call(find_max_feasible_n, em))
        h.update("\n".join(out).encode())
        h.update(b"\0")
        models.update("\n".join(_models(em)).encode())
        models.update(b"\0")
    rng = random.Random(MEDIUM_SEED)
    for index in range(MEDIUM_INSTANCES):
        em = _medium_instance(rng, index)
        top = hungarian_min(em).cardinality
        out = _full_passes(em)
        out += [_call(run_test, em, n, 0.05) for n in (top, top - 2)]
        ylist = build_sorted_list(em)
        for n in sorted({min(n, top) for n in MEDIUM_NS}):
            out += [_canon(fn(arg, n, case)) for fn, arg in ((greedy_min, ylist), (greedy_max, em))
                    for case in ("case1", "case2")]
            out += [_call(case3_selection, em, n), _call(case3_selection, em.negated(), n)]
        h.update("\n".join(out).encode())
        h.update(b"\0")
    return h.hexdigest(), models.hexdigest()


if __name__ == "__main__":
    solvers, models = digest()
    print(f"solvers sha256 {solvers}")
    print(f"models sha256 {models}")
