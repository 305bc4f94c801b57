"""Seeded inputs, timed operations and output checks of the three workloads.

The program sees only what the generators here produce: an effect map for
the two library workloads, a CSV plus a run configuration for the CLI
workload. Every check runs outside the timed interval and recomputes what
it needs (normal tails, Z of a returned assignment, eligible pairs) from
the generated inputs rather than from the program's own helpers, except
``validate_assignment``, which is the program's definition of a valid
assignment.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from robustz import EffectMatrix, load_config, load_dataset, orchestrator
from robustz.matching import build_effect_matrix, build_match_matrix
from robustz.statistic import validate_assignment

import tracing

ALPHA = 0.05
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

# The program's documented classification rule: the P-value interval is
# absolutely robust when its width is below 1e-12, alpha-robust when the
# width is at most alpha, and not robust otherwise.
_ABSOLUTE_WIDTH = 1e-12


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


@dataclass
class Checked:
    """What the check of one op found: witnessed bounds and case mix."""

    witnessed: int
    bounds: int
    cases: list[str]


def _upper_tail(z: float) -> float:
    if math.isinf(z):
        return 0.0 if z > 0 else 1.0
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _z_of(values: list[float]) -> float:
    n = len(values)
    s = math.fsum(values)
    q = math.fsum(v * v for v in values)
    variance = q / n - (s / n) ** 2
    if n * q - s * s <= 0.0 or variance <= 0.0:
        return math.copysign(math.inf, s) if s != 0.0 else 0.0
    return (s / math.sqrt(n)) / math.sqrt(variance)


def _same_z(reported: float, witnessed: float) -> bool:
    if math.isinf(reported) or math.isinf(witnessed):
        return reported == witnessed
    return math.isclose(reported, witnessed, rel_tol=1e-9, abs_tol=0.0)


def _check_bounds(z_min, z_max, p_min, p_max, classification, alpha) -> None:
    """z order, P-values as normal tails of the bounds, class from P-values."""
    if not z_min <= z_max:
        raise CheckFailed(f"z_min={z_min!r} exceeds z_max={z_max!r}")
    # 1e-12 absolute: below the classification's own resolution
    for name, got, want in (("p_min", p_min, _upper_tail(z_max)),
                            ("p_max", p_max, _upper_tail(z_min))):
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            raise CheckFailed(f"{name}={got!r} is not the normal tail {want!r}")
    width = p_max - p_min
    if width <= _ABSOLUTE_WIDTH:
        expected = "absolute_robust"
    elif width <= alpha:
        expected = "alpha_robust"
    else:
        expected = "not_robust"
    if classification != expected:
        raise CheckFailed(f"classification {classification!r}, P-values imply {expected!r}")


def _check_library_result(result, em, effects, n) -> Checked:
    witnessed = 0
    for a, z in ((result.assignment_min, result.z_min), (result.assignment_max, result.z_max)):
        try:
            validate_assignment(a, em)
        except ValueError as exc:
            raise CheckFailed(f"invalid assignment: {exc}") from None
        if a.n != n:
            raise CheckFailed(f"assignment has {a.n} pairs, expected {n}")
        witnessed += _same_z(z, _z_of([effects[p] for p in sorted(a.pairs)]))
    _check_bounds(result.z_min, result.z_max, result.p_min, result.p_max,
                  result.classification, ALPHA)
    return Checked(witnessed=witnessed, bounds=2,
                   cases=[result.case_used_min, result.case_used_max])


# --- library workloads: one op is from_effects + run_test ------------------------

@dataclass(frozen=True)
class GreedyShape:
    """The acceptance-criterion-7 pair map: distinct pairs, U(-100, 100) effects."""

    nnz: int = 350_000
    n_treated: int = 35_000
    n_control: int = 27_000
    n_low: int = 3_000
    n_high: int = 3_800


@dataclass(frozen=True)
class MixedShape:
    """Square mixed-sign map; n sits gap_low..gap_high below the maximum matching."""

    side: int = 250
    degree: int = 20
    gap_low: int = 6
    gap_high: int = 14


@dataclass
class LibraryInstance:
    effects: dict
    n_treated: int
    n_control: int
    ns: list[int]
    shape: dict


def _n_list(rng, low: int, high: int) -> list[int]:
    return rng.integers(low, high + 1, size=64).tolist()


def prepare_greedy(shape: GreedyShape, seed: int, workdir: str) -> LibraryInstance:
    rng = np.random.default_rng(seed)
    codes = rng.choice(shape.n_treated * shape.n_control, size=shape.nnz, replace=False)
    values = rng.uniform(-100.0, 100.0, size=shape.nnz)
    rows, cols = np.divmod(codes, shape.n_control)
    effects = dict(zip(zip(rows.tolist(), cols.tolist()), values.tolist()))
    ns = _n_list(rng, shape.n_low, shape.n_high)
    return LibraryInstance(effects, shape.n_treated, shape.n_control, ns, {
        "treated": shape.n_treated, "control": shape.n_control, "nnz": shape.nnz,
        "n_values": sorted(set(ns)),
    })


def _max_matching_size(adjacency: list[list[int]], n_control: int) -> int:
    """Kuhn's augmenting-path matching; independent of the program's solver."""
    match_col = [-1] * n_control

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adjacency[i]:
            if not seen[j]:
                seen[j] = True
                if match_col[j] < 0 or augment(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    return sum(augment(i, [False] * n_control) for i in range(len(adjacency)))


def prepare_mixed(shape: MixedShape, seed: int, workdir: str) -> LibraryInstance:
    rng = np.random.default_rng(seed)
    effects = {}
    adjacency = []
    for i in range(shape.side):
        cols = rng.choice(shape.side, size=shape.degree, replace=False).tolist()
        values = rng.uniform(-100.0, 100.0, size=shape.degree).tolist()
        effects.update(((i, j), v) for j, v in zip(cols, values))
        adjacency.append(cols)
    matching = _max_matching_size(adjacency, shape.side)
    ns = _n_list(rng, matching - shape.gap_high, matching - shape.gap_low)
    return LibraryInstance(effects, shape.side, shape.side, ns, {
        "treated": shape.side, "control": shape.side, "nnz": len(effects),
        "max_matching": matching, "n_values": sorted(set(ns)),
    })


class LibraryWorkload:
    """Closed loop of run_test calls on a freshly built EffectMatrix."""

    setup_module = "robustz"

    def __init__(self, shape, prepare):
        self.shape = shape
        self._prepare = prepare

    def prepare(self, shape, seed: int, workdir: str) -> LibraryInstance:
        return self._prepare(shape, seed, workdir)

    def op(self, inst: LibraryInstance, index: int, tracer):
        n = inst.ns[index % len(inst.ns)]
        em = EffectMatrix.from_effects(inst.effects, inst.n_treated, inst.n_control)
        # looked up on the module so that the traced run sees its rebinding
        return 1, (n, em, orchestrator.run_test(em, n, ALPHA))

    def check(self, inst: LibraryInstance, payload) -> Checked:
        n, em, result = payload
        return _check_library_result(result, em, inst.effects, n)

    def rss_kb(self, payload) -> int:
        """Peak RSS so far of this process, which runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- CLI workload: one op is a `robustz sweep` invocation -----------------------

@dataclass(frozen=True)
class SweepShape:
    """Treated and control units per group; exact site, calipers age +-3, dose +-10."""

    per_group: int = 2_000
    n_min: int = 60
    n_max: int = 600
    step: int = 60


@dataclass
class SweepInstance:
    config: str
    ns: list[int]
    reference: list           # library TestResult per n, on the same CSV
    reference_error: str | None
    witnessed: int
    cases: list[str]
    shape: dict
    workdir: str
    first_rows: list | None = field(default=None)


def _write_sweep_inputs(shape: SweepShape, seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    groups = {}
    for group in (1, 0):
        site = rng.integers(0, 2, size=shape.per_group)
        age = rng.integers(20, 81, size=shape.per_group)
        dose = rng.uniform(0.0, 125.0, size=shape.per_group).round(1)
        y = (50.0 + 0.2 * age + 0.05 * dose + group
             + rng.normal(0.0, 10.0, size=shape.per_group)).round(3)
        groups[group] = (site, age.astype(float), dose, y)
    rows = [(g, s, a, d, y) for g in (1, 0) for s, a, d, y in zip(*(c.tolist() for c in groups[g]))]
    order = rng.permutation(len(rows)).tolist()
    data_path = os.path.join(workdir, "sweep.csv")
    with open(data_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("group,site,age,dose,y\n")
        for k in order:
            g, s, a, d, y = rows[k]
            fh.write(f"{g},{'north' if s else 'south'},{int(a)},{d!r},{y!r}\n")
    config = {
        "data_path": "sweep.csv",
        "treatment_rule": {"column": "group",
                           "treated_predicate": {"op": "==", "value": 1},
                           "control_predicate": {"op": "==", "value": 0}},
        "outcome_column": "y",
        "covariate_rules": [{"column": "site", "kind": "exact"},
                            {"column": "age", "kind": "caliper", "tolerance": 3},
                            {"column": "dose", "kind": "caliper", "tolerance": 10}],
        "alpha": ALPHA,
        "n_spec": {"mode": "sweep", "n_min": shape.n_min, "n_max": shape.n_max,
                   "step": shape.step},
    }
    config_path = os.path.join(workdir, "sweep.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)

    candidate = eligible = 0
    t_site, t_age, t_dose, _ = groups[1]
    c_site, c_age, c_dose, _ = groups[0]
    for s in (0, 1):
        ta, td = t_age[t_site == s], t_dose[t_site == s]
        ca, cd = c_age[c_site == s], c_dose[c_site == s]
        candidate += len(ta) * len(ca)
        ok = (np.abs(ta[:, None] - ca[None, :]) <= 3.0) & (np.abs(td[:, None] - cd[None, :]) <= 10.0)
        eligible += int(ok.sum())
    return config_path, len(rows), candidate, eligible


def _library_sweep(config_path: str, ns: list[int], eligible: int):
    """The library's answer on the CLI's files, checked like a library op."""
    config = load_config(config_path)
    dataset = load_dataset(config.data_path, config)
    match = build_match_matrix(dataset, list(config.covariate_rules))
    if match.nnz != eligible:
        raise CheckFailed(f"matching found {match.nnz} eligible pairs, expected {eligible}")
    em = build_effect_matrix(match, dataset)
    reference, witnessed, cases = [], 0, []
    for n in ns:
        result = orchestrator.run_test(em, n, ALPHA)
        checked = _check_library_result(result, em, em.effect, n)
        reference.append(result)
        witnessed += checked.witnessed
        cases += checked.cases
    return reference, witnessed, cases


def prepare_sweep(shape: SweepShape, seed: int, workdir: str) -> SweepInstance:
    config_path, rows, candidate, eligible = _write_sweep_inputs(shape, seed, workdir)
    ns = list(range(shape.n_min, shape.n_max + 1, shape.step))
    # the CLI rows must reproduce the library's answer, whose assignments
    # give the witnessed share the CSV cannot show
    try:
        reference, witnessed, cases = _library_sweep(config_path, ns, eligible)
        error = None
    except Exception as exc:  # a broken library fails every op instead of the run
        reference, witnessed, cases = [], 0, []
        error = f"library reference: {type(exc).__name__}: {exc}"
    return SweepInstance(
        config=config_path, ns=ns, reference=reference, reference_error=error,
        witnessed=witnessed, cases=cases, workdir=workdir,
        shape={"treated": shape.per_group, "control": shape.per_group, "rows": rows,
               "candidate_pairs": candidate, "nnz": eligible, "n_values": ns},
    )


class SweepWorkload:
    """Closed loop of CLI subprocesses, started one at a time."""

    setup_module = "robustz.cli"

    def __init__(self, shape: SweepShape = SweepShape()):
        self.shape = shape

    def prepare(self, shape, seed: int, workdir: str) -> SweepInstance:
        return prepare_sweep(shape, seed, workdir)

    def op(self, inst: SweepInstance, index: int, tracer):
        args = ["sweep", "--config", inst.config]
        spans_path = os.path.join(inst.workdir, "child-spans.json")
        if tracer is None:
            argv = [sys.executable, "-m", "robustz", *args]
        else:
            argv = [sys.executable, CLI_CHILD, repr(tracing.clock()), spans_path, *args]
        err_path = os.path.join(inst.workdir, "cli-stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=inst.workdir)
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 rather than wait: it returns this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None and proc.returncode == 0:
            with open(spans_path, encoding="utf-8") as fh:
                tracer.merge(json.load(fh))
        return len(inst.ns), (proc.returncode, out, err_path, usage.ru_maxrss)

    def check(self, inst: SweepInstance, payload) -> Checked:
        code, out, err_path, _ = payload
        if code != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                raise CheckFailed(f"exit code {code}: {fh.read()[-300:]}")
        if inst.reference_error is not None:
            raise CheckFailed(inst.reference_error)
        rows = list(csv.DictReader(io.StringIO(out.decode("utf-8", errors="replace"))))
        if [r.get("n") for r in rows] != [str(n) for n in inst.ns]:
            raise CheckFailed(f"expected one row per n in {inst.ns}, got {len(rows)} rows")
        fields = ("z_min", "z_max", "p_min", "p_max")
        parsed = []
        for row, ref in zip(rows, inst.reference):
            try:
                z_min, z_max, p_min, p_max = (float(row[f]) for f in fields)
                classification = row["classification"]
            except (KeyError, TypeError, ValueError):
                raise CheckFailed(f"unparseable row {row!r}") from None
            _check_bounds(z_min, z_max, p_min, p_max, classification, ALPHA)
            if not (_same_z(z_min, ref.z_min) and _same_z(z_max, ref.z_max)
                    and classification == ref.classification):
                raise CheckFailed(f"row n={row['n']} differs from the library result")
            parsed.append((row["n"], z_min, z_max, p_min, p_max, classification))
        if inst.first_rows is None:
            inst.first_rows = parsed
        elif parsed != inst.first_rows:
            raise CheckFailed("rows differ from the first invocation's rows")
        return Checked(witnessed=inst.witnessed, bounds=2 * len(inst.ns), cases=inst.cases)

    def rss_kb(self, payload) -> int:
        """Peak RSS of the CLI child that ran the op."""
        return payload[3]


WORKLOADS = {
    "greedy-350k": LibraryWorkload(GreedyShape(), prepare_greedy),
    "assign-mixed": LibraryWorkload(MixedShape(), prepare_mixed),
    "cli-sweep": SweepWorkload(),
}
