"""Command-line interface.

Subcommands: ``match`` (build and report the eligibility structure),
``test`` (one robust test), ``sweep`` (a range of n, or the largest n
with n disjoint eligible pairs, emitted as CSV), ``oracle`` (exhaustive
desk-scale extrema) and ``export`` (solver model files). The largest
feasible n is found with one ladder and at most one assignment-solver
pass; ``--binary-search`` keeps its name for compatibility.

Exit codes: 0 success, 1 usage or configuration error, 2 matching
produced an empty eligibility structure, 3 no n-pair assignment exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from itertools import chain

from . import __version__
from .data_io import RunConfig, load_config, load_dataset
from .matching import (
    build_effect_matrix,
    build_match_matrix,
    partition_blocks,
    write_coordinate_list,
)
from .oracle import BudgetExceededError, enumerate_extrema
from .orchestrator import NoPairsError, find_max_feasible_n, iter_sweep, run_test
from .qip_export import export_ilp, export_qip
from .statistic import robustness_margin

SCHEMA = "robustz-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY_MATCH = 2
EXIT_NO_PAIRS = 3


class UsageError(ValueError):
    pass


class _EmptyMatch(Exception):
    """The covariate rules left no eligible pair."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _jsonify(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _open_out(path: str | None):
    """The --out file, opened before the work so that a bad path fails first."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()


def _emit(doc: dict, out=None) -> None:
    text = json.dumps(doc, indent=2, default=str)
    print(text)
    if out:
        out.write(text + "\n")


def _load_matrices(config: RunConfig):
    """The effect matrix of the configured study; _EmptyMatch if no pair is eligible."""
    dataset = load_dataset(config.data_path, config)
    match = build_match_matrix(dataset, list(config.covariate_rules))
    em = build_effect_matrix(match, dataset)
    if em.nnz == 0:
        raise _EmptyMatch
    return em


def _build_parser() -> _Parser:
    parser = _Parser(prog="robustz", description=__doc__)
    parser.add_argument("--version", action="version", version=f"robustz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="build the eligibility structure and report it")
    p_match.add_argument("--config", required=True)
    p_match.add_argument("--out", help="coordinate-list dump path (i,j,effect lines)")

    p_test = sub.add_parser("test", help="run the robust test at one pair count")
    p_test.add_argument("--config", required=True)
    p_test.add_argument("--n", type=int)
    p_test.add_argument("--alpha", type=float)
    p_test.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="tests over a range of n, CSV output")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sweep", metavar="MIN:MAX[:STEP]",
                         help="override the configured range")
    p_sweep.add_argument("--binary-search", metavar="MIN:MAX",
                         help="report only the row of the largest n in range with n "
                              "disjoint eligible pairs (one ladder, at most one "
                              "assignment-solver pass; name kept for compatibility)")
    p_sweep.add_argument("--alpha", type=float)
    p_sweep.add_argument("--out")

    p_oracle = sub.add_parser("oracle", help="exhaustive extrema (desk scale)")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--oracle-budget", type=int)
    p_oracle.add_argument("--out")

    p_export = sub.add_parser("export", help="write a solver model file")
    p_export.add_argument("--config", required=True)
    p_export.add_argument("--n", type=int)
    p_export.add_argument("--kind", choices=["qip", "ilp"], required=True)
    p_export.add_argument("--direction", choices=["min", "max"], required=True)
    p_export.add_argument("--case", choices=["case1", "case2"])
    p_export.add_argument("--b-l", type=float, dest="b_l")
    p_export.add_argument("--bl-range-note", action="store_true")
    p_export.add_argument("--out", default="model")
    return parser


def _resolve_n(args, config: RunConfig) -> int:
    if args.n is not None:
        n = args.n
    elif config.n_spec.mode == "fixed":
        n = config.n_spec.n
    else:
        raise UsageError("--n is required unless the configuration fixes n")
    if n < 2:
        raise UsageError(f"n must be >= 2, got {n}")
    return n


def _resolve_alpha(args, config: RunConfig) -> float:
    alpha = args.alpha if args.alpha is not None else config.alpha
    if not 0.0 < alpha < 1.0:  # NaN as well
        raise UsageError(f"alpha must be in (0, 1), got {alpha!r}")
    return alpha


def _parse_range(text: str, want_step: bool):
    parts = text.split(":")
    if want_step and len(parts) not in (2, 3) or not want_step and len(parts) != 2:
        raise UsageError(f"malformed range {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"malformed range {text!r}") from None
    if len(values) == 2:
        values.append(1)
    return values[0], values[1], values[2]


def _cmd_match(args) -> int:
    config = load_config(args.config)
    dataset = load_dataset(config.data_path, config)
    match = build_match_matrix(dataset, list(config.covariate_rules))
    em = build_effect_matrix(match, dataset)
    blocks = partition_blocks(em.match)
    doc = {
        "schema": SCHEMA,
        "command": "match",
        "treated": em.n_treated,
        "control": em.n_control,
        "excluded": dataset.excluded,
        "matched_treated": em.match.matched_treated,
        "matched_control": em.match.matched_control,
        "nnz": em.nnz,
        "blocks": len(blocks),
        "identical_rows": blocks.identical_rows_all,
    }
    if em.nnz == 0:
        print(json.dumps(doc, indent=2))
        raise _EmptyMatch
    if args.out:
        write_coordinate_list(em, args.out)
        doc["dump"] = args.out
    _emit(doc)
    return EXIT_OK


def _cmd_test(args) -> int:
    config = load_config(args.config)
    n = _resolve_n(args, config)
    alpha = _resolve_alpha(args, config)
    with _open_out(args.out) as out:
        em = _load_matrices(config)
        start = time.perf_counter()
        result = run_test(em, n, alpha)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        _emit(_test_doc(result, alpha, elapsed_ms), out)
    return EXIT_OK


def _test_doc(result, alpha: float, elapsed_ms: float) -> dict:
    margin = None
    if math.isfinite(result.z_max):
        margin = robustness_margin(result.z_max, alpha)
    doc = {
        "schema": SCHEMA,
        "command": "test",
        "n": result.n,
        "alpha": alpha,
        "z_min": _jsonify(result.z_min),
        "z_max": _jsonify(result.z_max),
        "gamma_min": _jsonify(result.z_min),
        "gamma_max": _jsonify(result.z_max),
        "case_min": result.case_used_min,
        "case_max": result.case_used_max,
        "p_min": _jsonify(result.p_min),
        "p_max": _jsonify(result.p_max),
        "classification": result.classification,
        "degenerate_min": result.degenerate_min,
        "degenerate_max": result.degenerate_max,
        "ms": elapsed_ms,
    }
    if margin is not None:
        doc["allowable_gap"] = {
            "z_critical": margin.z_critical,
            "absolute": margin.absolute_margin,
            "relative": margin.relative_margin,
        }
    return doc


SWEEP_HEADER = "n,z_min,z_max,p_min,p_max,classification,ms"


def _sweep_csv_line(row) -> str:
    if row.no_pairs:
        return f"{row.n},,,,,no_pairs,{row.elapsed_ms:.3f}"
    r = row.result
    return (f"{row.n},{_jsonify(r.z_min)},{_jsonify(r.z_max)},"
            f"{_jsonify(r.p_min)},{_jsonify(r.p_max)},"
            f"{r.classification},{row.elapsed_ms:.3f}")


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    alpha = _resolve_alpha(args, config)

    spec = config.n_spec
    if args.sweep and args.binary_search:
        raise UsageError("--sweep and --binary-search are mutually exclusive")
    mode = None
    if args.sweep:
        n_min, n_max, step = _parse_range(args.sweep, want_step=True)
        mode = "sweep"
    elif args.binary_search:
        n_min, n_max, _ = _parse_range(args.binary_search, want_step=False)
        if n_min > n_max:
            raise UsageError(f"invalid search range {n_min}:{n_max}")
        mode = "binary_search"
    elif spec.mode == "sweep":
        n_min, n_max, step = spec.n_min, spec.n_max, spec.step
        mode = "sweep"
    elif spec.mode == "binary_search":
        n_min = spec.n_min
        n_max = spec.n_max
        mode = "binary_search"
    else:
        raise UsageError("configuration fixes n; use 'test' or pass --sweep/--binary-search")
    if mode == "sweep" and (n_min < 2 or n_min > n_max or step < 1):
        raise UsageError(f"invalid sweep range {n_min}:{n_max}:{step}")

    with _open_out(args.out) as out:
        em = _load_matrices(config)
        if mode == "binary_search":
            best = find_max_feasible_n(em, n_min, n_max)
            if best is None:
                print("no n in range is feasible", file=sys.stderr)
                return EXIT_NO_PAIRS
            ns = [best]
        else:
            ns = list(range(n_min, n_max + 1, step))

        for line in chain([SWEEP_HEADER], map(_sweep_csv_line, iter_sweep(em, ns, alpha))):
            print(line, flush=True)
            if out:
                out.write(line + "\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    n = _resolve_n(args, config)
    budget = args.oracle_budget if args.oracle_budget is not None else config.oracle_budget
    if budget < 1:
        raise UsageError(f"oracle budget must be positive, got {budget}")
    with _open_out(args.out) as out:
        em = _load_matrices(config)
        try:
            result = enumerate_extrema(em, n, budget)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_NO_PAIRS
        _emit({
            "schema": SCHEMA,
            "command": "oracle",
            "n": n,
            "z_min": _jsonify(result.z_min),
            "z_max": _jsonify(result.z_max),
            "argmin": sorted(result.argmin.pairs),
            "argmax": sorted(result.argmax.pairs),
            "enumerated": result.enumerated,
            "degenerate_seen": result.degenerate_seen,
        }, out)
    return EXIT_OK


def _cmd_export(args) -> int:
    config = load_config(args.config)
    n = _resolve_n(args, config)
    if args.kind == "qip" and not args.case:
        raise UsageError("--case is required for qip export")
    if args.kind == "ilp" and args.b_l is None:
        raise UsageError("--b-l is required for ilp export")
    em = _load_matrices(config)
    if args.kind == "qip":
        spec = export_qip(em, n, args.direction, args.case)
    else:
        spec = export_ilp(em, n, args.direction, args.b_l,
                          bl_range_note=args.bl_range_note)
    lp_path, json_path = spec.write(args.out)
    _emit({
        "schema": SCHEMA,
        "command": "export",
        "kind": args.kind,
        "direction": args.direction,
        "case": args.case,
        "n": n,
        "variables": len(spec.variables),
        "lp_path": lp_path,
        "sidecar_path": json_path,
    })
    return EXIT_OK


_COMMANDS = {
    "match": _cmd_match,
    "test": _cmd_test,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _EmptyMatch:
        print("no good matches", file=sys.stderr)
        return EXIT_EMPTY_MATCH
    except NoPairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PAIRS


def entrypoint() -> None:
    raise SystemExit(main())
