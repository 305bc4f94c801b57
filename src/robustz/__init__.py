"""Robust matched-pair Z tests over all admissible pair assignments."""

__version__ = "0.1.0"

from .data_io import (ConfigError, DataError, Dataset, NSpec, Predicate, RunConfig, TreatmentRule,
                      Unit, load_config, load_dataset)
from .matching import (
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
from .statistic import (
    Assignment,
    DegenerateStatisticError,
    PairStats,
    RobustnessMargin,
    TestResult,
    classify_robustness,
    gamma_roots,
    normal_upper_tail,
    normal_upper_tail_inverse,
    p_values,
    robustness_margin,
    z_statistic,
)
from .greedy import (
    Attempt,
    SortedEffectList,
    build_sorted_list,
    greedy_max,
    greedy_min,
)
from .hungarian import CostMatching, hungarian_max, hungarian_min
from .orchestrator import (
    NoPairsError,
    SweepRow,
    find_max_feasible_n,
    iter_sweep,
    run_test,
    solve,
)

# the oracle and the model export are off the path to a test answer, so
# their names are imported on first use (PEP 562), not by every start
_LAZY = {
    "BudgetExceededError": "oracle",
    "OracleResult": "oracle",
    "enumerate_extrema": "oracle",
    "ModelSpec": "qip_export",
    "export_ilp": "qip_export",
    "export_qip": "qip_export",
    "read_solution": "qip_export",
    "solution_to_values": "qip_export",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
