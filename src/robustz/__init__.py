"""Robust matched-pair Z tests over all admissible pair assignments."""

__version__ = "0.1.0"

from .data_types import DataError, Dataset, Unit
from .data_io import ConfigError, NSpec, Predicate, RunConfig, TreatmentRule, load_config, load_dataset
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
from .oracle import BudgetExceededError, OracleResult, enumerate_extrema
from .qip_export import ModelSpec, export_ilp, export_qip, read_solution, solution_to_values
