"""Core dataset records shared by ingestion and matching."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


class DataError(ValueError):
    """Raised when a dataset violates its schema or invariants."""


@dataclass(frozen=True)
class Unit:
    """One sample: covariates, treatment flag, continuous outcome."""

    id: str
    covariates: Mapping[str, float | str]
    treatment: bool
    outcome: float


@dataclass(frozen=True)
class Dataset:
    """Units kept by the treatment rule, plus the count of excluded rows."""

    units: tuple[Unit, ...]
    excluded: int = 0

    def __post_init__(self):
        for u in self.units:
            if not math.isfinite(u.outcome):
                raise DataError(f"unit {u.id!r} has non-finite outcome {u.outcome!r}")
        if not any(u.treatment for u in self.units):
            raise DataError("empty treated group")
        if not any(not u.treatment for u in self.units):
            raise DataError("empty control group")
