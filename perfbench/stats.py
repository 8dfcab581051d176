"""Statistics the benchmark reports: percentiles, the rate ladder, run spread.

Percentiles use the nearest-rank rule, so the reported value is one that was
measured. A percentile is reported as supported only when at least
``MIN_BEYOND`` samples lie strictly beyond it: p99 needs 1,000 samples.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

MIN_BEYOND = 10


def rank_index(n: int, p: float) -> int:
    """0-based index of the nearest-rank p-th percentile among n sorted values."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return max(0, math.ceil(round(p * n / 100.0, 9)) - 1)  # round off float noise first


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly beyond the nearest-rank p-th percentile."""
    return n - 1 - rank_index(n, p)


def supported(n: int, p: float, beyond: int = MIN_BEYOND) -> bool:
    return n >= 1 and samples_beyond(n, p) >= beyond


def percentile(values: Sequence[float], p: float) -> float:
    return sorted(values)[rank_index(len(values), p)]


def percentile_or_zero(values: Sequence[float], p: float) -> float:
    """Percentile for per-layer summaries, where a layer may see no calls."""
    return percentile(values, p) if values else 0.0


@dataclass
class StepOutcome:
    """What one ladder step measured, as far as the stop rule needs it."""

    rate: float
    p99_ms: float
    failed: int
    backlog: int  # requests due but not yet sent when the last one fell due
    connections: int


def backlog_growing(step: StepOutcome) -> bool:
    """A backlog grows when more requests wait unsent than there are connections."""
    return step.backlog > step.connections


def step_meets_limit(step: StepOutcome, p99_limit_ms: float) -> bool:
    return step.failed == 0 and step.p99_ms <= p99_limit_ms and not backlog_growing(step)


def run_ladder(rates: Sequence[float], run_step: Callable[[float], StepOutcome],
               p99_limit_ms: float) -> tuple[list[StepOutcome], float | None]:
    """Run steps in order and stop after the first that misses the limit.

    Returns every step run and the highest rate that met the limit (None when
    the first step already missed it).
    """
    steps: list[StepOutcome] = []
    best = None
    for rate in rates:
        step = run_step(rate)
        steps.append(step)
        if not step_meets_limit(step, p99_limit_ms):
            break
        best = rate
    return steps, best


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf
