"""``repro.scenario`` — declarative high-throughput scenario sweeps.

The paper's robustness argument (Sec. V) needs the sensing-to-action
loop scored across *many* corruption regimes, not a handful of
single-corruption severities.  This package turns that into a
throughput problem and solves it in three parts:

* **specs** (:mod:`.spec`) — a :class:`Scenario` is a pure value
  (corruption stack × platform × traffic × seed × evaluator) with a
  content-address fingerprint and content-derived RNG streams; a
  :class:`SweepPlan` expands grids into 10^4+ scenarios;
* **replay** (:mod:`.store`) — a bucketed, content-addressed
  :class:`ReplayStore` makes overlapping re-sweeps near-free: only
  novel scenarios execute;
* **sharding** (:mod:`.engine`) — novel scenarios fan out over
  :class:`repro.runtime.WorkerPool` with submission-order merge
  (byte-identical payloads at any worker count).

``repro scenario-bench`` drives the benchmark
(:mod:`.driver`); ``repro verify`` holds a golden sweep trace.
"""

from .engine import SweepResult, evaluate_scenario, run_sweep
from .evaluators import (
    EVALUATORS,
    evaluator_names,
    get_evaluator,
    register_evaluator,
    scan_stats,
)
from .driver import (
    POOL_SCALING_TARGET,
    WARM_SPEEDUP_TARGET,
    ScenarioBenchConfig,
    run_scenario_sweep_benchmark,
)
from .spec import PLATFORMS, TRAFFIC, CorruptionStage, Scenario, SweepPlan, stack_grid
from .store import STORE_DIR_ENV, STORE_LAYOUT_VERSION, ReplayStore

__all__ = [
    "CorruptionStage", "Scenario", "SweepPlan", "stack_grid",
    "PLATFORMS", "TRAFFIC",
    "ReplayStore", "STORE_DIR_ENV", "STORE_LAYOUT_VERSION",
    "SweepResult", "evaluate_scenario", "run_sweep",
    "EVALUATORS", "register_evaluator", "get_evaluator",
    "evaluator_names", "scan_stats",
    "ScenarioBenchConfig", "run_scenario_sweep_benchmark",
    "WARM_SPEEDUP_TARGET", "POOL_SCALING_TARGET",
]
