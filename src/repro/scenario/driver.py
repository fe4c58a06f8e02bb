"""Scenario sweep benchmark driver (the tenth regression gate's engine).

Runs one parameterized sweep three ways and distills the claims
``check_regressions.py`` gates on:

1. **worker curve** — the full sweep at each worker count (no store),
   hashing the canonical result payload each time.  *Blocking claim*:
   byte-identical payloads at 1/2/4 workers.  *Informational claim*:
   >= ``POOL_SCALING_TARGET`` x wall-clock scaling at the top worker
   count (reported non-blocking — wall ratios jitter on shared hosts).
2. **cold vs warm** — the sweep into an empty temp
   :class:`~repro.scenario.store.ReplayStore`, then again against the
   populated store, both at one worker so the ratio measures the replay
   path, not parallelism.  *Blocking claim*: warm >=
   ``WARM_SPEEDUP_TARGET`` x faster than cold.
3. **incremental extension** — the grid widened by one extra base seed,
   re-swept against the same store.  *Blocking claim*: exactly the
   novel scenarios execute; every overlapping scenario replays.

All claims except wall-clock scaling are deterministic; the payload
hashes additionally feed the committed-baseline drift check.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..runtime.pool import WorkerPool
from ..sim.corruptions import CORRUPTIONS
from .engine import run_sweep
from .spec import SweepPlan, stack_grid
from .store import ReplayStore

__all__ = ["ScenarioBenchConfig", "run_scenario_sweep_benchmark",
           "WARM_SPEEDUP_TARGET", "POOL_SCALING_TARGET"]

WARM_SPEEDUP_TARGET = 10.0   # warm-cache re-sweep vs cold, blocking
POOL_SCALING_TARGET = 2.0    # wall scaling at 4 workers, informational


@dataclass(frozen=True)
class ScenarioBenchConfig:
    """Sweep grid shape and measurement knobs."""

    corruptions: Tuple[str, ...] = tuple(CORRUPTIONS)
    severities: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    depth: int = 2
    platforms: Tuple[str, ...] = ("vehicle", "drone", "quadruped")
    traffics: Tuple[str, ...] = ("sparse", "urban", "dense")
    seeds: Tuple[int, ...] = (0, 1)
    extension_seeds: Tuple[int, ...] = (2,)  # incremental re-sweep delta
    evaluator: str = "scan_stats"
    worker_counts: Tuple[int, ...] = (1, 2, 4)
    max_scenarios: Optional[int] = None

    @classmethod
    def smoke(cls) -> "ScenarioBenchConfig":
        """CI-sized variant (seconds): ~100 scenarios, same gates minus
        the 10^4 scale claim."""
        return cls(corruptions=("snow", "fog", "crosstalk"),
                   severities=(0.5, 1.0), depth=2,
                   platforms=("vehicle",), traffics=("urban",),
                   seeds=(0,), extension_seeds=(1,),
                   worker_counts=(1, 2))

    def plan(self, seeds: Optional[Tuple[int, ...]] = None) -> SweepPlan:
        stacks = stack_grid(self.corruptions, self.severities, self.depth)
        return SweepPlan(stacks=tuple(stacks), platforms=self.platforms,
                         traffics=self.traffics,
                         seeds=self.seeds if seeds is None else seeds,
                         evaluator=self.evaluator)


def _scenarios(config: ScenarioBenchConfig,
               seeds: Optional[Tuple[int, ...]] = None):
    scenarios = config.plan(seeds).scenarios()
    if config.max_scenarios is not None:
        scenarios = scenarios[:config.max_scenarios]
    return scenarios


def run_scenario_sweep_benchmark(config: Optional[ScenarioBenchConfig] = None
                                 ) -> Dict[str, Any]:
    """Execute all three phases; returns the full result payload."""
    config = config or ScenarioBenchConfig()
    scenarios = _scenarios(config)
    n = len(scenarios)

    # Phase 1: worker curve, storeless — measures raw sharded execution.
    worker_curve = []
    shas = []
    for workers in config.worker_counts:
        with WorkerPool(workers) as pool:
            result = run_sweep(scenarios, pool=pool)
        worker_curve.append({
            "workers": workers,
            "wall_s": result.duration_s,
            "scenarios_per_s": n / result.duration_s
            if result.duration_s > 0 else float("inf"),
            "payload_sha": result.payload_sha(),
        })
        shas.append(worker_curve[-1]["payload_sha"])
    identical_across_workers = len(set(shas)) == 1
    serial_wall = worker_curve[0]["wall_s"]
    top_wall = worker_curve[-1]["wall_s"]
    pool_scaling = serial_wall / top_wall if top_wall > 0 else float("inf")

    # Phase 2: cold vs warm against a fresh store, both serial.
    tmp_root = tempfile.mkdtemp(prefix="repro-scenario-bench-")
    try:
        store = ReplayStore(tmp_root)
        cold = run_sweep(scenarios, workers=1, store=store)
        warm = run_sweep(scenarios, workers=1, store=store)
        warm_speedup = (cold.duration_s / warm.duration_s
                        if warm.duration_s > 0 else float("inf"))

        # Phase 3: widen the grid by the extension seeds; only the new
        # scenarios may execute.  Under a max_scenarios cap the widened
        # prefix interleaves cached and novel specs, so the expectation
        # is the key-set difference, not a length difference.
        extended = _scenarios(
            config, seeds=config.seeds + config.extension_seeds)
        swept = {s.fingerprint() for s in scenarios}
        novel_expected = len(
            {s.fingerprint() for s in extended} - swept)
        replay_expected = len(extended) - novel_expected
        incremental = run_sweep(extended, workers=1, store=store)
        store_info = store.info()
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    claims = {
        "identical_across_workers": bool(identical_across_workers),
        "warm_speedup_ok": bool(warm_speedup >= WARM_SPEEDUP_TARGET),
        "incremental_only_novel": bool(
            incremental.executed == novel_expected
            and incremental.replayed == replay_expected),
        "sweep_scale_ok": bool(n >= 10_000),
        "pool_scaling_ok": bool(pool_scaling >= POOL_SCALING_TARGET),
    }
    return {
        "bench": "scenario_sweep",
        "config": {
            "corruptions": list(config.corruptions),
            "severities": list(config.severities),
            "depth": config.depth,
            "platforms": list(config.platforms),
            "traffics": list(config.traffics),
            "seeds": list(config.seeds),
            "extension_seeds": list(config.extension_seeds),
            "evaluator": config.evaluator,
            "worker_counts": list(config.worker_counts),
            "max_scenarios": config.max_scenarios,
        },
        "n_scenarios": n,
        "host_cpus": os.cpu_count(),
        "worker_curve": worker_curve,
        "identical_across_workers": bool(identical_across_workers),
        "pool_scaling": pool_scaling,
        "pool_scaling_target": POOL_SCALING_TARGET,
        "cold": {"wall_s": cold.duration_s, "executed": cold.executed,
                 "replayed": cold.replayed},
        "warm": {"wall_s": warm.duration_s, "executed": warm.executed,
                 "replayed": warm.replayed},
        "warm_speedup": warm_speedup,
        "warm_speedup_target": WARM_SPEEDUP_TARGET,
        "incremental": {
            "total": len(extended),
            "executed": incremental.executed,
            "replayed": incremental.replayed,
            "novel_expected": novel_expected,
        },
        "store": store_info,
        "payload_sha": shas[0] if shas else "",
        "claims": claims,
    }
