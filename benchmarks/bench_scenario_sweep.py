"""High-throughput scenario sweep — 10^4 scenarios, cached + sharded.

Runs the :mod:`repro.scenario.driver` benchmark: a full corruption-stack
grid (singles + ordered pairs over all seven corruptions) crossed with
platform, traffic, and seed axes, executed three ways:

* a worker-scaling curve (1/2/4 processes) with payload hashes —
  byte-identical results across worker counts;
* cold vs warm against a fresh replay store — the warm re-sweep must be
  >= 10x faster than cold;
* an incremental grid extension — only the genuinely novel scenarios
  may execute, everything overlapping replays.

Worker identity, warm speedup, and the incremental
replay accounting are asserted here and re-checked as blocking gates by
``check_regressions.py`` against the committed JSON; the pool-scaling
ratio is informational (wall ratios jitter on shared hosts).
"""

from repro.scenario import ScenarioBenchConfig, run_scenario_sweep_benchmark
from repro.scenario.driver import WARM_SPEEDUP_TARGET

from bench_utils import print_table, save_result


def run_scenario_sweep() -> dict:
    return run_scenario_sweep_benchmark(ScenarioBenchConfig())


def test_scenario_sweep(benchmark):
    result = benchmark.pedantic(run_scenario_sweep, rounds=1, iterations=1)
    cfg = result["config"]
    print_table(
        f"Scenario sweep — {result['n_scenarios']} scenarios "
        f"({len(cfg['corruptions'])} corruptions, depth {cfg['depth']}, "
        f"{len(cfg['platforms'])} platforms, {len(cfg['traffics'])} "
        f"traffic regimes, {len(cfg['seeds'])} seeds)",
        ["Workers", "Wall", "Scenarios/s", "Payload sha"],
        [[row["workers"], f"{row['wall_s']:.2f}s",
          f"{row['scenarios_per_s']:.0f}", row["payload_sha"][:16]]
         for row in result["worker_curve"]])
    print_table(
        "Replay store: cold vs warm vs incremental extension",
        ["Phase", "Wall", "Executed", "Replayed"],
        [["cold", f"{result['cold']['wall_s']:.2f}s",
          result["cold"]["executed"], result["cold"]["replayed"]],
         ["warm", f"{result['warm']['wall_s']:.2f}s",
          result["warm"]["executed"], result["warm"]["replayed"]],
         ["incremental", "-", result["incremental"]["executed"],
          result["incremental"]["replayed"]]])
    print(f"warm speedup: {result['warm_speedup']:.1f}x "
          f"(target {WARM_SPEEDUP_TARGET:.0f}x)  "
          f"pool scaling: {result['pool_scaling']:.2f}x")
    save_result("bench_scenario_sweep", result)

    claims = result["claims"]
    assert claims["sweep_scale_ok"], result["n_scenarios"]
    assert claims["identical_across_workers"], result["worker_curve"]
    assert claims["warm_speedup_ok"], (
        result["warm_speedup"], WARM_SPEEDUP_TARGET)
    assert claims["incremental_only_novel"], result["incremental"]
