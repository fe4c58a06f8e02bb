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

from repro.runtime.bench import Claim, needs_base
from repro.scenario import ScenarioBenchConfig, run_scenario_sweep_benchmark
from repro.scenario.driver import WARM_SPEEDUP_TARGET

from bench_utils import print_table, save_result

BASELINE = "bench_scenario_sweep"

# The regression gate trusts the committed full sweep for its scale and
# re-proves the deterministic claims live on this reduced grid (every
# corruption, two severities, one platform/traffic/seed).
GATE_CONFIG = ScenarioBenchConfig(
    severities=(0.5, 1.0), platforms=("vehicle",), traffics=("urban",),
    seeds=(0,), extension_seeds=(1,))


def run(smoke: bool = False) -> dict:
    config = ScenarioBenchConfig.smoke() if smoke else ScenarioBenchConfig()
    return {**run_scenario_sweep_benchmark(config), "smoke": smoke}


def run_gate() -> dict:
    return run_scenario_sweep_benchmark(GATE_CONFIG)


def test_scenario_sweep(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
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
    save_result(BASELINE, result)

    claims = result["claims"]
    assert claims["sweep_scale_ok"], result["n_scenarios"]
    assert claims["identical_across_workers"], result["worker_curve"]
    assert claims["warm_speedup_ok"], (
        result["warm_speedup"], WARM_SPEEDUP_TARGET)
    assert claims["incremental_only_novel"], result["incremental"]


# ------------------------------------------------------------ gate claims
# The full-sweep claims read the committed baseline when there is one
# (the gate's live run is the reduced grid) and the fresh payload
# otherwise; the scale claim does not apply to a smoke run.
def _sweep_scale(now, base):
    full = base if base is not None else now
    if full.get("smoke"):
        return None
    return (full["claims"]["sweep_scale_ok"]
            and full["n_scenarios"] >= 10_000,
            f"{'committed ' if base is not None else ''}sweep covers "
            f"{full['n_scenarios']} scenarios (>= 10^4)")


def _baseline_claim(claim):
    return needs_base(lambda now, base: (
        base["claims"][claim], "holds in committed full-sweep JSON"))


def _warm_speedup(now, base):
    detail = (f"{now['warm_speedup']:.1f}x vs target "
              f"{WARM_SPEEDUP_TARGET:.0f}x")
    if base is not None:
        detail += f" (baseline {base['warm_speedup']:.1f}x)"
    return now["claims"]["warm_speedup_ok"], detail


def _pool_scaling(now, base):
    # Wall-clock scaling jitters on shared hosts: report only.
    def curve(r):
        return (f"{r['pool_scaling']:.2f}x at "
                f"{max(r['config']['worker_counts'])} workers")
    if base is None:
        return now["claims"]["pool_scaling_ok"], curve(now)
    return (base["claims"]["pool_scaling_ok"],
            f"baseline full sweep {curve(base)} (live reduced sweep "
            f"{now['pool_scaling']:.2f}x)")


CLAIMS = [
    Claim("sweep-scale", True, _sweep_scale),
    *(Claim(f"baseline-{claim.replace('_', '-')}", True,
            _baseline_claim(claim))
      for claim in ("identical_across_workers", "warm_speedup_ok",
                    "incremental_only_novel")),
    # Sharded execution is invisible: byte-identical at every worker count.
    Claim("identical-across-workers", True, lambda now, base: (
        now["claims"]["identical_across_workers"],
        f"payload byte-identical at workers "
        f"{[r['workers'] for r in now['worker_curve']]} over "
        f"{now['n_scenarios']} scenarios")),
    # The content-addressed replay store makes a warm re-sweep fast.
    Claim("warm-cache-speedup", True, _warm_speedup),
    # An overlapping grid extension executes only the novel scenarios.
    Claim("incremental-only-novel", True, lambda now, base: (
        now["claims"]["incremental_only_novel"],
        f"extension executed {now['incremental']['executed']} "
        f"(expected {now['incremental']['novel_expected']}), "
        f"replayed {now['incremental']['replayed']}")),
    Claim("pool-scaling", False, _pool_scaling),
]
