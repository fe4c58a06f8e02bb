"""Async federated simulation at fleet scale — 10^3 clients, no barrier.

Runs the :mod:`repro.federated.driver` comparison: sampled synchronous
FedAvg (lockstep, barriered on each cohort's slowest device) vs
buffered staleness-weighted asynchronous aggregation with cost-aware
client sampling, over an identical 1000-client heterogeneous fleet,
identical IID shards, identical seeds, and an identical client-update
budget.  Virtual time comes from the event-driven scheduler, so the
headline speedup is a deterministic quantity, not a wall-clock
measurement; the async arm is additionally re-run under 1/2/4 pooled
workers and must produce byte-identical result payloads.

All three headline claims (accuracy parity, >=2x simulated speedup,
cross-worker identity) are asserted here and re-checked as blocking
gates by ``check_regressions.py`` against the committed JSON.
"""

from repro.federated import FederatedBenchConfig, run_federated_async_benchmark
from repro.federated.driver import SIM_SPEEDUP_TARGET
from repro.runtime.bench import Claim, needs_base

from bench_utils import AUC_TOL, print_table, save_result

BASELINE = "bench_federated_async"


def run(smoke: bool = False) -> dict:
    config = (FederatedBenchConfig.smoke() if smoke
              else FederatedBenchConfig())
    return {**run_federated_async_benchmark(config), "smoke": smoke}


def test_federated_async(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    cfg = result["config"]
    lock, asy = result["lockstep"], result["async"]
    print_table(
        f"Async vs lockstep FedAvg — {cfg['n_clients']} clients, "
        f"cohort {result['cohort']}, budget {result['update_budget']} "
        "updates",
        ["Arm", "Updates", "Virtual time", "Accuracy", "Energy",
         "Staleness"],
        [["lockstep", lock["updates"], f"{lock['virtual_s']:.1f}s",
          f"{lock['final_accuracy']:.3f}",
          f"{lock['total_energy_mj']:.1f}mJ", "0 (barrier)"],
         ["async", asy["updates"], f"{asy['virtual_s']:.1f}s",
          f"{asy['final_accuracy']:.3f}",
          f"{asy['total_energy_mj']:.1f}mJ",
          f"mean {asy['staleness_mean']:.2f} max "
          f"{asy['staleness_max']}"]])
    print_table(
        "Async determinism + sharding across worker counts",
        ["Workers", "Weights sha", "Wall", "Emulated wall"],
        [[w, run["weights_sha"][:16], f"{run['wall_s']:.2f}s",
          f"{result['sharding_wall_s'][w]:.2f}s"]
         for w, run in sorted(result["async_by_workers"].items(),
                              key=lambda kv: int(kv[0]))])
    print(f"simulated speedup: {result['simulated_speedup']:.1f}x  "
          f"target acc: {result['target_accuracy']:.3f}  "
          f"sharding wall speedup@max workers: "
          f"{result['sharding_speedup_at_max_workers']:.2f}x")
    save_result(BASELINE, result)

    claims = result["claims"]
    assert claims["fleet_scale"], cfg["n_clients"]
    assert claims["reached_lockstep_accuracy"], (
        asy["final_accuracy"], result["target_accuracy"])
    assert claims["simulated_speedup_ok"], (
        result["simulated_speedup"], SIM_SPEEDUP_TARGET)
    assert claims["identical_across_workers"], result["async_by_workers"]


# ------------------------------------------------------------ gate claims
def _fleet_scale(now, base):
    # A scale claim: the 128-client smoke fleet is small by design.
    if now.get("smoke"):
        return None
    return (now["claims"]["fleet_scale"],
            f"{now['config']['n_clients']} simulated clients (>= 1000)")


def _simulated_speedup(now, base):
    # Virtual-time totals come from the deterministic event scheduler,
    # so unlike wall-clock multiples this one can gate.
    detail = (f"{now['simulated_speedup']:.1f}x vs target "
              f"{SIM_SPEEDUP_TARGET:.0f}x")
    if base is not None:
        detail += f" (baseline {base['simulated_speedup']:.1f}x)"
    return now["claims"]["simulated_speedup_ok"], detail


def _accuracy_drift(now, base):
    # Absolute accuracy moves with numpy/seed changes: warning-only.
    acc, acc_base = (now["async"]["final_accuracy"],
                     base["async"]["final_accuracy"])
    drift = abs(acc - acc_base)
    return (drift <= AUC_TOL,
            f"async accuracy {acc:.3f} vs baseline {acc_base:.3f} "
            f"(|drift| {drift:.3f}, tol {AUC_TOL})")


def _sharding_wall(now, base):
    # A scale claim: the target is for 4 workers, the smoke run has 2.
    if now.get("smoke"):
        return None
    # The emulated-device sharding multiple is wall clock: report only.
    detail = (f"{now['sharding_speedup_at_max_workers']:.2f}x at "
              f"{max(now['config']['worker_counts'])} workers")
    if base is not None:
        detail += (" vs baseline "
                   f"{base['sharding_speedup_at_max_workers']:.2f}x")
    return now["sharding_speedup_at_max_workers"] >= 1.2, detail


CLAIMS = [
    Claim("fleet-scale", True, _fleet_scale),
    # Removing the round barrier costs no accuracy on the same budget.
    Claim("async-reaches-lockstep-accuracy", True, lambda now, base: (
        now["claims"]["reached_lockstep_accuracy"],
        f"async {now['async']['final_accuracy']:.3f} vs target "
        f"{now['target_accuracy']:.3f} (lockstep "
        f"{now['lockstep']['final_accuracy']:.3f} - tolerance)")),
    Claim("simulated-speedup", True, _simulated_speedup),
    # Sharding client training across processes is invisible in results.
    Claim("identical-across-workers", True, lambda now, base: (
        now["claims"]["identical_across_workers"],
        "async payload byte-identical at workers "
        f"{sorted(int(w) for w in now['async_by_workers'])}")),
    Claim("accuracy-vs-baseline", False, needs_base(_accuracy_drift)),
    Claim("sharding-wall-speedup", False, _sharding_wall),
]
