"""Fleet scaling benchmark — sharded multi-process serving vs one
:class:`BatchedService`.

Runs the :mod:`repro.fleet` driver: N closed-loop clients served by a
single-process batched service and by 1/2/4-replica serving fleets over
identical request streams, plus an open-loop tail-latency-vs-load sweep
with a finite staleness budget.  Replica batch runners pad each batch
to an emulated device-latency floor (same single-CPU methodology as
``bench_runtime_scaling.py``), so the throughput curve measures real
scheduling concurrency.  The committed JSON is the scaling evidence;
``check_regressions.py`` gates on per-request equivalence and zero
sheds below saturation (blocking) and on the >=2x throughput multiple
at 4 replicas (non-blocking — wall-clock ratios jitter on loaded
hosts).
"""

from repro.fleet import FleetBenchConfig, run_fleet_benchmark
from repro.fleet.driver import SPEEDUP_TARGET
from repro.runtime.bench import Claim

from bench_utils import print_table, save_result

BASELINE = "bench_fleet_scaling"


def run(smoke: bool = False) -> dict:
    config = FleetBenchConfig.smoke() if smoke else FleetBenchConfig()
    return {**run_fleet_benchmark(config), "smoke": smoke}


def test_fleet_scaling(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    cfg = result["config"]
    single = result["single_process"]
    rows = [["single-process", cfg["requests"],
             f"{single['throughput_rps']:.0f} rps", "1.00x",
             f"{single['p95_ms']:.1f}ms", single["shed"]]]
    for replicas in cfg["replica_counts"]:
        fr = result["fleet"][str(replicas)]
        rows.append([f"fleet x{replicas}", cfg["requests"],
                     f"{fr['throughput_rps']:.0f} rps",
                     f"{fr['speedup']:.2f}x", f"{fr['p95_ms']:.1f}ms",
                     fr["shed"]])
    print_table(
        f"Fleet scaling — {cfg['clients']} clients, batch "
        f"{cfg['max_batch_size']}, device floor "
        f"{cfg['per_batch_ms']:.0f}+{cfg['per_item_ms']:.0f}ms/item",
        ["Mode", "Requests", "Throughput", "Speedup", "p95", "Shed"],
        rows)
    sweep = result["load_sweep"]
    print_table(
        f"Staleness sweep — {sweep['replicas']} replicas, budget "
        f"{cfg['sweep_staleness_budget_ms']:.0f}ms",
        ["Load", "Offered", "Served", "Shed", "p95"],
        [[f"{p['fraction']:.2f}x", f"{p['offered_rps']:.0f} rps",
          f"{p['served_rps']:.0f} rps", p["shed"], f"{p['p95_ms']:.1f}ms"]
         for p in sweep["points"]])
    print(f"speedup@max: {result['speedup_at_max_replicas']:.2f}x  "
          f"equivalence max|diff|: "
          f"{result['equivalence_max_abs_diff']:.2e}  "
          f"sheds below saturation: "
          f"{result['closed_loop_sheds'] + result['sub_saturation_sweep_sheds']}")
    save_result(BASELINE, result)

    # Correctness claims are blocking everywhere; the throughput
    # multiple is asserted here (dedicated hosts) and only warned about
    # by the regression gate.
    assert result["equivalence_ok"], result["equivalence_max_abs_diff"]
    assert result["zero_sheds_below_saturation"]
    assert result["overload_sheds_engaged"]
    assert result["speedup_at_max_replicas"] >= SPEEDUP_TARGET, \
        result["speedup_at_max_replicas"]


# ------------------------------------------------------------ gate claims
def _throughput(now, base):
    # A scale claim: the target is for 4 replicas, the smoke run has 2.
    if now.get("smoke"):
        return None
    # Wall clock jitters with the host: the dedicated bench asserts the
    # target factor, the gate only warns.
    detail = (f"{now['speedup_at_max_replicas']:.2f}x at "
              f"{max(now['config']['replica_counts'])} replicas")
    if base is not None:
        detail += f" vs baseline {base['speedup_at_max_replicas']:.2f}x"
    return (now["speedup_at_max_replicas"] >= SPEEDUP_TARGET,
            f"{detail} (target {SPEEDUP_TARGET:.0f}x)")


CLAIMS = [
    # Sharding across replica processes never changes a trust value.
    Claim("fleet-serial-equivalent", True, lambda now, base: (
        now["equivalence_ok"],
        f"max |diff| {now['equivalence_max_abs_diff']:.2e} "
        f"(tol {now['equivalence_tol']:.0e})")),
    # The staleness admission contract: nothing shed below saturation.
    Claim("zero-sheds-below-saturation", True, lambda now, base: (
        now["zero_sheds_below_saturation"],
        f"{now['closed_loop_sheds']} closed-loop + "
        f"{now['sub_saturation_sweep_sheds']} sub-saturation sheds")),
    # Sheds engaging at overload is the feature working; wall-clock
    # dependent, so warning-only.
    Claim("overload-sheds-engage", False, lambda now, base: (
        now["overload_sheds_engaged"],
        "staleness shedding engaged at >1x offered load"
        if now["overload_sheds_engaged"]
        else "no sheds at the overload sweep point")),
    Claim("throughput-multiple", False, _throughput),
]
