"""Serving-throughput benchmark — micro-batched vs serial inference.

Runs the :mod:`repro.serve` multi-loop driver: N concurrent
sensing-to-action loops share one batched STARNet trust service, against
the serial per-request baseline over identical environment streams.
The committed JSON is the throughput evidence for the serving runtime;
``check_regressions.py`` gates on the batched and serial trust values
staying equivalent (blocking) and warns if the speedup regresses below
its target (non-blocking — wall-clock ratios jitter on loaded hosts).
"""

from repro.runtime.bench import Claim
from repro.serve import ServingBenchConfig, run_serving_benchmark

from bench_utils import print_table, save_result

BASELINE = "bench_serving_throughput"
SPEEDUP_TARGET = 3.0


def run(smoke: bool = False) -> dict:
    config = ServingBenchConfig.smoke() if smoke else ServingBenchConfig()
    result = run_serving_benchmark(config)
    result["speedup_target"] = SPEEDUP_TARGET
    return result


def test_serving_throughput(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    cfg = result["config"]
    serial, batched = result["serial"], result["batched"]
    print_table(
        f"Serving throughput — {cfg['n_loops']} concurrent loops, "
        f"batch {cfg['max_batch_size']}, max_wait {cfg['max_wait_ms']}ms",
        ["Mode", "Requests", "Wall", "Throughput", "p95 latency"],
        [["serial", cfg["requests"], f"{serial['wall_s'] * 1e3:.1f}ms",
          f"{serial['throughput_rps']:.0f} rps",
          f"{serial['mean_latency_ms']:.2f}ms (mean)"],
         ["batched", cfg["requests"], f"{batched['wall_s'] * 1e3:.1f}ms",
          f"{batched['throughput_rps']:.0f} rps",
          f"{batched['p95_ms']:.2f}ms"]])
    print(f"speedup: {result['speedup']:.2f}x  "
          f"equivalence max|diff|: {result['equivalence_max_abs_diff']:.2e}  "
          f"mean batch: {batched['mean_batch_size']:.1f}  "
          f"shed: {batched['shed']}")
    save_result(BASELINE, result)

    # Correctness claims are hard; the throughput ratio is asserted here
    # (dedicated hosts) and only warned about by the regression gate.
    assert result["equivalence_ok"], result["equivalence_max_abs_diff"]
    assert batched["shed"] == 0
    assert result["p95_within_max_wait"], batched["p95_ms"]
    assert result["speedup"] >= SPEEDUP_TARGET, result["speedup"]


# ------------------------------------------------------------ gate claims
def _throughput(now, base):
    # Wall clock jitters with the host: the dedicated bench asserts the
    # target factor, the gate only warns.
    detail = f"{now['speedup']:.2f}x"
    if base is not None:
        detail += f" vs baseline {base['speedup']:.2f}x"
    return (now["speedup"] >= SPEEDUP_TARGET,
            f"{detail} (target {SPEEDUP_TARGET:.0f}x)")


CLAIMS = [
    # Batching never changes a trust value beyond kernel drift.
    Claim("batched-serial-equivalent", True, lambda now, base: (
        now["equivalence_ok"],
        f"max |diff| {now['equivalence_max_abs_diff']:.2e} "
        f"(tol {now['equivalence_tol']:.0e})")),
    # The scheduler honors its own contract at this depth.
    Claim("no-shedding", True, lambda now, base: (
        now["batched"]["shed"] == 0,
        f"{now['batched']['shed']} requests shed")),
    Claim("p95-within-max-wait", True, lambda now, base: (
        now["p95_within_max_wait"],
        f"p95 {now['batched']['p95_ms']:.2f}ms vs max_wait "
        f"{now['config']['max_wait_ms']:.0f}ms")),
    Claim("throughput-multiple", False, _throughput),
]
