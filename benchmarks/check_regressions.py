#!/usr/bin/env python
"""CI benchmark gate: re-run the fast benches and diff *shape-level*
claims against the committed ``benchmarks/results/*.json`` baselines.

Absolute numbers from the simulated substrates may drift with numpy or
seed changes; what must not drift silently is the paper's qualitative
shape — who wins, by roughly what factor, where the ordering falls.
Four fast benches cover four pillars:

* ``fig1_loop_adaptation`` — adaptive loop saves energy at matched
  recall; event-driven compute beats clocked by >10x;
* ``starnet_auc``          — every corruption family stays detectable;
* ``fig5a_model_macs``     — the analytic MAC ordering is bit-exact;
* ``kernel_hotpaths``      — the vectorized kernel backend stays a
  clear wall-clock win over the reference one and numerically
  equivalent to it;
* ``serving_throughput``   — micro-batched serving stays equivalent to
  serial per-request inference (blocking) and keeps its throughput
  multiple (warning);
* ``fleet_scaling``        — the sharded serving fleet answers every
  request with the single-process trust value and sheds nothing below
  saturation (blocking), keeps its >=2x multiple at 4 replicas and
  sheds under overload (warning);
* ``compile_stages``       — compiled float execution stays
  bit-identical to eager with zero steady-state allocations and a
  >=1.5x fused+arena win somewhere; int8 drift stays inside each
  layer's analytic bound (blocking); per-stage wall-clock multiples
  are host jitter (warning);
* ``control_adaptation``   — the adaptive control plane matches the
  best static config's accuracy at no more than its energy across the
  corruption x load sweep, and the payload is bit-identical to the
  committed baseline (the model is analytic — blocking); the count of
  statics it strictly Pareto-dominates is reported (warning);
* ``federated_async``      — asynchronous staleness-weighted
  aggregation over the 10^3-client fleet reaches the lockstep
  cohort's accuracy on the same update budget, in >=2x less
  *simulated* fleet time (virtual-time quantities are deterministic,
  so both gate as blocking), and the async arm's payload is
  byte-identical under 1/2/4 pooled workers (blocking); accuracy
  drift vs the stored baseline and the emulated-device wall-clock
  sharding multiple are reported (warning);
* ``scenario_sweep``       — the committed 10^4-scenario sweep JSON
  keeps its scale and claims, and a reduced live sweep re-proves the
  deterministic ones on this host: byte-identical payloads at 1/2/4
  workers, warm-cache re-sweep >= 10x cold, incremental extensions
  executing only novel scenarios (all blocking); pool wall-clock
  scaling is reported (warning).

Checks come in two severities.  **Blocking** checks guard shape-level
claims (who wins, orderings, detectability floors) and fail the gate.
**Warning** checks guard numeric drift against the stored baseline
(ratios, AUC deltas); they are reported but do not fail CI, because
absolute numbers legitimately move when numpy or seeds change.

Exit status: 0 = no blocking regression (warnings allowed),
1 = blocking regression, 2 = harness error.
Run from anywhere: ``python benchmarks/check_regressions.py``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# Relative tolerance for "roughly the same factor" comparisons.
RATIO_TOL = 0.35
# Absolute tolerance for AUC comparisons against the stored baseline.
AUC_TOL = 0.08

failures = []
warnings = []
checked = 0


def check(name: str, ok: bool, detail: str, blocking: bool = True) -> None:
    global checked
    checked += 1
    if ok:
        status = "ok  "
    else:
        status = "FAIL" if blocking else "warn"
    print(f"  [{status}] {name}: {detail}")
    if not ok:
        (failures if blocking else warnings).append(f"{name}: {detail}")


def load_baseline(name: str) -> dict:
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path) as f:
        return json.load(f)


def check_fig1() -> None:
    from bench_fig1_loop_adaptation import run_fig1

    print("fig1_loop_adaptation:")
    base = load_baseline("fig1_loop_adaptation")
    now = run_fig1()

    # Shape claim 1: the adaptive loop still wins on energy, and by a
    # factor comparable to the baseline's (the factor itself is numeric
    # drift, warning-only).
    ratio_now = now["static"]["energy_mj"] / now["adaptive"]["energy_mj"]
    ratio_base = (base["static"]["energy_mj"]
                  / base["adaptive"]["energy_mj"])
    check("adaptive-wins-energy",
          now["adaptive"]["energy_mj"] < now["static"]["energy_mj"],
          f"static {now['static']['energy_mj']:.0f} mJ vs adaptive "
          f"{now['adaptive']['energy_mj']:.0f} mJ")
    check("energy-ratio-stable",
          abs(ratio_now - ratio_base) <= RATIO_TOL * ratio_base,
          f"ratio {ratio_now:.2f}x vs baseline {ratio_base:.2f}x "
          f"(tol {RATIO_TOL:.0%})",
          blocking=False)

    # Shape claim 2: recall stays near the static loop's.
    check("recall-held",
          now["adaptive"]["hazard_recall"]
          >= now["static"]["hazard_recall"] - 0.25,
          f"adaptive recall {now['adaptive']['hazard_recall']:.2f} vs "
          f"static {now['static']['hazard_recall']:.2f}")

    # Shape claim 3: event-driven compute still wins by >10x.
    check("event-driven-wins",
          now["event_pj"] * 10 < now["clocked_pj"],
          f"clocked {now['clocked_pj']:.3g} pJ vs event "
          f"{now['event_pj']:.3g} pJ")


def check_starnet_auc() -> None:
    from bench_starnet_auc import run_auc

    print("starnet_auc:")
    base = load_baseline("starnet_auc")
    now = run_auc()

    check("same-corruption-families", set(now) == set(base),
          f"families {sorted(now)}")
    for family in sorted(base):
        if family not in now:
            continue
        # Detectability floor is a shape claim; drift against the stored
        # baseline value is numeric and warning-only.
        check(f"auc-floor-{family}", now[family] >= 0.85,
              f"{now[family]:.4f} (floor 0.85)")
        check(f"auc-drift-{family}",
              abs(now[family] - base[family]) <= AUC_TOL,
              f"{now[family]:.4f} vs baseline {base[family]:.4f} "
              f"(tol {AUC_TOL})",
              blocking=False)


def check_fig5a() -> None:
    from bench_fig5a_model_macs import run_fig5a

    print("fig5a_model_macs:")
    base = load_baseline("fig5a_model_macs")
    now = run_fig5a()

    order_now = sorted(now, key=lambda k: now[k]["total"])
    order_base = sorted(base, key=lambda k: base[k]["total"])
    check("mac-ordering", order_now == order_base,
          f"{' < '.join(order_now)}")
    check("spectral-wins", order_now and order_now[0] == "spectral_koopman",
          f"cheapest model: {order_now[0] if order_now else '?'}")
    # The counts are analytic: they must be bit-exact.
    drift = {k for k in base
             if k in now and now[k]["total"] != base[k]["total"]}
    check("analytic-macs-exact", not drift,
          "all totals match baseline" if not drift
          else f"totals drifted for {sorted(drift)}")


def check_kernel_hotpaths() -> None:
    from bench_kernel_hotpaths import run_kernel_hotpaths

    print("kernel_hotpaths:")
    base = load_baseline("bench_kernel_hotpaths")
    now = run_kernel_hotpaths()

    # Shape claim 1: the kernel registry still covers the same hot paths.
    check("same-kernel-set",
          set(now["kernels"]) == set(base["kernels"]),
          f"kernels {sorted(now['kernels'])}")

    # Shape claim 2: vectorization is still a clear win somewhere.  The
    # per-kernel factors are wall clock and jitter with the host, so
    # only the best one is blocking (with a floor well under the
    # committed baseline's headline speedup).
    best = max(r["speedup"] for r in now["kernels"].values())
    check("vectorized-wins", best >= 2.0,
          f"best speedup {best:.2f}x (floor 2.0x)")

    for name in sorted(base["kernels"]):
        if name not in now["kernels"]:
            continue
        r = now["kernels"][name]
        # Shape claim 3: the backends stay numerically equivalent at
        # scenario-sized inputs (last-ulp drift only).
        check(f"equivalent-{name}", r["max_abs_diff"] < 1e-6,
              f"max |diff| {r['max_abs_diff']:.2e}")
        # Wall-clock drift against the stored baseline is warning-only.
        check(f"no-slowdown-{name}", r["speedup"] >= 1.0,
              f"{r['speedup']:.2f}x vs baseline "
              f"{base['kernels'][name]['speedup']:.2f}x",
              blocking=False)


def check_serving() -> None:
    from bench_serving_throughput import SPEEDUP_TARGET, \
        run_serving_throughput

    print("serving_throughput:")
    base = load_baseline("bench_serving_throughput")
    now = run_serving_throughput()

    # Shape claim 1 (blocking): batched inference answers every request
    # with the same trust value the serial path computes — batching must
    # never change results beyond kernel drift.
    check("batched-serial-equivalent", now["equivalence_ok"],
          f"max |diff| {now['equivalence_max_abs_diff']:.2e} "
          f"(tol {now['equivalence_tol']:.0e})")
    # Shape claim 2 (blocking): the scheduler honors its own contract —
    # no requests shed at this depth, p95 within the coalescing bound.
    check("no-shedding", now["batched"]["shed"] == 0,
          f"{now['batched']['shed']} requests shed")
    check("p95-within-max-wait", now["p95_within_max_wait"],
          f"p95 {now['batched']['p95_ms']:.2f}ms vs max_wait "
          f"{now['config']['max_wait_ms']:.0f}ms")
    # Throughput is wall clock and jitters with the host: regression
    # against the target factor is warning-only here (the dedicated
    # bench asserts it).
    check("throughput-multiple",
          now["speedup"] >= SPEEDUP_TARGET,
          f"{now['speedup']:.2f}x vs baseline {base['speedup']:.2f}x "
          f"(target {SPEEDUP_TARGET:.0f}x)",
          blocking=False)


def check_fleet() -> None:
    from bench_fleet_scaling import run_fleet_scaling
    from repro.fleet.driver import SPEEDUP_TARGET

    print("fleet_scaling:")
    base = load_baseline("bench_fleet_scaling")
    now = run_fleet_scaling()

    # Shape claim 1 (blocking): sharding requests across replica
    # processes never changes a trust value beyond kernel drift.
    check("fleet-serial-equivalent", now["equivalence_ok"],
          f"max |diff| {now['equivalence_max_abs_diff']:.2e} "
          f"(tol {now['equivalence_tol']:.0e})")
    # Shape claim 2 (blocking): the staleness admission contract — no
    # request is shed while the fleet is below saturation, in either
    # the closed-loop runs or the sub-saturation sweep points.
    check("zero-sheds-below-saturation",
          now["zero_sheds_below_saturation"],
          f"{now['closed_loop_sheds']} closed-loop + "
          f"{now['sub_saturation_sweep_sheds']} sub-saturation sheds")
    # Sheds engaging at overload is the feature working; wall-clock
    # dependent, so warning-only.
    check("overload-sheds-engage", now["overload_sheds_engaged"],
          "staleness shedding engaged at >1x offered load"
          if now["overload_sheds_engaged"]
          else "no sheds at the overload sweep point",
          blocking=False)
    # Throughput is wall clock and jitters with the host: regression
    # against the target factor is warning-only here (the dedicated
    # bench asserts it).
    check("throughput-multiple",
          now["speedup_at_max_replicas"] >= SPEEDUP_TARGET,
          f"{now['speedup_at_max_replicas']:.2f}x at "
          f"{max(now['config']['replica_counts'])} replicas vs baseline "
          f"{base['speedup_at_max_replicas']:.2f}x "
          f"(target {SPEEDUP_TARGET:.0f}x)",
          blocking=False)


def check_compile() -> None:
    from bench_compile import (FLOAT_EQUIV_TOL, SPEEDUP_TARGET,
                               run_compile_stages)

    print("compile_stages:")
    base = load_baseline("bench_compile")
    now = run_compile_stages()

    # Shape claim 1 (blocking): the compile ladder still covers the
    # same models.
    check("same-model-set", set(now["models"]) == set(base["models"]),
          f"models {sorted(now['models'])}")

    best = 0.0
    for name in sorted(now["models"]):
        m = now["models"][name]
        stages = m["stages"]
        # Shape claim 2 (blocking): every compiled float stage replays
        # the exact eager arithmetic — capture, fusion and the arena
        # must never change a result.
        worst = max(stages[s]["max_abs_diff"]
                    for s in ("traced", "fused", "fused_arena"))
        check(f"float-equivalent-{name}", worst < FLOAT_EQUIV_TOL,
              f"max |diff| {worst:.2e} (tol {FLOAT_EQUIV_TOL:.0e})")
        # Shape claim 3 (blocking): the arena's zero-allocation contract
        # holds in steady state (deterministic, not wall clock).
        allocs = sum(stages[s]["steady_state_allocations"]
                     for s in ("fused_arena", "int8"))
        check(f"zero-steady-allocs-{name}", allocs == 0,
              f"{allocs} steady-state allocations")
        # Shape claim 4 (blocking): observed int8 drift stays inside the
        # analytic per-layer bound — the bound is worst-case math, so
        # any violation is an arithmetic bug, not jitter.
        bad = [d["layer"] for d in m["int8_layer_drift"]
               if d["observed"] > d["bound"]]
        check(f"int8-within-bound-{name}", not bad,
              "all layers inside drift bound" if not bad
              else f"bound exceeded: {bad}")
        # Wall clock is host-dependent: per-model no-slowdown for the
        # fused stages is warning-only (the blocking claim is the best
        # multiple below).  traced and int8 are excluded by design:
        # traced prices capture alone and int8 trades wall clock on
        # this float substrate for the 8x weight-memory win.
        for s in ("fused", "fused_arena"):
            check(f"no-slowdown-{name}-{s}", stages[s]["speedup"] >= 1.0,
                  f"{stages[s]['speedup']:.2f}x vs baseline "
                  f"{base['models'][name]['stages'][s]['speedup']:.2f}x",
                  blocking=False)
        best = max(best, stages["fused_arena"]["speedup"])

    # Shape claim 5 (blocking): fusion + arena planning stays a clear
    # steady-state win somewhere.
    check("fused-arena-wins", best >= SPEEDUP_TARGET,
          f"best fused+arena speedup {best:.2f}x "
          f"(floor {SPEEDUP_TARGET:.1f}x)")


def check_control() -> None:
    from repro.control.driver import run_control_adaptation

    print("control_adaptation:")
    base = load_baseline("bench_control_adaptation")
    now = run_control_adaptation()

    agg = now["aggregate"]
    best = now["best_static"]
    # Shape claim 1 (blocking): adaptation never costs accuracy — the
    # controller matches the most accurate static operating point.
    check("adaptive-matches-best-accuracy",
          now["adaptive_matches_best_accuracy"],
          f"adaptive {agg['adaptive']['accuracy']:.4f} vs {best} "
          f"{agg[best]['accuracy']:.4f}")
    # Shape claim 2 (blocking): that accuracy comes cheaper — at most
    # the best static's energy across the whole sweep.
    check("adaptive-energy-leq-best-static",
          now["adaptive_energy_leq_best_static"],
          f"adaptive {agg['adaptive']['energy_mj']:.1f} mJ vs {best} "
          f"{agg[best]['energy_mj']:.1f} mJ")
    # Shape claim 3 (blocking): the win is not a vacuous tie — the
    # policy actually fired.
    check("policy-reconfigured", now["adaptive_decisions"] > 0,
          f"{now['adaptive_decisions']} decisions over "
          f"{now['adaptive_steps']} controller steps")
    # Shape claim 4 (blocking): the sweep is analytic with no RNG and
    # no clock reads, so regeneration must be *bit-identical* to the
    # committed baseline — any diff is a semantics change, not jitter.
    check("bit-identical-to-baseline",
          json.dumps(now, sort_keys=True) == json.dumps(base,
                                                        sort_keys=True),
          "payload matches committed baseline byte-for-byte")
    # How many statics the adaptive policy strictly dominates is the
    # headline number; a partial-dominance future tradeoff should be a
    # visible warning, not a CI failure.
    check("dominates-every-static",
          now["n_statics_dominated"] == now["n_statics"],
          f"{now['n_statics_dominated']}/{now['n_statics']} statics "
          f"dominated ({', '.join(now['statics_dominated']) or 'none'})",
          blocking=False)


def check_federated() -> None:
    from bench_federated_async import run_federated_async
    from repro.federated.driver import SIM_SPEEDUP_TARGET

    print("federated_async:")
    base = load_baseline("bench_federated_async")
    now = run_federated_async()
    claims = now["claims"]

    # Shape claim 1 (blocking): the simulation actually runs at fleet
    # scale — the headline is 10^3+ clients, not a toy cohort.
    check("fleet-scale", claims["fleet_scale"],
          f"{now['config']['n_clients']} simulated clients (>= 1000)")
    # Shape claim 2 (blocking): removing the round barrier costs no
    # accuracy — async reaches the lockstep arm's final accuracy on
    # the same client-update budget.
    check("async-reaches-lockstep-accuracy",
          claims["reached_lockstep_accuracy"],
          f"async {now['async']['final_accuracy']:.3f} vs target "
          f"{now['target_accuracy']:.3f} (lockstep "
          f"{now['lockstep']['final_accuracy']:.3f} - tolerance)")
    # Shape claim 3 (blocking): it gets there in a fraction of the
    # simulated fleet time.  Virtual-time totals come from the
    # deterministic event scheduler — no host jitter — so unlike the
    # wall-clock multiples elsewhere this one can gate.
    check("simulated-speedup", claims["simulated_speedup_ok"],
          f"{now['simulated_speedup']:.1f}x vs target "
          f"{SIM_SPEEDUP_TARGET:.0f}x (baseline "
          f"{base['simulated_speedup']:.1f}x)")
    # Shape claim 4 (blocking): sharding client training across worker
    # processes is invisible in the results — payloads (weights hash,
    # eval history, virtual timeline) are byte-identical at every
    # worker count.
    check("identical-across-workers", claims["identical_across_workers"],
          "async payload byte-identical at workers "
          f"{sorted(int(w) for w in now['async_by_workers'])}")
    # Absolute accuracy legitimately moves with numpy/seed changes:
    # drift vs the stored baseline is a warning, not a failure.
    drift = abs(now["async"]["final_accuracy"]
                - base["async"]["final_accuracy"])
    check("accuracy-vs-baseline", drift <= AUC_TOL,
          f"async accuracy {now['async']['final_accuracy']:.3f} vs "
          f"baseline {base['async']['final_accuracy']:.3f} "
          f"(|drift| {drift:.3f}, tol {AUC_TOL})",
          blocking=False)
    # The emulated-device sharding multiple is wall clock: report only.
    check("sharding-wall-speedup",
          now["sharding_speedup_at_max_workers"] >= 1.2,
          f"{now['sharding_speedup_at_max_workers']:.2f}x at "
          f"{max(now['config']['worker_counts'])} workers vs baseline "
          f"{base['sharding_speedup_at_max_workers']:.2f}x",
          blocking=False)


def check_scenario() -> None:
    from repro.scenario import ScenarioBenchConfig
    from repro.scenario.driver import (
        WARM_SPEEDUP_TARGET,
        run_scenario_sweep_benchmark,
    )

    print("scenario_sweep:")
    base = load_baseline("bench_scenario_sweep")

    # The committed baseline is the full 10^4-scenario run (nightly /
    # local); the gate re-verifies its claims and re-runs a reduced
    # sweep live so the deterministic claims are checked on this host,
    # not just trusted from the JSON.
    check("sweep-scale", base["claims"]["sweep_scale_ok"]
          and base["n_scenarios"] >= 10_000,
          f"committed sweep covers {base['n_scenarios']} scenarios "
          "(>= 10^4)")
    for claim in ("identical_across_workers", "warm_speedup_ok",
                  "incremental_only_novel"):
        check(f"baseline-{claim.replace('_', '-')}",
              base["claims"][claim], "holds in committed full-sweep JSON")

    live = run_scenario_sweep_benchmark(ScenarioBenchConfig(
        severities=(0.5, 1.0), platforms=("vehicle",),
        traffics=("urban",), seeds=(0,), extension_seeds=(1,)))

    # Shape claim 1 (blocking): sharded execution is invisible in the
    # results — payloads are byte-identical at 1/2/4 workers.
    check("identical-across-workers",
          live["claims"]["identical_across_workers"],
          f"payload byte-identical at workers "
          f"{[r['workers'] for r in live['worker_curve']]} over "
          f"{live['n_scenarios']} scenarios")
    # Shape claim 2 (blocking): the content-addressed replay store
    # makes a warm re-sweep >= 10x faster than cold.
    check("warm-cache-speedup", live["claims"]["warm_speedup_ok"],
          f"{live['warm_speedup']:.1f}x vs target "
          f"{WARM_SPEEDUP_TARGET:.0f}x (baseline "
          f"{base['warm_speedup']:.1f}x)")
    # Shape claim 3 (blocking): an overlapping grid extension executes
    # only the novel scenarios.
    check("incremental-only-novel",
          live["claims"]["incremental_only_novel"],
          f"extension executed {live['incremental']['executed']} "
          f"(expected {live['incremental']['novel_expected']}), "
          f"replayed {live['incremental']['replayed']}")
    # Wall-clock scaling jitters on shared hosts: report only.
    check("pool-scaling", base["claims"]["pool_scaling_ok"],
          f"baseline full sweep {base['pool_scaling']:.2f}x at "
          f"{max(base['config']['worker_counts'])} workers (live "
          f"reduced sweep {live['pool_scaling']:.2f}x)",
          blocking=False)


GATES = (check_fig1, check_starnet_auc, check_fig5a,
         check_kernel_hotpaths, check_serving, check_fleet,
         check_compile, check_control, check_federated, check_scenario)


def main() -> int:
    print("benchmark regression gate "
          "(shape-level diffs vs benchmarks/results/)")
    summary = []  # (gate, checks, blocking fails, warnings, error?)
    for fn in GATES:
        gate = fn.__name__.replace("check_", "")
        before = (checked, len(failures), len(warnings))
        try:
            fn()
        except Exception as exc:  # harness failure, not a regression
            print(f"ERROR running {fn.__name__}: {exc!r}")
            summary.append((gate, checked - before[0], 0, 0, True))
            _print_summary(summary)
            return 2
        summary.append((gate, checked - before[0],
                        len(failures) - before[1],
                        len(warnings) - before[2], False))
    print(f"\n{checked} checks, {len(failures)} blocking regressions, "
          f"{len(warnings)} warnings")
    for w in warnings:
        print(f"  warning (non-blocking): {w}")
    if failures:
        for f in failures:
            print(f"  regression (blocking): {f}")
    _print_summary(summary)
    return 1 if failures else 0


def _print_summary(summary) -> None:
    """One line per gate so a CI log scan answers 'what failed?'."""
    width = max(len(gate) for gate, *_ in summary)
    print("\ngate summary:")
    for gate, n, fails, warns, errored in summary:
        if errored:
            status = "ERROR"
        elif fails:
            status = f"FAIL ({fails} blocking)"
        else:
            status = "PASS" + (f" ({warns} warnings)" if warns else "")
        print(f"  {gate.ljust(width)}  {n:3d} checks  {status}")


if __name__ == "__main__":
    raise SystemExit(main())
