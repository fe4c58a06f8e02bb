"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one entry point for the common flows without
writing any code:

* ``demo <name>``       — run one of the example scenarios inline;
* ``experiment <id>``   — regenerate one paper artifact (table2, fig5a,
  fig5b, auc, fig11, swarm, speculative, codesign); the full table and
  figure suite, including the heavier Table I / Fig. 7 / Fig. 9 runs,
  lives in ``benchmarks/``;
* ``profile <target>``  — run a scenario under a live metrics registry
  and emit the span tree + metrics (JSON via ``--out``, JSONL via
  ``--jsonl``, text summary to stdout); ``profile demo`` runs the
  built-in five-stage loop scenario;
* ``bench``             — run benchmark entry points (default: the fast
  shape-level subset) under a :class:`repro.runtime.WorkerPool`;
  ``--workers N`` fans them out over processes with results
  bit-identical to serial, ``--out`` keeps the aggregated JSON.
  Suite aliases select the timing-valued benches that are kept out of
  the default set: ``--micro`` appends the kernel micro-benchmarks
  (``MICRO_BENCHES``), ``--serving`` appends the serving-throughput
  benches (``SERVING_BENCHES``), and ``--fleet`` appends the
  fleet-scaling benches (``FLEET_BENCHES``), ``--compile`` appends
  the compile-stage benches (``COMPILE_BENCHES``), ``--control``
  appends the control-adaptation benches (``CONTROL_BENCHES``), and
  ``--federated`` appends the fleet-scale federated benches
  (``FEDERATED_BENCHES``), and ``--scenarios`` appends the scenario
  sweep benches (``SCENARIO_BENCHES``); ``--help-names`` lists every
  registered name with its ``[default]``/``[micro]``/``[serving]``/
  ``[fleet]``/``[compile]``/``[control]``/``[federated]``/
  ``[scenario]`` tag;
* ``serve-bench``       — run the micro-batched serving benchmark (N
  concurrent loops sharing one :class:`repro.serve.BatchedService`)
  and print the serial-vs-batched comparison; ``--smoke`` runs the
  seconds-scale CI variant.  Exit codes: 0 = equivalence, shedding,
  and p95 bounds all hold; 1 = a correctness/bound check failed
  (the throughput multiple is reported but never gates — wall-clock
  ratios jitter on shared hosts);
* ``fleet-bench``       — run the sharded multi-process serving
  benchmark (closed-loop clients over single-process vs 1/2/4-replica
  fleets plus a staleness-budget load sweep); ``--smoke`` runs the
  seconds-scale CI variant and ``--replicas`` overrides the replica
  curve.  Exit codes: 0 = per-request equivalence and
  zero-sheds-below-saturation hold; 1 = a correctness check failed
  (the throughput multiple never gates here either);
* ``compile-bench``     — run the compile-stage benchmark (eager vs
  traced vs fused vs fused+arena vs true-int8 over the same seeded
  models); ``--smoke`` runs the seconds-scale CI variant.  Exit codes:
  0 = float stages bit-match eager, the arena allocates nothing in
  steady state, int8 drift stays inside every layer's analytic bound,
  and fused+arena clears its speedup floor somewhere; 1 = a
  correctness/bound/speedup check failed;
* ``control-bench``     — run the control-adaptation sweep (the
  declarative :class:`repro.control.Controller` vs four static
  operating points over a corruption x load grid); fully analytic, so
  the payload is bit-reproducible.  Exit codes: 0 = the adaptive
  policy matches the best static config's accuracy at no more than
  its energy and actually reconfigured; 1 = a frontier check failed;
* ``fed-bench``         — run the fleet-scale asynchronous federated
  benchmark (sampled synchronous FedAvg vs buffered staleness-weighted
  aggregation over an identical 10^3-client heterogeneous fleet, plus
  a 1/2/4-worker determinism sweep); ``--smoke`` runs the
  seconds-scale 128-client CI variant and ``--clients`` overrides the
  fleet size.  Exit codes: 0 = async reaches the lockstep accuracy on
  the same update budget, needs >=2x less simulated fleet time, and
  produces byte-identical payloads under every worker count; 1 = an
  accuracy/speedup/determinism claim failed (the *wall-clock* sharding
  multiple is reported but never gates);
* ``scenario-bench``    — run the high-throughput scenario sweep
  benchmark (a corruption-stack x platform x traffic grid through the
  :mod:`repro.scenario` engine: 1/2/4-worker identity curve, cold vs
  warm replay store, incremental grid extension); ``--smoke`` runs the
  seconds-scale CI variant, ``--scenarios`` caps the grid,
  ``--workers`` overrides the worker curve.  Exit codes: 0 = worker
  bit-identity, warm >= 10x cold, and incremental-only-novel all hold
  (plus the 10^4 scale claim on uncapped full runs); 1 = a claim failed
  (pool wall-clock scaling is reported but never gates);
* ``cache``             — inspect (``info``) or empty (``clear``) the
  content-addressed artifact cache that memoizes generated datasets and
  pretrained R-MAE/VAE/Koopman weights;
* ``verify``            — golden-trace differential verification: replay
  the seven golden scenarios (five paper pillars plus the
  ``control_adaptation`` decision-trace episode and the
  ``scenario_sweep`` engine trace) serially, pooled,
  cached, quantized, under both kernel backends, and compiled
  (``repro.compile`` artifacts vs
  the eager float runs), diffing each against the committed goldens
  under ``tests/goldens/``
  (``--update-goldens`` re-records them).  Exit codes: 0 = all checks
  pass, 1 = mismatches, 2 = bad usage — the same contract the README
  documents, so CI can gate on it;
* ``list``              — enumerate available demos and experiments.

Every failure path (unknown demo/experiment/profile target, a demo
whose ``main`` reports failure) exits non-zero so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict

import numpy as np

__all__ = ["main", "EXPERIMENTS"]


# --------------------------------------------------------------- commands
def _table2() -> dict:
    from repro.generative import compare_energy, energy_ratio
    from repro.sim import LidarConfig, LidarScanner, sample_scene
    from repro.voxel import (
        RadialMaskConfig,
        VoxelGridConfig,
        beam_mask_from_segments,
        radial_mask,
        voxelize,
    )
    lidar = LidarConfig(n_azimuth=72, n_elevation=20)
    grid = VoxelGridConfig(nx=24, ny=24, nz=2)
    rng = np.random.default_rng(0)
    scanner = LidarScanner(lidar, rng=rng)
    scene = sample_scene(rng)
    full = scanner.scan(scene)
    cloud = voxelize(full.points, full.labels, grid)
    cfg = RadialMaskConfig(n_segments=24, segment_keep_fraction=0.25,
                           reference_range_m=10.0)
    _, segments = radial_mask(cloud, cfg, np.random.default_rng(1))
    expected = np.full(lidar.n_beams, lidar.max_range_m)
    expected[full.beam_ids] = full.ranges
    mask = beam_mask_from_segments(segments, lidar, cfg, expected,
                                   np.random.default_rng(2))
    masked = scanner.scan(scene, mask)
    reports = compare_energy(full, masked, 830_000, 335_000_000)
    return {
        "conventional": reports["conventional"].as_row(),
        "rmae": reports["rmae"].as_row(),
        "energy_ratio": round(energy_ratio(reports), 2),
    }


def _fig5a() -> dict:
    from repro.koopman import fig5a_macs
    return fig5a_macs(16, 1)


def _fig5b() -> dict:
    from repro.koopman import (
        build_model,
        collect_transitions,
        evaluate_controller,
        fit_dynamics_model,
        make_controller,
    )
    transitions = collect_transitions(n_episodes=12,
                                      rng=np.random.default_rng(0))
    out = {}
    for name, epochs in (("dense_koopman", 1), ("spectral_koopman", 90),
                         ("mlp", 25)):
        model = build_model(name, 4, 1, rng=np.random.default_rng(1))
        fit_dynamics_model(model, transitions, epochs=epochs,
                           rng=np.random.default_rng(2))
        controller = make_controller(model, np.random.default_rng(3))
        out[name] = {
            f"p={p}": round(evaluate_controller(
                controller, p, n_episodes=4, steps=150, seed=4,
                a_min=5.0, a_max=20.0), 1)
            for p in (0.0, 0.1, 0.25)
        }
    return out


def _auc() -> dict:
    from repro.starnet import AUCExperimentConfig, run_auc_experiment
    cfg = AUCExperimentConfig(n_fit_scans=24, n_test_scans=12,
                              severity=0.45, spsa_steps=25, vae_epochs=35)
    return {k: round(v, 4) for k, v in run_auc_experiment(cfg).items()}


def _swarm() -> dict:
    from repro.multiagent import compare_swarm_strategies
    res = compare_swarm_strategies(steps=40, seed=0)
    return {
        name: {"detection_rate": round(r.detection_rate, 3),
               "energy_mj": round(r.total_energy_mj, 1),
               "redundancy": round(r.mean_redundancy, 2)}
        for name, r in res.items()
    }


def _speculative() -> dict:
    from repro.federated import NGramLM, speculative_decode
    rng = np.random.default_rng(0)
    tokens = [0]
    for _ in range(5000):
        tokens.append((tokens[-1] + 1) % 12 if rng.random() < 0.8
                      else int(rng.integers(12)))
    target = NGramLM(12, order=3).fit(tokens)
    draft = NGramLM(12, order=1).fit(tokens)
    out = {}
    for k in (1, 2, 4, 8):
        stats = speculative_decode(target, draft, tokens[:3], 200, k=k,
                                   rng=np.random.default_rng(k))
        out[f"k={k}"] = {"acceptance": round(stats.acceptance_rate, 3),
                         "speedup": round(
                             stats.speedup_vs_autoregressive(), 2)}
    return out


def _fig11() -> dict:
    from repro.federated import MODES, FLClient, FLServer, make_fleet
    from repro.sim import make_synthetic_cifar, shard_dirichlet
    ds = make_synthetic_cifar(n_per_class=40, seed=0)
    train, test = ds.split(0.25, np.random.default_rng(1))
    shards = shard_dirichlet(train, 6, alpha=0.7,
                             rng=np.random.default_rng(2))
    fleet = make_fleet(6, rng=np.random.default_rng(3))
    out = {}
    for mode in MODES:
        clients = [FLClient(i, s, p, rng=np.random.default_rng(10 + i))
                   for i, (s, p) in enumerate(zip(shards, fleet))]
        server = FLServer(clients, test, hidden=32, mode=mode,
                          rng=np.random.default_rng(4))
        server.run(8)
        out[mode] = {k: round(v, 5) for k, v in server.totals().items()}
    return out


def _codesign() -> dict:
    from repro.core import LoopPlant, end_to_end_codesign, modular_codesign
    plant = LoopPlant()
    out = {}
    for budget in (2000, 4000, 8000, 15000, 30000):
        e2e, ue = end_to_end_codesign(plant, budget)
        _, um = modular_codesign(plant, budget)
        out[f"{budget}mW"] = {
            "e2e_utility": round(ue, 3),
            "modular_utility": round(um, 3),
            "e2e_design": str(e2e),
        }
    return out


EXPERIMENTS: Dict[str, Callable[[], dict]] = {
    "table2": _table2,
    "codesign": _codesign,
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "auc": _auc,
    "fig11": _fig11,
    "swarm": _swarm,
    "speculative": _speculative,
}

DEMOS = ("quickstart", "generative_lidar_perception",
         "koopman_cartpole_control", "robust_monitored_autonomy",
         "neuromorphic_optical_flow", "federated_edge_fleet",
         "uncertainty_aware_sensing")


def _run_demo(name: str) -> int:
    if name not in DEMOS:
        print(f"unknown demo {name!r}; choose from {', '.join(DEMOS)}",
              file=sys.stderr)
        return 2
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "examples",
        f"{name}.py")
    if not os.path.exists(path):
        print(f"example script not found at {path}", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Propagate the demo's own exit status instead of swallowing it:
    # a demo main() returning a nonzero code must fail the CLI (CI
    # gates on this).
    rc = module.main()
    return int(rc) if rc else 0


PROFILE_BUILTIN = "demo"


def _run_profile(target: str, out: str, jsonl: str, cycles: int) -> int:
    from repro import obs

    if (target != PROFILE_BUILTIN and target not in DEMOS
            and target not in EXPERIMENTS):
        choices = ", ".join([PROFILE_BUILTIN, *DEMOS, *sorted(EXPERIMENTS)])
        print(f"unknown profile target {target!r}; choose from {choices}",
              file=sys.stderr)
        return 2

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        if target == PROFILE_BUILTIN:
            obs.run_profile_scenario(cycles=cycles)
            rc = 0
        elif target in DEMOS:
            rc = _run_demo(target)
        else:
            EXPERIMENTS[target]()
            rc = 0
    if rc != 0:
        return rc

    payload = obs.registry_payload(registry)
    payload["target"] = target
    try:
        if out:
            with open(out, "w") as f:
                json.dump(payload, f, indent=2, default=str)
            print(f"wrote profile to {out}", file=sys.stderr)
        if jsonl:
            n = obs.export_jsonl(registry, jsonl)
            print(f"wrote {n} JSONL records to {jsonl}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot write profile artifact: {exc}", file=sys.stderr)
        return 2
    print(obs.render_report(registry, title=f"repro profile {target}"))
    if not out and not jsonl:
        print("\n(pass --out trace.json or --jsonl trace.jsonl to keep "
              "the machine-readable artifact)", file=sys.stderr)
    return 0


def _run_bench(names, workers, out: str) -> int:
    from repro import obs
    from repro.runtime import run_suite

    registry = obs.MetricsRegistry()
    try:
        with obs.use_registry(registry):
            payload = run_suite(names or None, workers=workers)
    except KeyError as exc:
        print(str(exc.args[0]) if exc.args else repr(exc), file=sys.stderr)
        return 2
    payload["meta"]["obs"] = registry.snapshot()["counters"]
    if out:
        try:
            with open(out, "w") as f:
                json.dump(payload, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write bench artifact: {exc}", file=sys.stderr)
            return 2
        print(f"wrote aggregated results to {out}", file=sys.stderr)
    meta = payload["meta"]
    print(json.dumps(payload["results"], indent=2, default=str))
    print(f"\n{len(payload['results'])} benches in {meta['wall_s']:.1f}s "
          f"with {meta['workers']} worker(s):", file=sys.stderr)
    for name, wall in sorted(meta["bench_wall_s"].items(),
                             key=lambda kv: -kv[1]):
        print(f"  {name:28s} {wall:7.2f}s", file=sys.stderr)
    return 0


def _run_serve_bench(smoke: bool, out: str, as_json: bool) -> int:
    from repro.serve import ServingBenchConfig, run_serving_benchmark

    config = ServingBenchConfig.smoke() if smoke else ServingBenchConfig()
    result = run_serving_benchmark(config)
    if out:
        try:
            with open(out, "w") as f:
                json.dump(result, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write serving artifact: {exc}", file=sys.stderr)
            return 2
        print(f"wrote serving results to {out}", file=sys.stderr)
    if as_json:
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
    else:
        cfg, serial, batched = (result["config"], result["serial"],
                                result["batched"])
        print(f"serving benchmark ({'smoke' if smoke else 'full'}): "
              f"{cfg['n_loops']} loops x {cfg['cycles_per_loop']} cycles, "
              f"batch {cfg['max_batch_size']}, "
              f"max_wait {cfg['max_wait_ms']:.0f}ms")
        print(f"  serial   {serial['throughput_rps']:8.0f} rps  "
              f"mean latency {serial['mean_latency_ms']:.2f}ms")
        print(f"  batched  {batched['throughput_rps']:8.0f} rps  "
              f"p50 {batched['p50_ms']:.2f}ms  p95 {batched['p95_ms']:.2f}ms "
              f" p99 {batched['p99_ms']:.2f}ms")
        print(f"  speedup {result['speedup']:.2f}x  "
              f"mean batch {batched['mean_batch_size']:.1f}  "
              f"shed {batched['shed']}  "
              f"equivalence max|diff| "
              f"{result['equivalence_max_abs_diff']:.2e}")
    # Correctness and scheduler-contract claims gate; the throughput
    # multiple is informational (wall clock jitters on shared hosts).
    ok = (result["equivalence_ok"] and result["batched"]["shed"] == 0
          and result["p95_within_max_wait"])
    if not ok:
        print("serve-bench FAILED: "
              f"equivalence_ok={result['equivalence_ok']} "
              f"shed={result['batched']['shed']} "
              f"p95_within_max_wait={result['p95_within_max_wait']}",
              file=sys.stderr)
    return 0 if ok else 1


def _run_fleet_bench(smoke: bool, replicas, out: str,
                     as_json: bool) -> int:
    from repro.fleet import FleetBenchConfig, run_fleet_benchmark

    if replicas and min(replicas) < 1:
        print(f"invalid --replicas {' '.join(map(str, replicas))}: "
              "counts must be >= 1", file=sys.stderr)
        return 2
    if smoke:
        config = (FleetBenchConfig.smoke(tuple(replicas)) if replicas
                  else FleetBenchConfig.smoke())
    elif replicas:
        config = FleetBenchConfig(replica_counts=tuple(replicas))
    else:
        config = FleetBenchConfig()
    result = run_fleet_benchmark(config)
    if out:
        try:
            with open(out, "w") as f:
                json.dump(result, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write fleet artifact: {exc}", file=sys.stderr)
            return 2
        print(f"wrote fleet results to {out}", file=sys.stderr)
    if as_json:
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
    else:
        cfg, single = result["config"], result["single_process"]
        print(f"fleet benchmark ({'smoke' if smoke else 'full'}): "
              f"{cfg['clients']} clients x {cfg['cycles_per_client']} "
              f"cycles, batch {cfg['max_batch_size']}, device floor "
              f"{cfg['per_batch_ms']:.0f}+{cfg['per_item_ms']:.0f}ms/item")
        print(f"  single-process {single['throughput_rps']:8.0f} rps  "
              f"p95 {single['p95_ms']:.1f}ms")
        for count in cfg["replica_counts"]:
            fr = result["fleet"][str(count)]
            print(f"  fleet x{count}       {fr['throughput_rps']:8.0f} rps  "
                  f"p95 {fr['p95_ms']:.1f}ms  speedup {fr['speedup']:.2f}x "
                  f" shed {fr['shed']}  spills {fr['spills']}")
        for point in result["load_sweep"]["points"]:
            print(f"  sweep {point['fraction']:.2f}x   "
                  f"offered {point['offered_rps']:6.0f} rps  served "
                  f"{point['served_rps']:6.0f} rps  shed {point['shed']}  "
                  f"p95 {point['p95_ms']:.1f}ms")
        print(f"  speedup@max {result['speedup_at_max_replicas']:.2f}x  "
              f"equivalence max|diff| "
              f"{result['equivalence_max_abs_diff']:.2e}  "
              f"sheds below saturation "
              f"{result['closed_loop_sheds'] + result['sub_saturation_sweep_sheds']}")
    # Same gating contract as serve-bench: correctness claims exit
    # non-zero, the wall-clock multiple is informational.
    ok = (result["equivalence_ok"]
          and result["zero_sheds_below_saturation"])
    if not ok:
        print("fleet-bench FAILED: "
              f"equivalence_ok={result['equivalence_ok']} "
              f"closed_loop_sheds={result['closed_loop_sheds']} "
              f"sub_saturation_sweep_sheds="
              f"{result['sub_saturation_sweep_sheds']}",
              file=sys.stderr)
    return 0 if ok else 1


def _run_compile_bench(smoke: bool, out: str, as_json: bool) -> int:
    import importlib.util
    import os

    from repro.runtime.bench import benchmarks_dir

    bench_dir = benchmarks_dir()
    path = os.path.join(bench_dir, "bench_compile.py")
    if not os.path.exists(path):
        print(f"bench module not found: {path}", file=sys.stderr)
        return 2
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)  # bench_compile imports bench_utils
    spec = importlib.util.spec_from_file_location("bench_compile", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    result = module.run_compile_stages(smoke=smoke)
    if out:
        try:
            with open(out, "w") as f:
                json.dump(result, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write compile artifact: {exc}", file=sys.stderr)
            return 2
        print(f"wrote compile results to {out}", file=sys.stderr)
    if as_json:
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
    else:
        print(f"compile benchmark ({'smoke' if smoke else 'full'}): "
              f"median of {result['reps']} reps x {result['inner']} "
              f"forwards")
        for name, m in result["models"].items():
            print(f"  {name}: {m['workload']}")
            for stage, r in m["stages"].items():
                extra = ""
                if "steady_state_allocations" in r:
                    extra = (f"  allocs {r['steady_state_allocations']}  "
                             f"arena {r['arena_bytes'] / 1e3:.0f}kB")
                diff = (f"  max|diff| {r['max_abs_diff']:.2e}"
                        if "max_abs_diff" in r else "")
                print(f"    {stage:12s} {r['wall_s'] * 1e6:9.1f}us  "
                      f"{r['speedup']:5.2f}x{diff}{extra}")
            for d in m["int8_layer_drift"]:
                print(f"    int8 {d['layer']:20s} drift "
                      f"{d['observed']:.2e} <= bound {d['bound']:.2e}  "
                      f"({d['weight_bytes']}B int8 vs "
                      f"{d['float_bytes']}B float)")
    # Correctness and the steady-state speedup floor gate; per-stage
    # wall-clock multiples are informational (host jitter).
    models = result["models"].values()
    float_ok = all(m["stages"][s]["max_abs_diff"]
                   < result["float_equiv_tol"]
                   for m in models
                   for s in ("traced", "fused", "fused_arena"))
    allocs_ok = all(m["stages"][s]["steady_state_allocations"] == 0
                    for m in models for s in ("fused_arena", "int8"))
    drift_ok = all(d["observed"] <= d["bound"]
                   for m in models for d in m["int8_layer_drift"])
    best = max(m["stages"]["fused_arena"]["speedup"] for m in models)
    speedup_ok = best >= result["speedup_target"]
    ok = float_ok and allocs_ok and drift_ok and speedup_ok
    if not ok:
        print("compile-bench FAILED: "
              f"float_equivalent={float_ok} zero_steady_allocs={allocs_ok} "
              f"int8_within_bound={drift_ok} "
              f"best_fused_arena={best:.2f}x "
              f"(target {result['speedup_target']:.1f}x)",
              file=sys.stderr)
    return 0 if ok else 1


def _run_control_bench(smoke: bool, out: str, as_json: bool) -> int:
    from repro.control.driver import run_control_adaptation

    result = run_control_adaptation(smoke=smoke)
    if out:
        try:
            with open(out, "w") as f:
                json.dump(result, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write control artifact: {exc}", file=sys.stderr)
            return 2
        print(f"wrote control results to {out}", file=sys.stderr)
    if as_json:
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
    else:
        cfg = result["config"]
        print(f"control adaptation ({'smoke' if smoke else 'full'}): "
              f"{len(cfg['severities'])}x{len(cfg['loads_rps'])} sweep, "
              f"{cfg['cycles']} cycles/episode "
              f"({cfg['warmup_cycles']} warmup excluded)")
        for name, agg in result["aggregate"].items():
            mark = ""
            if name in result["statics_dominated"]:
                mark = "  (dominated by adaptive)"
            elif name == result["best_static"]:
                mark = "  (best static)"
            print(f"  {name:16s} accuracy {agg['accuracy']:.4f}  "
                  f"energy {agg['energy_mj']:8.1f} mJ{mark}")
        print(f"  adaptive decisions: {result['adaptive_decisions']} over "
              f"{result['adaptive_steps']} controller steps")
    # The frontier claims gate; the dominated count is informational
    # (check_regressions.py reports it as a warning-level check).
    ok = (result["adaptive_matches_best_accuracy"]
          and result["adaptive_energy_leq_best_static"]
          and result["adaptive_decisions"] > 0)
    if not ok:
        print("control-bench FAILED: "
              f"matches_best_accuracy="
              f"{result['adaptive_matches_best_accuracy']} "
              f"energy_leq_best_static="
              f"{result['adaptive_energy_leq_best_static']} "
              f"decisions={result['adaptive_decisions']}",
              file=sys.stderr)
    return 0 if ok else 1


def _run_fed_bench(smoke: bool, clients, out: str, as_json: bool) -> int:
    from dataclasses import replace

    from repro.federated import (FederatedBenchConfig,
                                 run_federated_async_benchmark)

    config = (FederatedBenchConfig.smoke() if smoke
              else FederatedBenchConfig())
    if clients is not None:
        config = replace(config, n_clients=clients)
    result = run_federated_async_benchmark(config)
    if out:
        try:
            with open(out, "w") as f:
                json.dump(result, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write federated artifact: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote federated results to {out}", file=sys.stderr)
    if as_json:
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
    else:
        cfg = result["config"]
        lock, asy = result["lockstep"], result["async"]
        print(f"federated async ({'smoke' if smoke else 'full'}): "
              f"{cfg['n_clients']} clients, cohort {result['cohort']}, "
              f"budget {result['update_budget']} updates")
        print(f"  lockstep  acc {lock['final_accuracy']:.3f} in "
              f"{lock['virtual_s']:.1f}s virtual "
              f"({lock['updates']} updates)")
        print(f"  async     acc {asy['final_accuracy']:.3f} in "
              f"{asy['virtual_s']:.1f}s virtual "
              f"({asy['updates']} updates, staleness mean "
              f"{asy['staleness_mean']:.2f} max {asy['staleness_max']})")
        print(f"  simulated speedup {result['simulated_speedup']:.1f}x, "
              f"identical across workers "
              f"{sorted(result['async_by_workers'])}: "
              f"{result['claims']['identical_across_workers']}")
        print(f"  sharding wall speedup @{max(cfg['worker_counts'])} "
              f"workers: {result['sharding_speedup_at_max_workers']:.2f}x "
              "(informational)")
    claims = result["claims"]
    ok = (claims["reached_lockstep_accuracy"]
          and claims["simulated_speedup_ok"]
          and claims["identical_across_workers"])
    if not smoke and clients is None:
        ok = ok and claims["fleet_scale"]
    if not ok:
        print("fed-bench FAILED: "
              f"reached_lockstep_accuracy="
              f"{claims['reached_lockstep_accuracy']} "
              f"simulated_speedup={result['simulated_speedup']:.2f}x "
              f"identical_across_workers="
              f"{claims['identical_across_workers']}",
              file=sys.stderr)
    return 0 if ok else 1


def _run_scenario_bench(smoke: bool, scenarios_cap, workers, out: str,
                        as_json: bool) -> int:
    from dataclasses import replace

    from repro.scenario import (ScenarioBenchConfig,
                                run_scenario_sweep_benchmark)

    config = (ScenarioBenchConfig.smoke() if smoke
              else ScenarioBenchConfig())
    if scenarios_cap is not None:
        config = replace(config, max_scenarios=scenarios_cap)
    if workers is not None:
        config = replace(config, worker_counts=tuple(workers))
    result = run_scenario_sweep_benchmark(config)
    if out:
        try:
            with open(out, "w") as f:
                json.dump(result, f, indent=2, default=str)
        except OSError as exc:
            print(f"cannot write scenario artifact: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote scenario sweep results to {out}", file=sys.stderr)
    if as_json:
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
    else:
        print(f"scenario sweep ({'smoke' if smoke else 'full'}): "
              f"{result['n_scenarios']} scenarios")
        for row in result["worker_curve"]:
            print(f"  workers {row['workers']}: {row['wall_s']:6.2f}s "
                  f"({row['scenarios_per_s']:6.0f} scen/s)  "
                  f"payload {row['payload_sha'][:16]}")
        print(f"  identical across workers: "
              f"{result['claims']['identical_across_workers']}  "
              f"pool scaling {result['pool_scaling']:.2f}x "
              "(informational)")
        print(f"  cold {result['cold']['wall_s']:.2f}s -> warm "
              f"{result['warm']['wall_s']:.2f}s: "
              f"{result['warm_speedup']:.1f}x (target "
              f"{result['warm_speedup_target']:.0f}x)")
        inc = result["incremental"]
        print(f"  incremental extension: executed {inc['executed']} "
              f"(expected {inc['novel_expected']}), replayed "
              f"{inc['replayed']}")
    claims = result["claims"]
    ok = (claims["identical_across_workers"]
          and claims["warm_speedup_ok"]
          and claims["incremental_only_novel"])
    # The 10^4 scale claim only binds on uncapped full runs.
    if not smoke and scenarios_cap is None:
        ok = ok and claims["sweep_scale_ok"]
    if not ok:
        print("scenario-bench FAILED: "
              f"identical_across_workers="
              f"{claims['identical_across_workers']} "
              f"warm_speedup={result['warm_speedup']:.1f}x "
              f"incremental_only_novel="
              f"{claims['incremental_only_novel']} "
              f"sweep_scale_ok={claims['sweep_scale_ok']}",
              file=sys.stderr)
    return 0 if ok else 1


def _run_cache(action: str, as_json: bool) -> int:
    from repro.runtime import cache_enabled, get_cache

    cache = get_cache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
        return 0
    info = cache.info()
    info["enabled"] = cache_enabled()
    if as_json:
        json.dump(info, sys.stdout, indent=2)
        print()
        return 0
    print(f"artifact cache at {info['root']} "
          f"({'enabled' if info['enabled'] else 'DISABLED via REPRO_CACHE'})")
    print(f"  {info['entries']} entries, {info['total_bytes'] / 1e6:.2f} MB")
    for kind, count in sorted(info["by_kind"].items()):
        print(f"  {kind:20s} {count} artifact(s)")
    if not info["entries"]:
        print("  (empty — caches fill as examples/benchmarks pretrain "
              "models)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sensing-to-action loops for edge autonomy "
                    "(DATE 2025 reproduction)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list demos and experiments")
    demo = sub.add_parser("demo", help="run an example scenario")
    demo.add_argument("name", choices=DEMOS)
    exp = sub.add_parser("experiment",
                         help="regenerate a paper artifact (JSON to stdout)")
    exp.add_argument("id", choices=sorted(EXPERIMENTS))
    prof = sub.add_parser(
        "profile",
        help="run a scenario under live telemetry and emit span tree "
             "+ metrics ('demo' = built-in five-stage loop)")
    prof.add_argument("target",
                      help="'demo', an example name, or an experiment id")
    prof.add_argument("--out", default="",
                      help="write span tree + metrics JSON here")
    prof.add_argument("--jsonl", default="",
                      help="write one-record-per-line JSONL export here")
    prof.add_argument("--cycles", type=int, default=120,
                      help="loop cycles for the built-in 'demo' target")
    bench = sub.add_parser(
        "bench",
        help="run benchmark entry points (optionally in parallel) and "
             "aggregate their JSON results")
    bench.add_argument("names", nargs="*",
                       help="bench names (default: the fast subset; see "
                            "'repro bench --help-names')")
    bench.add_argument("--workers", type=int, default=None,
                       help="process count (default: $REPRO_WORKERS or 1); "
                            "results are bit-identical for any value")
    bench.add_argument("--out", default="",
                       help="write aggregated results JSON here")
    bench.add_argument("--micro", action="store_true",
                       help="include the kernel micro-benchmark suite "
                            "(MICRO_BENCHES: alone when no names are "
                            "given, appended otherwise)")
    bench.add_argument("--serving", action="store_true",
                       help="include the serving-throughput suite "
                            "(SERVING_BENCHES: alone when no names are "
                            "given, appended otherwise)")
    bench.add_argument("--fleet", action="store_true",
                       help="include the fleet-scaling suite "
                            "(FLEET_BENCHES: alone when no names are "
                            "given, appended otherwise)")
    bench.add_argument("--compile", action="store_true",
                       dest="compile_suite",
                       help="include the compile-stage suite "
                            "(COMPILE_BENCHES: alone when no names are "
                            "given, appended otherwise)")
    bench.add_argument("--control", action="store_true",
                       dest="control_suite",
                       help="include the control-adaptation suite "
                            "(CONTROL_BENCHES: alone when no names are "
                            "given, appended otherwise)")
    bench.add_argument("--federated", action="store_true",
                       dest="federated_suite",
                       help="include the fleet-scale federated suite "
                            "(FEDERATED_BENCHES: alone when no names are "
                            "given, appended otherwise)")
    bench.add_argument("--scenarios", action="store_true",
                       dest="scenario_suite",
                       help="include the scenario sweep suite "
                            "(SCENARIO_BENCHES: alone when no names are "
                            "given, appended otherwise)")
    bench.add_argument("--help-names", action="store_true",
                       help="list registered bench names with their "
                            "[default]/[micro]/[serving]/[fleet]/"
                            "[compile]/[control]/[federated]/[scenario] "
                            "tags and exit")
    serve = sub.add_parser(
        "serve-bench",
        help="run the micro-batched serving benchmark (serial vs "
             "batched over identical request streams); exits 1 if the "
             "equivalence, shedding, or p95 bound fails")
    serve.add_argument("--smoke", action="store_true",
                       help="seconds-scale CI variant (fewer loops and "
                            "cycles, batch size matched to loop count)")
    serve.add_argument("--out", default="",
                       help="write the full results JSON here")
    serve.add_argument("--json", action="store_true",
                       help="emit the full results JSON on stdout")
    fleet = sub.add_parser(
        "fleet-bench",
        help="run the sharded multi-process serving benchmark "
             "(single-process vs replica fleets + staleness load "
             "sweep); exits 1 if equivalence or "
             "zero-sheds-below-saturation fails")
    fleet.add_argument("--smoke", action="store_true",
                       help="seconds-scale CI variant (fewer clients "
                            "and cycles, smaller device floor)")
    fleet.add_argument("--replicas", type=int, nargs="+", default=None,
                       help="replica counts for the scaling curve "
                            "(default: 1 2 for smoke, 1 2 4 for full)")
    fleet.add_argument("--out", default="",
                       help="write the full results JSON here")
    fleet.add_argument("--json", action="store_true",
                       help="emit the full results JSON on stdout")
    compile_p = sub.add_parser(
        "compile-bench",
        help="run the compile-stage benchmark (eager vs traced vs fused "
             "vs fused+arena vs int8); exits 1 if a float-equivalence, "
             "zero-allocation, drift-bound, or speedup check fails")
    compile_p.add_argument("--smoke", action="store_true",
                           help="seconds-scale CI variant (fewer reps "
                                "and inner iterations)")
    compile_p.add_argument("--out", default="",
                           help="write the full results JSON here")
    compile_p.add_argument("--json", action="store_true",
                           help="emit the full results JSON on stdout")
    control_p = sub.add_parser(
        "control-bench",
        help="run the control-adaptation sweep (adaptive Controller vs "
             "static configs on the energy/accuracy frontier); exits 1 "
             "if the adaptive policy fails to match the best static "
             "accuracy at no more than its energy")
    control_p.add_argument("--smoke", action="store_true",
                           help="CI variant (sweep corners only, "
                                "shorter episodes)")
    control_p.add_argument("--out", default="",
                           help="write the full results JSON here")
    control_p.add_argument("--json", action="store_true",
                           help="emit the full results JSON on stdout")
    fed = sub.add_parser(
        "fed-bench",
        help="run the fleet-scale async federated benchmark (lockstep "
             "vs staleness-weighted async over an identical 10^3-client "
             "fleet + worker-count determinism sweep); exits 1 if an "
             "accuracy/speedup/determinism claim fails")
    fed.add_argument("--smoke", action="store_true",
                     help="seconds-scale CI variant (128 clients, "
                          "shorter sweeps)")
    fed.add_argument("--clients", type=int, default=None,
                     help="override the fleet size (default: 128 smoke, "
                          "1000 full)")
    fed.add_argument("--out", default="",
                     help="write the full results JSON here")
    fed.add_argument("--json", action="store_true",
                     help="emit the full results JSON on stdout")
    scenario_p = sub.add_parser(
        "scenario-bench",
        help="run the high-throughput scenario sweep benchmark "
             "(worker-identity curve, cold/warm replay store, "
             "incremental extension); exits 1 if a determinism or "
             "cache claim fails")
    scenario_p.add_argument("--smoke", action="store_true",
                            help="seconds-scale CI variant (reduced "
                                 "corruption grid, single platform)")
    scenario_p.add_argument("--scenarios", type=int, default=None,
                            help="cap the expanded grid at N scenarios "
                                 "(waives the 10^4 scale claim)")
    scenario_p.add_argument("--workers", type=int, nargs="+",
                            default=None,
                            help="worker counts for the identity curve "
                                 "(default: 1 2 for smoke, 1 2 4 full)")
    scenario_p.add_argument("--out", default="",
                            help="write the full results JSON here")
    scenario_p.add_argument("--json", action="store_true",
                            help="emit the full results JSON on stdout")
    cache = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk artifact cache "
             "($REPRO_CACHE_DIR, default ~/.cache/repro)")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable info")
    verify = sub.add_parser(
        "verify",
        help="golden-trace differential verification (serial / pooled / "
             "cached / quantized / kernels) against tests/goldens/")
    verify.add_argument("scenarios", nargs="*",
                        help="scenario names (default: all seven scenarios)")
    verify.add_argument("--update-goldens", action="store_true",
                        help="re-record goldens from fresh serial runs "
                             "before verifying")
    verify.add_argument("--workers", type=int, default=None,
                        help="pool size for the pooled differential "
                             "(default: max(2, $REPRO_WORKERS))")
    verify.add_argument("--goldens-dir", default="",
                        help="golden directory (default: tests/goldens "
                             "or $REPRO_GOLDENS_DIR)")
    verify.add_argument("--diff-out", default="",
                        help="write the full JSON verification report "
                             "(with per-field mismatches) here")
    verify.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout")
    verify.add_argument("--skip", default="",
                        help="comma-separated checks to skip "
                             "(serial,pooled,cache,quantized,kernels,"
                             "compiled)")

    args = parser.parse_args(argv)
    if args.command == "list":
        from repro.runtime import BENCHES
        print("demos:       ", ", ".join(DEMOS))
        print("experiments: ", ", ".join(sorted(EXPERIMENTS)))
        print("benches:     ", ", ".join(sorted(BENCHES)))
        print("profile:      demo (built-in loop), any demo name, or any "
              "experiment id")
        print("(the full table/figure suite lives in benchmarks/: "
              "pytest benchmarks/ --benchmark-only -s; 'repro bench "
              "--workers N' runs the fast subset in parallel)")
        return 0
    if args.command == "demo":
        return _run_demo(args.name)
    if args.command == "experiment":
        if args.id not in EXPERIMENTS:
            print(f"unknown experiment {args.id!r}; choose from "
                  f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
            return 2
        result = EXPERIMENTS[args.id]()
        json.dump(result, sys.stdout, indent=2, default=str)
        print()
        return 0
    if args.command == "profile":
        return _run_profile(args.target, args.out, args.jsonl, args.cycles)
    if args.command == "bench":
        if args.help_names:
            from repro.runtime import (BENCHES, COMPILE_BENCHES,
                                       CONTROL_BENCHES, DEFAULT_BENCHES,
                                       FEDERATED_BENCHES, FLEET_BENCHES,
                                       MICRO_BENCHES, SCENARIO_BENCHES,
                                       SERVING_BENCHES)
            for name in sorted(BENCHES):
                tag = "  [default]" if name in DEFAULT_BENCHES else ""
                if name in MICRO_BENCHES:
                    tag = "  [micro]"
                if name in SERVING_BENCHES:
                    tag = "  [serving]"
                if name in FLEET_BENCHES:
                    tag = "  [fleet]"
                if name in COMPILE_BENCHES:
                    tag = "  [compile]"
                if name in CONTROL_BENCHES:
                    tag = "  [control]"
                if name in FEDERATED_BENCHES:
                    tag = "  [federated]"
                if name in SCENARIO_BENCHES:
                    tag = "  [scenario]"
                print(f"{name}{tag}")
            return 0
        names = list(args.names)
        if args.micro:
            from repro.runtime import MICRO_BENCHES
            names.extend(n for n in MICRO_BENCHES if n not in names)
        if args.serving:
            from repro.runtime import SERVING_BENCHES
            names.extend(n for n in SERVING_BENCHES if n not in names)
        if args.fleet:
            from repro.runtime import FLEET_BENCHES
            names.extend(n for n in FLEET_BENCHES if n not in names)
        if args.compile_suite:
            from repro.runtime import COMPILE_BENCHES
            names.extend(n for n in COMPILE_BENCHES if n not in names)
        if args.control_suite:
            from repro.runtime import CONTROL_BENCHES
            names.extend(n for n in CONTROL_BENCHES if n not in names)
        if args.federated_suite:
            from repro.runtime import FEDERATED_BENCHES
            names.extend(n for n in FEDERATED_BENCHES if n not in names)
        if args.scenario_suite:
            from repro.runtime import SCENARIO_BENCHES
            names.extend(n for n in SCENARIO_BENCHES if n not in names)
        return _run_bench(names, args.workers, args.out)
    if args.command == "serve-bench":
        return _run_serve_bench(args.smoke, args.out, args.json)
    if args.command == "fleet-bench":
        return _run_fleet_bench(args.smoke, args.replicas, args.out,
                                args.json)
    if args.command == "compile-bench":
        return _run_compile_bench(args.smoke, args.out, args.json)
    if args.command == "control-bench":
        return _run_control_bench(args.smoke, args.out, args.json)
    if args.command == "fed-bench":
        return _run_fed_bench(args.smoke, args.clients, args.out, args.json)
    if args.command == "scenario-bench":
        return _run_scenario_bench(args.smoke, args.scenarios,
                                   args.workers, args.out, args.json)
    if args.command == "cache":
        return _run_cache(args.action, args.json)
    if args.command == "verify":
        from repro.testkit import main_verify
        return main_verify(args.scenarios, args.update_goldens,
                           args.workers, args.goldens_dir, args.diff_out,
                           args.json, args.skip)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
