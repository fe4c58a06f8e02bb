"""Workloads ``sweep_cold`` and ``sweep_replay``: scenario sweeps.

The plan is a fixed sub-grid: 14 corruption stacks (every corruption
alone, and each followed by the next one) x all 3 platforms x all 3
traffic densities, with the workload seed as the scenario seed.  One
operation is one scenario; one request is one ``run_sweep`` call over
one stack's 9 platform x traffic scenarios, sharded over a
``WorkerPool`` of ``min(2, nproc)`` processes.

* ``sweep_cold`` sweeps the plan over and over, each pass into a fresh
  ``ReplayStore``: every request executes its scenarios (raycast and
  corruption at varied object counts) and writes them to the store.
* ``sweep_replay`` first sweeps the plan once into a store (warm-up,
  untimed), then requests the same slices again: every scenario is a
  replay, so fingerprinting and store reads are all that runs.
"""

from __future__ import annotations

import functools
import json
import os
from statistics import median
from typing import Dict, List

import numpy as np

from repro.runtime import WorkerPool
from repro.scenario import (
    PLATFORMS,
    TRAFFIC,
    ReplayStore,
    Scenario,
    SweepPlan,
    evaluate_scenario,
    run_sweep,
)
from repro.scenario import engine
from repro.sim import LidarScanner, corruption_names

from .harness import Checks, Tracer, perf, quantile, spans_on

SEVERITY = 0.5
SAMPLE_CHECKS = 4  # scenarios per run re-evaluated directly as a check


def plan_slices(seed: int) -> List[List[Scenario]]:
    names = corruption_names()
    stacks = [((n, SEVERITY),) for n in names]
    stacks += [((a, SEVERITY), (b, SEVERITY))
               for a, b in zip(names, names[1:] + names[:1])]
    return [SweepPlan(stacks=[stack], platforms=tuple(PLATFORMS),
                      traffics=tuple(TRAFFIC), seeds=(seed,)).scenarios()
            for stack in stacks]


class State:
    def __init__(self, seed: int, scratch: str, tag: int):
        self.seed = seed
        self.slices = plan_slices(seed)
        self.workers = min(2, os.cpu_count() or 1)
        self.pool = WorkerPool(self.workers)
        # Start the worker processes now, not inside the first request.
        self.pool.map(abs, range(self.workers), label="warm")
        self.store_root = os.path.join(scratch, "stores", str(tag))
        self.passes = 0
        self.store = None

    def fresh_store(self) -> ReplayStore:
        self.passes += 1
        self.store = ReplayStore(os.path.join(self.store_root,
                                              str(self.passes)))
        return self.store

    def close(self) -> None:
        self.pool.close()


def setup(seed: int, scratch: str, tag: int) -> State:
    return State(seed, scratch, tag)


# ------------------------------------------------------ traced adapters
class TracedStore:
    """Forwards to a ``ReplayStore``, with a span around each call."""

    def __init__(self, store: ReplayStore, tracer: Tracer):
        self.store = store
        self.tracer = tracer

    def lookup(self, keys):
        with self.tracer.span("scenario.store_lookup"):
            return self.store.lookup(keys)

    def insert(self, entries):
        with self.tracer.span("scenario.store_insert"):
            return self.store.insert(entries)


def _scenario_label(scenario: Scenario) -> str:
    return f"{scenario.platform}-{scenario.traffic}"


# Calls the program's worker task makes, each timed by a span.
WORKER_SPANS = [
    (engine, "evaluate_scenario", "scenario.evaluate", _scenario_label),
    (engine, "apply_corruption_stack", "sim.corrupt"),
    (LidarScanner, "scan", "sim.scan"),
    (Scenario, "fingerprint", "scenario.fingerprint"),
]


def _traced_task(chunk, fn, trace_id: str):
    """Worker side of a traced sweep: the task ``run_sweep`` handed the
    pool, run as it is with spans on the calls it makes.  Returns
    (result, spans).  Each scenario's spans carry the request's trace id
    extended by the scenario's platform and traffic."""
    tr = Tracer(True)
    tr.trace_id = trace_id
    with spans_on(tr, WORKER_SPANS), tr.span("runtime.task"):
        out = fn(chunk)
    return out, tr.spans


class TracedPool:
    """Stands in for the ``WorkerPool`` inside ``run_sweep``: runs the
    task it is given in the real pool, traced, and attaches the workers'
    spans."""

    def __init__(self, pool: WorkerPool, tracer: Tracer):
        self.pool = pool
        self.tracer = tracer
        self.workers = pool.workers
        self.busy_s = 0.0

    def map(self, fn, items, label=None):
        tr = self.tracer
        task = functools.partial(_traced_task, fn=fn, trace_id=tr.trace_id)
        with tr.span("runtime.pool_map") as span:
            out = self.pool.map(task, items, label=label)
        results = []
        for result, spans in out:
            results.append(result)
            tr.add_foreign(spans, span.index)
            self.busy_s += sum(s[2] - s[1] for s in spans
                               if s[0] == "runtime.task")
        return results


# ------------------------------------------------------------ measuring
def _requests(state: State, replay: bool, store, tracer: Tracer, checks,
              seconds: float, min_requests: int, max_requests: int,
              reference: Dict):
    """Issue sweep requests until ``seconds`` have passed and
    ``min_requests`` are done, or ``max_requests`` are done.  Returns
    request latencies, the pool used and the scenarios replayed."""
    walls = []
    replayed = 0
    pool = TracedPool(state.pool, tracer) if tracer.enabled else state.pool
    t_end = perf() + seconds
    n = 0
    n_slices = len(state.slices)
    while n < max_requests and (n < min_requests or perf() < t_end):
        i = n % n_slices
        if not replay and i == 0:
            store = state.fresh_store()
        scenarios = state.slices[i]
        target = TracedStore(store, tracer) if tracer.enabled else store
        tracer.trace_id = f"request-{n}"
        t0 = perf()
        with tracer.span("scenario.run_sweep"):
            result = run_sweep(scenarios, store=target, pool=pool)
        walls.append(perf() - t0)
        payload = result.payload_bytes()
        want_exec = 0 if replay else len(scenarios)
        ok_count = (result.executed == want_exec
                    and result.executed + result.replayed == len(scenarios)
                    and result.count == len(scenarios))
        expected = reference.setdefault(i, payload)
        checks.op(ok_count and payload == expected,
                  f"request {n} (slice {i}): executed={result.executed} "
                  f"replayed={result.replayed} "
                  f"rows_match={payload == expected}")
        checks.record(i, result.executed, result.replayed,
                      result.payload_sha())
        replayed += result.replayed
        n += 1
    return walls, pool, replayed


def _plan_rows(reference: Dict) -> List[dict]:
    return [row["metrics"] for i in sorted(reference)
            for row in json.loads(reference[i])]


def _sample_check(state: State, reference: Dict, checks: Checks) -> None:
    """Re-evaluate a seeded sample of scenarios directly and compare."""
    rng = np.random.default_rng(state.seed)
    for _ in range(SAMPLE_CHECKS):
        i = int(rng.integers(len(state.slices)))
        j = int(rng.integers(len(state.slices[i])))
        row = json.loads(reference[i])[j]
        direct = evaluate_scenario(state.slices[i][j])
        checks.op(row["metrics"] == dict(sorted(direct.items())),
                  f"slice {i} scenario {j}: swept row != evaluate_scenario")


def run(args, setup_s: float, state: State) -> dict:
    replay = args.workload == "sweep_replay"
    try:
        return _run(args, setup_s, state, replay)
    finally:
        state.close()


def _run(args, setup_s, state, replay) -> dict:
    checks = Checks(None if args.trace else len(state.slices))
    off = Tracer(False)
    reference: Dict[int, bytes] = {}
    n_slices = len(state.slices)
    store = None
    if replay:
        # Warm-up: one cold pass fills the store the measured phase reads.
        _requests(state, False, None, off, Checks(), 0.0, n_slices, n_slices,
                  reference)
        store = state.store
    else:
        # Warm-up: one request into a throwaway store.
        _requests(state, False, None, off, Checks(), 0.0, 1, 1, {})

    if not args.trace:
        walls, _, _ = _requests(state, replay, store, off, checks,
                                args.seconds, n_slices, 10 ** 9, reference)
        _sample_check(state, reference, checks)
        rows = _plan_rows(reference)
        per_op = [w / len(state.slices[i % n_slices])
                  for i, w in enumerate(walls)]
        n_ops = sum(len(state.slices[i % n_slices])
                    for i in range(len(walls)))
        return dict(checks=checks, metrics={
            "setup_s": setup_s,
            "ops_per_s": n_ops / sum(walls),
            "latency_p50_ms": 1e3 * median(per_op),
            "latency_p90_ms": 1e3 * quantile(per_op, 0.9),
            "energy_mj_per_op": float(np.mean([r["energy_mj"]
                                               for r in rows])),
        })

    # Traced run: the same requests untraced, then traced.
    walls, _, _ = _requests(state, replay, store, off, checks,
                            args.seconds / 2, n_slices, 10 ** 9, reference)
    tracer = Tracer(True)
    traced = Checks()
    # run_sweep fingerprints in this process too (its store keys).
    with spans_on(tracer, [(Scenario, "fingerprint",
                            "scenario.fingerprint")]):
        twalls, pool, replayed = _requests(state, replay, store, tracer,
                                           traced, 0.0, len(walls),
                                           len(walls), reference)
    checks.op(traced.digest == checks.digest,
              "traced requests diverged from the untraced ones")
    checks.attempted += traced.attempted
    checks.failed += traced.failed
    _sample_check(state, reference, checks)
    rows = _plan_rows(reference)
    n_ops = sum(len(state.slices[i % n_slices]) for i in range(len(twalls)))
    selfs = tracer.self_times()

    def per_op_ms(name):
        return 1e3 * selfs.get(name, 0.0) / n_ops

    map_s = sum(s[2] - s[1] for s in tracer.spans
                if s[0] == "runtime.pool_map")
    scan_s = selfs.get("sim.scan", 0.0)
    info = state.store.info()
    layers = {
        "sim.scan_ms": per_op_ms("sim.scan"),
        "sim.corrupt_ms": per_op_ms("sim.corrupt"),
        "scenario.evaluate_ms": per_op_ms("scenario.evaluate"),
        "scenario.fingerprint_ms": per_op_ms("scenario.fingerprint"),
        "scenario.store_lookup_ms": per_op_ms("scenario.store_lookup"),
        "scenario.store_insert_ms": per_op_ms("scenario.store_insert"),
        "scenario.sweep_self_ms": per_op_ms("scenario.run_sweep"),
        "scenario.replay_hit_ratio": replayed / n_ops,
        "scenario.store_bytes": info["total_bytes"] / info["entries"],
        "runtime.pool_overhead_ms":
            1e3 * (map_s - pool.busy_s / state.workers) / n_ops
            if not replay else 0.0,
        "hardware.sensing_mj": float(np.mean([r["energy_mj"]
                                              for r in rows])),
        "obs.tracing_overhead_frac": sum(twalls) / sum(walls) - 1.0,
    }
    if not replay:
        busy = sum(selfs.get(k, 0.0) for k in
                   ("sim.scan", "sim.corrupt", "scenario.evaluate"))
        layers["sim.scan_share"] = scan_s / busy if busy else 0.0
        layers["sim.points"] = float(np.mean([r["points_clean"]
                                              for r in rows]))
        layers["sim.beams_fired"] = float(np.mean(
            [s.lidar_config().n_beams for sl in state.slices for s in sl]))
    return dict(checks=checks, tracer=tracer, layers=layers)
