"""Fleet scaling benchmark driver.

Serves the same deterministic multi-client STARNet trust workload three
ways and compares them request-for-request:

* **reference** — the parent process scores every client stream
  directly through :meth:`STARNet.assess_batch` (ground truth for the
  equivalence gate);
* **single-process** — all clients share one :class:`BatchedService`
  (the PR-5 serving baseline);
* **fleet** — the clients are sharded across a
  :class:`~repro.fleet.fabric.ServingFleet` of 1/2/4 replica
  processes.

Each replica's batch runner is wrapped in an
:class:`EmulatedServiceRunner` that pads every batch to a *device
latency floor* (``per_batch_ms + per_item_ms x batch_size``), the same
honest single-CPU methodology as ``bench_runtime_scaling.py``: the
floor models a fixed-latency accelerator/sensor round-trip that
overlaps across replicas but not within one, so the throughput ratio
measures real scheduling concurrency rather than Python compute
parallelism the host may not have.  The single-process baseline runs
the *identical* wrapped runner, so the comparison is apples-to-apples.

Equivalence holds because :class:`MonitorRunnerFactory` keys the model
weights off the seed carried inside the factory (ignoring the
per-replica seed): every replica and the parent reference build
bit-identical monitors, and ``assess_batch`` rows are independent, so
per-request trust values agree to kernel drift tolerance no matter how
requests are sharded or batched.

The load sweep drives a fresh 2-replica fleet open-loop at fractions of
its measured closed-loop capacity with a finite staleness budget:
sub-saturation points must shed nothing (blocking gate), the overload
point should shed (the admission control engaging is the feature).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.components import Percept
from ..serve.driver import EQUIVALENCE_TOL, FeatureEnv
from ..serve.scheduler import BatchedService, BatcherConfig
from ..starnet.monitor import STARNet
from .fabric import RequestShed, ServingFleet
from .replica import ReplicaSpec
from .scheduler import FleetConfig

__all__ = ["FleetBenchConfig", "MonitorRunnerFactory",
           "EmulatedServiceRunner", "run_fleet_benchmark"]

SPEEDUP_TARGET = 2.0  # fleet@max-replicas over single-process BatchedService
SCORE_METHOD = "exact"  # the likelihood-regret method every monitor uses


@dataclass(frozen=True)
class FleetBenchConfig:
    """Workload shape and fleet knobs for the scaling benchmark."""

    clients: int = 24
    cycles_per_client: int = 20
    feature_dim: int = 6
    replica_counts: Tuple[int, ...] = (1, 2, 4)
    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    max_queue_depth: int = 64
    spill_depth: int = 6
    fit_epochs: int = 15
    seed: int = 0
    # Emulated device latency floor per batch (see module docstring).
    per_batch_ms: float = 8.0
    per_item_ms: float = 5.0
    # Closed-loop requests declare a generous staleness budget: queueing
    # under benign load must never shed (the blocking gate).
    closed_loop_staleness_budget_ms: float = 1000.0
    # Open-loop tail-latency sweep: offered load as fractions of the
    # measured closed-loop capacity at ``sweep_replicas``.
    sweep_replicas: int = 2
    sweep_fractions: Tuple[float, ...] = (0.35, 0.7, 1.8)
    sweep_duration_s: float = 2.5
    sweep_staleness_budget_ms: float = 150.0
    inprocess: bool = False
    transport: str = "auto"

    @classmethod
    def smoke(cls) -> "FleetBenchConfig":
        """CI-sized variant (seconds): fewer clients/cycles, tiny fit,
        shorter sweep, 1/2 replicas — same gates, smaller evidence."""
        return cls(clients=6, cycles_per_client=5, replica_counts=(1, 2),
                   max_batch_size=4, fit_epochs=5, per_batch_ms=6.0,
                   per_item_ms=3.0, sweep_fractions=(0.3, 2.5),
                   sweep_duration_s=0.8)


class EmulatedServiceRunner:
    """Pad each batch to a fixed device-latency floor.

    The wrapped runner's real compute overlaps the floor (the sleep
    covers only the remainder), so the floor is a *minimum* batch
    latency — the emulated accelerator round-trip — not an additive
    cost.
    """

    def __init__(self, runner, per_batch_ms: float, per_item_ms: float):
        self.runner = runner
        self.per_batch_ms = per_batch_ms
        self.per_item_ms = per_item_ms

    def __call__(self, items: List[Any]) -> List[Any]:
        t0 = time.perf_counter()
        results = self.runner(items)
        floor_s = (self.per_batch_ms + self.per_item_ms * len(items)) / 1e3
        remaining = floor_s - (time.perf_counter() - t0)
        if remaining > 0:
            time.sleep(remaining)
        return results


class _FeatureBatchRunner:
    """Batch runner over raw feature vectors (shared-memory friendly:
    requests are plain arrays, results are plain floats)."""

    def __init__(self, monitor: STARNet):
        self.monitor = monitor

    def __call__(self, items: List[Any]) -> List[float]:
        percepts = [Percept(features=np.asarray(f)) for f in items]
        return [float(t) for t in self.monitor.assess_batch(percepts)]


@dataclass(frozen=True)
class MonitorRunnerFactory:
    """Picklable replica runner factory (see :class:`ReplicaSpec`).

    Deliberately ignores the per-replica seed it is called with: every
    replica builds the *same* monitor from the factory's own seed, which
    is the numerical-interchangeability contract the equivalence gate
    checks.
    """

    feature_dim: int = 6
    fit_epochs: int = 15
    seed: int = 0
    per_batch_ms: float = 12.0
    per_item_ms: float = 5.0

    def make_monitor(self) -> STARNet:
        rng = np.random.default_rng(self.seed)
        monitor = STARNet(self.feature_dim, score_method=SCORE_METHOD,
                          rng=np.random.default_rng(self.seed + 1))
        monitor.fit(rng.normal(size=(64, self.feature_dim)),
                    epochs=self.fit_epochs)
        return monitor

    def __call__(self, index: int, replica_seed: int):
        runner = _FeatureBatchRunner(self.make_monitor())
        return EmulatedServiceRunner(runner, self.per_batch_ms,
                                     self.per_item_ms)


def _client_streams(config: FleetBenchConfig) -> List[List[np.ndarray]]:
    """Deterministic per-client feature streams (same seeding scheme as
    the serving benchmark's environments)."""
    streams = []
    for i in range(config.clients):
        env = FeatureEnv(config.feature_dim, config.seed + 100 + i)
        rows = []
        for _ in range(config.cycles_per_client):
            rows.append(env.observe_state())
            env.advance(0.05)
        streams.append(rows)
    return streams


def _reference_trust(factory: MonitorRunnerFactory,
                     streams: List[List[np.ndarray]]) -> List[List[float]]:
    monitor = factory.make_monitor()
    return [[float(t) for t in monitor.assess_batch(
        [Percept(features=row) for row in stream])] for stream in streams]


def _drive_clients(submit_one, streams: List[List[np.ndarray]]
                   ) -> Tuple[float, List[List[float]]]:
    """Closed-loop clients on threads; returns (wall_s, trust grid)."""
    results: List[List[Optional[float]]] = [
        [None] * len(stream) for stream in streams]
    errors: List[BaseException] = []

    def run_client(i: int) -> None:
        try:
            for c, payload in enumerate(streams[i]):
                results[i][c] = submit_one(i, payload)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(i,))
               for i in range(len(streams))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, results


def _batcher_config(config: FleetBenchConfig) -> BatcherConfig:
    return BatcherConfig(max_batch_size=config.max_batch_size,
                         max_wait_ms=config.max_wait_ms,
                         max_queue_depth=config.max_queue_depth)


def _run_single_process(factory: MonitorRunnerFactory,
                        config: FleetBenchConfig,
                        streams: List[List[np.ndarray]]) -> Dict[str, Any]:
    requests = config.clients * config.cycles_per_client
    with BatchedService(factory(0, 0), _batcher_config(config)) as service:
        wall, trust = _drive_clients(
            lambda i, payload: service.submit(payload, timeout=120.0),
            streams)
        batcher = service.batcher
        quantiles = batcher.latency_quantiles()
        stats = {
            "wall_s": wall,
            "throughput_rps": requests / wall,
            "p50_ms": 1e3 * quantiles["p50"],
            "p95_ms": 1e3 * quantiles["p95"],
            "p99_ms": 1e3 * quantiles["p99"],
            "mean_batch_size": batcher.batch_sizes.mean,
            "shed": batcher.shed_count,
        }
    stats["trust"] = trust
    return stats


def _fleet_config(config: FleetBenchConfig, replicas: int) -> FleetConfig:
    return FleetConfig(replicas=replicas,
                       max_queue_depth=config.max_queue_depth,
                       spill_depth=config.spill_depth)


def _make_fleet(factory: MonitorRunnerFactory, config: FleetBenchConfig,
                replicas: int) -> ServingFleet:
    spec = ReplicaSpec(runner_factory=factory,
                       batch=_batcher_config(config), seed=config.seed)
    return ServingFleet(spec, _fleet_config(config, replicas),
                        inprocess=config.inprocess,
                        transport=config.transport)


def _run_fleet(factory: MonitorRunnerFactory, config: FleetBenchConfig,
               streams: List[List[np.ndarray]], replicas: int
               ) -> Dict[str, Any]:
    requests = config.clients * config.cycles_per_client
    budget = config.closed_loop_staleness_budget_ms
    with _make_fleet(factory, config, replicas) as fleet:
        wall, trust = _drive_clients(
            lambda i, payload: fleet.submit(
                payload, key=f"client-{i}",
                staleness_budget_ms=budget, timeout=120.0),
            streams)
        snapshot = fleet.scheduler.snapshot()
        quantiles = snapshot["latency_quantiles_s"]
        stats = {
            "replicas": replicas,
            "transport": fleet.transport,
            "wall_s": wall,
            "throughput_rps": requests / wall,
            "p50_ms": 1e3 * quantiles["p50"],
            "p95_ms": 1e3 * quantiles["p95"],
            "p99_ms": 1e3 * quantiles["p99"],
            "shed": snapshot["shed"],
            "spills": snapshot["spills"],
            "downgraded": snapshot["downgraded"],
            "dispatched_per_replica": snapshot["dispatched_per_replica"],
        }
    stats["trust"] = trust
    return stats


def _run_sweep_point(factory: MonitorRunnerFactory,
                     config: FleetBenchConfig, fraction: float,
                     rate_rps: float) -> Dict[str, Any]:
    """One open-loop point: paced arrivals against a fresh fleet."""
    budget = config.sweep_staleness_budget_ms
    offered = 0
    shed_count = 0
    tickets = []
    with _make_fleet(factory, config, config.sweep_replicas) as fleet:
        pool = [FeatureEnv(config.feature_dim, config.seed + 500 + i)
                .observe_state() for i in range(64)]
        interarrival = 1.0 / max(rate_rps, 1e-9)
        t_start = time.perf_counter()
        next_t = t_start
        t_end = t_start + config.sweep_duration_s
        while time.perf_counter() < t_end:
            now = time.perf_counter()
            if now < next_t:
                time.sleep(min(next_t - now, 0.002))
                continue
            next_t += interarrival
            payload = pool[offered % len(pool)]
            key = f"sweep-{offered}"
            offered += 1
            try:
                tickets.append(fleet.submit_async(
                    payload, key=key, staleness_budget_ms=budget))
            except RequestShed:
                shed_count += 1
        served = 0
        for ticket in tickets:
            if ticket.event.wait(60.0):
                ticket.result()
                served += 1
        snapshot = fleet.scheduler.snapshot()
    quantiles = snapshot["latency_quantiles_s"]
    duration = max(time.perf_counter() - t_start, 1e-9)
    return {
        "fraction": fraction,
        "offered_rps": offered / config.sweep_duration_s,
        "served": served,
        "served_rps": served / duration,
        "shed": shed_count,
        "shed_stale": snapshot["shed_stale"],
        "shed_overload": snapshot["shed_overload"],
        "p50_ms": 1e3 * quantiles["p50"],
        "p95_ms": 1e3 * quantiles["p95"],
        "p99_ms": 1e3 * quantiles["p99"],
        "below_saturation": fraction < 1.0,
    }


def run_fleet_benchmark(config: FleetBenchConfig = FleetBenchConfig()
                        ) -> Dict[str, Any]:
    """Single-process vs fleet scaling comparison; returns the JSON
    payload the regression gate and EXPERIMENTS.md consume."""
    factory = MonitorRunnerFactory(
        feature_dim=config.feature_dim, fit_epochs=config.fit_epochs,
        seed=config.seed, per_batch_ms=config.per_batch_ms,
        per_item_ms=config.per_item_ms)
    streams = _client_streams(config)
    reference = np.array(_reference_trust(factory, streams))

    single = _run_single_process(factory, config, streams)
    single_trust = np.array(single.pop("trust"))
    diffs = [float(np.max(np.abs(single_trust - reference)))]
    single["max_abs_diff"] = diffs[0]

    fleet_results: Dict[str, Any] = {}
    closed_loop_sheds = 0
    for replicas in config.replica_counts:
        result = _run_fleet(factory, config, streams, replicas)
        trust = np.array(result.pop("trust"))
        result["max_abs_diff"] = float(np.max(np.abs(trust - reference)))
        diffs.append(result["max_abs_diff"])
        result["speedup"] = (result["throughput_rps"]
                             / single["throughput_rps"])
        closed_loop_sheds += result["shed"]
        fleet_results[str(replicas)] = result

    capacity_key = str(config.sweep_replicas)
    capacity_rps = fleet_results.get(
        capacity_key, {"throughput_rps": single["throughput_rps"]}
    )["throughput_rps"]
    sweep_points = [
        _run_sweep_point(factory, config, fraction,
                         fraction * capacity_rps)
        for fraction in config.sweep_fractions]
    sub_saturation_sheds = sum(
        p["shed"] for p in sweep_points if p["below_saturation"])

    max_replicas = max(config.replica_counts)
    equivalence = max(diffs)
    return {
        "config": {
            "clients": config.clients,
            "cycles_per_client": config.cycles_per_client,
            "requests": config.clients * config.cycles_per_client,
            "feature_dim": config.feature_dim,
            "replica_counts": list(config.replica_counts),
            "max_batch_size": config.max_batch_size,
            "max_wait_ms": config.max_wait_ms,
            "max_queue_depth": config.max_queue_depth,
            "spill_depth": config.spill_depth,
            "per_batch_ms": config.per_batch_ms,
            "per_item_ms": config.per_item_ms,
            "sweep_replicas": config.sweep_replicas,
            "sweep_staleness_budget_ms": config.sweep_staleness_budget_ms,
            "seed": config.seed,
            "score_method": SCORE_METHOD,
        },
        "single_process": single,
        "fleet": fleet_results,
        "load_sweep": {
            "replicas": config.sweep_replicas,
            "capacity_rps": capacity_rps,
            "points": sweep_points,
        },
        "speedup_at_max_replicas": fleet_results[str(max_replicas)]["speedup"],
        "speedup_target": SPEEDUP_TARGET,
        "equivalence_max_abs_diff": equivalence,
        "equivalence_tol": EQUIVALENCE_TOL,
        "equivalence_ok": equivalence <= EQUIVALENCE_TOL,
        "closed_loop_sheds": closed_loop_sheds,
        "sub_saturation_sweep_sheds": sub_saturation_sheds,
        "zero_sheds_below_saturation": (closed_loop_sheds == 0
                                        and sub_saturation_sheds == 0),
        "overload_sheds_engaged": any(
            p["shed"] > 0 for p in sweep_points
            if not p["below_saturation"]),
    }
