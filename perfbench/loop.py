"""Workloads ``loop_full`` and ``loop_masked``: the real closed loop.

One client, closed loop: each cycle starts when the previous one ends.
The orchestrator is the real :class:`repro.core.SensingToActionLoop`;
the Sensor / Perception / Monitor / Policy / Actuator adapters below are
thin wrappers that call the pillars' public functions, each inside a
span named after the layer it enters.

Cycle: scene -> ``LidarScanner.scan`` -> ``voxelize`` ->
``RMAE.occupancy_probability`` -> ``BEVDetector.detect`` ->
``LidarFeatureExtractor.extract`` + ``STARNet.assess`` -> policy ->
actuate.  In ``loop_masked`` the policy's sensing directive carries the
R-MAE radial segment mask (``radial_mask``) and the last known range of
every beam, and the sensor turns them into a firing mask with
``beam_mask_from_segments`` (about 15% of beams fire).
"""

from __future__ import annotations

import copy
from statistics import median
from typing import Any, Dict

import numpy as np

from repro.core import (
    Action,
    Actuator,
    Environment,
    Monitor,
    Percept,
    Perception,
    Policy,
    SensingToActionLoop,
    Sensor,
    SensorReading,
)
from repro.voxel import RadialMaskConfig, beam_mask_from_segments, radial_mask, voxelize

from . import models
from .harness import Checks, Tracer, perf, quantile

PERIOD_S = 0.1             # 10 Hz LiDAR frames
N_SCENES = 64              # length of the scene stream (then it repeats)
# STARNet calibration frames; masked frames are cheap and vary more.
N_CALIBRATION = {False: 16, True: 24}
# Every FULL_EVERY-th calibration frame fires the full grid, as the loop
# does after a rejected cycle, so both kinds of frame are nominal.
FULL_EVERY = 8
# The gate is held open.  The untrained stack's STARNet, calibrated on a
# few dozen frames, flags a seed-dependent few percent of cycles, and each
# rejection makes the next masked cycle a full scan (4x the work): the
# loop's cost would then depend on which seed ran, not on the code.
# ``starnet.rejected_frac`` still reports the cycles the default gate
# (``models.REJECT_BELOW``) would have rejected.
TRUST_THRESHOLD = 0.0
WARMUP_CYCLES = 3
# Energy per cycle is averaged over this many measured cycles (full,
# masked), a fixed set whatever the speed, so a pure speed change leaves
# it unchanged.  Masked cycles vary more, so they need more.
ENERGY_CYCLES = {False: 80, True: 300}
MASK = RadialMaskConfig()


class SceneStream(Environment):
    """A seeded stream of urban scenes, one per loop period."""

    def __init__(self, scenes):
        self.scenes = scenes
        self.t = 0.0

    def current(self):
        return self.scenes[int(round(self.t / PERIOD_S)) % len(self.scenes)]

    def observe_state(self):
        return self.current()

    def advance(self, dt: float) -> None:
        self.t += dt


class LidarSensor(Sensor):
    def __init__(self, stack: models.Stack, tracer: Tracer,
                 rng: np.random.Generator):
        self.stack = stack
        self.tracer = tracer
        self.rng = rng

    def sense(self, env: SceneStream, directive: Dict[str, Any],
              t: float) -> SensorReading:
        tr = self.tracer
        fired = None
        if "segments" in directive:
            with tr.span("voxel.mask"):
                fired = beam_mask_from_segments(
                    directive["segments"], models.LIDAR, MASK,
                    expected_ranges=directive["ranges"], rng=self.rng)
        with tr.span("sim.scan"):
            scan = self.stack.scanner.scan(env.current(), fired)
        with tr.span("hardware.model"):
            energy = scan.sensing_energy_mj(models.POWER)
        return SensorReading(data=scan, timestamp=t,
                             coverage=scan.coverage_fraction,
                             energy_mj=energy, modality="lidar")


class StackPerception(Perception):
    def __init__(self, stack: models.Stack, tracer: Tracer):
        self.stack = stack
        self.tracer = tracer

    def perceive(self, reading: SensorReading) -> Percept:
        tr, stack, scan = self.tracer, self.stack, reading.data
        with tr.span("voxel.voxelize"):
            cloud = voxelize(scan.points, scan.labels, models.GRID)
        with tr.span("generative.rmae"):
            occupancy = stack.rmae.occupancy_probability(cloud)
        with tr.span("detect.detect"):
            detections = stack.detector.detect(cloud)
        with tr.span("starnet.features"):
            features = stack.extractor.extract(scan)
        return Percept(features=features, estimate=detections,
                       meta={"scan": scan, "cloud": cloud,
                             "occupancy": occupancy})


class StarnetMonitor(Monitor):
    def __init__(self, stack: models.Stack, tracer: Tracer):
        self.stack = stack
        self.tracer = tracer

    def assess(self, percept: Percept) -> float:
        with self.tracer.span("starnet.assess"):
            return self.stack.monitor.assess(percept)


class AvoidancePolicy(Policy):
    """Brake for the nearest detection ahead, steer away from it, and in
    masked mode tell the sensor which sectors and beams to fire next."""

    def __init__(self, stack: models.Stack, tracer: Tracer, masked: bool,
                 rng: np.random.Generator):
        self.stack = stack
        self.tracer = tracer
        self.masked = masked
        self.rng = rng
        self.ranges = np.full(models.LIDAR.n_beams, models.LIDAR.max_range_m)

    def act(self, percept: Percept, t: float) -> Action:
        tr = self.tracer
        dets = percept.estimate
        throttle, steer = 1.0, 0.0
        if dets:
            near = min(dets, key=lambda d: np.hypot(d.x, d.y))
            dist = float(np.hypot(near.x, near.y))
            throttle = float(np.clip((dist - 5.0) / 25.0, 0.0, 1.0))
            steer = float(-np.sign(near.y) * percept.confidence
                          * np.exp(-dist / 20.0))
        directive: Dict[str, Any] = {}
        if self.masked:
            scan, cloud = percept.meta["scan"], percept.meta["cloud"]
            with tr.span("voxel.mask"):
                _, segments = radial_mask(cloud, MASK, rng=self.rng)
            self.ranges[scan.fired_mask] = models.LIDAR.max_range_m
            self.ranges[scan.beam_ids] = scan.ranges
            directive = {"segments": segments, "ranges": self.ranges.copy()}
        with tr.span("hardware.model"):
            energy = models.compute_energy_mj(
                self.stack, percept.meta["cloud"].num_occupied, rmae=True)
        return Action(command=(throttle, steer), sensing_directive=directive,
                      energy_mj=energy)


class NullActuator(Actuator):
    def actuate(self, env, action: Action, t: float) -> float:
        return 0.0


def build_loop(stack: models.Stack, masked: bool, tracer: Tracer,
               seed: int) -> SensingToActionLoop:
    sensor_rng, policy_rng = (np.random.default_rng(s) for s in
                              np.random.SeedSequence([seed, 7]).spawn(2))
    return SensingToActionLoop(
        LidarSensor(stack, tracer, sensor_rng),
        StackPerception(stack, tracer),
        AvoidancePolicy(stack, tracer, masked, policy_rng),
        NullActuator(),
        monitor=StarnetMonitor(stack, tracer),
        trust_threshold=TRUST_THRESHOLD, period_s=PERIOD_S)


def setup(seed: int, masked: bool):
    """Models, scene stream, and a STARNet fitted on frames sensed at the
    workload's own operating point.  Returns (loop, env, stack)."""
    scene_rng, cal_rng = (np.random.default_rng(s) for s in
                          np.random.SeedSequence([seed, 1]).spawn(2))
    stack = models.build_stack(seed)
    off = Tracer(False)
    # Calibration frames go through the same sensor and policy, so the
    # masked workload calibrates on masked frames.
    cal_loop = build_loop(stack, masked, off, seed + 1)
    n_cal = N_CALIBRATION[masked]
    cal_env = SceneStream(models.urban_scenes(cal_rng, n_cal))
    directive: Dict[str, Any] = {}
    features = []
    for i in range(n_cal):
        if i % FULL_EVERY == 0:
            directive = {}
        reading = cal_loop.sensor.sense(cal_env, directive, i * PERIOD_S)
        percept = cal_loop.perception.perceive(reading)
        directive = cal_loop.policy.act(percept, 0.0).sensing_directive
        features.append(percept.features)
        cal_env.advance(PERIOD_S)
    models.fit_monitor(stack, features)
    env = SceneStream(models.urban_scenes(scene_rng, N_SCENES))
    return build_loop(stack, masked, off, seed), env, stack


def check_cycle(record, checks: Checks) -> None:
    scan = record.reading.data
    trust = record.trust
    ok_trust = bool(np.isfinite(trust) and 0.0 <= trust <= 1.0)
    ok_beams = bool(scan.fired_mask[scan.beam_ids].all())
    g = models.GRID
    ok_dets = all(np.isfinite([d.x, d.y, d.score]).all()
                  and g.x_range[0] <= d.x <= g.x_range[1]
                  and g.y_range[0] <= d.y <= g.y_range[1]
                  for d in record.percept.estimate)
    checks.op(ok_trust and ok_beams and ok_dets,
              f"cycle t={record.t:.1f}: trust={ok_trust} beams={ok_beams} "
              f"detections={ok_dets}")
    checks.record(scan.num_points, int(scan.fired_mask.sum()),
                  len(record.percept.estimate),
                  bool(record.trust < models.REJECT_BELOW))


def _retarget(loop: SensingToActionLoop, tracer: Tracer) -> None:
    for part in (loop.sensor, loop.perception, loop.policy, loop.monitor):
        part.tracer = tracer


def _run_cycles(loop, env, checks: Checks, seconds: float, min_cycles: int,
                max_cycles: int = 10 ** 9):
    """Run cycles until ``seconds`` have passed and ``min_cycles`` are
    done (never more than ``max_cycles``).  Returns per-cycle wall
    times, (sensing, compute) energy and output counts."""
    tr = loop.sensor.tracer
    ledger = loop.metrics.energy
    walls, energy, stats = [], [], []
    t_end = perf() + seconds
    n = 0
    while n < max_cycles and (n < min_cycles or perf() < t_end):
        tr.trace_id = f"cycle-{n}"
        before = (ledger.sensing_mj, ledger.compute_mj)
        t0 = perf()
        with tr.span("core.run_cycle"):
            record = loop.run_cycle(env)
        walls.append(perf() - t0)
        loop.history.clear()
        energy.append((ledger.sensing_mj - before[0],
                       ledger.compute_mj - before[1]))
        check_cycle(record, checks)
        scan = record.reading.data
        stats.append((int(scan.fired_mask.sum()), scan.num_points,
                      record.percept.meta["cloud"].num_occupied,
                      len(record.percept.estimate),
                      record.trust < models.REJECT_BELOW))
        n += 1
    return walls, energy, stats


def run(args, setup_s: float, state) -> dict:
    """Measure one loop workload on the state a timed set-up built."""
    loop, env, _ = state
    n_energy = ENERGY_CYCLES[args.workload == "loop_masked"]
    checks = Checks(None if args.trace else n_energy)
    for _ in range(WARMUP_CYCLES):
        loop.run_cycle(env)
    loop.history.clear()
    if not args.trace:
        walls, energy, _ = _run_cycles(loop, env, checks, args.seconds,
                                       n_energy)
        e = energy[:n_energy]
        return dict(checks=checks, metrics={
            "setup_s": setup_s,
            "ops_per_s": len(walls) / sum(walls),
            "latency_p50_ms": 1e3 * median(walls),
            "latency_p90_ms": 1e3 * quantile(walls, 0.9),
            "energy_mj_per_op": sum(s + c for s, c in e) / len(e),
        })

    # Traced run: the same cycles twice from one snapshot of the state,
    # untraced and then traced, so the overhead and the per-layer split
    # are measured on identical work.
    loop2, env2 = copy.deepcopy((loop, env))
    walls, _, _ = _run_cycles(loop, env, checks, args.seconds / 2,
                              WARMUP_CYCLES)
    tracer = Tracer(True)
    _retarget(loop2, tracer)
    traced = Checks()
    twalls, energy, stats = _run_cycles(loop2, env2, traced, 0.0, len(walls),
                                        len(walls))
    checks.op(traced.digest == checks.digest,
              "traced cycles diverged from the untraced ones")
    checks.attempted += traced.attempted
    checks.failed += traced.failed
    n = len(twalls)
    selfs = tracer.self_times()

    def per_cycle_ms(name):
        return 1e3 * selfs.get(name, 0.0) / n

    def mean(col):
        return float(np.mean([row[col] for row in stats]))

    # Self times partition the traced cycles, so they sum to the traced
    # cycle time, which is the untraced one times (1 + overhead).
    accounting = {
        "untraced_cycle_ms": 1e3 * sum(walls) / n,
        "traced_cycle_ms": 1e3 * sum(twalls) / n,
        "self_time_sum_ms": 1e3 * sum(selfs.values()) / n,
    }
    return dict(checks=checks, tracer=tracer, extra=accounting, layers={
        "sim.scan_ms": per_cycle_ms("sim.scan"),
        "sim.scan_share": selfs.get("sim.scan", 0.0) / sum(twalls),
        "sim.beams_fired": mean(0),
        "sim.points": mean(1),
        "voxel.voxelize_ms": per_cycle_ms("voxel.voxelize"),
        "voxel.occupied": mean(2),
        "voxel.mask_ms": per_cycle_ms("voxel.mask"),
        "generative.rmae_ms": per_cycle_ms("generative.rmae"),
        "detect.detect_ms": per_cycle_ms("detect.detect"),
        "detect.detections": mean(3),
        "starnet.features_ms": per_cycle_ms("starnet.features"),
        "starnet.assess_ms": per_cycle_ms("starnet.assess"),
        "starnet.rejected_frac": mean(4),
        "core.self_ms": per_cycle_ms("core.run_cycle"),
        "hardware.model_ms": per_cycle_ms("hardware.model"),
        "hardware.sensing_mj": sum(s for s, _ in energy) / n,
        "hardware.compute_mj": sum(c for _, c in energy) / n,
        "obs.tracing_overhead_frac": sum(twalls) / sum(walls) - 1.0,
    })
