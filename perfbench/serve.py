"""Workload ``serve``: an open-loop perception service.

Scans of urban scenes (all 896 beams) are recorded during set-up, so no
raycast runs while measuring.  Requests for them arrive on a fixed
schedule, from one process, into a ``repro.serve.MicroBatcher`` whose
runner does ``voxelize`` -> ``BEVDetector.detect_batch`` ->
``LidarFeatureExtractor.extract_batch`` -> ``STARNet.assess_batch``.

One thread drives both sides: it submits every request that is due, runs
a batch whenever the batcher's policy says one is ready, and otherwise
sleeps until the next arrival or flush deadline.  A request submitted
late because a batch was running is still timed from when it was due,
and the lateness is reported.

* Latency is measured at a nominal 10 requests/s, about half of the
  highest rate that meets the latency limit today, in two phases: one
  before the rate search and one after it.
* The highest sustainable rate is searched on a fixed ladder of rates,
  5 req/s x 1.05^k: a rate passes when the p90 latency, counting shed
  requests as misses, stays within 200 ms (two 10 Hz LiDAR frames) and
  no more than one batch is queued when the arrivals stop.  The ladder
  tops out at about 248 req/s, ~25x the nominal rate and several times
  what one core serves today.
* At the nominal rate most batches hold one request, which waits out the
  whole ``max_wait_ms`` flush deadline (50 ms) before its compute, so
  that constant is over half of ``latency_p90_ms``: a runner twice as
  fast moves the p90 by only about a fifth.
"""

from __future__ import annotations

import bisect
import math
import time
from statistics import median
from typing import List

import numpy as np

from repro.core import Percept, SystemClock
from repro.serve import BatcherConfig, MicroBatcher, ServiceOverloaded
from repro.voxel import voxelize

from . import models
from .harness import Checks, Tracer, perf, quantile

N_RECORDED = 12
NOMINAL_RPS = 10.0
# The traced run offers twice the nominal rate, so that batches form and
# the batching layer's metrics have something to show.
TRACED_RPS = 2 * NOMINAL_RPS
SLO_S = 0.200
LADDER = [5.0 * 1.05 ** k for k in range(81)]
BATCHER = BatcherConfig(max_batch_size=8, max_wait_ms=50.0,
                        max_queue_depth=64)
SAMPLE_CHECKS = 3   # responses per phase recomputed per item
DRIFT_ATOL = 1e-9   # batched vs per-item trust (BLAS re-association)


class State:
    def __init__(self, seed: int):
        scene_rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.stack = models.build_stack(seed)
        scans = [self.stack.scanner.scan(scene)
                 for scene in models.urban_scenes(scene_rng, N_RECORDED)]
        self.scans = scans
        models.fit_monitor(self.stack, [self.stack.extractor.extract(s)
                                        for s in scans])
        clouds = [voxelize(s.points, s.labels, models.GRID) for s in scans]
        self.energy = [s.sensing_energy_mj(models.POWER)
                       + models.compute_energy_mj(self.stack, c.num_occupied,
                                                  rmae=False)
                       for s, c in zip(scans, clouds)]


def setup(seed: int) -> State:
    return State(seed)


class Runner:
    """The batch runner: row ``i`` answers request ``i``.  Each row
    echoes the index of the scan it was computed from, so a response
    routed to the wrong request is caught."""

    def __init__(self, state: State, tracer: Tracer):
        self.state = state
        self.tracer = tracer
        self.busy_s = 0.0
        self.batches: List[int] = []
        self.counts: List[tuple] = []

    def __call__(self, items: List[int]):
        tr, stack = self.tracer, self.state.stack
        scans = [self.state.scans[i] for i in items]
        tr.trace_id = f"batch-{len(self.batches)}"
        t0 = perf()
        with tr.span("serve.batch"):
            with tr.span("voxel.voxelize"):
                clouds = [voxelize(s.points, s.labels, models.GRID)
                          for s in scans]
            with tr.span("detect.detect"):
                dets = stack.detector.detect_batch(clouds)
            with tr.span("starnet.features"):
                feats = stack.extractor.extract_batch(scans)
            with tr.span("starnet.assess"):
                trust = stack.monitor.assess_batch(
                    [Percept(features=f) for f in feats])
        self.busy_s += perf() - t0
        self.batches.append(len(items))
        self.counts.extend((c.num_occupied, len(d))
                           for c, d in zip(clouds, dets))
        return [(i, d, float(t)) for i, d, t in zip(items, dets, trust)]


class Phase:
    """Outcome of one schedule: per-request latency (None when shed or
    failed), lateness and queue wait."""

    def __init__(self, n: int):
        self.latency: List = [None] * n
        self.lateness: List[float] = []
        self.queue_wait: List[float] = []
        self.responses = {}
        self.shed = 0
        self.failed = 0
        self.backlog = None      # requests queued when arrivals stop
        self.wall_s = 0.0
        self.last_done_s = 0.0


def drive(runner: Runner, due: List[float], items: List[int]) -> Phase:
    """Offer ``items[k]`` at ``due[k]`` seconds from now, open loop."""
    clock = SystemClock()
    batcher = MicroBatcher(runner, BATCHER, clock=clock)
    n = len(due)
    phase = Phase(n)
    start = clock.now() + 0.005
    request_of = {}              # id(ticket) -> request index
    k = 0
    while k < n or batcher.pending:
        now = clock.now()
        while k < n and start + due[k] <= now:
            phase.lateness.append(now - start - due[k])
            try:
                request_of[id(batcher.submit(items[k]))] = k
            except ServiceOverloaded:
                phase.shed += 1
            k += 1
        if k == n and phase.backlog is None:
            phase.backlog = batcher.pending
        if batcher.ready():
            batch = batcher.take_batch()
            t_take = clock.now()
            batcher.run_batch(batch)
            done = clock.now()
            for t in batch:
                j = request_of.pop(id(t))
                phase.queue_wait.append(t_take - t.enqueue_t)
                try:
                    phase.responses[j] = t.result()
                    phase.latency[j] = done - start - due[j]
                except Exception:
                    phase.failed += 1
            phase.last_done_s = done - start
            continue
        wake = [start + due[k]] if k < n else []
        deadline = batcher.next_deadline()
        if deadline is not None:
            wake.append(deadline)
        delay = min(wake) - clock.now()
        if delay > 0:
            time.sleep(delay)
    phase.wall_s = clock.now() - start
    return phase


def _schedule(rate: float, n: int, offset: int, n_scans: int):
    due = [k / rate for k in range(n)]
    items = [(offset + k) % n_scans for k in range(n)]
    return due, items


def check_phase(state: State, phase: Phase, items: List[int],
                checks: Checks, rng: np.random.Generator) -> None:
    """Every request answered, shed or failed; every response computed
    from its own request's scan; a seeded sample matches per-item
    ``detect`` / ``assess``."""
    answered = len(phase.responses)
    checks.op(answered + phase.shed + phase.failed == len(items),
              f"accounting: {answered} answered + {phase.shed} shed + "
              f"{phase.failed} failed != {len(items)}")
    for j, (echo, dets, trust) in sorted(phase.responses.items()):
        checks.op(echo == items[j] and math.isfinite(trust)
                  and 0.0 <= trust <= 1.0,
                  f"request {j}: answered for scan {echo}, "
                  f"wanted {items[j]}; trust {trust}")
        checks.record(j, echo, len(dets))
    answered_ids = sorted(phase.responses)
    if not answered_ids:
        return
    stack = state.stack
    for j in rng.choice(answered_ids, size=min(SAMPLE_CHECKS,
                                               len(answered_ids)),
                        replace=False):
        echo, dets, trust = phase.responses[int(j)]
        scan = state.scans[items[int(j)]]
        cloud = voxelize(scan.points, scan.labels, models.GRID)
        want = stack.detector.detect(cloud)
        want_trust = stack.monitor.assess(
            Percept(features=stack.extractor.extract(scan)))
        same = (len(want) == len(dets) and all(
            a.cls == b.cls and abs(a.x - b.x) < 1e-6
            and abs(a.y - b.y) < 1e-6 and abs(a.score - b.score) < 1e-6
            for a, b in zip(want, dets)))
        checks.op(same and abs(want_trust - trust) <= DRIFT_ATOL,
                  f"request {j}: batched response differs from per-item "
                  f"detect/assess")


def _p90_with_misses(phase: Phase) -> float:
    """Nearest-rank p90, a shed or failed request counting as a miss."""
    lat = sorted(math.inf if x is None else x for x in phase.latency)
    return lat[math.ceil(0.9 * len(lat)) - 1]


def _probe(state, rate, seconds, offset, checks, rng):
    n = max(30, int(rate * seconds))
    due, items = _schedule(rate, n, offset, len(state.scans))
    phase = drive(Runner(state, Tracer(False)), due, items)
    check_phase(state, phase, items, checks, rng)
    ok = (_p90_with_misses(phase) <= SLO_S
          and phase.backlog <= BATCHER.max_batch_size)
    return ok, len(phase.responses) / phase.last_done_s


def max_rate(state: State, seconds: float, nominal_ok: bool,
             capacity: float, checks: Checks,
             rng: np.random.Generator) -> float:
    """Bisect the ladder for its highest passing rate; return the rate
    actually achieved there (completed requests per second).

    The bracket starts from what the nominal phase measured: its rung
    passes when the nominal phase met the limit, and rungs above 1.5x
    the runner's measured capacity are presumed to fail.  A presumed
    failure is probed before it is trusted, and if it passes the search
    continues up to the top of the ladder.
    """
    lo = (bisect.bisect_right(LADDER, NOMINAL_RPS) - 1) if nominal_ok else -1
    hi = bisect.bisect_left(LADDER, 1.5 * capacity)
    hi_known = hi >= len(LADDER)
    probe_s = seconds / (math.ceil(math.log2(max(hi - lo, 2))) + 1)
    best = None
    while True:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            ok, achieved = _probe(state, LADDER[mid], probe_s, mid, checks,
                                  rng)
            if ok:
                lo, best = mid, achieved
            else:
                hi, hi_known = mid, True
        if hi_known:
            break
        ok, achieved = _probe(state, LADDER[hi], probe_s, hi, checks, rng)
        if not ok:
            break
        lo, best = hi, achieved
        hi, hi_known = len(LADDER), True
    if best is None:
        if lo < 0:
            raise RuntimeError("no rate on the ladder meets the latency "
                               "limit")
        # Only the nominal rung passed: probe it for its achieved rate.
        _, best = _probe(state, LADDER[lo], probe_s, lo, checks, rng)
    return best


def run(args, setup_s: float, state: State) -> dict:
    rate = TRACED_RPS if args.trace else NOMINAL_RPS
    # The untraced run measures latency in two phases of a fifth of the
    # run, before and after the rate search, so that its p90 samples the
    # host's speed over the whole run rather than over a few seconds.
    nominal_s = args.seconds * (0.5 if args.trace else 0.2)
    n_nominal = int(rate * nominal_s)
    # The digest covers the first nominal phase, whose length is fixed.
    checks = Checks(n_nominal)
    rng = np.random.default_rng(args.seed)
    n_scans = len(state.scans)
    # Warm-up: one batch's worth at the nominal rate.
    due, items = _schedule(rate, BATCHER.max_batch_size, 0, n_scans)
    drive(Runner(state, Tracer(False)), due, items)

    due, items = _schedule(rate, n_nominal, 0, n_scans)
    runner = Runner(state, Tracer(False))
    phase = drive(runner, due, items)
    check_phase(state, phase, items, checks, rng)
    latency = [x for x in phase.latency if x is not None]
    energy = float(np.mean([state.energy[i] for i in items]))
    if not args.trace:
        nominal_ok = (_p90_with_misses(phase) <= SLO_S
                      and phase.backlog <= BATCHER.max_batch_size)
        capacity = len(items) / runner.busy_s
        rps = max_rate(state, args.seconds - 2 * nominal_s, nominal_ok,
                       capacity, checks, rng)
        due, more = _schedule(rate, n_nominal, n_nominal, n_scans)
        last = drive(Runner(state, Tracer(False)), due, more)
        check_phase(state, last, more, checks, rng)
        latency += [x for x in last.latency if x is not None]
        energy = float(np.mean([state.energy[i] for i in items + more]))
        return dict(checks=checks, metrics={
            "setup_s": setup_s,
            "ops_per_s": rps,
            "latency_p50_ms": 1e3 * median(latency),
            "latency_p90_ms": 1e3 * quantile(latency, 0.9),
            "energy_mj_per_op": energy,
        })

    # Traced run: the same schedule again, traced.  Its overhead is
    # measured on runner busy time, since open-loop wall time is fixed
    # by the schedule.
    tracer = Tracer(True)
    traced_runner = Runner(state, tracer)
    traced_phase = drive(traced_runner, due, items)
    traced = Checks(n_nominal)
    check_phase(state, traced_phase, items, traced, np.random.default_rng(
        args.seed))
    checks.op(traced.digest == checks.digest,
              "traced responses diverged from the untraced ones")
    checks.attempted += traced.attempted
    checks.failed += traced.failed
    n = len(items)
    selfs = tracer.self_times()

    def per_request_ms(name):
        return 1e3 * selfs.get(name, 0.0) / n

    occupied, n_dets = zip(*traced_runner.counts)
    trusts = [t for _, _, t in traced_phase.responses.values()]
    sensing = float(np.mean([state.scans[i].sensing_energy_mj(models.POWER)
                             for i in items]))
    return dict(checks=checks, tracer=tracer, layers={
        "voxel.voxelize_ms": per_request_ms("voxel.voxelize"),
        "voxel.occupied": float(np.mean(occupied)),
        "detect.detect_ms": per_request_ms("detect.detect"),
        "detect.detections": float(np.mean(n_dets)),
        "starnet.features_ms": per_request_ms("starnet.features"),
        "starnet.assess_ms": per_request_ms("starnet.assess"),
        "starnet.rejected_frac": float(np.mean(
            [t < models.REJECT_BELOW for t in trusts])),
        "hardware.sensing_mj": sensing,
        "hardware.compute_mj": energy - sensing,
        "serve.queue_wait_ms": 1e3 * float(np.mean(traced_phase.queue_wait)),
        "serve.batch_size": float(np.mean(traced_runner.batches)),
        "serve.batch_ms": 1e3 * traced_runner.busy_s
        / len(traced_runner.batches),
        "serve.runner_busy_frac": traced_runner.busy_s / traced_phase.wall_s,
        "serve.shed_frac": (phase.shed + traced_phase.shed) / (2 * n),
        "serve.lateness_ms": 1e3 * float(np.mean(traced_phase.lateness)),
        "obs.tracing_overhead_frac": traced_runner.busy_s / runner.busy_s
        - 1.0,
    })
