"""Workload dispatch: timed set-up, measurement, result assembly.

==============  ==========================================================
workload        one operation is
==============  ==========================================================
loop_full       one closed-loop cycle, all 896 beams fired
loop_masked     one closed-loop cycle at the R-MAE sensing operating point
sweep_cold      one scenario executed by a sweep into a fresh replay store
sweep_replay    one scenario replayed from a warm replay store
serve           one perception request through the micro-batching service
==============  ==========================================================
"""

from __future__ import annotations

import os

from . import harness


def _workload(args, scratch: str):
    """(build, measure): ``build(i)`` is the set-up being timed, i its
    repetition; ``measure(args, setup_s, state)`` runs the workload."""
    w = args.workload
    if w in ("loop_full", "loop_masked"):
        from . import loop
        return (lambda i: loop.setup(args.seed, w == "loop_masked"),
                loop.run)
    if w in ("sweep_cold", "sweep_replay"):
        from . import sweep
        return (lambda i: sweep.setup(args.seed, scratch, i)), sweep.run
    from . import serve
    return (lambda i: serve.setup(args.seed)), serve.run


def _setup_and_measure(args, scratch: str):
    build, measure = _workload(args, scratch)

    def timed_build(i):
        harness.fresh_cache_dir(scratch, f"setup-{i}")
        return build(i)

    # The traced run reports no set-up time, so it sets up once.
    if args.trace:
        state, setup_s = harness.timed_setups(timed_build, 1)
    else:
        state, setup_s = harness.timed_setups(
            timed_build, harness.SETUP_REPEATS, harness.SETUP_MIN_S)
    return measure(args, setup_s, state)


def run(args, scratch: str) -> dict:
    out = _setup_and_measure(args, scratch)
    checks = out["checks"]
    attempted = max(checks.attempted, 1)
    if args.trace:
        values = {name: 0.0 for name in harness.PER_LAYER_UNITS}
        values.update(out["layers"])
        values["failed_frac"] = checks.failed / attempted
        metrics = harness.metric_block(values, harness.PER_LAYER_UNITS)
        trace_path = os.path.join(
            harness.OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        out["tracer"].write_chrome(trace_path)
    else:
        values = dict(out["metrics"])
        values["peak_rss_mb"] = harness.peak_rss_mb()
        metrics = harness.metric_block(values, harness.END_TO_END_UNITS)
        out.setdefault("extra", {}).update(
            (k, v) for k, v in values.items()
            if k not in harness.END_TO_END_UNITS)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return {"result": result, "digest": checks.digest,
            "failures": checks.failures, "extra": out.get("extra", {})}
