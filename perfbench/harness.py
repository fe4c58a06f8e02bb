"""Shared machinery: run isolation, span tracing, output checks, results.

Everything here is benchmark-side.  The program under test is only ever
reached through the public functions the workload modules call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Sequence

perf = time.perf_counter

# Result records and Chrome traces land here (ignored by git).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Per-layer metrics, reported by every traced run.  A workload that does
# not run a layer reports 0 for it: the "predicted no change" side of the
# layer -> workload map in README.md.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.scan_ms": "ms",
    "sim.scan_share": "fraction",
    "sim.beams_fired": "count",
    "sim.points": "count",
    "sim.corrupt_ms": "ms",
    "voxel.voxelize_ms": "ms",
    "voxel.occupied": "count",
    "voxel.mask_ms": "ms",
    "generative.rmae_ms": "ms",
    "detect.detect_ms": "ms",
    "detect.detections": "count",
    "starnet.features_ms": "ms",
    "starnet.assess_ms": "ms",
    "starnet.rejected_frac": "fraction",
    "core.self_ms": "ms",
    "hardware.model_ms": "ms",
    "hardware.sensing_mj": "mJ",
    "hardware.compute_mj": "mJ",
    "scenario.fingerprint_ms": "ms",
    "scenario.store_lookup_ms": "ms",
    "scenario.replay_hit_ratio": "fraction",
    "scenario.evaluate_ms": "ms",
    "scenario.store_insert_ms": "ms",
    "scenario.store_bytes": "bytes",  # per stored scenario
    "scenario.sweep_self_ms": "ms",
    "runtime.pool_overhead_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.batch_ms": "ms",
    "serve.runner_busy_frac": "fraction",
    "serve.shed_frac": "fraction",
    "serve.lateness_ms": "ms",
    "obs.tracing_overhead_frac": "fraction",
    "failed_frac": "fraction",
}

# End-to-end metrics, reported by every untraced run.  The median latency
# is measured too but only recorded (see README.md, "Noise").
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p90_ms": "ms",
    "energy_mj_per_op": "mJ",
}

# Set-up runs at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds in one process; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


# ------------------------------------------------------------ isolation
def isolate_environment(scratch_root: str) -> Dict[str, str]:
    """Drop every ``REPRO_*`` switch and point the stores at private roots.

    Kernel backend, compile mode, worker count and control plane then
    run at the library defaults whatever the caller's shell exported,
    and no run reads another's cache, replay store or job store.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    roots = {
        "REPRO_CACHE_DIR": os.path.join(scratch_root, "cache"),
        "REPRO_SCENARIO_STORE": os.path.join(scratch_root, "scenarios"),
        "REPRO_JOB_STORE": os.path.join(scratch_root, "jobs"),
    }
    for key, path in roots.items():
        os.makedirs(path, exist_ok=True)
        os.environ[key] = path
    return roots


def fresh_cache_dir(scratch_root: str, tag: str) -> None:
    """Point the artifact cache at a new empty directory, so a repeated
    set-up recomputes instead of reading what the previous one wrote."""
    path = os.path.join(scratch_root, "cache", tag)
    os.makedirs(path, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = path


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: str, args) -> dict:
    import numpy

    from repro.compile import active_mode
    from repro.kernels import active_backend
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count() or 1,
        "kernel_backend": active_backend(),
        "compile_mode": active_mode(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest finished child
    (the sweep's pool workers), whichever is larger."""
    # ru_maxrss is in KiB on Linux.
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# -------------------------------------------------------------- tracing
class Tracer:
    """In-memory span recorder: name, start, end, parent, trace id.

    Disabled tracers hand out one shared null context, so the untraced
    run pays an attribute lookup per call and records nothing.
    """

    _NULL = nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [name, start, end, parent index or -1, trace id, pid]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self.trace_id: Optional[str] = None

    def span(self, name: str):
        if not self.enabled:
            return self._NULL
        return _Span(self, name)

    def add_foreign(self, spans: Iterable[Sequence], parent: int) -> None:
        """Attach spans recorded in another process (pool workers) under
        ``parent``; their own parent links are re-based."""
        base = len(self.spans)
        for name, start, end, par, trace_id, pid in spans:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par,
                               trace_id, pid])

    def self_times(self) -> Dict[str, float]:
        """Total self time (s) per span name: each span's duration minus
        the part covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, pid in self.spans:
            if parent >= 0 and pid == self.spans[parent][5]:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = []
        for i, (name, start, end, parent, trace_id, pid) in \
                enumerate(self.spans):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": pid,
                "args": {"span": i, "parent": parent, "trace_id": trace_id},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _spanned(tracer: Tracer, name: str, fn: Callable,
             trace_key: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span.  ``trace_key(*args)`` extends the trace id
    for the call's duration (a scenario inside its request)."""
    fn = getattr(fn, "__wrapped__", fn)   # never stack two wrappers

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tracer.trace_id
        if trace_key is not None:
            tracer.trace_id = f"{outer}/{trace_key(*args)}"
        try:
            with tracer.span(name):
                return fn(*args, **kwargs)
        finally:
            tracer.trace_id = outer
    return wrapper


@contextmanager
def spans_on(tracer: Tracer, targets: Sequence[tuple]):
    """Put a span around functions the program calls internally.

    Each target is ``(owner, attribute, span name[, trace_key])``: a
    module global or a class method, replaced by a wrapper that opens
    the span and calls the original, which is restored on exit.  The
    program's own code then runs unchanged, only timed.
    """
    saved = []
    try:
        for owner, attr, name, *key in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _spanned(tracer, name, original, *key))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, perf(), 0.0, parent, tr.trace_id,
                         tr._pid])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf()
        tr._stack.pop()
        return False


# ------------------------------------------------------- output checking
class Checks:
    """Counts attempted and failed operations and digests integer outputs.

    The digest covers only exact integer facts (point and beam counts,
    detection counts, rejections, payload hashes) of the first
    ``digest_limit`` records: a fixed prefix of the run, so two runs of
    the same code and seed can be compared for equality even when one
    of them got through more operations.
    """

    def __init__(self, digest_limit: Optional[int] = None):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._digest = hashlib.sha256()
        self._limit = digest_limit
        self._records = 0

    def op(self, ok: bool, what: str) -> None:
        """Count one checked operation; ``what`` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def record(self, *values) -> None:
        if self._limit is None or self._records < self._limit:
            self._digest.update(repr(values).encode())
        self._records += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


# ------------------------------------------------------------ statistics
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; ``q`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_setups(build, repeats: int, min_seconds: float = 0.0):
    """Run ``build(i)`` at least ``repeats`` times and for at least
    ``min_seconds``; return (last result, median seconds per build).
    A result with a ``close`` method is closed before the next build."""
    times, result = [], None
    while len(times) < repeats or sum(times) < min_seconds:
        if hasattr(result, "close"):
            result.close()
        result = None  # let the previous build be freed first
        t0 = perf()
        result = build(len(times))
        times.append(perf() - t0)
    return result, statistics.median(times)


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}

