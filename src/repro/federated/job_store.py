"""Persistent job-store orchestration for fleet-scale federated runs.

A 10^4-client asynchronous simulation is hours of virtual-time event
processing; losing it to a preemption (or needing to move it between
hosts) must cost at most one checkpoint interval.  The store gives each
simulation a durable home directory keyed by a **content-addressed job
id** — the SHA-256 fingerprint (:func:`repro.runtime.cache.fingerprint`)
of the run's complete input closure — holding three artifacts:

* ``events.jsonl`` — an append-only audit log, one JSON record per merge
  wave (virtual timestamp, merged clients, staleness, weight hash).
  Appends are single ``write`` calls on an ``O_APPEND`` descriptor, so
  concurrent writers interleave whole records, never bytes;
* ``checkpoint.pkl`` — the full resumable simulation state, written every
  ``checkpoint_every`` waves;
* ``result.json`` — the final payload, written when the run completes;
  its presence is what marks a job ``done``.

Checkpoint and result go through :mod:`repro.runtime.store`, so neither
is ever half-written and a corrupt one reads as absent (and is evicted).

Resume semantics: reconstruct the simulation exactly as it was first
constructed (same config, same seeds) — the job id comes out identical,
the engine finds the checkpoint, restores every piece of mutable state
(weights, version, virtual clock, event heap, in-flight dispatches,
client RNG states, sampler state), and replays forward.  Because the
engine is deterministic, the waves recomputed between the last
checkpoint and the crash are bit-identical to the lost ones, so a
killed-and-resumed run finishes in exactly the state of an uninterrupted
one.  On resume the log is rewound to the restored checkpoint's wave
before the replayed waves append again, so it keeps one record per wave.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any, Dict, List, Optional

from ..obs.registry import get_registry
from ..runtime import store as blobs
from ..runtime.cache import fingerprint

__all__ = ["JobStore", "JobHandle", "JOB_STORE_ENV"]

JOB_STORE_ENV = "REPRO_JOB_STORE"


def _event_line(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode()


class JobHandle:
    """One job's directory: events log, checkpoint, final result."""

    def __init__(self, root: str, kind: str, job_id: str):
        self.kind = kind
        self.job_id = job_id
        self.dir = os.path.join(root, f"{kind}-{job_id}")
        self.events_path = os.path.join(self.dir, "events.jsonl")
        self.checkpoint_path = os.path.join(self.dir, "checkpoint.pkl")
        self.result_path = os.path.join(self.dir, "result.json")

    # ------------------------------------------------------------- events
    def append_event(self, record: Dict[str, Any]) -> None:
        """Append one JSON record (single atomic ``O_APPEND`` write)."""
        os.makedirs(self.dir, exist_ok=True)
        fd = os.open(self.events_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, _event_line(record))
        finally:
            os.close(fd)
        get_registry().counter("federated.jobstore_events").inc()

    def rewind_events(self, n: int) -> None:
        """Keep only the first ``n`` records (dropping any torn tail).

        A resumed run replays the waves after its checkpoint, so their
        records must go before they are appended again.
        """
        if os.path.exists(self.events_path):
            blobs.write_atomic(self.events_path, b"".join(
                _event_line(e) for e in self.events()[:n]))

    def events(self) -> List[Dict[str, Any]]:
        """All complete event records (a torn final line is skipped)."""
        out: List[Dict[str, Any]] = []
        try:
            with open(self.events_path) as f:
                for line in f:
                    try:
                        out.append(json.loads(line))
                    except json.JSONDecodeError:
                        # A crash mid-append can leave one torn tail
                        # line; everything before it is intact.
                        break
        except FileNotFoundError:
            pass
        return out

    # -------------------------------------------------------- checkpoints
    def checkpoint(self, state: Any) -> str:
        """Atomically persist the resumable state; returns its path."""
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        blobs.write_atomic(self.checkpoint_path, blob)
        obs = get_registry()
        obs.counter("federated.jobstore_checkpoints").inc()
        obs.counter("federated.jobstore_checkpoint_bytes").inc(
            float(len(blob)))
        return self.checkpoint_path

    def load_checkpoint(self) -> Optional[Any]:
        """The last checkpoint, or ``None`` (corrupt entries count as
        absent — a resume can only lose progress, never correctness)."""
        return blobs.read_or_evict(self.checkpoint_path, pickle.load,
                                   "federated.jobstore_corrupt_checkpoints")

    # ------------------------------------------------------------- result
    def finish(self, result: Dict[str, Any]) -> str:
        """Atomically record the final result; marks the job done."""
        blobs.write_atomic(self.result_path, json.dumps(
            result, indent=2, sort_keys=True, default=str).encode())
        return self.result_path

    def result(self) -> Optional[Dict[str, Any]]:
        return blobs.read_or_evict(self.result_path, json.load)

    def status(self) -> str:
        """``done`` | ``running`` (has state) | ``pending`` (empty)."""
        if os.path.exists(self.result_path):
            return "done"
        if (os.path.exists(self.checkpoint_path)
                or os.path.exists(self.events_path)):
            return "running"
        return "pending"


class JobStore:
    """Directory of content-addressed :class:`JobHandle` entries."""

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None \
            else blobs.default_root(JOB_STORE_ENV, "repro-jobs")

    def job_id(self, kind: str, *parts: Any) -> str:
        """Content-addressed id over the run's full input closure."""
        return fingerprint(kind, *parts)

    def open_job(self, kind: str, *parts: Any) -> JobHandle:
        """Handle for the job identified by ``(kind, parts)``.

        Purely addressing — nothing touches disk until the first event,
        checkpoint, or result write.
        """
        return JobHandle(self.root, kind, self.job_id(kind, *parts))

    def jobs(self) -> List[Dict[str, Any]]:
        """Summaries of every job directory under the store root."""
        out: List[Dict[str, Any]] = []
        if not os.path.isdir(self.root):
            return out
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if not os.path.isdir(path) or "-" not in name:
                continue
            kind, job_id = name.rsplit("-", 1)
            handle = JobHandle(self.root, kind, job_id)
            size = 0
            for fname in os.listdir(path):
                try:
                    size += os.path.getsize(os.path.join(path, fname))
                except OSError:
                    continue
            out.append({"kind": kind, "job_id": job_id,
                        "status": handle.status(),
                        "events": len(handle.events()), "bytes": size})
        return out

    def clear(self) -> int:
        """Delete every job directory; returns the number removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        import shutil
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if os.path.isdir(path) and "-" in name:
                shutil.rmtree(path, ignore_errors=True)
                removed += 1
        return removed
