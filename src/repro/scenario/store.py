"""Content-addressed replay store for scenario sweep results.

The sweep engine's warm path: results are keyed on each scenario's
input-closure fingerprint (:meth:`repro.scenario.Scenario.fingerprint`),
so a re-sweep — same grid, reordered grid, extended grid, overlapping
different grid — only executes scenarios whose results are genuinely
novel and replays the rest from disk.

Layout: where the artifact cache keeps one file per entry (10^4 opens +
unpickles to warm a full sweep), entries here are grouped into **256
bucketed pack files** (``pack-<2-hex>.pkl``, sharded on the key prefix),
so a warm sweep costs at most 256 reads and a batch insert rewrites each
touched pack once.  Packs are written and read through
:mod:`repro.runtime.store`: a corrupt or stale-layout pack reads as
empty and is evicted.

Entries embed :data:`repro.runtime.cache.CACHE_VERSION` in their keys
indirectly (fingerprints are version-prefixed), so bumping the cache
version invalidates replay entries together with every other
content-addressed artifact.

Environment: ``REPRO_SCENARIO_STORE`` relocates the default root
(default ``~/.cache/repro/scenarios``).  Traffic surfaces as
``runtime.scenario_store_*`` counters — ``runtime.``-prefixed, so store
bookkeeping never leaks into golden traces.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Iterable, Optional

from ..obs.registry import get_registry
from ..runtime import store as blobs

__all__ = ["ReplayStore", "STORE_DIR_ENV", "STORE_LAYOUT_VERSION"]

STORE_DIR_ENV = "REPRO_SCENARIO_STORE"

# Bump when the pack file layout changes; mismatched packs are evicted.
STORE_LAYOUT_VERSION = 1


def _decode_pack(f) -> Dict[str, Any]:
    blob = pickle.load(f)
    if (not isinstance(blob, dict)
            or blob.get("layout") != STORE_LAYOUT_VERSION
            or not isinstance(blob.get("entries"), dict)):
        raise ValueError("stale pack layout")
    return blob["entries"]


class ReplayStore:
    """Bucketed pack-file store of ``fingerprint -> result`` entries."""

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None \
            else blobs.default_root(STORE_DIR_ENV, "repro", "scenarios")

    # ------------------------------------------------------------- layout
    def _bucket(self, key: str) -> str:
        return key[:2]

    def _pack_path(self, bucket: str) -> str:
        return os.path.join(self.root, f"pack-{bucket}.pkl")

    def _read_pack(self, bucket: str) -> Dict[str, Any]:
        """One pack's entries; missing or corrupt/stale packs are empty."""
        entries = blobs.read_or_evict(self._pack_path(bucket), _decode_pack,
                                      "runtime.scenario_store_corrupt")
        return {} if entries is None else entries

    def _write_pack(self, bucket: str, entries: Dict[str, Any]) -> None:
        blob = pickle.dumps(
            {"layout": STORE_LAYOUT_VERSION, "entries": entries},
            protocol=pickle.HIGHEST_PROTOCOL)
        blobs.write_atomic(self._pack_path(bucket), blob)
        obs = get_registry()
        obs.counter("runtime.scenario_store_pack_writes").inc()
        obs.counter("runtime.scenario_store_bytes_written").inc(
            float(len(blob)))

    # -------------------------------------------------------------- access
    def lookup(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Batch fetch: ``{key: payload}`` for every key present.

        Touches each referenced pack once regardless of how many keys
        land in it — the warm-sweep fast path.
        """
        obs = get_registry()
        keys = list(keys)
        found: Dict[str, Any] = {}
        by_bucket: Dict[str, list] = {}
        for key in keys:
            by_bucket.setdefault(self._bucket(key), []).append(key)
        for bucket, bucket_keys in sorted(by_bucket.items()):
            entries = self._read_pack(bucket)
            for key in bucket_keys:
                if key in entries:
                    found[key] = entries[key]
        obs.counter("runtime.scenario_store_hits").inc(len(found))
        obs.counter("runtime.scenario_store_misses").inc(
            len(set(keys)) - len(found))
        return found

    def insert(self, entries: Dict[str, Any]) -> None:
        """Batch upsert; each touched pack is read-merged-replaced once.

        Last-writer-wins per pack under concurrency — acceptable because
        entries are content-addressed: two writers racing on one key are
        writing identical results, and a lost *sibling* entry merely
        costs a future recompute, never wrongness.
        """
        if not entries:
            return
        by_bucket: Dict[str, Dict[str, Any]] = {}
        for key, payload in entries.items():
            by_bucket.setdefault(self._bucket(key), {})[key] = payload
        for bucket, bucket_entries in sorted(by_bucket.items()):
            merged = self._read_pack(bucket)
            merged.update(bucket_entries)
            self._write_pack(bucket, merged)
        get_registry().counter("runtime.scenario_store_inserts").inc(
            len(entries))

    # -------------------------------------------------------------- admin
    def info(self) -> Dict[str, Any]:
        packs = 0
        entries = 0
        total_bytes = 0
        if os.path.isdir(self.root):
            for name in sorted(os.listdir(self.root)):
                if not (name.startswith("pack-") and name.endswith(".pkl")):
                    continue
                packs += 1
                path = os.path.join(self.root, name)
                try:
                    total_bytes += os.path.getsize(path)
                except OSError:
                    continue
                entries += len(self._read_pack(name[5:-4]))
        return {"root": self.root, "packs": packs, "entries": entries,
                "total_bytes": total_bytes}

    def clear(self) -> int:
        return blobs.clear(self.root)
