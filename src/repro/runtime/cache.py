"""Content-addressed on-disk artifact cache for expensive recomputation.

Pretraining an R-MAE, fitting a VAE monitor, or fitting Koopman dynamics
is deterministic given (hyper-parameters, training data, initial model
state, RNG state) — yet every benchmark and example recomputes them from
scratch.  :class:`ArtifactCache` memoizes those artifacts on disk:

* **keys** are SHA-256 fingerprints over the *complete* input closure —
  config, data content, initial parameters, and the RNG's bit-generator
  state — so two invocations collide only when training would produce
  bit-identical output anyway;
* **entries** are one ``<kind>-<fingerprint>.pkl`` file each, written
  and read through :mod:`repro.runtime.store` (atomic writes; corrupt
  entries read as misses, are evicted and recomputed);
* on a **hit** the cached *post-training* RNG state is restored into the
  caller's generator, so downstream draws are bit-identical whether the
  artifact was computed or loaded.

Environment knobs: ``REPRO_CACHE_DIR`` relocates the cache (default
``~/.cache/repro``); ``REPRO_CACHE=0`` disables it entirely.  Hits and
misses surface as ``runtime.cache_*`` counters on the active
:mod:`repro.obs` registry and through ``repro cache info``.

The cache keys capture inputs, not code: after editing a training loop,
``repro cache clear`` (or bumping :data:`CACHE_VERSION`) invalidates old
artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..obs.registry import get_registry
from . import store as blobs

__all__ = [
    "ArtifactCache", "get_cache", "resolve_cache", "cache_enabled",
    "cached_fit", "fingerprint", "CACHE_DIR_ENV", "CACHE_ENV",
    "CACHE_VERSION",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_ENV = "REPRO_CACHE"
# Bump to invalidate every existing entry (artifact layout changes).
# v2: entries carry the telemetry counter delta of the elided compute.
# v3: keys include the active kernel backend, so a cache populated
#     under one REPRO_KERNELS setting can never replay its (last-ulp
#     different) trained weights into a run under the other.
CACHE_VERSION = 3

_FALSEY = {"0", "off", "false", "no"}


# ------------------------------------------------------------ fingerprints
def _update_hash(h, obj: Any, seen: set) -> None:
    """Feed one object into the hash, canonically and recursively."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        h.update(f"|{type(obj).__name__}:{obj!r}".encode())
    elif isinstance(obj, float):
        h.update(f"|f:{obj.hex()}".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"|nd:{obj.dtype.str}:{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _update_hash(h, obj.item(), seen)
    elif isinstance(obj, np.random.Generator):
        _update_hash(h, obj.bit_generator.state, seen)
    elif isinstance(obj, dict):
        h.update(b"|d{")
        for key in sorted(obj, key=repr):
            h.update(f"|k:{key!r}".encode())
            _update_hash(h, obj[key], seen)
        h.update(b"}")
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else list(obj)
        h.update(f"|seq{len(items)}[".encode())
        for item in items:
            _update_hash(h, item, seen)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"|dc:{type(obj).__name__}".encode())
        _update_hash(h, vars(obj), seen)
    else:
        # Arbitrary object (Module, Parameter, VoxelizedCloud, ...): hash
        # its type name and attribute dict.  ``seen`` guards reference
        # cycles; repeated references hash repeatedly, which is fine —
        # traversal order is deterministic for identical structures.
        if id(obj) in seen:
            h.update(b"|cycle")
            return
        seen.add(id(obj))
        h.update(f"|obj:{type(obj).__name__}".encode())
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            _update_hash(h, attrs, seen)
        else:
            slots = getattr(type(obj), "__slots__", ())
            _update_hash(h, {s: getattr(obj, s, None) for s in slots}, seen)
        seen.discard(id(obj))


def fingerprint(*objs: Any) -> str:
    """Deterministic SHA-256 content fingerprint of arbitrary inputs."""
    h = hashlib.sha256()
    h.update(f"v{CACHE_VERSION}".encode())
    for obj in objs:
        _update_hash(h, obj, set())
    return h.hexdigest()[:24]


# ------------------------------------------------------------------ cache
class ArtifactCache:
    """Flat directory of ``<kind>-<fingerprint>.pkl`` artifact blobs."""

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None \
            else blobs.default_root(CACHE_DIR_ENV, "repro")

    # ------------------------------------------------------------- keying
    def key(self, kind: str, **parts: Any) -> str:
        # The kernel backend is part of every key: reference and
        # vectorized kernels produce results that differ at the last
        # ulp, so their trained artifacts must never cross-pollinate.
        from ..kernels import active_backend
        return fingerprint(kind, active_backend(), parts)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{key}.pkl")

    # -------------------------------------------------------------- store
    def store(self, kind: str, key: str, payload: Any) -> str:
        """Atomically persist one artifact; returns its path."""
        path = self._path(kind, key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        blobs.write_atomic(path, blob)
        obs = get_registry()
        obs.counter("runtime.cache_writes").inc()
        obs.counter("runtime.cache_bytes_written").inc(float(len(blob)))
        return path

    def load(self, kind: str, key: str) -> Optional[Any]:
        """Fetch an artifact; ``None`` on miss.  Corrupt entries are
        evicted and reported as misses (with a ``cache_corrupt`` count)."""
        payload = blobs.read_or_evict(self._path(kind, key), pickle.load,
                                      "runtime.cache_corrupt")
        obs = get_registry()
        if payload is None:
            obs.counter("runtime.cache_misses").inc()
            return None
        obs.counter("runtime.cache_hits").inc()
        return payload

    # ------------------------------------------------------------- admin
    def entries(self) -> List[Dict[str, Any]]:
        out = []
        if not os.path.isdir(self.root):
            return out
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".pkl"):
                continue
            kind = name.rsplit("-", 1)[0]
            try:
                size = os.path.getsize(os.path.join(self.root, name))
            except OSError:
                continue
            out.append({"file": name, "kind": kind, "bytes": size})
        return out

    def info(self) -> Dict[str, Any]:
        entries = self.entries()
        by_kind: Dict[str, int] = {}
        for e in entries:
            by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
        return {
            "root": self.root,
            "entries": len(entries),
            "total_bytes": sum(e["bytes"] for e in entries),
            "by_kind": by_kind,
            "files": entries,
        }

    def clear(self) -> int:
        return blobs.clear(self.root)


# -------------------------------------------------------- default policy
def cache_enabled() -> bool:
    return os.environ.get(CACHE_ENV, "1").strip().lower() not in _FALSEY


def get_cache() -> ArtifactCache:
    """A cache at the default (env-controlled) location."""
    return ArtifactCache()


def resolve_cache(cache: Union[None, bool, ArtifactCache]
                  ) -> Optional[ArtifactCache]:
    """Map a user-facing ``cache`` argument onto a cache instance.

    ``None`` follows the environment default (on unless ``REPRO_CACHE``
    is falsey); ``False`` disables; ``True`` forces the default cache;
    an :class:`ArtifactCache` is used as-is.
    """
    if isinstance(cache, ArtifactCache):
        return cache
    if cache is None:
        return get_cache() if cache_enabled() else None
    return get_cache() if cache else None


# ------------------------------------------------------------- memoizers
def _capture_counters(compute: Callable[[], Any]):
    """Run ``compute`` and return ``(result, counter_delta)``.

    The delta covers every non-``runtime.*`` counter the compute
    incremented on the active registry — the deterministic slice of
    telemetry a cache hit would otherwise silently elide.  ``None``
    when observability is disabled (nothing was recorded to replay).
    """
    obs = get_registry()
    if not getattr(obs, "enabled", False):
        return compute(), None
    before = obs.snapshot()["counters"]
    result = compute()
    after = obs.snapshot()["counters"]
    delta = {name: value - before.get(name, 0.0)
             for name, value in after.items()
             if value > before.get(name, 0.0)
             and not name.startswith("runtime.")}
    return result, delta


def _replay_counters(delta: Optional[Dict[str, float]]) -> bool:
    """Re-increment a stored counter delta on the active registry.

    Returns ``False`` when the entry was recorded blind (``delta is
    None``) while the current registry is live — the one case a hit
    would lose telemetry, so the caller must recompute instead.
    """
    obs = get_registry()
    if not getattr(obs, "enabled", False):
        return True
    if delta is None:
        return False
    for name in sorted(delta):
        obs.counter(name).inc(delta[name])
    return True


def cached_fit(kind: str, parts: Dict[str, Any], model: Any,
               rng: Optional[np.random.Generator],
               train: Callable[[], Any],
               cache: Union[None, bool, ArtifactCache] = None) -> Any:
    """Memoize a deterministic in-place model fit.

    The key covers ``parts`` (hyper-parameters + data), the model's
    *initial* state, and the RNG's pre-training state.  On a hit the
    stored post-training model state replaces ``model``'s attributes,
    the RNG is advanced to its stored post-training state, and the
    training run's counter increments are replayed into the active
    registry, so callers cannot observe the difference between
    computing and loading — not even through telemetry (only the
    ``runtime.cache_*`` bookkeeping differs).  Returns whatever
    ``train()`` returned when the artifact was built (typically
    per-epoch losses).
    """
    c = resolve_cache(cache)
    if c is None:
        return train()
    key = c.key(kind, parts=parts, init=fingerprint(vars(model)),
                rng=None if rng is None else rng.bit_generator.state)
    entry = c.load(kind, key)
    if entry is not None:
        try:
            state, aux, rng_state, obs_delta = (
                entry["state"], entry["aux"], entry["rng_state"],
                entry["obs"])
        except (TypeError, KeyError):
            pass  # stale layout: fall through and recompute
        else:
            if _replay_counters(obs_delta):
                model.__dict__.clear()
                model.__dict__.update(state)
                if rng is not None and rng_state is not None:
                    rng.bit_generator.state = rng_state
                return aux
            # Entry was recorded without observability but this run is
            # live: recompute so telemetry stays faithful.
    aux, obs_delta = _capture_counters(train)
    c.store(kind, key, {
        "state": dict(vars(model)),
        "aux": aux,
        "rng_state": None if rng is None else rng.bit_generator.state,
        "obs": obs_delta,
    })
    return aux


def cached_build(kind: str, parts: Dict[str, Any],
                 build: Callable[[], Any],
                 cache: Union[None, bool, ArtifactCache] = None) -> Any:
    """Memoize a deterministic pure builder (e.g. dataset generation).

    Unlike :func:`cached_fit` there is no in-place state to restore: the
    builder's return value is stored and returned verbatim (counter
    increments are captured and replayed exactly as in
    :func:`cached_fit`).
    """
    c = resolve_cache(cache)
    if c is None:
        return build()
    key = c.key(kind, parts=parts)
    entry = c.load(kind, key)
    if (isinstance(entry, dict) and "value" in entry
            and _replay_counters(entry.get("obs"))):
        return entry["value"]
    value, obs_delta = _capture_counters(build)
    c.store(kind, key, {"value": value, "obs": obs_delta})
    return value
