"""Durable blob storage: the one write/evict layer under every on-disk store.

The artifact cache (:mod:`repro.runtime.cache`), the scenario replay
store (:mod:`repro.scenario.store`) and the federated job store
(:mod:`repro.federated.job_store`) each own a directory layout; all of
them persist and read blobs through the helpers here:

* :func:`write_atomic` — the blob goes to a temp file in the target
  directory, then ``os.replace`` swaps it in.  A crashed or concurrent
  writer can never leave a half-written blob at ``path``, and the temp
  file is removed on any failure;
* :func:`read_or_evict` — a missing blob and a corrupt one (truncated,
  unpicklable, stale layout: anything ``decode`` raises on) both read as
  ``None``; the corrupt one is unlinked, but only if the file at
  ``path`` is still the one whose decode failed (same inode).  Without
  that guard a reader tripping over an old blob could race a concurrent
  :func:`write_atomic` — whose ``os.replace`` lands a fresh, valid blob
  between the failed read and the unlink — and delete the new blob.  A
  store can therefore only ever cost a recompute, never wrongness;
* :func:`clear` — delete a flat store's ``.pkl`` blobs and stray temp
  files;
* :func:`default_root` — an env-var override, else ``~/.cache/...``.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Optional

from ..obs.registry import get_registry

__all__ = ["write_atomic", "read_or_evict", "clear", "default_root"]

_TMP_SUFFIX = ".tmp"


def write_atomic(path: str, blob: bytes) -> None:
    """Replace ``path`` with ``blob`` in one atomic step."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=_TMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_or_evict(path: str, decode: Callable[[Any], Any],
                  corrupt_counter: Optional[str] = None) -> Optional[Any]:
    """``decode(file)`` of the blob at ``path``; ``None`` when absent.

    A blob ``decode`` raises on counts as absent too: it increments
    ``corrupt_counter`` (when given) and is evicted under the inode
    guard described in the module docstring.  A hit costs one ``open``,
    one ``fstat`` and the decode.
    """
    ino = None
    try:
        with open(path, "rb") as f:
            ino = os.fstat(f.fileno()).st_ino
            return decode(f)
    except FileNotFoundError:
        return None
    except Exception:
        if corrupt_counter is not None:
            get_registry().counter(corrupt_counter).inc()
        try:
            if ino is not None and os.stat(path).st_ino == ino:
                os.unlink(path)
        except OSError:
            pass
        return None


def clear(root: str) -> int:
    """Delete every ``.pkl`` blob and temp file directly under ``root``;
    returns the number of files removed."""
    removed = 0
    if not os.path.isdir(root):
        return removed
    for name in os.listdir(root):
        if name.endswith((".pkl", _TMP_SUFFIX)):
            try:
                os.unlink(os.path.join(root, name))
                removed += 1
            except OSError:
                pass
    return removed


def default_root(env: str, *parts: str) -> str:
    """``$env`` when set and non-blank, else ``~/.cache/<parts...>``."""
    return os.environ.get(env, "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache", *parts)
