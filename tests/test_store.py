"""The shared durable-store layer (``repro.runtime.store``).

Deterministic checks of the eviction race and the failed-write cleanup
that every store adapter relies on; the per-adapter corruption tests
(artifact cache, replay store, job store) live with their adapters and
pin the counter names.
"""

import os
import pickle

import pytest

from repro.runtime import store as blobs


def test_failed_decode_keeps_a_blob_replaced_meanwhile(tmp_path):
    # Another writer's os.replace lands a fresh blob at the same path
    # after this reader opened the old one but before its decode fails:
    # the eviction must leave the fresh blob alone.
    path = str(tmp_path / "entry.pkl")
    blobs.write_atomic(path, b"stale bytes")
    fresh = pickle.dumps({"v": "fresh"})

    def decode_racing_a_writer(f):
        blobs.write_atomic(path, fresh)
        raise ValueError("stale layout")

    assert blobs.read_or_evict(path, decode_racing_a_writer) is None
    assert blobs.read_or_evict(path, pickle.load) == {"v": "fresh"}


class _HalfWriter:
    """A file object that writes half the blob, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_write_leaves_no_temp_and_old_entry(tmp_path, monkeypatch,
                                                   failure):
    path = str(tmp_path / "entry.pkl")
    blobs.write_atomic(path, pickle.dumps({"v": "old"}))
    if failure == "write":
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: _HalfWriter(fdopen(fd, mode)))
    else:
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        blobs.write_atomic(path, pickle.dumps({"v": "new" * 1000}))
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["entry.pkl"]
    assert blobs.read_or_evict(path, pickle.load) == {"v": "old"}


def test_clear_removes_blobs_and_temps_only(tmp_path):
    for name in ("a.pkl", "b.pkl", "c.tmp", "keep.txt"):
        (tmp_path / name).write_bytes(b"x")
    assert blobs.clear(str(tmp_path)) == 3
    assert sorted(os.listdir(tmp_path)) == ["keep.txt"]
    assert blobs.clear(str(tmp_path / "missing")) == 0


def test_default_root_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_ROOT", "  /srv/store  ")
    assert blobs.default_root("REPRO_TEST_ROOT", "x") == "/srv/store"
    monkeypatch.setenv("REPRO_TEST_ROOT", " ")
    assert blobs.default_root("REPRO_TEST_ROOT", "a", "b") == os.path.join(
        os.path.expanduser("~"), ".cache", "a", "b")
