"""On-disk cache byte budgets, LRU eviction, and publish-path races."""

from __future__ import annotations

import errno
import json
import os
import threading

import numpy as np
import pytest

from repro.cpu.optape import OpTape, TraceCache
from repro.experiments.parallel import (
    MAX_BYTES_ENV_VAR,
    ResultCache,
    cache_max_bytes,
    enforce_cache_limit,
)


def _set_mtime(path, seconds):
    os.utime(path, (seconds, seconds))


def _tape(n=4):
    return OpTape(
        sig=np.arange(n, dtype=np.int32),
        flags=np.zeros(n, dtype=np.uint8),
        mem_addr=np.zeros(n, dtype=np.int64),
        sig_srcs=np.zeros((n, 2), dtype=np.int16),
        sig_dest=np.zeros(n, dtype=np.int16),
        max_instructions=100,
        num_registers=16,
        exit_code=0,
        halt_reason=None,
    )


class TestCacheMaxBytesEnv:
    def test_unset_means_unlimited(self, monkeypatch):
        monkeypatch.delenv(MAX_BYTES_ENV_VAR, raising=False)
        assert cache_max_bytes() == 0

    def test_garbage_and_negative_mean_unlimited(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "lots")
        assert cache_max_bytes() == 0
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "-5")
        assert cache_max_bytes() == 0

    def test_positive_value(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "12345")
        assert cache_max_bytes() == 12345


class TestResultCacheEviction:
    def test_oldest_entries_evicted_first(self, tmp_path):
        cache = ResultCache(tmp_path)  # unlimited while seeding
        for index in range(4):
            cache.put("ns", {"k": index}, {"v": index})
            _set_mtime(cache._path("ns", {"k": index}), 1_000 + index)
        entry = cache._path("ns", {"k": 0}).stat().st_size
        # room for roughly two entries: the two oldest must go
        cache.max_bytes = 2 * entry + 1
        cache.put("ns", {"k": 99}, {"v": 99})
        _set_mtime(cache._path("ns", {"k": 99}), 2_000)
        survivors = {index for index in (0, 1, 2, 3, 99)
                     if cache.get("ns", {"k": index}) is not None}
        assert 99 in survivors  # newest always survives
        assert 0 not in survivors and 1 not in survivors
        assert cache.evictions >= 2

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put("ns", {"k": index}, {"v": index})
            _set_mtime(cache._path("ns", {"k": index}), 1_000 + index)
        assert cache.get("ns", {"k": 0}) == {"v": 0}  # touch: now newest
        entry = cache._path("ns", {"k": 0}).stat().st_size
        cache.max_bytes = 2 * entry + 1
        cache.put("ns", {"k": 9}, {"v": 9})
        # key 0 was hit after seeding, so the cold keys 1/2 evict first
        assert cache.get("ns", {"k": 0}) == {"v": 0}
        assert cache.get("ns", {"k": 9}) == {"v": 9}

    def test_zero_budget_means_unlimited(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=0)
        for index in range(10):
            cache.put("ns", {"k": index}, {"v": index})
        assert cache.evictions == 0
        assert all(cache.get("ns", {"k": index}) is not None
                   for index in range(10))

    def test_size_bytes_tracks_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.size_bytes() == 0
        cache.put("ns", {"k": 1}, {"v": 1})
        assert cache.size_bytes() == cache._path("ns", {"k": 1}).stat().st_size

    def test_enforce_limit_counts_evictions(self, tmp_path):
        for index in range(3):
            path = tmp_path / f"{index}.json"
            path.write_text("x" * 100)
            _set_mtime(path, 1_000 + index)
        assert enforce_cache_limit(tmp_path, ".json", 150) == 2
        assert not (tmp_path / "0.json").exists()
        assert (tmp_path / "2.json").exists()


class TestTraceCacheEviction:
    def test_oldest_tapes_evicted_first(self, tmp_path):
        cache = TraceCache(tmp_path)
        for index in range(3):
            cache.put(f"digest{index}", _tape())
            _set_mtime(cache._path(f"digest{index}"), 1_000 + index)
        entry = cache._path("digest0").stat().st_size
        cache.max_bytes = 2 * entry + 1
        cache.put("fresh", _tape())
        _set_mtime(cache._path("fresh"), 2_000)
        assert cache.get("fresh") is not None
        assert cache.get("digest0") is None  # coldest tape went first
        assert cache.evictions >= 1

    def test_budget_ignores_json_neighbours(self, tmp_path):
        """Shared REPRO_CACHE_DIR: npz budget must not evict results."""
        results = ResultCache(tmp_path)
        results.put("ns", {"k": 1}, {"v": 1})
        tapes = TraceCache(tmp_path, max_bytes=1)  # evict every tape
        tapes.put("digest", _tape())
        assert results.get("ns", {"k": 1}) == {"v": 1}


class TestPublishRaces:
    def test_racing_writers_same_key_both_succeed(self, tmp_path):
        cache = ResultCache(tmp_path)
        barrier = threading.Barrier(8)
        errors = []

        def writer(value):
            try:
                barrier.wait(5)
                for _ in range(20):
                    cache.put("ns", {"k": "hot"}, {"v": value})
            except Exception as exc:  # noqa: BLE001 - record any failure
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []
        # the entry is whole valid JSON from one writer, never torn
        entry = json.loads(cache._path("ns", {"k": "hot"}).read_text())
        assert entry["value"] in [{"v": index} for index in range(8)]
        assert not list(tmp_path.rglob("*.tmp"))  # no leaked tmp files

    def test_failed_publish_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        """A disk that fills mid-write must not strand the partial file:
        the budget counts only .json entries, so nothing else would
        ever remove it."""
        cache = ResultCache(tmp_path)

        def dump_until_full(obj, handle):
            handle.write('{"key": ')
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", dump_until_full)
        for index in range(3):
            with pytest.raises(OSError, match="No space left"):
                cache.put("ns", {"k": index}, {"v": index})
        assert not list(tmp_path.rglob("*.tmp"))
        assert not list(tmp_path.rglob("*.json"))

    def test_torn_json_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ns", {"k": 1}, {"v": 1})
        path = cache._path("ns", {"k": 1})
        path.write_text('{"key": {"k": 1}, "value"')  # simulate torn write
        assert cache.get("ns", {"k": 1}) is None
        cache.put("ns", {"k": 1}, {"v": 2})  # recovery: overwrite in place
        assert cache.get("ns", {"k": 1}) == {"v": 2}

    def test_torn_npz_degrades_to_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("digest", _tape())
        path = cache._path("digest")
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) // 2])  # truncated publish
        assert cache.get("digest") is None
        cache.put("digest", _tape())
        assert cache.get("digest") is not None

    def test_racing_tape_writers_same_digest(self, tmp_path):
        cache = TraceCache(tmp_path)
        barrier = threading.Barrier(4)
        errors = []

        def writer():
            try:
                barrier.wait(5)
                for _ in range(10):
                    cache.put("shared", _tape())
            except Exception as exc:  # noqa: BLE001 - record any failure
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []
        assert cache.get("shared") is not None
