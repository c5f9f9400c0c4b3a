"""On-disk cache byte budgets, LRU eviction, and publish-path races."""

from __future__ import annotations

import errno
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.optape import (
    TAPE_NAMESPACE,
    OpTape,
    _tape_entry,
    _tape_from_entry,
)
from repro.experiments import parallel
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


class TestBudgetedPutCost:
    def test_puts_under_an_unreached_budget_walk_the_root_once(
            self, tmp_path, monkeypatch):
        """Below its budget a store keeps a running total instead of
        walking the root on every put."""
        walks = []
        rglob = Path.rglob

        def counting_rglob(self, pattern):
            walks.append(pattern)
            return rglob(self, pattern)

        monkeypatch.setattr(Path, "rglob", counting_rglob)
        cache = ResultCache(tmp_path, max_bytes=10**9)
        for index in range(100):
            cache.put("ns", {"k": index}, {"v": index})
        assert len(walks) == 1
        assert cache.evictions == 0

    def test_a_full_root_walks_once_per_tenth_of_the_budget(
            self, tmp_path, monkeypatch):
        """A walk the running total triggers evicts down to the low-water
        mark, so the puts that follow on a full root do not walk."""
        walks = []
        evict_lru = parallel._evict_lru

        def counting(root, suffix, max_bytes):
            walks.append(max_bytes)
            return evict_lru(root, suffix, max_bytes)

        monkeypatch.setattr(parallel, "_evict_lru", counting)
        probe = ResultCache(tmp_path / "probe")
        probe.put("ns", {"k": 1000}, {"v": 1000})
        entry = probe.size_bytes()
        cache = ResultCache(tmp_path / "root", max_bytes=50 * entry)
        for index in range(1000, 1200):  # keys of one size
            cache.put("ns", {"k": index}, {"v": index})
            assert cache.size_bytes() <= cache.max_bytes
        # The first put walks, the 51st fills the root; from there a
        # walk leaves 45 entries, so one walk per 6 puts.
        assert len(walks) == 1 + -(-150 // 6)
        assert walks[0] == 50 * entry
        assert set(walks[1:]) == {int(50 * entry * parallel.LOW_WATER)}
        assert cache.size_bytes() >= 45 * entry

    def test_running_total_still_holds_the_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ns", {"k": 0}, {"v": 0})
        cache.max_bytes = 5 * cache.size_bytes()
        for index in range(1, 40):
            cache.put("ns", {"k": index}, {"v": index})
            assert cache.size_bytes() <= cache.max_bytes
        assert cache.evictions > 0
        assert cache.get("ns", {"k": 39}) == {"v": 39}

    def test_other_writers_are_reconciled_at_the_next_walk(self, tmp_path):
        """A second store's writes are not in this store's total until
        its own puts pass the budget; that walk sees and evicts them."""
        mine = ResultCache(tmp_path, max_bytes=10**9)
        mine.put("ns", {"k": "mine"}, {"v": 0})
        entry = mine.size_bytes()
        other = ResultCache(tmp_path)
        for index in range(20):
            other.put("ns", {"k": index}, {"v": index})
            _set_mtime(other._path("ns", {"k": index}), 1_000 + index)
        mine.max_bytes = 10 * entry
        mine.put("ns", {"k": "mine"}, {"v": 1})  # total 2 entries: no walk
        assert mine.evictions == 0
        for index in range(8):
            mine.put("ns", {"k": f"mine{index}"}, {"v": index})
        assert mine.evictions > 0
        assert mine.size_bytes() <= mine.max_bytes

    def test_concurrent_puts_lose_no_bytes(self, tmp_path):
        """Dispatch threads share one store: every put's bytes reach the
        running total, so after the first walk it equals the root's
        size exactly (distinct keys, no overwrites)."""
        cache = ResultCache(tmp_path, max_bytes=10**9)
        cache.put("ns", {"k": "first"}, {"v": 0})  # the one walk
        barrier = threading.Barrier(8)
        errors = []

        def writer(thread):
            try:
                barrier.wait(5)
                for index in range(40):
                    cache.put("ns", {"k": [thread, index]}, {"v": index})
            except Exception as exc:  # noqa: BLE001 - record any failure
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(index,))
                   for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache._tracked_bytes == cache.size_bytes()
        assert cache.evictions == 0

    def test_pickled_copies_walk_at_their_first_put(self, tmp_path):
        """Process-pool workers each put through a pickled copy of one
        store.  The copies' writes never reach the original's total, so
        each copy walks at its first put and the root keeps its
        budget."""
        cache = ResultCache(tmp_path, max_bytes=10**9)
        cache.put("ns", {"k": 100}, {"v": 100})  # walks; total of 1
        entry = cache.size_bytes()
        cache.max_bytes = 10 * entry
        for index in range(101, 130):
            clone = pickle.loads(pickle.dumps(cache))
            clone.put("ns", {"k": index}, {"v": index})
            assert clone.evictions == (1 if index > 109 else 0)
            assert cache.size_bytes() <= cache.max_bytes

    def test_store_pickles_for_process_pools(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        cache.put("ns", {"k": 1}, {"v": 1})
        clone = pickle.loads(pickle.dumps(cache))
        clone.put("ns", {"k": 2}, {"v": 2})
        assert clone.get("ns", {"k": 1}) == {"v": 1}
        assert cache.get("ns", {"k": 2}) == {"v": 2}


class TestTraceCacheEviction:
    """Op tapes are result-cache entries under the same byte budget."""

    def test_oldest_tapes_evicted_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(TAPE_NAMESPACE, f"digest{index}", _tape_entry(_tape()))
            _set_mtime(cache._path(TAPE_NAMESPACE, f"digest{index}"),
                       1_000 + index)
        entry = cache._path(TAPE_NAMESPACE, "digest0").stat().st_size
        cache.max_bytes = 2 * entry + 1
        cache.put(TAPE_NAMESPACE, "fresh", _tape_entry(_tape()))
        _set_mtime(cache._path(TAPE_NAMESPACE, "fresh"), 2_000)
        assert cache.get(TAPE_NAMESPACE, "fresh") is not None
        # coldest tape went first
        assert cache.get(TAPE_NAMESPACE, "digest0") is None
        assert cache.evictions >= 1

    def test_one_budget_covers_results_and_tapes(self, tmp_path):
        """Shared REPRO_CACHE_DIR: one LRU budget over both kinds, so
        the root never holds more than the setting."""
        cache = ResultCache(tmp_path)
        cache.put("ns", {"k": 1}, {"v": 1})
        _set_mtime(cache._path("ns", {"k": 1}), 1_000)
        cache.put(TAPE_NAMESPACE, "digest", _tape_entry(_tape()))
        tape = cache._path(TAPE_NAMESPACE, "digest").stat().st_size
        cache.max_bytes = tape + 1  # room for the tape alone
        cache.put(TAPE_NAMESPACE, "digest", _tape_entry(_tape()))
        assert cache.get("ns", {"k": 1}) is None  # older result evicted
        assert cache.get(TAPE_NAMESPACE, "digest") is not None
        assert cache.size_bytes() <= cache.max_bytes


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

    def test_torn_tape_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(TAPE_NAMESPACE, "digest", _tape_entry(_tape()))
        path = cache._path(TAPE_NAMESPACE, "digest")
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) // 2])  # truncated publish
        assert cache.get(TAPE_NAMESPACE, "digest") is None
        cache.put(TAPE_NAMESPACE, "digest", _tape_entry(_tape()))
        assert cache.get(TAPE_NAMESPACE, "digest") is not None

    def test_racing_tape_writers_same_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        barrier = threading.Barrier(4)
        errors = []

        def writer():
            try:
                barrier.wait(5)
                for _ in range(10):
                    cache.put(TAPE_NAMESPACE, "shared", _tape_entry(_tape()))
            except Exception as exc:  # noqa: BLE001 - record any failure
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []
        loaded = _tape_from_entry(cache.get(TAPE_NAMESPACE, "shared"))
        assert np.array_equal(loaded.sig, _tape().sig)
        assert not list(tmp_path.rglob("*.tmp"))


class TestEvictionRacingReaders:
    def test_reads_see_the_value_or_a_miss(self, tmp_path):
        """Writers with a 1-byte budget evict on every put while readers
        look the same keys up: a read returns the right value or a miss,
        never raises."""
        cache = ResultCache(tmp_path, max_bytes=1)
        tape = _tape(64)
        results = {index: {"v": index} for index in range(4)}
        digests = [f"digest{index}" for index in range(4)]
        stop = threading.Event()
        errors = []
        reads = []

        def guarded(body):
            def run():
                try:
                    while not stop.is_set():
                        body()
                except Exception as exc:  # noqa: BLE001 - record any failure
                    errors.append(exc)
                    stop.set()
            return run

        def write():
            for key, value in results.items():
                cache.put("ns", key, value)
            for digest in digests:
                cache.put(TAPE_NAMESPACE, digest, _tape_entry(tape))

        def read():
            for key, value in results.items():
                found = cache.get("ns", key)
                assert found is None or found == value
            for digest in digests:
                entry = cache.get(TAPE_NAMESPACE, digest)
                if entry is not None:
                    loaded = _tape_from_entry(entry)
                    assert np.array_equal(loaded.mem_addr, tape.mem_addr)
                    assert np.array_equal(loaded.sig_srcs, tape.sig_srcs)
            reads.append(1)

        threads = [threading.Thread(target=guarded(body))
                   for body in (write, write, read, read)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            time.sleep(2.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert reads
        assert cache.evictions > 0
