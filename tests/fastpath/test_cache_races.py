"""The artifact cache under concurrent writers and hostile corruption.

The daemon's live reload recompiles shards through the cache while other
processes (a second daemon, a CLI run) may be writing the same keys.
The contract under races is *corruption-as-miss*: a reader gets either a
complete valid bundle or a miss — never a torn read, never an exception
— and a corrupt-entry cleanup may only remove the exact file it read,
not a fresh entry a racing writer just published.
"""

import multiprocessing
import os
import time

import pytest

from repro.core import compile_mfa, compile_patterns
from repro.fastpath import ArtifactCache
from repro.fastpath.cache import cache_key

pytestmark = pytest.mark.faults

RULES = [".*alpha.*omega", "beta[0-9]+"]
PAYLOAD = b"alpha beta7 omega"


# Spawned subprocess targets must be module-level (picklable).


def _writer_proc(directory, key, rounds, barrier):
    cache = ArtifactCache(directory)
    mfa = compile_mfa(RULES)
    barrier.wait()
    for _ in range(rounds):
        cache.store(key, mfa)


def _corruptor_proc(directory, key, deadline, barrier):
    """Repeatedly truncate/scribble the entry while writers republish it."""
    cache = ArtifactCache(directory)
    path = cache.path_for(key)
    barrier.wait()
    garbage = [b"", b"MFABDL1\n", b"\xff" * 64, os.urandom(256)]
    i = 0
    while time.time() < deadline:
        try:
            path.write_bytes(garbage[i % len(garbage)])
        except OSError:
            pass
        i += 1


def _reader_proc(directory, key, deadline, barrier, failures):
    """Loads must be valid-or-miss for the whole stress window."""
    cache = ArtifactCache(directory)
    expected = compile_mfa(RULES).run(PAYLOAD)
    barrier.wait()
    while time.time() < deadline:
        try:
            mfa = cache.load(key)
        except Exception as exc:  # noqa: BLE001 - the assertion under test
            failures.put(f"load raised {type(exc).__name__}: {exc}")
            return
        if mfa is None:
            continue
        got = mfa.run(PAYLOAD)
        if got != expected:
            failures.put(f"torn read: {got!r} != {expected!r}")
            return


class TestConcurrentWriters:
    def test_two_process_store_race_ends_valid(self, tmp_path):
        """Racing writers of one key always leave one valid entry."""
        directory = tmp_path / "cache"
        key = cache_key(compile_patterns(RULES))
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=_writer_proc, args=(str(directory), key, 40, barrier))
            for _ in range(2)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = ArtifactCache(directory)
        mfa = cache.load(key)
        assert mfa is not None
        assert mfa.run(PAYLOAD) == compile_mfa(RULES).run(PAYLOAD)
        # The unique-temp-name discipline leaves no stray partials behind.
        assert list(directory.glob("*.tmp")) == []

    def test_stress_with_corruptor_is_always_valid_or_miss(self, tmp_path):
        """Writers + corruptor + reader racing: reader never sees garbage."""
        directory = tmp_path / "cache"
        key = cache_key(compile_patterns(RULES))
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(4)
        failures = ctx.Queue()
        deadline = time.time() + 3.0
        procs = [
            ctx.Process(target=_writer_proc, args=(str(directory), key, 200, barrier)),
            ctx.Process(
                target=_corruptor_proc, args=(str(directory), key, deadline, barrier)
            ),
            ctx.Process(
                target=_reader_proc,
                args=(str(directory), key, deadline, barrier, failures),
            ),
        ]
        for p in procs:
            p.start()
        barrier.wait()  # the 4th party: release everyone together
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert failures.empty(), failures.get()


class TestCorruptUnlinkRace:
    def test_cleanup_spares_a_concurrently_replaced_entry(self, tmp_path):
        """The corrupt-unlink must be inode-checked, not path-blind.

        Simulates the race directly: the stat captured from the *garbage*
        read must not license deleting the *fresh* entry that replaced it.
        """
        cache = ArtifactCache(tmp_path / "cache")
        key = cache_key(compile_patterns(RULES))
        path = cache.path_for(key)
        cache.directory.mkdir(parents=True)
        path.write_bytes(b"garbage the reader saw")
        garbage_stat = path.stat()
        # A racing writer publishes a valid bundle over it (new inode).
        cache.store(key, compile_mfa(RULES))
        assert path.stat().st_ino != garbage_stat.st_ino
        ArtifactCache._unlink_if_same(path, garbage_stat)
        assert path.exists(), "cleanup deleted a fresh entry it never read"
        assert cache.load(key) is not None

    def test_cleanup_removes_the_exact_file_it_read(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = cache_key(compile_patterns(RULES))
        path = cache.path_for(key)
        cache.directory.mkdir(parents=True)
        path.write_bytes(b"still the same garbage")
        ArtifactCache._unlink_if_same(path, path.stat())
        assert not path.exists()

    def test_corrupt_load_still_misses_and_cleans(self, tmp_path):
        """End-to-end: corrupt entry -> miss, removed, rebuild succeeds."""
        cache = ArtifactCache(tmp_path / "cache")
        key = cache_key(compile_patterns(RULES))
        cache.directory.mkdir(parents=True)
        cache.path_for(key).write_bytes(b"\x00" * 100)
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()
        cache.store(key, compile_mfa(RULES))
        assert cache.load(key) is not None
