"""Shared-memory segment framing and the zero-copy load path.

These are the single-process invariants the daemon builds on: segments
round-trip bundles exactly, truncation is refused loudly, and an engine
loaded with ``mmap=True`` over a shared buffer matches byte-for-byte
what the copying loader produces.
"""

import pytest

from repro.core import compile_mfa
from repro.core.serialize import dumps_mfa, loads_mfa
from repro.core.sharded import ShardedMFA
from repro.serve.shm import (
    SEGMENT_MAGIC,
    ArtifactSegment,
    load_engine_from_buffer,
    pack_bundles,
    serialize_engine,
    unpack_bundles,
)

RULES_A = [".*alpha.*omega"]
RULES_B = ["beta[0-9]+"]
PAYLOAD = b"alpha beta77 omega beta8"


class TestFraming:
    def test_pack_unpack_round_trip(self):
        bundles = [b"first-bundle", b"second, longer bundle"]
        blob = pack_bundles(bundles, generation=3)
        assert blob.startswith(SEGMENT_MAGIC)
        header, views = unpack_bundles(blob)
        assert header["generation"] == 3
        assert [bytes(v) for v in views] == bundles

    def test_empty_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            pack_bundles([], generation=1)

    def test_bad_magic_refused(self):
        with pytest.raises(ValueError, match="magic"):
            unpack_bundles(b"NOTMAGIC" + b"\x00" * 64)

    def test_truncated_refused(self):
        blob = pack_bundles([b"x" * 100], generation=1)
        with pytest.raises(ValueError, match="truncated"):
            unpack_bundles(blob[:-10])


class TestSerializeEngine:
    def test_mfa_is_one_bundle(self):
        mfa = compile_mfa(RULES_A)
        (bundle,) = serialize_engine(mfa)
        assert loads_mfa(bundle).run(PAYLOAD) == mfa.run(PAYLOAD)

    def test_sharded_is_one_bundle_per_shard(self):
        sharded = ShardedMFA([compile_mfa(RULES_A), compile_mfa(RULES_B)])
        bundles = serialize_engine(sharded)
        assert len(bundles) == 2

    def test_non_mfa_shard_refused_with_reason(self):
        class NotAnMFA:
            pass

        sharded = ShardedMFA([compile_mfa(RULES_A), NotAnMFA()])
        with pytest.raises(TypeError, match="NotAnMFA"):
            serialize_engine(sharded)

    def test_unknown_engine_refused(self):
        with pytest.raises(TypeError, match="cannot serve"):
            serialize_engine(object())


class TestMmapLoad:
    def test_mmap_load_matches_copy_load(self):
        mfa = compile_mfa(RULES_A + RULES_B)
        blob = dumps_mfa(mfa)
        buffer = bytearray(blob)  # a writable buffer, like shm.buf
        zero_copy = loads_mfa(memoryview(buffer), mmap=True)
        copied = loads_mfa(blob)
        assert zero_copy.run(PAYLOAD) == copied.run(PAYLOAD) == mfa.run(PAYLOAD)

    def test_truncated_table_refused(self):
        blob = dumps_mfa(compile_mfa(RULES_A))
        with pytest.raises(ValueError):
            loads_mfa(blob[:-8], mmap=True)

    def test_engine_over_buffer_recombines_shards(self):
        # Shards carry *global* match ids (patterns are numbered before
        # partitioning), so per-shard compiles must start from the
        # pre-numbered pattern objects, exactly as the compiler does.
        from repro.core.compiler import compile_patterns
        from repro.fastcompile.shards import partition_patterns

        patterns = compile_patterns(RULES_A + RULES_B)
        bundles = [
            dumps_mfa(compile_mfa(shard))
            for shard in partition_patterns(patterns, 2)
        ]
        blob = pack_bundles(bundles, generation=1)
        engine = load_engine_from_buffer(blob, engine="mfa", mmap=True)
        combined = compile_mfa(RULES_A + RULES_B)
        assert sorted(engine.run(PAYLOAD)) == sorted(combined.run(PAYLOAD))

    def test_unknown_engine_kind_refused(self):
        blob = pack_bundles([dumps_mfa(compile_mfa(RULES_A))], generation=1)
        with pytest.raises(ValueError, match="unknown serve engine"):
            load_engine_from_buffer(blob, engine="quantum")


class TestSegmentLifecycle:
    def test_create_attach_load_unlink(self):
        mfa = compile_mfa(RULES_A)
        segment = ArtifactSegment.create(serialize_engine(mfa), generation=5)
        try:
            assert segment.owner and segment.generation == 5
            attached = ArtifactSegment.attach(segment.name)
            assert not attached.owner
            assert attached.generation == 5
            engine = attached.load_engine("mfa")
            assert engine.run(PAYLOAD) == mfa.run(PAYLOAD)
            del engine  # release table views before detaching
            attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_close_tolerates_exported_views(self):
        segment = ArtifactSegment.create(
            serialize_engine(compile_mfa(RULES_A)), generation=1
        )
        engine = segment.load_engine("mfa")
        segment.close()  # engine still holds views: must not raise
        assert engine.run(PAYLOAD)
        del engine
        segment.unlink()

    def test_double_unlink_tolerated(self):
        segment = ArtifactSegment.create([b"MFABDL1\n" + b"\x00" * 16], generation=1)
        segment.close()
        segment.unlink()
        segment.unlink()
