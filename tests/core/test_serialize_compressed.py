"""The compressed (``MFADFA2``) artifact tier and bundle version negotiation.

Three layers under test: the forest codec itself (byte-determinism and
section exactness), the bundle-level compressed load (flattened to a dense
table, forest kept for re-dumps, every engine scanning it unchanged), and
backward compatibility — the committed old-format dense fixtures must
load unchanged and re-serialise byte-for-byte.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.compress import CompressedDFA
from repro.automata.dfa import DFA
from repro.automata.serialize import dumps_cdfa, dumps_dfa, loads_cdfa
from repro.core import compile_mfa
from repro.core.serialize import dumps_mfa, loads_mfa
from repro.fastpath import HAVE_NUMPY, build_fastpath

RULES = [".*aa.*bb", ".*cc[^\\n]*dd", ".*ee.{1,4}ffq", "^GET /x", "plain"]
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "bundles"

PAYLOADS = (b"aa.bb", b"cc x dd", b"ee12ffq", b"GET /x", b"plain", b"zzz", b"")
LONG_PAYLOADS = (b"zzz" * 40, b"aa" + b"." * 100 + b"bb", b"x" * 300 + b"cc-dd")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="fastpath needs numpy")


@pytest.fixture(scope="module")
def cmfa():
    return compile_mfa(RULES, compress=2)


@pytest.fixture(scope="module")
def dense_mfa():
    return compile_mfa(RULES)


class TestForestCodec:
    def test_roundtrip_exact_bytes(self, cmfa):
        blob = dumps_cdfa(cmfa.compressed)
        assert dumps_cdfa(loads_cdfa(blob)) == blob

    def test_flatten_byte_identical_to_dense(self, cmfa, dense_mfa):
        flat = cmfa.compressed.flatten()
        assert dumps_dfa(flat) == dumps_dfa(dense_mfa.dfa)

    def test_truncated_sections_refused(self, cmfa):
        blob = dumps_cdfa(cmfa.compressed)
        with pytest.raises(ValueError):
            loads_cdfa(blob[:-3])

    def test_bad_magic_refused(self):
        with pytest.raises(ValueError, match="magic"):
            loads_cdfa(b"NOTDFA2\n" + b"\x00" * 64)


class TestCompressedLoad:
    """A compressed bundle loads as a dense DFA that keeps its forest."""

    @pytest.fixture(scope="class")
    def restored(self, cmfa):
        return loads_mfa(dumps_mfa(cmfa))

    def test_load_gives_dense_dfa_and_keeps_forest(self, restored):
        assert type(restored.dfa) is DFA
        assert isinstance(restored.compressed, CompressedDFA)

    def test_redump_reproduces_compressed_bundle(self, cmfa, restored):
        assert dumps_mfa(restored) == dumps_mfa(cmfa)

    def test_match_streams_identical(self, restored, dense_mfa):
        for payload in PAYLOADS + LONG_PAYLOADS:
            assert sorted(restored.run(payload)) == sorted(dense_mfa.run(payload))

    def test_streaming_feed(self, restored, dense_mfa):
        context = restored.new_context()
        events = list(restored.feed(context, b"aa."))
        events += list(restored.feed(context, b"bb"))
        events += list(restored.finish(context))
        assert sorted(events) == sorted(dense_mfa.run(b"aa.bb"))

    @needs_numpy
    def test_fastpath_keeps_the_prefilter(self, restored):
        assert restored.prefilter is not None  # the plan made the trip
        assert build_fastpath(restored, prefilter="auto").prefilter_active

    @needs_numpy
    def test_fastpath_batch_stream_matches_dense(self, restored, dense_mfa):
        payloads = list(PAYLOADS + LONG_PAYLOADS)
        want = [dense_mfa.run(p) for p in payloads]
        for prefilter in ("auto", "off"):
            engine = build_fastpath(restored, prefilter=prefilter)
            assert engine.run_batch(payloads) == want, prefilter


class TestVersionNegotiation:
    """Committed old-format bundles keep loading, byte-for-byte."""

    @pytest.mark.parametrize("name", ["v1_dense.mfab", "v2_dense.mfab"])
    def test_fixture_roundtrips_byte_identically(self, name):
        blob = FIXTURES.joinpath(name).read_bytes()
        assert dumps_mfa(loads_mfa(blob)) == blob

    @pytest.mark.parametrize("name", ["v1_dense.mfab", "v2_dense.mfab"])
    def test_fixture_matches_fresh_compile(self, name, dense_mfa):
        restored = loads_mfa(FIXTURES.joinpath(name).read_bytes())
        for payload in PAYLOADS:
            assert sorted(restored.run(payload)) == sorted(dense_mfa.run(payload))

    def test_fixture_framing_versions(self):
        assert FIXTURES.joinpath("v1_dense.mfab").read_bytes()[:8] == b"MFABDL1\n"
        assert FIXTURES.joinpath("v2_dense.mfab").read_bytes()[:8] == b"MFABDL2\n"

    def test_dense_compile_still_writes_dense_sections(self, dense_mfa):
        # compress=None (the default) must not change the artifact bytes:
        # old readers keep working on freshly compiled dense bundles.
        blob = dumps_mfa(dense_mfa)
        assert b"MFADFA2\n" not in blob[:64]
        assert loads_mfa(blob).compressed is None


@given(st.lists(st.sampled_from(list(b"abcdef\n .GETxpl")), max_size=60).map(bytes))
@settings(max_examples=30, deadline=None)
def test_compressed_load_equivalent_property(data):
    dense = compile_mfa(RULES)
    restored = loads_mfa(dumps_mfa(compile_mfa(RULES, compress=2)))
    assert sorted(restored.run(data)) == sorted(dense.run(data)), data
