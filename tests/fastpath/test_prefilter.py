"""Soundness and plumbing of the required-literal prefilter.

The contract is absolute: no window the scalar MFA would match may ever be
skipped by the prefiltered path — event streams *and* final per-flow
``(q, m)`` contexts must be byte-identical, plan or no plan.  The
properties here drive randomized payloads (with planted literals) and a
pinned adversarial corpus (literals at window/chunk boundaries,
overlapping anchors, 1-byte chains) through both paths, plus unit tests of
the plan builder and the version-2 bundle round-trip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_mfa
from repro.core.serialize import dumps_mfa, loads_mfa, split_bundle
from repro.fastpath import (
    FastPathMFA,
    build_fastpath,
    build_prefilter,
    plan_summary,
)

RULES = [
    ".*alpha.*omega",
    ".*abc[^\\n]*xyz",
    ".*start.{1,4}end0",
    "^HELO ",
]

FRAGMENTS = [
    b"alpha", b"omega", b"abc", b"xyz", b"start", b"end0",
    b"HELO ", b"\n", b"alph", b"mega", b"\x00\xff", b" ",
]


@pytest.fixture(scope="module")
def mfa():
    return compile_mfa(RULES)


def final_state(context):
    memory = context.memory
    return (
        context.state,
        context.offset,
        memory.bits,
        dict(memory.registers),
        memory.sticky,
    )


def assert_identical(mfa, engine, payloads, chunk=None):
    """Batch (and optionally chunk-streamed) streams + contexts match scalar."""
    want = [mfa.run(p) for p in payloads]
    assert engine.run_batch(payloads) == want
    if chunk is None:
        return
    contexts = [engine.new_context() for _ in payloads]
    scalar = [mfa.new_context() for _ in payloads]
    got = [[] for _ in payloads]
    ref = [[] for _ in payloads]
    longest = max((len(p) for p in payloads), default=0)
    for offset in range(0, longest, chunk):
        pieces = [p[offset : offset + chunk] for p in payloads]
        for events, new in zip(got, engine.feed_batch(contexts, pieces)):
            events.extend(new)
        for events, context, piece in zip(ref, scalar, pieces):
            events.extend(mfa.feed(context, piece))
    for i in range(len(payloads)):
        got[i].extend(engine.finish(contexts[i]))
        ref[i].extend(mfa.finish(scalar[i]))
    assert got == ref
    for fast, slow in zip(contexts, scalar):
        assert final_state(fast) == final_state(slow)


class TestPlanBuilder:
    def test_literal_rules_get_a_plan(self, mfa):
        plan = mfa.prefilter
        assert plan is not None
        assert plan["chains"] and plan["w"] >= 2 and plan["horizon"] >= 1
        assert "chains" in plan_summary(plan)

    def test_case_insensitive_and_class_wrapped_literals(self):
        # Satellite shapes: [Aa][Ll]... and [h]ttp[:] must yield chains.
        for rule in (".*[Aa][Ll][Ee][Rr][Tt]", ".*[h]ttp[:]"):
            plan = compile_mfa([rule]).prefilter
            assert plan is not None, rule
            assert plan["chains"], rule

    def test_no_required_literal_means_no_plan(self):
        # Wide classes defeat every anchor; the builder must refuse rather
        # than emit a weak plan.
        mfa = compile_mfa([".*[^x][^y]"])
        assert mfa.prefilter is None
        engine = build_fastpath(mfa, prefilter="auto")
        assert not engine.prefilter_active  # classic path, still correct
        payload = b"ab" * 50
        assert engine.run_batch([payload]) == [mfa.run(payload)]

    def test_one_unfilterable_rule_disables_the_whole_plan(self):
        mixed = compile_mfa([".*alpha.*omega", ".*[^x][^y]"])
        assert mixed.prefilter is None

    def test_min_literal_knob(self, monkeypatch):
        # A parameter only: the plan is part of the cached artifact, so no
        # environment variable outside the cache key may change it.
        monkeypatch.setenv("REPRO_PREFILTER_MIN_LITERAL", "4")
        short = compile_mfa([".*ab.*cd"])
        assert short.prefilter is not None
        assert build_prefilter(short, min_literal=4) is None
        long = compile_mfa([".*alpha.*omega"])
        assert build_prefilter(long, min_literal=4) is not None

    def test_deserialized_mfa_without_plan_builds_none(self, mfa):
        # A bundle round-trip drops split provenance; the plan must ride the
        # bundle itself, not be rebuilt from nothing.
        bare = loads_mfa(dumps_mfa(mfa))
        bare.prefilter = None
        assert build_prefilter(bare) is None


class TestSerialization:
    def test_plan_rides_the_bundle(self, mfa):
        blob = dumps_mfa(mfa)
        assert blob.startswith(b"MFABDL2\n")
        loaded = loads_mfa(blob)
        assert loaded.prefilter == mfa.prefilter
        # Round-trip stability: re-dump is byte-identical.
        assert dumps_mfa(loaded) == blob

    def test_planless_bundle_stays_version_1(self):
        mfa = compile_mfa([".*[^x][^y]"])
        assert mfa.prefilter is None
        blob = dumps_mfa(mfa)
        assert blob.startswith(b"MFABDL1\n")
        assert loads_mfa(blob).prefilter is None

    def test_split_bundle_accepts_both_framings(self, mfa):
        v2 = dumps_mfa(mfa)
        program_bytes, dfa_bytes = split_bundle(v2)
        assert program_bytes and len(dfa_bytes)
        plain = compile_mfa([".*[^x][^y]"])
        split_bundle(dumps_mfa(plain))

    def test_loaded_plan_drives_the_engine(self, mfa):
        loaded = loads_mfa(dumps_mfa(mfa))
        engine = build_fastpath(loaded, prefilter="auto")
        assert engine.prefilter_active
        payload = b"HELO alpha abc 12 xyz omega start 12 end0"
        assert engine.run_batch([payload]) == [mfa.run(payload)]


class TestModes:
    def test_mode_validation(self, mfa):
        # The modes are exactly "auto" and "off".
        for mode in ("sometimes", "on"):
            with pytest.raises(ValueError):
                build_fastpath(mfa, prefilter=mode)

    def test_env_default(self, mfa, monkeypatch):
        # The mode defaults to "auto" and no environment variable moves it.
        monkeypatch.setenv("REPRO_PREFILTER", "off")
        engine = build_fastpath(mfa)
        assert engine.prefilter_mode == "auto"
        assert engine.prefilter_active

    def test_off_never_builds_a_runtime(self, mfa):
        engine = build_fastpath(mfa, prefilter="off")
        assert engine.prefilter_mode == "off"
        assert not engine.prefilter_active


class TestAdversarialCorpus:
    """Pinned payloads aimed at the windowing machinery's seams."""

    CASES = [
        b"",
        b"a",
        b"alpha",  # literal fills the whole flow
        b"omega",  # second literal without the first
        b"alphaomega",  # back-to-back, no gap bytes
        b"alphalpha omegaomega",  # overlapping anchor candidates
        b"HELO alpha",  # anchored head + chain
        b"xxalpha" + b"z" * 200 + b"omegaxx",  # long gap between intervals
        b"z" * 4000 + b"alpha" + b"z" * 4000 + b"omega",  # windows far apart
        b"abc\nxyz",  # clear-spec fires between set and test
        b"abc" + b"q" * 300 + b"\n" + b"q" * 300 + b"abcxyz",
        b"startend0 start1234end0",  # counted gap at both extremes
        b"alph",  # prefix dies exactly at flow end
        b"aalpha omega" * 40,  # dense hits: density fallback territory
    ]

    @pytest.mark.parametrize("payload", CASES, ids=range(len(CASES)))
    def test_single_flow(self, mfa, payload):
        engine = build_fastpath(mfa, prefilter="auto")
        assert engine.prefilter_active
        assert_identical(mfa, engine, [payload], chunk=7)

    def test_literal_split_across_every_chunk_boundary(self, mfa):
        # "alpha...omega" straddling a chunk boundary at every offset: the
        # horizon head-interval must catch occurrences the new chunk's own
        # scan cannot see.
        engine = build_fastpath(mfa, prefilter="auto")
        body = b"12345alpha67890omega12345"
        for chunk in range(1, len(body) + 1):
            assert_identical(mfa, engine, [body], chunk=chunk)

    def test_one_byte_literals(self):
        mfa = compile_mfa([".*a.*b.*c"])
        assert mfa.prefilter is not None
        engine = build_fastpath(mfa, prefilter="auto")
        assert engine.prefilter_active
        payloads = [b"abc", b"a" * 5 + b"b" * 5 + b"c", b"cba", b"ab", b"c" * 30]
        assert_identical(mfa, engine, payloads, chunk=2)

    def test_mixed_batch_with_empty_and_huge_lanes(self, mfa):
        engine = build_fastpath(mfa, prefilter="auto")
        payloads = [
            b"",
            b"alpha omega",
            b"q" * 10_000,
            b"q" * 5_000 + b"abcxyz" + b"q" * 5_000,
        ]
        assert_identical(mfa, engine, payloads, chunk=1024)


class TestAnchorMachinery:
    """The gram-anchor seams: shared anchors and chains without a B pair."""

    def test_ambiguous_anchor_gram_falls_back_per_chain(self):
        # Both chains begin "qqx", and "qq" is the rarest bigram by the
        # commonness prior, so they collide on the same A-anchor gram and
        # the runtime must route that gram through the per-chain verify.
        mfa = compile_mfa([".*qqxaaaa", ".*qqxbbbb"])
        engine = build_fastpath(mfa, prefilter="auto")
        assert engine.prefilter_active
        runtime = engine._prefilter_runtime
        assert runtime.ambig_a is not None or runtime.ambig_b is not None
        payloads = [
            b"qqxaaaa",
            b"zqqxbbbb",  # odd-offset occurrence
            b"qqxaaaa qqxbbbb qqxaaaa",
            b"qqx" + b"c" * 50 + b"qqxbbbb",  # dead anchor, then a live one
            b"qq" * 40,  # anchor floods with no chain completion
        ]
        assert_identical(mfa, engine, payloads, chunk=5)

    def test_two_byte_chain_uses_odd_machinery(self):
        # A length-2 chain has no odd-offset B pair, so occurrences at odd
        # positions must come from the ODD_HEAD/ODD_TAIL gram planes.
        mfa = compile_mfa([".*qz[^\\n]*jx"])
        engine = build_fastpath(mfa, prefilter="auto")
        assert engine.prefilter_active
        runtime = engine._prefilter_runtime
        assert runtime.odd_chains
        payloads = [
            b"qzjx",
            b"-qz-jx",  # both pairs at odd positions
            b"-qz-jx-",
            b"--qz--jx",  # even positions
            b"-" * 101 + b"qz" + b"-" * 101 + b"jx",  # odd, far apart
            b"---qz",  # odd pair ends exactly at an odd-length buffer edge
            b"---qz\njx",  # clear between head and tail kills the match
        ]
        # chunk=1 forces the edge-pair case (pair split across chunks) to
        # ride on the horizon prefix of the following chunk.
        assert_identical(mfa, engine, payloads, chunk=1)
        assert_identical(mfa, engine, payloads, chunk=6)


payloads_strategy = st.lists(
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join),
    max_size=8,
)


class TestSoundnessProperty:
    @given(payloads=payloads_strategy, chunk=st.sampled_from([None, 1, 5, 33]))
    @settings(max_examples=60, deadline=None)
    def test_never_skips_a_scalar_match(self, mfa, payloads, chunk):
        engine = FastPathMFA(mfa, prefilter="auto")
        assert_identical(mfa, engine, payloads, chunk=chunk)

    @given(
        payloads=st.lists(st.binary(max_size=120), max_size=5),
        chunk=st.sampled_from([None, 3, 17]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_bytes_with_no_literal_rule_in_set(self, payloads, chunk):
        # One rule with no extractable literal: plan is None, "auto" degrades
        # to the classic path, streams still identical.
        mfa = compile_mfa([".*alpha.*omega", ".*[^x][^y]"])
        engine = FastPathMFA(mfa, prefilter="auto")
        assert not engine.prefilter_active
        assert_identical(mfa, engine, payloads, chunk=chunk)

    @given(
        payloads=st.lists(
            st.lists(
                st.one_of(st.sampled_from(FRAGMENTS), st.binary(max_size=6)),
                max_size=20,
            ).map(b"".join),
            max_size=6,
        ),
        chunk=st.sampled_from([None, 2, 11]),
    )
    @settings(max_examples=60, deadline=None)
    def test_planted_literals_in_noise(self, mfa, payloads, chunk):
        engine = FastPathMFA(mfa, prefilter="auto")
        assert_identical(mfa, engine, payloads, chunk=chunk)


class TestReportPlumbing:
    def test_resilient_scan_records_prefilter(self, mfa):
        from repro.robust import resilient_scan
        from repro.traffic.flows import PROTO_TCP, FiveTuple, Packet

        key = FiveTuple(PROTO_TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
        packets = [Packet(key=key, payload=b"HELO alpha omega", seq=0)]
        engine = build_fastpath(mfa, prefilter="auto")
        alerts, report = resilient_scan(engine, packets, batch_size=4)
        assert report.prefilter_mode == "auto"
        assert report.prefilter_active is True
        assert report.to_dict()["prefilter"] == {"mode": "auto", "active": True}
        assert any("prefilter: auto (active)" in line for line in report.describe())
        assert alerts  # HELO matched

    def test_scalar_engine_reports_no_prefilter(self, mfa):
        from repro.robust import resilient_scan

        _alerts, report = resilient_scan(mfa, [])
        assert report.prefilter_mode is None
        assert report.to_dict()["prefilter"] == {"mode": None, "active": False}

    def test_serve_config_validates_prefilter(self):
        from repro.serve import ServeConfig

        assert ServeConfig(prefilter="off").prefilter == "off"
        with pytest.raises(ValueError):
            ServeConfig(prefilter="maybe")
