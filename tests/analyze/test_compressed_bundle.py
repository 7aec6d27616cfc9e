"""Tolerant analysis of compressed (``MFADFA2``) bundle sections.

Corruption in the compressed DFA section must surface as ``BN107``
(framing/section damage) or ``BN108`` (semantically invalid forest)
findings — never as a crash — and a clean compressed bundle must lint
clean, including through the ``mfa-bench lint`` CLI.
"""

import struct

import pytest

from repro.analyze import analyze_bundle
from repro.automata.serialize import CDFA_MAGIC, decode_cdfa_header
from repro.bench.cli import main
from repro.bench.harness import patterns_for
from repro.core import compile_mfa, dumps_mfa

RULES = [".*aa.*bb", ".*cc[^\\n]*dd", ".*ee.{1,4}ffq", "^GET /x", "plain"]


@pytest.fixture(scope="module")
def compressed_bundle() -> bytes:
    return dumps_mfa(compile_mfa(RULES, compress=4))


def section_offsets(blob: bytes) -> tuple[int, int, dict]:
    """(section start, binary body start, decoded header) of the CDFA part."""
    sec = blob.index(CDFA_MAGIC)
    header, body = decode_cdfa_header(memoryview(blob)[sec:])
    body_off = len(blob) - len(body)
    return sec, body_off, header


def patch_parent(blob: bytes, state: int, value: int) -> bytes:
    """Rewrite one default-pointer entry in place (lengths unchanged)."""
    _sec, body_off, _header = section_offsets(blob)
    buf = bytearray(blob)
    struct.pack_into("<i", buf, body_off + 4 * state, value)
    return bytes(buf)


class TestCleanCompressedBundle:
    def test_analyzer_finds_nothing(self, compressed_bundle):
        report = analyze_bundle(compressed_bundle)
        assert not report.has_errors
        assert not [f for f in report if f.severity == "warning"]

    def test_lint_cli_decodes_compressed_section(self, tmp_path, capsys):
        path = tmp_path / "compressed.mfab"
        path.write_bytes(dumps_mfa(compile_mfa(patterns_for("C8"), compress=4)))
        assert main(["lint", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestCorruptedSections:
    def test_garbled_header_json_is_bn107(self, compressed_bundle):
        sec, _body, _header = section_offsets(compressed_bundle)
        buf = bytearray(compressed_bundle)
        buf[sec + len(CDFA_MAGIC) + 4] = ord("X")  # first byte of the JSON
        report = analyze_bundle(bytes(buf))
        assert "BN107" in {f.code for f in report}
        assert report.has_errors

    def test_undersized_sections_are_bn107(self, compressed_bundle):
        # Claim one more state than the binary sections actually carry: the
        # bundle framing stays honest (dfa_len is patched to match the grown
        # JSON header), so the finding must come from the section-size check.
        _sec, _body, header = section_offsets(compressed_bundle)
        n = header["n_states"]
        old = f'"n_states":{n}'.encode()
        new = f'"n_states":{n + 1}'.encode()
        assert old in compressed_bundle
        blob = compressed_bundle.replace(old, new, 1)
        buf = bytearray(blob)
        grown = len(blob) - len(compressed_bundle)
        if grown:  # a digit rollover also grows the section
            magic_len = 8  # both MFABDL1 and MFABDL2 magics are 8 bytes
            (dfa_len,) = struct.unpack_from("<I", buf, magic_len + 4)
            struct.pack_into("<I", buf, magic_len + 4, dfa_len + grown)
        report = analyze_bundle(bytes(buf))
        assert "BN107" in {f.code for f in report}
        assert report.has_errors

    def test_parent_out_of_range_is_bn108(self, compressed_bundle):
        _sec, _body, header = section_offsets(compressed_bundle)
        blob = patch_parent(compressed_bundle, 1, header["n_states"] + 7)
        report = analyze_bundle(blob)
        findings = {f.code for f in report}
        assert "BN108" in findings
        assert report.has_errors

    def test_default_pointer_cycle_is_bn108(self, compressed_bundle):
        _sec, _body, header = section_offsets(compressed_bundle)
        n = header["n_states"]
        assert n >= 2
        blob = patch_parent(compressed_bundle, 0, 1)
        blob = patch_parent(blob, 1, 0)
        report = analyze_bundle(blob)
        descriptions = [f.message for f in report if f.code == "BN108"]
        assert any("cycle" in d for d in descriptions)
        assert report.has_errors

    def test_depth_claim_mismatch_is_bn108_warning(self, compressed_bundle):
        _sec, _body, header = section_offsets(compressed_bundle)
        depth = header["max_depth"]
        if depth < 2:
            pytest.skip("forest too shallow to understate the depth claim")
        old = f'"max_depth":{depth}'.encode()
        new = f'"max_depth":{depth - 1}'.encode()
        assert old in compressed_bundle
        blob = compressed_bundle.replace(old, new, 1)
        report = analyze_bundle(blob)
        warnings = [f for f in report if f.code == "BN108"]
        assert warnings
        assert all(f.severity == "warning" for f in warnings)

    def test_truncated_compressed_bundle_is_framing_finding(self, compressed_bundle):
        report = analyze_bundle(compressed_bundle[:-30])
        assert report.has_errors  # BN101: bundle framing, before the section
        assert {f.code for f in report} <= {"BN101", "BN107"}

    def test_prover_accepts_compressed_loads(self, compressed_bundle):
        # The equivalence prover runs over a compressed load's flattened DFA.
        from repro.analyze import analyze_engine_equivalence
        from repro.core.serialize import loads_mfa
        from repro.regex import parse_many

        engine = loads_mfa(compressed_bundle)
        report = analyze_engine_equivalence(engine, parse_many(RULES))
        assert not report.has_errors, report.describe()

    def test_no_corruption_crashes(self, compressed_bundle):
        # Sweep single-byte corruptions across the compressed section; every
        # one must yield a report, never an exception.
        sec, _body, _header = section_offsets(compressed_bundle)
        for offset in range(sec, len(compressed_bundle), 997):
            buf = bytearray(compressed_bundle)
            buf[offset] ^= 0xFF
            analyze_bundle(bytes(buf))
