"""The artifact cache must be transparent: hit or miss, same engine.

Covers round-trip match equality through store/load, key sensitivity to
every compile input, corruption tolerance (a bad entry is a miss that is
also removed), atomicity of stores, a store that cannot write (it
returns None and the build stands), the global kill switch, and one
entry per engine whichever compile entry point built it.
"""

import pytest

from repro import config
from repro.core import compile_mfa, compile_patterns
from repro.core.splitter import SplitterOptions
from repro.fastcompile import compile_shards
from repro.fastpath import ArtifactCache
from repro.fastpath.cache import cache_key, default_cache_dir
from repro.regex.parser import ParserOptions
from repro.robust import ResilientCompiler

RULES = [".*alpha.*omega", ".*abc[^\\n]*xyz", "^HELO "]
PAYLOAD = b"HELO alpha abc 12 xyz omega alpha\nomega"
KEY = cache_key(compile_patterns(RULES))


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestRoundTrip:
    def test_miss_then_hit_same_matches(self, cache):
        built = compile_mfa(RULES, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        loaded = compile_mfa(RULES, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert loaded.run(PAYLOAD) == built.run(PAYLOAD) == compile_mfa(RULES).run(PAYLOAD)

    def test_store_load_explicit(self, cache):
        mfa = compile_mfa(RULES)
        path = cache.store(KEY, mfa)
        assert path is not None and path.exists() and path.suffix == ".mfab"
        assert cache.load(KEY).run(PAYLOAD) == mfa.run(PAYLOAD)
        # No stray tmp files left behind by the atomic write.
        assert list(path.parent.glob("*.tmp")) == []

    def test_uncreatable_directory_fails_the_store_not_the_build(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache = ArtifactCache(blocker / "cache")
        mfa = compile_mfa(RULES)
        assert cache.store(KEY, mfa) is None
        built = compile_mfa(RULES, cache=cache)
        assert cache.hits == 0 and built.run(PAYLOAD) == mfa.run(PAYLOAD)
        (shard,) = compile_shards([compile_patterns(RULES)], cache=cache)
        assert shard.ok and shard.engine.run(PAYLOAD) == mfa.run(PAYLOAD)
        result = ResilientCompiler(cache=cache).compile(RULES)
        assert result.ok and result.engine.run(PAYLOAD) == mfa.run(PAYLOAD)


class TestOneEntryPerEngine:
    def test_compile_mfa_then_resilient_compiler_share_one_entry(self, cache):
        built = compile_mfa(RULES, cache=cache)
        result = ResilientCompiler(cache=cache).compile(RULES)
        assert cache.hits == 1
        assert result.report.attempts[-1].error == "loaded from artifact cache"
        assert [path.name for path in cache.directory.glob("*.mfab")] == [f"{KEY}.mfab"]
        assert result.engine.run(PAYLOAD) == built.run(PAYLOAD)

    def test_rule_text_and_parsed_patterns_share_one_entry(self, cache):
        compile_mfa(RULES, cache=cache)
        compile_mfa(compile_patterns(RULES), cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(list(cache.directory.glob("*.mfab"))) == 1


class TestKey:
    def test_deterministic(self):
        assert cache_key(compile_patterns(RULES)) == KEY

    def test_sensitive_to_every_input(self):
        patterns = compile_patterns(RULES)
        assert cache_key(patterns[:-1]) != KEY
        assert cache_key(patterns, state_budget=7) != KEY
        assert cache_key(patterns, compress=4) != KEY
        assert cache_key(patterns, splitter_options=SplitterOptions(max_class_size=64)) != KEY
        assert cache_key(patterns, parser_options=ParserOptions(dotall=False)) != KEY

    def test_rule_order_matters(self):
        # match_id is positional, so reordering compiles a different engine.
        assert cache_key(compile_patterns(list(reversed(RULES)))) != KEY


class TestCorruption:
    def test_corrupt_entry_is_removed_miss(self, cache):
        compile_mfa(RULES, cache=cache)
        path = cache.path_for(KEY)
        path.write_bytes(b"not a bundle at all")
        assert cache.load(KEY) is None
        assert not path.exists()
        # The next cached compile rebuilds and re-stores cleanly.
        rebuilt = compile_mfa(RULES, cache=cache)
        assert cache.hits == 0 and path.exists()
        assert rebuilt.run(PAYLOAD) == compile_mfa(RULES).run(PAYLOAD)

    def test_truncated_entry_is_miss(self, cache):
        compile_mfa(RULES, cache=cache)
        path = cache.path_for(KEY)
        path.write_bytes(path.read_bytes()[:20])
        assert cache.load(KEY) is None


class TestKillSwitch:
    def test_disabled_never_touches_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache = config.artifact_cache()
        assert cache is None
        mfa = compile_mfa(RULES, cache=cache)
        assert mfa.run(PAYLOAD) == compile_mfa(RULES).run(PAYLOAD)
        assert not (tmp_path / "cache").exists()

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
        assert config.artifact_cache() is not None

    @pytest.mark.parametrize("value", ["no", "false", "off", "2"])
    def test_anything_but_zero_or_one_rejected(self, value):
        with pytest.raises(ValueError, match="REPRO_COMPILE_CACHE"):
            config.artifact_cache({"REPRO_COMPILE_CACHE": value})


class TestDirectoryResolution:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert config.artifact_cache().directory == tmp_path / "elsewhere"
        # The library layer itself reads no REPRO_* variable.
        assert ArtifactCache().directory == default_cache_dir() != tmp_path / "elsewhere"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-mfa"
        assert config.artifact_cache().directory == tmp_path / "repro-mfa"
