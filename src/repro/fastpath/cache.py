"""On-disk cache of compiled MFA bundles.

Rule compilation is the dominant cost of every CLI run and benchmark
session — subset construction over a real rule set takes orders of
magnitude longer than loading its serialized table.  A compiled engine is
a pure function of (rules, parser options, splitter options, state
budget), so the cache key is a SHA-256 over exactly those inputs plus a
format version; any change to rules or options misses cleanly and a
corrupt or truncated entry is treated as a miss (and removed), never an
error.  Bundles are the versioned format from
:mod:`repro.core.serialize`, written atomically (tmp file + rename) so a
crashed writer cannot poison later runs.

The cache directory resolves, in order: an explicit ``directory``
argument, ``$REPRO_CACHE_DIR``, and ``~/.cache/repro-mfa``.  Setting
``REPRO_COMPILE_CACHE=0`` disables every cache lookup and store without
touching call sites.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from ..automata.dfa import DEFAULT_STATE_BUDGET
from ..core.mfa import MFA
from ..core.serialize import dumps_mfa, loads_mfa
from ..core.splitter import SplitterOptions
from ..regex.ast import Pattern
from ..regex.parser import ParserOptions

__all__ = [
    "ArtifactCache",
    "cache_key",
    "cache_enabled",
    "compile_mfa_cached",
    "default_cache_dir",
]

# Bump whenever the serialized bundle format or compile semantics change in
# a way old entries must not survive.  2: bundles may carry a prefilter
# plan section (MFABDL2 framing).  3: the DFA section may be
# default-transition compressed (MFADFA2) and the key carries the
# chain-depth bound.
CACHE_FORMAT = 3


def cache_enabled() -> bool:
    """Global kill switch: ``REPRO_COMPILE_CACHE=0`` disables caching."""
    return os.environ.get("REPRO_COMPILE_CACHE", "1") != "0"


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")) / "repro-mfa"


def _rule_token(rule: str | Pattern) -> str:
    if isinstance(rule, Pattern):
        # Source text plus identity/anchoring — everything that affects the
        # compiled automaton.  Patterns built programmatically without
        # source text are not cacheable by content; repr their AST.
        body = rule.source or repr(rule.root)
        return f"p:{rule.match_id}:{int(rule.anchored)}{int(rule.end_anchored)}:{body}"
    return f"s:{rule}"


def cache_key(
    rules: Sequence[str | Pattern],
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    minimize: bool = False,
    prefilter: bool = True,
    compress: int = 0,
    extra: dict | None = None,
) -> str:
    """Deterministic key over every input that shapes the compiled MFA.

    ``prefilter`` is keyed because it changes the serialized bundle (a
    version-2 bundle carries the plan section) even though it never
    changes match semantics.  ``compress`` (a resolved chain-depth bound,
    0 = dense) is keyed for the same reason: it selects the DFA section's
    encoding tier.
    """
    doc = {
        "format": CACHE_FORMAT,
        "rules": [_rule_token(rule) for rule in rules],
        "splitter": asdict(splitter_options or SplitterOptions()),
        "parser": asdict(parser_options or ParserOptions()),
        "state_budget": state_budget,
        "minimize": minimize,
        "prefilter": prefilter,
        "compress": compress,
        "extra": extra or {},
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class ArtifactCache:
    """Load/store serialized MFA bundles under a cache directory."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.mfab"

    def load(self, key: str) -> MFA | None:
        """Return the cached engine, or None on miss/corruption.

        Safe against concurrent writers: the entry is read through a file
        descriptor, and a corrupt entry is removed only while the
        directory entry still points at the very inode that was read —
        otherwise a racing ``store`` could publish a fresh valid bundle
        between our read and our unlink, and we would delete *their*
        entry, not the garbage we parsed.
        """
        if not cache_enabled():
            return None
        path = self.path_for(key)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            self.misses += 1
            return None
        try:
            read_stat = os.fstat(fd)
            with os.fdopen(fd, "rb") as stream:
                blob = stream.read()
        except OSError:
            self.misses += 1
            return None
        try:
            mfa = loads_mfa(blob)
        except Exception:
            # A corrupt entry is a miss, and removing it stops every later
            # run from re-parsing garbage — but only the exact file we
            # read (same device and inode); a concurrently replaced entry
            # is left alone.
            self._unlink_if_same(path, read_stat)
            self.misses += 1
            return None
        self.hits += 1
        return mfa

    @staticmethod
    def _unlink_if_same(path: Path, read_stat: os.stat_result) -> None:
        try:
            now_stat = path.stat()
        except OSError:
            return  # already gone
        if (now_stat.st_dev, now_stat.st_ino) == (read_stat.st_dev, read_stat.st_ino):
            # Tiny residual window (stat-then-unlink is not atomic on
            # POSIX), acceptable because the worst case is re-deriving
            # one cache entry — corruption can never be *introduced*.
            path.unlink(missing_ok=True)

    def store(self, key: str, mfa: MFA) -> Path | None:
        """Atomically persist a bundle; returns its path (None if disabled).

        Concurrent-writer safe on POSIX: every writer gets a unique
        ``mkstemp`` name in the cache directory (same filesystem, so the
        rename cannot degrade to copy), the bundle is flushed and fsynced
        before publication, and ``os.replace`` makes the entry visible
        atomically — readers see either the old complete entry or the new
        complete entry, never a partial write.  Racing writers for the
        same key both publish a byte-identical bundle (the key pins every
        compile input), so last-rename-wins is harmless.
        """
        if not cache_enabled():
            return None
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(dumps_mfa(mfa))
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return None
        return path


def compile_mfa_cached(
    rules: Sequence[str | Pattern],
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    cache: ArtifactCache | None = None,
    compress: "bool | int | None" = None,
) -> tuple[MFA, bool]:
    """Compile a rule set, consulting the artifact cache first.

    Returns ``(mfa, hit)`` where ``hit`` says the engine was loaded rather
    than built.  A fresh build is stored for the next caller.
    """
    from ..automata.compress import resolve_compress_option
    from ..core.compiler import compile_mfa

    cache = cache if cache is not None else ArtifactCache()
    depth = resolve_compress_option(compress)
    key = cache_key(
        rules,
        splitter_options=splitter_options,
        parser_options=parser_options,
        state_budget=state_budget,
        compress=depth,
    )
    cached = cache.load(key)
    if cached is not None:
        return cached, True
    mfa = compile_mfa(
        rules,
        splitter_options=splitter_options,
        parser_options=parser_options,
        state_budget=state_budget,
        compress=depth,
    )
    cache.store(key, mfa)
    return mfa, False
