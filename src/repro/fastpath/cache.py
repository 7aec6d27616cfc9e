"""On-disk cache of compiled MFA bundles.

Rule compilation is the dominant cost of every CLI run and benchmark
session — subset construction over a real rule set takes orders of
magnitude longer than loading its serialized table.  A compiled engine is
a pure function of (parsed patterns, parser options, splitter options,
state budget, compression depth), so the cache key is a SHA-256 over
exactly those inputs plus a format version; any change to rules or
options misses cleanly and a corrupt or truncated entry is treated as a
miss (and removed), never an error.  Bundles are the versioned format from
:mod:`repro.core.serialize`, written atomically (tmp file + rename) so a
crashed writer cannot poison later runs.

Only :func:`repro.fastcompile.compile_shards` keys, loads and stores
entries; ``compile_mfa(rules, cache=c)`` is the cached compile, and
``c.hits`` counts the shards it loaded.

The cache directory is an explicit ``directory`` argument, else
``~/.cache/repro-mfa`` (``$XDG_CACHE_HOME`` honoured).  The entry points
build their cache with :func:`repro.config.artifact_cache`, which reads
``REPRO_CACHE_DIR`` and returns ``None`` under ``REPRO_COMPILE_CACHE=0``;
everywhere, ``cache=None`` means no cache.
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

__all__ = ["ArtifactCache", "cache_key", "default_cache_dir"]

# Bump whenever the serialized bundle format or compile semantics change in
# a way old entries must not survive.  2: bundles may carry a prefilter
# plan section (MFABDL2 framing).  3: the DFA section may be
# default-transition compressed (MFADFA2) and the key carries the
# chain-depth bound.
CACHE_FORMAT = 3


def default_cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")) / "repro-mfa"


def _rule_token(pattern: Pattern) -> str:
    # Source text plus identity/anchoring — everything that affects the
    # compiled automaton.  Patterns built programmatically without source
    # text are not cacheable by content; repr their AST.
    body = pattern.source or repr(pattern.root)
    return f"p:{pattern.match_id}:{int(pattern.anchored)}{int(pattern.end_anchored)}:{body}"


def cache_key(
    patterns: Sequence[Pattern],
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    compress: int = 0,
) -> str:
    """Deterministic key over every input that shapes the compiled MFA.

    The key is over *parsed* patterns, so rule text and the patterns it
    parses to share one entry.  ``compress`` (a chain-depth bound, 0 =
    dense) is keyed because it selects the DFA section's encoding tier,
    even though it never changes match semantics.
    """
    doc = {
        "format": CACHE_FORMAT,
        "rules": [_rule_token(pattern) for pattern in patterns],
        "splitter": asdict(splitter_options or SplitterOptions()),
        "parser": asdict(parser_options or ParserOptions()),
        "state_budget": state_budget,
        "compress": compress,
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
        """Atomically persist a bundle; returns its path (None if the write fails).

        Concurrent-writer safe on POSIX: every writer gets a unique
        ``mkstemp`` name in the cache directory (same filesystem, so the
        rename cannot degrade to copy), the bundle is flushed and fsynced
        before publication, and ``os.replace`` makes the entry visible
        atomically — readers see either the old complete entry or the new
        complete entry, never a partial write.  Racing writers for the
        same key both publish a byte-identical bundle (the key pins every
        compile input), so last-rename-wins is harmless.
        """
        path = self.path_for(key)
        tmp_name = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as stream:
                stream.write(dumps_mfa(mfa))
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_name, path)
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return None
        return path
