"""Fast rule compilation: bitset determinization + sharded parallel builds.

The paper's second headline claim is construction time — MFAs build "in
seconds instead of minutes" (Fig. 3).  This package is the reproduction's
compile-side performance layer, mirroring what :mod:`repro.fastpath` does
for the scan side, without changing any observable compile semantics:

* :mod:`repro.fastcompile.bitset` — subset construction over int bitsets
  (now the engine behind :func:`repro.automata.dfa.build_dfa_from_nfa`):
  each subset's sticky (full self-loop) core contributes a memoized row
  template, and the subset resolves only the alphabet groups its
  transient members move on;
* :mod:`repro.fastcompile.shards` — rule-set partitioning, process-pool
  shard compiles, per-shard artifact caching, and the
  :class:`ShardedMFA` recombination layer.

Entry points: ``repro.compile_mfa(rules, shards=, jobs=)`` for plain use,
:class:`repro.robust.ResilientCompiler` (``shards=``/``jobs=``) for
per-shard degradation, ``mfa-bench compile SET --shards N --jobs N`` from
the CLI, and ``benchmarks/bench_construction.py`` for the numbers.
"""

from .bitset import subset_construct
from .shards import (
    ShardBuild,
    ShardedContext,
    ShardedMFA,
    compile_mfa_sharded,
    compile_shards,
    partition_patterns,
)

__all__ = [
    "ShardBuild",
    "ShardedContext",
    "ShardedMFA",
    "compile_mfa_sharded",
    "compile_shards",
    "partition_patterns",
    "subset_construct",
]
