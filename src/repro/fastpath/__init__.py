"""Vectorized multi-flow lockstep scanning and compiled-artifact caching.

The scalar engines walk one byte of one flow per interpreter step, so every
reproduced speed figure is dominated by Python dispatch rather than
table-walk cost.  This package amortizes that dispatch two ways:

* :class:`FastPathMFA` — flattens the component DFA into one contiguous
  numpy transition matrix and steps a whole batch of flow contexts in
  lockstep, one vectorized gather per byte position across all lanes
  (data-parallel FSM execution in the style of Mytkowicz et al.,
  ASPLOS 2014), falling back to the scalar filter engine only at the
  sparse positions where the accept bitmap fires;
* :class:`ArtifactCache` — an on-disk cache of serialized MFA bundles
  keyed by a hash of the parsed patterns and compile options, so repeated
  runs (CLI, benchmarks, CI) skip subset construction entirely; pass it
  as ``compile_mfa(rules, cache=...)``.

Names resolve on first use, so the engine loads without the cache.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("ArtifactCache", "cache_key", "default_cache_dir"),
        "engine": ("FastPathMFA", "build_fastpath"),
        "prefilter": ("PrefilterRuntime", "build_prefilter", "plan_summary"),
    },
)
