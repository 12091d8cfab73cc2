"""Hot-path performance layer: memo caches, reference kernels, profiling,
and the bench-regression gate.

* :mod:`repro.perf.cache` — exact-key memoization with stats, a registry,
  and the :func:`~repro.perf.cache.caches_disabled` reference mode.
* :mod:`repro.perf.kernels` — the seed repository's scalar kernels, kept
  as executable ground truth for equivalence tests and speedup timing.
* :mod:`repro.perf.profile` — cProfile harness with per-subsystem phase
  buckets, plus sim-time phase totals piggybacked on ``SimTracer``.
* :mod:`repro.perf.bench_gate` — the pinned benchmark suite behind the
  ``python -m repro perf`` CLI (``record`` / ``check`` / ``profile``),
  producing ``BENCH_baseline.json`` / ``BENCH_current.json``.
"""

from .cache import (  # noqa: F401
    CacheStats,
    MemoCache,
    cache_stats_snapshot,
    caches_disabled,
    caches_enabled,
    iter_caches,
)

__all__ = [
    "CacheStats",
    "MemoCache",
    "cache_stats_snapshot",
    "caches_disabled",
    "caches_enabled",
    "iter_caches",
]
