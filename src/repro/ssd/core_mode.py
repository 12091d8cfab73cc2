"""Execution-core selection: batched (default) vs. scalar reference.

The simulator has two read-pipeline implementations that must produce
bit-identical results:

* the **batched** core (:mod:`repro.ssd.read_pipeline`) — the live
  structure-of-arrays engine;
* the **scalar** core — the original closure-per-phase pipeline inside
  :class:`~repro.ssd.simulator.SSDSimulator`, kept as the executable
  reference the batched engine is diffed against.

Selection mirrors :func:`repro.perf.cache.caches_disabled`: a context
manager for scoped overrides (tests, the bench gate's reference side) plus
the ``REPRO_SCALAR_CORE`` environment variable so CI can run the whole
tier-1 suite on the reference path without touching any call site.  The
mode is read once, at :class:`SSDSimulator` construction.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List

#: Environment switch: any value other than empty/"0"/"false"/"no" forces
#: the scalar reference core for simulators constructed while it is set.
ENV_VAR = "REPRO_SCALAR_CORE"

#: One entry per open :func:`scalar_core` block; any open block beats the
#: environment variable.
_FORCED: List[str] = []


def scalar_core_active() -> bool:
    """Whether a simulator constructed *now* should use the scalar core."""
    if _FORCED:
        return True
    return os.environ.get(ENV_VAR, "").strip().lower() not in (
        "", "0", "false", "no"
    )


@contextmanager
def scalar_core() -> Iterator[None]:
    """Force the scalar reference core for simulators constructed within."""
    _FORCED.append("scalar")
    try:
        yield
    finally:
        _FORCED.pop()
