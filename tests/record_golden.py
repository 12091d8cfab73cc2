"""Re-record the golden digests of every corpus cell (see :mod:`tests.golden`).

Run from the repository root::

    PYTHONPATH=src python -m tests.record_golden

Re-recording is a deliberate change of the reference results: do it only
together with a change that is meant to alter simulated results, and say
in CHANGES.md why the new digests are right.  The script refuses to
record a run that breaks a corpus invariant, and writes
``tests/golden_digests.json``.
"""

from __future__ import annotations

import json
import sys
import time

from tests.golden import CELLS, DIGESTS_PATH, assert_invariants, cell_digests, run_cell


def main() -> int:
    digests = {}
    started = time.perf_counter()
    for name, cell in CELLS.items():
        t0 = time.perf_counter()
        run = run_cell(cell)
        assert_invariants(cell, run)
        digests[name] = cell_digests(cell, run)
        print(f"{name}: {time.perf_counter() - t0:.2f} s", flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} cells in "
          f"{time.perf_counter() - started:.1f} s -> {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
