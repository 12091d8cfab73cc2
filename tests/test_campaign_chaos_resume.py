"""Crash-recovery chaos family: SIGKILL the campaign, resume, compare.

Each scenario runs the fixed ``python -m repro campaign smoke-grid`` grid
in a subprocess with a ``campaign_kill`` fault scheduled at a randomized
(seeded) completed-cell index, confirms the process died by SIGKILL, then
resumes from the ledger in a fresh process and asserts the final results
are *exactly* equal to an uninterrupted reference run — with the already-
completed cells never re-executed.  The nastiest window (``pre``: after
the cache write, before the ledger's ``done`` record) and a kill landing
right after a torn cache write are both covered.
"""

import json
import os
import random
import signal
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Seeded scenario schedule: (kill-after index, kill window) pairs drawn
#: once — deterministic across runs, but not hand-picked.
_RNG = random.Random(0xC0FFEE)
KILL_SCENARIOS = sorted({
    (_RNG.randrange(0, 5), _RNG.choice(("pre", "post"))) for _ in range(4)
})


def _run_cli(*args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", "campaign", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted smoke-grid run: the ground truth every crashed-
    and-resumed campaign must reproduce bit-for-bit."""
    root = tmp_path_factory.mktemp("reference")
    out = root / "ref.json"
    proc = _run_cli("smoke-grid", "--ledger", str(root / "ledger"),
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["executed"] == 6 and payload["cached"] == 0
    return payload


@pytest.mark.parametrize("kill_after,window", KILL_SCENARIOS)
def test_sigkill_then_resume_is_bit_identical(tmp_path, reference,
                                              kill_after, window):
    ledger = tmp_path / "ledger"
    crashed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--kill-after", str(kill_after),
                       "--kill-window", window,
                       "--out", str(tmp_path / "never.json"))
    assert crashed.returncode == -signal.SIGKILL
    assert not (tmp_path / "never.json").exists()  # died before the end

    # the journal survived the kill in a resumable state
    fsck = _run_cli("verify-ledger", str(ledger))
    assert fsck.returncode == 0, fsck.stdout + fsck.stderr

    out = tmp_path / "resumed.json"
    resumed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--out", str(out))
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(out.read_text())
    assert payload["grid"] == reference["grid"]
    assert payload["cells"] == reference["cells"]  # exact to_dict equality
    # completed cells replayed, not re-executed: the kill fired right
    # after cell #kill_after finished, so at least kill_after+1 results
    # were already durable (the pre window persists the cache entry too)
    assert payload["cached"] >= kill_after + 1
    assert payload["executed"] + payload["cached"] == 6
    assert payload["executed"] <= 6 - (kill_after + 1)


def test_kill_after_torn_cache_write_recovers(tmp_path, reference):
    """The compound worst case: one cell's cache write is torn AND the
    campaign is SIGKILLed two cells later; resume must quarantine the torn
    entry, recompute exactly that cell, and still match the reference."""
    ledger = tmp_path / "ledger"
    crashed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--torn-cell", "1", "--kill-after", "3",
                       "--kill-window", "post",
                       "--out", str(tmp_path / "never.json"))
    assert crashed.returncode == -signal.SIGKILL

    # fsck sees the injected torn write before recovery touches it
    fsck = _run_cli("verify-ledger", str(ledger), "--json")
    assert fsck.returncode == 1
    report = json.loads(fsck.stdout)
    assert len(report["cache"]["corrupt"]) == 1

    out = tmp_path / "resumed.json"
    resumed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--out", str(out))
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(out.read_text())
    assert payload["cells"] == reference["cells"]
    # cells 0,2,3 replay; 1 (torn) + 4,5 (never ran) recompute
    assert payload["cached"] == 3 and payload["executed"] == 3

    healed = _run_cli("verify-ledger", str(ledger), "--json")
    assert healed.returncode == 0
    assert json.loads(healed.stdout)["cache"]["quarantined"] == 1


def test_smoke_grid_scalar_core_matches_itself(tmp_path):
    """The resume guarantee holds under the scalar reference core too
    (REPRO_SCALAR_CORE=1), which CI exercises as a separate lane."""
    env = {"REPRO_SCALAR_CORE": "1"}
    ledger = tmp_path / "ledger"
    crashed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--kill-after", "1", "--out", str(tmp_path / "x.json"),
                       env_extra=env)
    assert crashed.returncode == -signal.SIGKILL

    out1 = tmp_path / "resumed.json"
    resumed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--out", str(out1), env_extra=env)
    assert resumed.returncode == 0, resumed.stderr

    out2 = tmp_path / "straight.json"
    straight = _run_cli("smoke-grid", "--ledger", str(tmp_path / "fresh"),
                        "--out", str(out2), env_extra=env)
    assert straight.returncode == 0, straight.stderr
    assert (json.loads(out1.read_text())["cells"]
            == json.loads(out2.read_text())["cells"])
