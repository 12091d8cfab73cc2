"""The ``python -m repro`` command line: parsing, exit codes, and the
keywords each campaign command hands :func:`repro.campaign.run_specs`."""

import inspect
import runpy
import sys

import pytest

from repro import cli
from repro.campaign import CampaignStats, run_specs
from repro.errors import CampaignInterrupted
from repro.experiments import common
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import service
from repro.obs.registry import FleetAggregator

COMMANDS = [
    (),
    ("experiments",),
    ("campaign",),
    ("campaign", "verify-ledger"),
    ("campaign", "smoke-grid"),
    ("fleet",),
    ("fleet", "generate"),
    ("fleet", "run"),
    ("fleet", "report"),
    ("fleet", "diff"),
    ("obs",),
    ("obs", "scrape"),
    ("obs", "slo-report"),
    ("obs", "dashboard"),
    ("perf",),
    ("perf", "record"),
    ("perf", "check"),
    ("perf", "profile"),
]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c) or "top")
def test_help_parses_through_package_main(command, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["repro", *command, "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("repro", run_name="__main__")
    assert exc.value.code == 0
    assert "usage: python -m repro" in capsys.readouterr().out


class _Captured(Exception):
    """Raised by the fake run_specs once it has recorded its keywords."""


@pytest.fixture
def captured(monkeypatch):
    """Replace run_specs wherever a command looks it up; record the specs
    and the keywords (defaults filled in) of each call."""
    calls = []

    def fake_run_specs(specs, **kwargs):
        bound = inspect.signature(run_specs).bind(specs, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        calls.append((list(arguments.pop("specs")), arguments))
        raise _Captured

    for module in (cli, common, service):
        monkeypatch.setattr(module, "run_specs", fake_run_specs)
    return calls


def _run_captured(captured, argv):
    with pytest.raises(_Captured):
        cli.main(argv)
    (specs, kwargs), = captured
    return specs, kwargs


#: run_specs' keywords at their defaults: what a command passes unless it
#: says otherwise
DEFAULTS = dict(jobs=1, cache=None, progress=None, cell_timeout_s=None,
                max_cell_retries=1, on_failure="raise", ledger_dir=None,
                lease_s=900.0, campaign_faults=None, fleet=None,
                max_in_flight=None)


def test_experiments_fig6_keywords(captured, tmp_path):
    specs, kwargs = _run_captured(captured, [
        "experiments", "fig6", "--jobs", "2", "--cache", str(tmp_path / "c"),
        "--ledger", str(tmp_path / "l"), "--max-in-flight", "3"])
    assert len(specs) == 4 * 3 * 2
    assert kwargs == dict(DEFAULTS, jobs=2, cache=str(tmp_path / "c"),
                          ledger_dir=f"{tmp_path / 'l'}/fig6",
                          max_in_flight=3)


def test_fleet_run_keywords(captured, tmp_path):
    specs, kwargs = _run_captured(captured, [
        "fleet", "run", "--drives", "3", "--jobs", "2",
        "--ledger", str(tmp_path / "l"), "--kill-after", "1",
        "--kill-window", "post"])
    assert len(specs) == 3
    assert type(kwargs.pop("progress")) is CampaignStats
    assert type(kwargs.pop("fleet")) is FleetAggregator
    kill = FaultSpec(kind="campaign_kill", start_read=1, count=1,
                     magnitude=1.0)
    expected = dict(DEFAULTS, jobs=2, ledger_dir=str(tmp_path / "l"),
                    campaign_faults=FaultPlan(faults=(kill,)),
                    on_failure="record")
    del expected["progress"], expected["fleet"]
    assert kwargs == expected


def test_obs_scrape_keywords(captured, tmp_path):
    specs, kwargs = _run_captured(captured, [
        "obs", "scrape", "--pe", "1000", "--jobs", "2",
        "--cache", str(tmp_path / "c")])
    assert len(specs) == 3
    assert type(kwargs.pop("fleet")) is FleetAggregator
    expected = dict(DEFAULTS, jobs=2, cache=str(tmp_path / "c"),
                    on_failure="record")
    del expected["fleet"]
    assert kwargs == expected


def test_campaign_smoke_grid_keywords(captured, tmp_path):
    specs, kwargs = _run_captured(captured, [
        "campaign", "smoke-grid", "--ledger", str(tmp_path / "l"),
        "--kill-after", "2", "--torn-cell", "1"])
    assert specs == cli.smoke_specs(7)
    assert type(kwargs.pop("progress")) is CampaignStats
    faults = (
        FaultSpec(kind="campaign_kill", start_read=2, count=1,
                  magnitude=0.0),
        FaultSpec(kind="torn_cache_write", start_read=1, count=1,
                  magnitude=0.5),
    )
    expected = dict(DEFAULTS, ledger_dir=str(tmp_path / "l"),
                    campaign_faults=FaultPlan(faults=faults),
                    on_failure="record")
    del expected["progress"]
    assert kwargs == expected


@pytest.mark.parametrize("argv", [
    ["obs", "scrape", "--pe", "1000", "--ledger", "L"],
    ["fleet", "run", "--drives", "2", "--ledger", "L"],
    ["campaign", "smoke-grid", "--ledger", "L"],
], ids=lambda argv: " ".join(argv[:2]))
def test_interrupted_campaign_exits_130_with_hint(argv, monkeypatch, capsys):
    def interrupted(specs, **kwargs):
        raise CampaignInterrupted(
            "campaign interrupted with 1 of 3 cells finished",
            resume_hint="re-run the identical grid to resume")

    for module in (cli, service):
        monkeypatch.setattr(module, "run_specs", interrupted)
    assert cli.main(argv) == 130
    err = capsys.readouterr().err
    assert "interrupted: campaign interrupted" in err
    assert "hint: re-run the identical grid to resume" in err


def test_unknown_experiment_exits_2(capsys):
    assert cli.main(["experiments", "nosuchfig"]) == 2
    assert "error: unknown experiment 'nosuchfig'" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiments", "fig6", "--jobs", "0"])
    assert exc.value.code == 2
    assert cli.main(["obs", "dashboard"]) == 2
    assert "error: dashboard needs" in capsys.readouterr().err
