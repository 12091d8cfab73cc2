"""Markdown report generation."""

import pytest

from repro.errors import ConfigError
from repro.experiments.registry import ExperimentResult
from repro.experiments.report import PAPER_CLAIMS, generate_report, render_markdown


def test_paper_claims_cover_every_experiment():
    from repro.experiments import EXPERIMENTS
    assert set(PAPER_CLAIMS) == set(EXPERIMENTS)


def test_render_markdown_structure():
    result = ExperimentResult(
        "table1", "demo", rows=[{"x": 1, "y": 2.0}], headline={"h": 3},
        notes="n",
    )
    text = render_markdown([result], durations={"table1": 1.25})
    assert "## table1 — demo" in text
    assert "*Paper:*" in text
    assert "| x | y |" in text
    assert "`h` = 3" in text
    assert "(1.2s)" in text


def test_render_requires_results():
    with pytest.raises(ConfigError):
        render_markdown([])


def test_generate_report_runs_fast_experiments():
    text = generate_report(["table1", "overhead", "fig7"])
    assert "## table1" in text
    assert "## overhead" in text
    assert "## fig7" in text
    # measured values appear
    assert "area_mm2" in text
    assert "makespan_us" in text


def test_runner_report_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.md"
    assert main(["experiments", "table1", "overhead", "--report", str(out)]) == 0
    text = out.read_text()
    assert "## table1" in text and "## overhead" in text
