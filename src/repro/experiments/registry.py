"""Experiment registration and result container."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ConfigError


@dataclass
class ExperimentResult:
    """Uniform result of any experiment.

    ``rows`` is a list of flat dicts (one per output row — the rows of the
    paper's table or the series points of its figure); ``headline`` carries
    the single number the paper quotes in prose, when there is one.
    """

    experiment_id: str
    title: str
    rows: List[dict]
    headline: Optional[dict] = None
    notes: str = ""

    def column_names(self) -> List[str]:
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def format_table(self, max_rows: Optional[int] = None) -> str:
        """Plain-text table of the rows (benchmarks print this)."""
        if not self.rows:
            return f"[{self.experiment_id}] (no rows)"
        names = self.column_names()
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        rendered = [
            [self._fmt(row.get(name, "")) for name in names] for row in rows
        ]
        widths = [
            max(len(name), *(len(r[i]) for r in rendered))
            for i, name in enumerate(names)
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "  ".join(name.ljust(w) for name, w in zip(names, widths)),
        ]
        for r in rendered:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self.headline:
            summary = ", ".join(f"{k}={self._fmt(v)}" for k, v in self.headline.items())
            lines.append(f"-- headline: {summary}")
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment.

    ``campaign`` experiments run a :func:`~repro.campaign.run_specs` grid
    and accept its execution keywords (``jobs``, ``cache``, ...);
    ``traces`` experiments accept ``trace_out=DIR``.
    """

    experiment_id: str
    title: str
    run: Callable[..., ExperimentResult]
    campaign: bool = False
    traces: bool = False


EXPERIMENTS: Dict[str, Experiment] = {}


def register(experiment_id: str, title: str, campaign: bool = False,
             traces: bool = False):
    """Decorator registering a ``run(scale, seed) -> ExperimentResult``."""

    def wrap(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if experiment_id in EXPERIMENTS:
            raise ConfigError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENTS[experiment_id] = Experiment(experiment_id, title, fn,
                                                campaign, traces)
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
