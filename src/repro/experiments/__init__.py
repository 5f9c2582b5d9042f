"""Experiment suite: one module per paper claim (see DESIGN.md §4)."""

from ..core.workloads import (
    corollary3_start,
    geometric_tail,
    lemma8_start,
    lemma10_start,
    paper_biased,
    soda15_gap,
    theorem1_bias,
    theorem2_start,
    theorem4_start,
)
from .harness import SCALES, ExperimentSpec, SweepPoint, ensemble_at, grid, sweep
from .figures import FIGURES, figure_ids, render_figure
from .parallel import parallel_sweep
from .plotting import ascii_plot
from .registry import ALL_EXPERIMENTS, experiment_ids, get_experiment
from .results import ResultTable

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentSpec",
    "FIGURES",
    "ResultTable",
    "SCALES",
    "SweepPoint",
    "ascii_plot",
    "corollary3_start",
    "ensemble_at",
    "experiment_ids",
    "figure_ids",
    "geometric_tail",
    "get_experiment",
    "grid",
    "lemma10_start",
    "lemma8_start",
    "parallel_sweep",
    "render_figure",
    "paper_biased",
    "soda15_gap",
    "sweep",
    "theorem1_bias",
    "theorem2_start",
    "theorem4_start",
]
