"""Experiment harness: the experiment registry, statistics, and table
rendering."""

from repro.analysis.experiments import (
    EXPERIMENTS,
    Experiment,
    get_experiment,
    run_experiment,
    validate_registry,
)
from repro.analysis.robustness import (
    ERASURE_HEADERS,
    ErasurePoint,
    erasure_degradation,
)
from repro.analysis.stats import FitResult, SampleSummary, fit_loglinear, summarize
from repro.analysis.tables import format_value, render_table, write_table

__all__ = [
    "ERASURE_HEADERS",
    "EXPERIMENTS",
    "ErasurePoint",
    "Experiment",
    "FitResult",
    "SampleSummary",
    "erasure_degradation",
    "fit_loglinear",
    "format_value",
    "get_experiment",
    "render_table",
    "run_experiment",
    "summarize",
    "validate_registry",
    "write_table",
]
