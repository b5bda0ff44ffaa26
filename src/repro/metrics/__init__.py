"""Measurement utilities: counters, histograms, statistics, recorders."""

from repro.metrics.counters import WindowedCounter
from repro.metrics.histogram import Histogram
from repro.metrics.recorder import (
    RECORDER_EVENT_SURFACE,
    RECORDER_SINKS,
    KernelRecorder,
    RecorderMux,
)
from repro.metrics.stats import (
    binomial_expected_wins,
    binomial_variance,
    geometric_mean_wait,
    geometric_variance,
    mean,
    observed_ratio,
    ratio_error,
    stdev,
    win_proportion_cv,
)

__all__ = [
    "Histogram",
    "KernelRecorder",
    "RECORDER_EVENT_SURFACE",
    "RECORDER_SINKS",
    "RecorderMux",
    "WindowedCounter",
    "binomial_expected_wins",
    "binomial_variance",
    "geometric_mean_wait",
    "geometric_variance",
    "mean",
    "observed_ratio",
    "ratio_error",
    "stdev",
    "win_proportion_cv",
]
