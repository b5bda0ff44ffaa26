"""Measurement utilities: counters, histograms, statistics, recorders."""

from repro._exports import lazy_exports

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

__getattr__ = lazy_exports(globals(), {
    "WindowedCounter": ".counters",
    "Histogram": ".histogram",
    "RECORDER_EVENT_SURFACE": ".recorder", "RECORDER_SINKS": ".recorder",
    "KernelRecorder": ".recorder", "RecorderMux": ".recorder",
    "binomial_expected_wins": ".stats", "binomial_variance": ".stats",
    "geometric_mean_wait": ".stats", "geometric_variance": ".stats",
    "mean": ".stats", "observed_ratio": ".stats", "ratio_error": ".stats",
    "stdev": ".stats", "win_proportion_cv": ".stats",
})
