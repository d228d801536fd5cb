"""Sampled simulation engine (interpreter fast-forward + detailed windows).

See :mod:`repro.sample.engine` for the design.  The public surface:

* :class:`SamplingConfig` — the window/fast-forward rhythm;
* :class:`SampledRun` — stepwise driver (window, then fast-forward);
* :func:`run_sampled` — one job spec to one extrapolated RunResult;
* :class:`ShadowUarch` — the warm structures driven during fast-forward;
* :class:`FFTraceStore` / :func:`configure_ff_trace` — shared
  fast-forward traces, recorded once per (program, scale, schedule)
  and replayed by every other composition
  (:mod:`repro.sample.trace`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "FFTraceStore": "trace",
    "SampledRun": "engine",
    "SamplingConfig": "config",
    "ShadowUarch": "shadow",
    "configure_ff_trace": "trace",
    "open_trace_session": "trace",
    "reset_ff_trace": "trace",
    "run_sampled": "engine",
    "trace_key": "trace",
})
