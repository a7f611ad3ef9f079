"""Names, units and directions of every metric the benchmark reports.

``END_TO_END`` is what a user of the service sees, measured with tracing
off.  ``CONTRACT_END_TO_END`` is the subset ``BENCHMARK.json`` gates on.
Three are printed and kept in the raw runs but not gated:

* ``error_ratio`` reads exactly 0 on a healthy run and
  ``write_latency_p50_ms`` reads exactly 0 outside ``paper_live``, so
  neither can carry a bound relative to the parent's median; the final JSON
  line carries ``failed`` and ``attempted`` instead.
* ``latency_p99_ms`` spread by up to 0.6 (q3 - q1 over the median) between
  runs of the same code (host stalls of tens of milliseconds decide the top
  1 %), more than the largest bound allowed, so ``latency_p90_ms`` is the
  gated tail.

``PER_LAYER`` comes from the separate traced run.
"""

END_TO_END = (
    ("throughput_qps", "q/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("error_ratio", "ratio", "lower"),
    ("write_latency_p50_ms", "ms", "lower"),
    ("cpu_ms_per_query", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

CONTRACT_END_TO_END = (
    "throughput_qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "cpu_ms_per_query",
    "peak_rss_mb",
    "setup_s",
)

PER_LAYER = (
    ("graph.extraction.calls", "count", "lower"),
    ("graph.extraction.busy_ms", "ms", "lower"),
    ("graph.extraction.candidates_per_call", "count", "lower"),
    ("temporal.calendars.materialised", "count", "lower"),
    ("temporal.calendars.busy_ms", "ms", "lower"),
    ("core.solver.calls", "count", "higher"),
    ("core.solver.self_ms", "ms", "lower"),
    ("core.solver.nodes_expanded", "count", "lower"),
    ("core.solver.prune_ratio", "ratio", "higher"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("service.cache.invalidations_per_mutation", "count/mutation", "lower"),
    ("service.mutations.apply_ms", "ms", "lower"),
    ("service.codec.calls", "count", "lower"),
    ("service.codec.busy_ms", "ms", "lower"),
    ("service.net.batches", "count", "lower"),
    ("service.net.rtt_ms", "ms", "lower"),
    ("service.net.worker_ms", "ms", "lower"),
    ("service.net.failovers", "count", "lower"),
    ("service.placement.max_imbalance", "ratio", "lower"),
    ("service.http.handle_ms", "ms", "lower"),
    ("service.http.unaccounted_ms", "ms", "lower"),
    ("service.http.shed", "count", "lower"),
    ("service.http.queued_ratio", "ratio", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
