"""Pure helpers of the exaclim end-to-end benchmark.

Everything here is deterministic and free of I/O, so perfbench/tests can
check it on known inputs: the timing summary kept per metric, the open-loop
arrival schedule, self time per layer from a span file, and the reduction
of one harness report to the metrics named in BENCHMARK.json.
"""

import math
import random

# Tail percentiles tried, highest first; a tail is reported only when at
# least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest percentile in TAIL_PERCENTILES with at least TAIL_MIN_BEYOND
    of n samples beyond it, or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        # Per mille in integers, so 10000 samples support p99.9 exactly.
        if n * (1000 - round(p * 10)) >= TAIL_MIN_BEYOND * 1000:
            return p
    return None


def summarize(values):
    """Median, quartiles, supported tail percentile and sample count of every
    repetition's sample (not a mean over one block)."""
    tail_p = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": percentile(values, 50.0),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else None,
    }


def poisson_schedule(seed, rate, seconds):
    """Arrival offsets (seconds from phase start) of a Poisson process at
    `rate` per second over `seconds`; identical for identical arguments."""
    rng = random.Random("open-loop:%d" % seed)
    t = 0.0
    arrivals = []
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return arrivals
        arrivals.append(t)


def self_time_by_layer(events, root):
    """Self time in seconds per layer inside the span named `root`.

    `events` are Chrome trace events as the harness writes them (ts/dur in
    microseconds, args.id / args.parent). A span's self time is its duration
    minus its children's; a layer is the span name up to the first dot.
    Spans outside `root`'s subtree and the root itself are skipped.
    """
    by_id = {e["args"]["id"]: e for e in events}
    child_us = {}
    for e in events:
        parent = e["args"]["parent"]
        child_us[parent] = child_us.get(parent, 0.0) + e["dur"]

    def under_root(e):
        while e is not None:
            parent = by_id.get(e["args"]["parent"])
            if parent is not None and parent["name"] == root:
                return True
            e = parent
        return False

    layers = {}
    for e in events:
        if e["name"] == root or not under_root(e):
            continue
        layer = e["name"].split(".", 1)[0]
        self_us = e["dur"] - child_us.get(e["args"]["id"], 0.0)
        layers[layer] = layers.get(layer, 0.0) + self_us * 1e-6
    return layers


def _median(report, key):
    return percentile(report["samples"][key], 50.0)


def end_to_end_metrics(report):
    """BENCHMARK.json's end-to-end metrics from one untraced harness report.

    Timings are medians over the run's repetitions.
    serve_samples_per_s is the upper quartile of the closed-loop slice rates
    pooled over all rounds: slices the hypervisor stalled fall below it.
    success_ratio is 1 - failed / attempted over train/emulate calls, serve
    requests and output checks.
    """
    values = report["values"]
    return {
        "setup_s": _median(report, "setup_s"),
        "train_s": _median(report, "train_s"),
        "emulate_fields_per_s": _median(report, "emulate_fields_per_s"),
        "storage_ratio": values["storage_ratio"],
        "peak_rss_mb": values["peak_rss_mb"],
        "serve_samples_per_s": percentile(
            report["samples"]["serve_samples_per_s"], 75.0),
        "serve_cpu_us_per_sample": _median(report, "serve_cpu_us_per_sample"),
        "serve_slo_ratio": values["serve_slo_ratio"],
        "success_ratio": 1.0 - report["failed"] / report["attempted"],
    }


# Per-layer metrics that are the median of the report's sample list of the
# same name, and those copied from its single values.
LAYER_MEDIANS = (
    "climate.load_s", "climate.validate_s",
    "stats.trend_s", "stats.ar_s", "stats.covariance_s",
    "stats.covariance_gflops",
    "sht.analyze_s", "sht.synthesize_s",
    "linalg.tile_pack_s", "linalg.sample_mvn_s", "linalg.sample_mvn_gflops",
    "runtime.cholesky_s", "runtime.cholesky_gflops",
    "runtime.cholesky_parallel_eff", "runtime.cholesky_steals",
    "runtime.cholesky_parks",
    "runtime.sample_exec_ms", "runtime.sample_parallel_eff",
    "runtime.sample_steals", "runtime.sample_dag_build_ms",
    "analysis.verify_ms", "analysis.verify_cholesky_ms",
    "core.train_trend_s", "core.train_sht_s", "core.train_ar_s",
    "core.train_covariance_s", "core.train_cholesky_s",
    "core.save_s", "core.load_s", "core.emulate_s", "core.consistency_s",
    "core.consistency_max", "core.frozen_open_s",
    "serve.submit_us", "serve.run_batch_ms_w1", "serve.run_batch_ms_w4",
    "serve.run_batch_ms_w16", "serve.batch_overhead_ms", "serve.apply_gflops",
)
LAYER_VALUES = (
    "stats.covariance_bytes", "sht.analyze_fields", "sht.synthesize_fields",
    "runtime.cholesky_tasks", "runtime.convert_tasks",
    "runtime.element_conversions", "runtime.critical_path_tasks",
    "runtime.escalations", "core.model_bytes", "bench.trace_overhead",
    "bench.span_cost_share", "bench.steal_share",
    "serve.batches", "serve.batch_width_mean",
    "serve.shed", "serve.deadline_missed", "serve.failed",
    "serve.shrunk_batches", "serve.degraded_batches",
    "serve.transient_retries",
)


def per_layer_metrics(report):
    """BENCHMARK.json's per-layer metrics from one traced harness report."""
    samples = report["samples"]
    metrics = {k: _median(report, k) for k in LAYER_MEDIANS}
    metrics.update({k: report["values"][k] for k in LAYER_VALUES})
    metrics["serve.p50_ms"] = percentile(samples["open_latency_ms"], 50.0)
    metrics["serve.p99_ms"] = percentile(samples["open_latency_ms"], 99.0)
    metrics["bench.gen_lag_p99_ms"] = percentile(samples["bench.gen_lag_ms"],
                                                 99.0)
    metrics["bench.failed_ratio"] = report["failed"] / report["attempted"]
    return metrics
