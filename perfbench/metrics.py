"""Metric definitions of the polystore benchmark and the statistics that
turn the perfbench binary's raw measurements into them.

BENCHMARK.json at the repository root mirrors END_TO_END and PER_LAYER;
test_perfbench.py checks that the two agree.
"""

import json
import math
import re
import statistics

WORKLOADS = ("icu_interactive", "analytic_scan", "stream_ageout")
ICU, SCAN, STREAM = WORKLOADS
ALL = frozenset(WORKLOADS)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# (name, unit, better, bound): client-observed, measured with tracing off.
# Every bound is the largest allowed: run to run, the host's memory timing
# alone moves these figures by 5-18% (quartile spread over ten seeds).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "queries/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
)

# Printed with the end-to-end table but not bounded: ingest_events_per_s
# exists on stream_ageout only (its bounded-free copy is the per-layer
# stream.ingest_events_per_s), and error_rate is 0 by construction, so a
# bound relative to its median is meaningless; it travels as
# failed / attempted in the result line instead.
REPORTED = (
    ("ingest_events_per_s", "events/s"),
    ("error_rate", "fraction"),
)

_ICU_CLASSES = ("browse", "group_by", "myria_group_by", "point", "array_aggregate",
                "cast_filter", "text_search", "text_phrase", "d4m_rowsum")
_SCAN_CLASSES = ("count", "sum_where", "group_by", "myria_group_by", "point", "join")
_STREAM_CLASSES = ("stream_aggregate", "history_aggregate", "history_cast")


def _classes():
    owners = {}
    for workload, classes in ((ICU, _ICU_CLASSES), (SCAN, _SCAN_CLASSES),
                              (STREAM, _STREAM_CLASSES)):
        for c in classes:
            owners.setdefault(c, set()).add(workload)
    return owners


TIME_UNITS = ("s", "ms", "us")

# (name, unit, better, workloads it is measured on): the per-layer metrics
# of a traced run's result line. Every time in it is measured on every
# workload: a layer off a workload's path has no time to report, and a
# constant 0 would read like a fabricated time. Counts and rates may be
# workload-specific; elsewhere they are 0 ("no work in this layer here").
# core.other_ms and relational.select_ms are means over the workload's
# query classes (per class in LAYER_DETAIL).
PER_LAYER = (
    ("exec.lock_wait_ms", "ms", "lower", ALL),
    ("exec.queue_wait_ms", "ms", "lower", ALL),
    ("exec.service_overhead_ms", "ms", "lower", ALL),
    ("core.plan_casts_us", "us", "lower", ALL),
    ("core.execute_ms.relational", "ms", "lower", ALL),
    ("core.other_ms", "ms", "lower", ALL),
    ("core.fetch_table_ms", "ms", "lower", ALL),
    ("core.cast_cache.hits", "count", "higher", ALL),
    ("core.cast_cache.misses", "count", "lower", ALL),
    ("core.cast_cache.hit_ratio", "ratio", "higher", ALL),
    ("relational.parse_us", "us", "lower", ALL),
    ("relational.select_ms", "ms", "lower", ALL),
    ("relational.rows_examined_per_result", "ratio", "lower", ALL),
    ("stream.ingest_events_per_s", "events/s", "higher", {STREAM}),
    ("stream.rate_q1", "events/s", "higher", {STREAM}),
    ("stream.rate_q4", "events/s", "higher", {STREAM}),
    ("stream.backpressured", "count", "lower", {STREAM}),
    ("stream_ageout.flushes", "count", "lower", {STREAM}),
    ("stream_ageout.flushed_rows", "count", "higher", {STREAM}),
    ("obs.profiler_ingested", "count", "higher", ALL),
    ("obs.dump_metrics_ms", "ms", "lower", ALL),
    # Traced minus untraced end-to-end figures of the same run.
    ("trace.overhead.throughput_qps", "queries/s", "higher", ALL),
    ("trace.overhead.query_p50_ms", "ms", "lower", ALL),
    ("trace.overhead.query_tail_ms", "ms", "lower", ALL),
)

# (name, unit, workloads): times in layers only some workloads reach.
# A traced run prints them after its result metrics; the smoke test
# checks each appears where it applies.
LAYER_DETAIL = (
    ("core.execute_ms.myria", "ms", {ICU, SCAN}),
    ("core.execute_ms.array", "ms", {ICU, STREAM}),
    ("core.execute_ms.text", "ms", {ICU}),
    ("core.execute_ms.d4m", "ms", {ICU}),
    ("core.execute_ms.stream", "ms", {STREAM}),
) + tuple(
    ("core.other_ms." + c, "ms", frozenset(w)) for c, w in _classes().items()
) + (
    ("core.fetch_array_ms", "ms", {ICU, STREAM}),
    ("core.fetch_assoc_ms", "ms", {ICU}),
    ("core.cast.array_to_table_ms", "ms", {ICU, STREAM}),
    ("core.cast.table_to_array_ms", "ms", {ICU, STREAM}),
    ("core.cast.table_to_assoc_ms", "ms", {ICU}),
    ("core.store_history_ms.50000", "ms", {STREAM}),
    ("core.store_history_ms.100000", "ms", {STREAM}),
    ("core.store_history_ms.200000", "ms", {STREAM}),
    ("relational.select_ms.count", "ms", {SCAN}),
    ("relational.select_ms.sum_where", "ms", {SCAN}),
    ("relational.select_ms.group_by", "ms", {ICU, SCAN}),
    ("relational.select_ms.point", "ms", {ICU, SCAN}),
    ("relational.select_ms.join", "ms", {SCAN}),
    ("relational.select_ms.cast_filter", "ms", {ICU}),
    ("relational.select_ms.history_cast", "ms", {STREAM}),
    ("myria.execute_ms.group_by", "ms", {ICU, SCAN}),
    ("array.query_ms.subarray", "ms", {ICU}),
    ("array.query_ms.aggregate", "ms", {ICU, STREAM}),
    ("kvstore.search_ms", "ms", {ICU}),
    ("kvstore.phrase_owners_ms", "ms", {ICU}),
    ("d4m.rowsum_ms", "ms", {ICU}),
    ("stream.ingest_call_us", "us", {STREAM}),
)


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value, samples_beyond). By nearest rank, the
    sample at ascending index n-11 has ten samples above it, so it is the
    100*(n-10)/n-th percentile. Needs at least 11 samples.
    """
    n = len(samples)
    if n < 11:
        raise ValueError("the tail needs at least 11 samples, got %d" % n)
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11], 10


def pool(raws):
    """Merges the raw reports of the processes that make up one run.

    Latencies and counts pool, wall time adds up, set-up samples pool,
    and workload-specific figures take their median. Peak memory is the
    lowest process peak: on top of what the workload holds, the allocator
    retains a timing-dependent amount per process (on stream_ageout, one
    more 100 MB history version in about half the processes), and the
    lowest peak is the part that repeats."""
    merged = {
        "build_type": raws[0]["build_type"],
        "compiler": raws[0]["compiler"],
        "setup_s": [x for r in raws for x in r["setup_s"]],
        "peak_rss_mb": min(r["peak_rss_mb"] for r in raws),
        "invariant_checks": sum(r["invariant_checks"] for r in raws),
        "invariant_failures": [x for r in raws for x in r["invariant_failures"]],
        "layers": raws[-1]["layers"],
        "phases": {},
    }
    for name in raws[0]["phases"]:
        parts = [r["phases"][name] for r in raws]
        extra = {}
        for key in parts[0]["extra"]:
            extra[key] = statistics.median(p["extra"][key] for p in parts)
        merged["phases"][name] = {
            "wall_s": sum(p["wall_s"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "wrong": sum(p["wrong"] for p in parts),
            "latencies_ms": [x for p in parts for x in p["latencies_ms"]],
            "errors": [x for p in parts for x in p["errors"]],
            "extra": extra,
        }
    return merged


def end_to_end(raw, phase):
    """End-to-end figures of one phase of a raw perfbench report."""
    latencies = phase["latencies_ms"]
    completed = phase["attempted"] - phase["failed"]
    percentile, tail_ms, _ = tail(latencies)
    out = {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_qps": completed / phase["wall_s"],
        "query_p50_ms": statistics.median(latencies),
        "query_tail_ms": tail_ms,
        "peak_rss_mb": raw["peak_rss_mb"],
        "tail_percentile": percentile,
        "queries": len(latencies),
    }
    if "ingest_events_per_s" in phase["extra"]:
        out["ingest_events_per_s"] = phase["extra"]["ingest_events_per_s"]
    return out


def _class_mean(layers, prefix):
    values = [v["value"] for name, v in layers.items() if name.startswith(prefix + ".")]
    return sum(values) / len(values) if values else 0.0


def per_layer(raw, workload, untraced, traced):
    """A traced run's per-layer figures: (the PER_LAYER metrics of its
    result line, the LAYER_DETAIL figures that apply to `workload`), each
    mapping name -> (value, unit). Raises ValueError when a figure that
    applies is missing, undeclared, or in the wrong unit."""
    layers = raw["layers"]
    derived = {
        "core.other_ms": _class_mean(layers, "core.other_ms"),
        "relational.select_ms": _class_mean(layers, "relational.select_ms"),
        "trace.overhead.throughput_qps": traced["throughput_qps"] - untraced["throughput_qps"],
        "trace.overhead.query_p50_ms": traced["query_p50_ms"] - untraced["query_p50_ms"],
        "trace.overhead.query_tail_ms": traced["query_tail_ms"] - untraced["query_tail_ms"],
    }

    def measured(name, unit):
        if name not in layers:
            raise ValueError("per-layer metric %s missing on %s" % (name, workload))
        if layers[name]["unit"] != unit:
            raise ValueError("%s reported in %s, expected %s"
                             % (name, layers[name]["unit"], unit))
        return (layers[name]["value"], unit)

    result = {}
    for name, unit, _, workloads in PER_LAYER:
        if workload not in workloads:
            result[name] = (0.0, unit)
        elif name in derived:
            result[name] = (derived[name], unit)
        else:
            result[name] = measured(name, unit)
    detail = {name: measured(name, unit)
              for name, unit, workloads in LAYER_DETAIL if workload in workloads}
    declared = {m[0] for m in PER_LAYER} | {m[0] for m in LAYER_DETAIL}
    extra = sorted(set(layers) - declared)
    if extra:
        raise ValueError("undeclared per-layer metrics: %s" % ", ".join(extra))
    return result, detail


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line. `metrics` maps name -> (value,
    unit); names and units are validated and values must be finite."""
    if not isinstance(attempted, int) or not isinstance(failed, int) or attempted < 1:
        raise ValueError("attempted/failed must be whole numbers, attempted >= 1")
    body = {}
    for name, (value, unit) in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % name)
        if not UNIT_RE.match(unit):
            raise ValueError("invalid unit %r for %s" % (unit, name))
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("%s is not finite" % name)
        body[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": body})
