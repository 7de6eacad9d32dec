"""Per-layer metrics from the traces of a plan and of its re-stat."""

from __future__ import annotations

import statistics


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, round(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def layer_metrics(plan: dict, restats: dict, cells: int, endpoint_requests: int,
                  endpoint_service_s: float, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Map metric name -> (value, unit).

    Span figures sum the plan and its re-stat; `cli.self_s` is the plan's
    root span only. Ratios with no denominator read 0.
    """
    spans: dict[str, dict] = {}
    for trace in (plan, restats):
        for name, agg in trace["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
    counters: dict[str, list] = {}
    for trace in (plan, restats):
        for name, values in trace["counters"].items():
            counters.setdefault(name, []).extend(values)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def seconds(name, key="self_s"):
        return spans.get(name, {}).get(key, 0.0)

    def total(name):
        return sum(counters.get(name, ()))

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for span in ("netgen.generate", "netgen.adjacency", "netgen.degrees",
                 "persona.sample_personas", "persona.render_persona_text",
                 "engine.run", "engine.to_json", "engine.from_json",
                 "policy.decide", "policy.derive_rng", "policy.render_prompt",
                 "policy.cache.content_hash", "policy.cache.put",
                 "ingest.config_snapshot"):
        put(f"{span}.calls", calls(span), "count")
        put(f"{span}.self_s", seconds(span), "s")
    put("netgen.is_connected.calls", calls("netgen.is_connected"), "count")

    run_ms = [d * 1000.0 for d in plan["engine_run_s"]]
    put("engine.run.p50_ms", statistics.median(run_ms) if run_ms else 0.0, "ms")
    put("engine.run.p99_ms", _pct(run_ms, 99), "ms")
    put("engine.run.samples", len(run_ms), "count")
    put("engine.useful_run_ratio", cells / calls("engine.run") if calls("engine.run") else 0.0,
        "ratio")
    put("engine.step_day.calls", calls("engine.step_day"), "count")
    put("engine.idle_days", total("engine.idle_days"), "count")
    put("engine.events", total("engine.events"), "count")
    put("engine.delivery_events", total("engine.delivery_events"), "count")
    record_kb = counters.get("engine.record_kb", [])
    put("engine.record_kb.p50", statistics.median(record_kb) if record_kb else 0.0, "kB")
    put("engine.record_kb.max", max(record_kb, default=0.0), "kB")

    put("policy.cache.load_s", seconds("policy.cache.load", "total_s"), "s")
    put("policy.cache.entries", max(counters.get("policy.cache.entries", ()), default=0),
        "count")
    gets = calls("policy.cache.get")
    put("policy.cache.get.calls", gets, "count")
    put("policy.cache.hit_ratio", total("policy.cache.hits") / gets if gets else 0.0, "ratio")
    put("policy.http.calls", calls("policy.http"), "count")
    put("policy.http.wait_s", seconds("policy.http", "total_s"), "s")
    put("policy.reasks", total("policy.reasks"), "count")
    put("policy.parse_failures", total("policy.parse_failures"), "count")
    put("endpoint.requests", endpoint_requests, "count")
    put("endpoint.service_s", endpoint_service_s, "s")

    put("stats.aggregate_experiment.self_s", seconds("stats.aggregate_experiment"), "s")
    put("stats.rank_sum_test.calls", calls("stats.rank_sum_test"), "count")
    put("cli.self_s", plan["spans"].get("cli", {}).get("self_s", 0.0), "s")
    put("trace.overhead_s", overhead_s, "s")
    return out
