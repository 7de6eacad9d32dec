"""Run the newssim CLI with spans around the public functions of each layer.

    python3 perfbench/tracer.py --trace-out FILE --root NAME -- <newssim args>

Nothing inside the package changes: before `newssim.cli.main` runs, each
traced function is replaced by a wrapper where its caller looks it up
(`policy.derive_rng`, `engine.config_snapshot` and `engine.step_day` are
bound by name at import time, so they are wrapped in the calling module).
Spans are kept in memory; a task handed to a thread pool is parented to the
span that submitted it. When the CLI returns, the per-name totals, self
times, engine.run durations and counters are written to FILE as JSON.

A span's self time is its duration minus the part of its interval that its
child spans cover (children on pool threads may overlap one another).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


def self_times(spans) -> list[float]:
    """Self time of each span in `spans`, a list of (name, parent, start, end).

    `parent` is the index of the parent span or None. Child intervals are
    clipped to the parent and merged before they are subtracted.
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, _, start, end), self_s in zip(spans, selfs):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += self_s
    return out


class Tracer:
    """Span and counter store shared by every thread of the traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent record or None, start, end]
        self.counters: dict[str, list] = defaultdict(list)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, value=1) -> None:
        self.counters[name].append(value)  # list.append is atomic under the GIL

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span; `before(args)` and `after(args, result)`
        run outside the span and record counters."""
        spans, stack_of = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = stack_of()
            rec = [name, stack[-1] if stack else None, clock(), 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def propagate_into_pools(self) -> None:
        """Parent work submitted to a ThreadPoolExecutor to the submitting span."""
        tracer = self
        orig_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task(*a, **k):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return orig_submit(pool, task, *args, **kwargs)

        ThreadPoolExecutor.submit = submit

    def export(self) -> dict:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        flat = [
            (name, index[id(parent)] if parent is not None else None, start, end)
            for name, parent, start, end in self.spans
        ]
        durations = [end - start for name, _, start, end in flat if name == "engine.run"]
        return {
            "spans": summarize(flat),
            "engine_run_s": durations,
            "counters": dict(self.counters),
        }


def install(tracer: Tracer) -> None:
    """Replace the traced functions of every newssim layer with span wrappers."""
    from newssim import engine, netgen, persona, policy, stats

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    # netgen; gen_high_brokerage looks is_connected up in netgen, as cli does
    patch(netgen, "generate", "netgen.generate")
    patch(netgen, "is_connected", "netgen.is_connected")
    patch(netgen.Network, "adjacency", "netgen.adjacency")
    patch(netgen.Network, "degrees", "netgen.degrees")

    # persona
    patch(persona, "sample_personas", "persona.sample_personas")
    patch(persona, "render_persona_text", "persona.render_persona_text")

    # engine
    def after_run(args, record):
        tracer.count("engine.events", len(record.events))
        tracer.count("engine.delivery_events",
                     sum(1 for ev in record.events if ev["type"] == "delivery"))

    def before_step(args):
        if not args[0].pending:
            tracer.count("engine.idle_days")

    patch(engine, "run", "engine.run", after=after_run)
    patch(engine, "step_day", "engine.step_day", before=before_step)
    patch(engine.RunRecord, "to_json", "engine.to_json",
          after=lambda args, text: tracer.count("engine.record_kb", len(text) / 1024.0))
    from_json = engine.RunRecord.__dict__["from_json"].__func__
    engine.RunRecord.from_json = classmethod(tracer.wrap("engine.from_json", from_json))

    # ingest: the engine's own binding, one snapshot per engine attempt
    patch(engine, "config_snapshot", "ingest.config_snapshot")

    # policy
    def after_decide(args, outcome):
        if outcome.parse_failure:
            tracer.count("policy.parse_failures")

    for cls in (policy.StubPolicy, policy.LlmPolicy):
        patch(cls, "decide", "policy.decide", after=after_decide)
    patch(policy, "derive_rng", "policy.derive_rng")
    patch(policy, "render_prompt", "policy.render_prompt")
    patch(policy.DecisionCache, "__init__", "policy.cache.load",
          after=lambda args, _: tracer.count("policy.cache.entries", len(args[0])))
    patch(policy.DecisionCache, "get", "policy.cache.get",
          after=lambda args, rec: tracer.count("policy.cache.hits", int(rec is not None)))
    patch(policy.DecisionCache, "put", "policy.cache.put")
    patch(policy.DecisionCache, "content_hash", "policy.cache.content_hash")
    patch(policy, "_default_transport", "policy.http")

    orig_key = policy.cache_key

    def cache_key(model, prompt, attempt):
        if attempt > 0:
            tracer.count("policy.reasks")
        return orig_key(model, prompt, attempt)

    policy.cache_key = cache_key

    # stats
    patch(stats, "aggregate_experiment", "stats.aggregate_experiment")
    patch(stats, "rank_sum_test", "stats.rank_sum_test")

    tracer.propagate_into_pools()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--root", default="cli", help="name of the span around the CLI")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from newssim import cli

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(args.root, cli.main)(cli_args)
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
