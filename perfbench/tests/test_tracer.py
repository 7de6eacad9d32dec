"""Self-time arithmetic and span parenting of the tracer."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import tracer


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),  # overlaps a, as a second pool thread would
        ("a.child", 1, 2.0, 3.0),
        ("c", 0, 8.0, 9.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = [("p", None, 1.0, 2.0), ("late", 0, 1.5, 3.0), ("early", 0, 0.0, 1.2)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0 - 0.5 - 0.2)


def test_summarize_sums_calls_total_and_self_by_name():
    spans = [("f", None, 0.0, 4.0), ("g", 0, 1.0, 2.0), ("g", 0, 2.0, 2.5)]
    out = tracer.summarize(spans)
    assert out["f"] == pytest.approx({"calls": 1, "total_s": 4.0, "self_s": 2.5})
    assert out["g"] == pytest.approx({"calls": 2, "total_s": 1.5, "self_s": 1.5})


def test_wrapped_calls_nest_and_pool_tasks_inherit_the_submitting_span(monkeypatch):
    t = tracer.Tracer()
    monkeypatch.setattr(ThreadPoolExecutor, "submit", ThreadPoolExecutor.submit)
    t.propagate_into_pools()
    leaf = t.wrap("leaf", lambda x: x * 2)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert t.wrap("root", fan_out)() == [0, 2, 4, 6]
    names = [rec[0] for rec in t.spans]
    assert names.count("leaf") == 4
    root = next(rec for rec in t.spans if rec[0] == "root")
    assert all(rec[1] is root for rec in t.spans if rec[0] == "leaf")
    exported = t.export()["spans"]
    assert exported["leaf"]["calls"] == 4
    assert exported["root"]["self_s"] <= exported["root"]["total_s"]
