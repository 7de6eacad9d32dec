"""Damaged outputs and a replay that reaches the endpoint count as failed cells."""

import dataclasses
import json

import pytest

import checks
import run
import workloads
from newssim import cli

TINY_STUB = dataclasses.replace(
    workloads.WORKLOADS["compare-stub"], network={"kind": "random", "n": 30}, news=2)
TINY_LLM = dataclasses.replace(
    workloads.WORKLOADS["llm-replay"], network={"kind": "random", "n": 26}, news=1)


@pytest.fixture(scope="module")
def stub_plan(tmp_path_factory):
    d = tmp_path_factory.mktemp("plan")
    workloads.write_inputs(TINY_STUB, seed=3, directory=d)
    cfg = json.loads((d / "cfg.yaml").read_text())
    cfg["news"]["path"] = str(d / "news.jsonl")
    (d / "cfg.yaml").write_text(json.dumps(cfg))
    assert cli.main(["compare", "--config", str(d / "cfg.yaml"), "--out", str(d / "out")]) == 0
    return d / "out"


def _copy(src, dst):
    import shutil

    shutil.copytree(src, dst)
    return dst


def _runs(out):
    cells = json.loads((out / "plan.json").read_text())["cells"]
    return [out / c["file"] for c in cells]


def test_intact_plan_passes(stub_plan):
    assert checks.check_plan(stub_plan, TINY_STUB.cells, workloads.DAYS) == (0, [])


def test_truncated_run_file_fails_its_cell(stub_plan, tmp_path):
    out = _copy(stub_plan, tmp_path / "out")
    victim = _runs(out)[3]
    victim.write_text(victim.read_text()[:200])
    failed, problems = checks.check_plan(out, TINY_STUB.cells, workloads.DAYS)
    assert failed == 1 and victim.name in problems[0]


def test_edited_series_fails_its_cell(stub_plan, tmp_path):
    out = _copy(stub_plan, tmp_path / "out")
    victims = _runs(out)[:2]
    rec = json.loads(victims[0].read_text())
    rec["series"]["reached_prop"][-1] = 0.0  # no longer non-decreasing
    victims[0].write_text(json.dumps(rec))
    rec = json.loads(victims[1].read_text())
    rec["series"]["forwarded_prop"] = [1.0] * len(rec["series"]["forwarded_prop"])
    rec["series"]["reached_prop"] = [0.5] * len(rec["series"]["reached_prop"])
    victims[1].write_text(json.dumps(rec))
    failed, _ = checks.check_plan(out, TINY_STUB.cells, workloads.DAYS)
    assert failed == 2


def test_incomplete_marker_or_missing_record_fails(stub_plan, tmp_path):
    out = _copy(stub_plan, tmp_path / "out")
    _runs(out)[0].unlink()
    assert checks.check_plan(out, TINY_STUB.cells, workloads.DAYS)[0] == 1
    (out / "INCOMPLETE").write_text("")
    assert checks.check_plan(out, TINY_STUB.cells, workloads.DAYS)[0] == TINY_STUB.cells


def test_replay_that_reaches_the_endpoint_fails_every_cell(tmp_path):
    bench = run.Bench(TINY_LLM, seed=5, work=tmp_path)
    try:
        bench.setup()
        intact = bench.run_plan(traced=False)
        assert (intact.failed, intact.llm_calls, intact.problems) == (0, 0, [])
        assert bench.determinism_problems([intact]) == []

        cache = bench.inputs / "llm_cache.jsonl"
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[: len(lines) // 2]))
        touched = bench.run_plan(traced=False)
    finally:
        bench.close()
    assert touched.llm_calls > 0
    assert touched.failed == TINY_LLM.cells
    assert any("endpoint requests" in p for p in touched.problems)
