import concurrent.futures
import gc
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

import newssim
from newssim import cli, engine, ingest, netgen, output, persona, plan, policy, stats
from newssim.ingest import load_config
from newssim.seeding import derive_seed

SMALL_CFG = """\
network:
  kind: random
  n: 60
  edge_prob: 0.12
replications: {reps}
master_seed: 7
news:
  path: {news}
  limit: {news_limit}
effective_retry_budget: 8
"""


@pytest.fixture()
def small_config(tmp_path, news_path):
    def make(reps=3, news_limit=2, extra=""):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            SMALL_CFG.format(reps=reps, news=news_path, news_limit=news_limit) + extra,
            encoding="utf-8",
        )
        return path

    return make


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# gen-network
# ---------------------------------------------------------------------------

def test_gen_network_scale_free_stats(tmp_path, capsys):
    out = tmp_path / "net"
    rc = cli.main([
        "gen-network", "--kind", "scale_free", "--n", "288", "--attach-m", "6",
        "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads((out / "scale_free_seed0.stats.json").read_text())
    assert doc["mean_degree"] == pytest.approx(11.75)
    assert doc["edges"] == 6 * (288 - 6)
    # both density conventions are reported, each under its formula name
    assert doc["density_2E_over_NN1"] == pytest.approx(2 * 1692 / (288 * 287))
    assert doc["density_E_over_NN1"] == pytest.approx(1692 / (288 * 287))


def test_gen_network_invalid_params_exit_code(tmp_path, capsys):
    rc = cli.main([
        "gen-network", "--kind", "scale_free", "--n", "10", "--attach-m", "9",
        "--seed", "0", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ingest.NETWORK_KINDS)
@pytest.mark.parametrize("n", [1, 0, -3])
def test_gen_network_refuses_fewer_than_two_nodes(tmp_path, capsys, kind, n):
    out = tmp_path / "x"
    assert cli.main(["gen-network", "--kind", kind, "--n", str(n), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: network.n must be an integer >= 2, got {n}\n"
    assert not out.exists()


def test_gen_network_same_seed_identical_files(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main([
            "gen-network", "--kind", "high_brokerage", "--n", "60",
            "--community-size", "6", "--rewire-p", "0.5", "--seed", "3",
            "--out", str(out),
        ]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == newssim.__version__


def test_gen_network_random_detects_modularity(tmp_path):
    out = tmp_path / "net"
    assert cli.main(["gen-network", "--kind", "random", "--n", "60", "--seed", "1",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "random_seed1.stats.json").read_text())
    assert 0.1 < doc["modularity"] < 1.0


#: modules that `import newssim.cli`, `stats` and `export-plot-data` leave unloaded
PLAN_ONLY_MODULES = ["networkx", "requests", "yaml", "numpy", "newssim.engine", "newssim.netgen",
                     "newssim.persona", "newssim.plan", "newssim.policy", "newssim.ingest",
                     "dataclasses"]


def _python(code: str) -> str:
    """stdout of a fresh interpreter running `code` with this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_skips_libraries_only_some_commands_use():
    code = f"import newssim.cli, sys; print(sorted(set({PLAN_ONLY_MODULES}) & set(sys.modules)))"
    assert _python(code) == "[]"


def _modules_beyond_bare(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded once `code` ran, less those
    a bare interpreter loads."""
    show = "; import sys; print(' '.join(sys.modules))"
    bare = _python("pass" + show).split()
    return set(_python(code + show).splitlines()[-1].split()) - set(bare)


def test_stats_loads_four_newssim_modules(tmp_path, small_config):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=1)),
                     "--out", str(out)]) == 0
    added = _modules_beyond_bare(
        f"from newssim import cli; assert cli.main(['stats', '--results', {str(out)!r}]) == 0")
    assert {m for m in added if m.split(".")[0] == "newssim"} == {
        "newssim", "newssim.cli", "newssim.output", "newssim.record", "newssim.stats"}
    assert not added & {"dataclasses", "concurrent.futures", "logging"}


def test_the_cli_program_freezes_the_heap_it_loaded(tmp_path, small_config):
    """`main()` on the process's own command line, as the console script and
    `python -m newssim.cli` call it, leaves what it imported frozen."""
    out = tmp_path / "out"
    for argv in (["run", "--config", str(small_config(reps=1, news_limit=1)), "--out", str(out)],
                 ["stats", "--results", str(out)]):
        code = ("import gc, sys\nfrom newssim import cli\nassert gc.get_freeze_count() == 0\n"
                f"sys.argv = ['newssim', *{argv!r}]\nassert cli.main() == 0\n"
                "print(gc.get_freeze_count() > 0)")
        assert _python(code).splitlines()[-1] == "True"


def test_an_in_process_main_leaves_the_collector_alone(tmp_path, small_config):
    frozen = gc.get_freeze_count()
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=1, news_limit=1)),
                     "--out", str(out)]) == 0
    assert cli.main(["stats", "--results", str(out)]) == 0
    assert gc.get_freeze_count() == frozen


def test_only_the_types_tests_replace_or_list_fields_of_are_dataclasses():
    code = ("import dataclasses, sys, newssim.plan, newssim.cli\n"
            "print(' '.join(sorted(f'{name}.{attr}' for name, module in list(sys.modules.items())"
            " if name.split('.')[0] == 'newssim' for attr, obj in vars(module).items()"
            " if isinstance(obj, type) and obj.__module__ == name"
            " and dataclasses.is_dataclass(obj))))")
    assert _python(code).split() == ["newssim.ingest.ExperimentConfig", "newssim.netgen.Network",
                                     "newssim.policy.LlmSettings", "newssim.policy.StubParams"]


@pytest.mark.parametrize("policy_kind", ["stub", "llm"])
def test_a_plan_that_starts_no_pool_imports_none(tmp_path, small_config, monkeypatch,
                                                 policy_kind):
    """A stub run at --parallel 1, and an LLM replay from a complete cache,
    load neither concurrent.futures nor the logging it brings."""
    extra = "" if policy_kind == "stub" else (
        "policy:\n  kind: llm\n  llm:\n    max_retries: 0\n"
        "    endpoint: http://127.0.0.1:9/v1/chat/completions\n"
        f"    cache_path: {tmp_path / 'cache.jsonl'}\n")
    cfg = small_config(reps=2, news_limit=1, extra=extra)
    if policy_kind == "llm":  # record the cache the replay below reads
        monkeypatch.setattr(policy, "_default_transport",
                            scripted_transport("DECISION: SHARE\nREASON: interesting"))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "live")]) == 0
    added = _modules_beyond_bare(
        f"from newssim import cli; assert cli.main(['run', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--parallel', '1']) == 0")
    assert "newssim.plan" in added
    assert not added & {"concurrent.futures", "logging"}


def test_plan_import_leaves_the_cli_module_out():
    """`python -m newssim.cli <plan command>` runs cli.py once, as __main__."""
    code = "import newssim.plan, sys; print('newssim.cli' in sys.modules)"
    assert _python(code) == "False"


def test_stats_and_export_plot_data_load_no_plan_module(tmp_path, small_config):
    out, again, plots = tmp_path / "out", tmp_path / "again", tmp_path / "plots"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=1)),
                     "--out", str(out)]) == 0
    code = (
        "import sys; from newssim import cli; "
        f"assert cli.main(['stats', '--results', {str(out)!r}, '--out', {str(again)!r}]) == 0; "
        f"assert cli.main(['export-plot-data', '--results', {str(again)!r}, "
        f"'--out', {str(plots)!r}]) == 0; "
        f"print(sorted(set({PLAN_ONLY_MODULES}) & set(sys.modules)))"
    )
    assert _python(code).splitlines()[-1] == "[]"
    assert (again / "summary.json").read_bytes() == (out / "summary.json").read_bytes()
    assert {p.name for p in plots.iterdir()} == {"figure_reached.tsv", "figure_forwarded.tsv"}


def test_a_stub_run_does_not_import_numpy_ma(tmp_path, small_config):
    """No plan needs numpy.ma; importing it costs every plan process start-up time and RSS."""
    cfg = small_config(reps=2, news_limit=1, extra="intervention:\n  kind: blocking\n")
    code = (
        "import sys; from newssim import cli; "
        f"assert cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])"
        " == 0; print('numpy.ma' in sys.modules)"
    )
    assert _python(code).splitlines()[-1] == "False"


def test_perfbench_tracer_wraps_a_stub_run(tmp_path, news_path):
    """The benchmark's tracer finds every function it wraps by name."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_CFG.format(reps=1, news=news_path, news_limit=1)
                   .replace("n: 60", "n: 40"), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(tracer), "--trace-out", str(trace), "--",
         "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert {"engine.step_day", "netgen.generate", "engine.to_json"} <= spans.keys()


# ---------------------------------------------------------------------------
# output writes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "summary.json"
    cli._write_text(path, "old\n")
    new = "new\n" * 10_000
    if fail_at == "write":
        new += "\udc80"  # a lone surrogate cannot be encoded
    else:
        monkeypatch.setattr(output.os, "replace", lambda src, dst: 1 / 0)
    with pytest.raises((UnicodeEncodeError, ZeroDivisionError)):
        cli._write_text(path, new)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


# ---------------------------------------------------------------------------
# sample-personas
# ---------------------------------------------------------------------------

def test_sample_personas_cli(tmp_path):
    out = tmp_path / "cohort.tsv"
    rc = cli.main(["sample-personas", "--n", "20", "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 21  # header + rows


def test_sample_personas_unknown_trait_errors(tmp_path, capsys):
    rc = cli.main([
        "sample-personas", "--n", "5", "--seed", "1", "--pin", "bravery=high",
        "--out", str(tmp_path / "x.tsv"),
    ])
    assert rc == 2
    assert "bravery" in capsys.readouterr().err


def test_sample_personas_refuses_a_negative_pin_offset(tmp_path, capsys):
    out = tmp_path / "x.tsv"
    assert cli.main(["sample-personas", "--n", "5", "--pin", "openness=high",
                     "--pin-offset", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: pin offset must be >= 0, got -1.0\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["run", "sweep-personality", "compare"])
@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_parallel_below_one_is_a_usage_error(tmp_path, small_config, capsys, command,
                                             parallel):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", str(small_config()), "--out", str(out),
                  "--parallel", parallel])
    assert exit_info.value.code == 2
    assert f"argument --parallel: must be >= 1, got {parallel}" in capsys.readouterr().err
    assert not out.exists()


def test_run_plan_arithmetic(tmp_path, small_config):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(small_config(reps=3, news_limit=2)),
                   "--out", str(out)])
    assert rc == 0
    runs = list((out / "runs").glob("*.json"))
    assert len(runs) == 6
    plan = json.loads((out / "plan.json").read_text())
    assert len(plan["cells"]) == 6
    assert not (out / "INCOMPLETE").exists()
    rec = engine.RunRecord.from_json(runs[0].read_text())
    assert len(rec.reached_prop) == 8
    for key in ("config_sha", "master_seed", "template_hashes", "policy_kind"):
        assert key in plan["provenance"]


def test_run_idempotent_and_deterministic(tmp_path, small_config):
    cfg = small_config(reps=2, news_limit=1)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)
    # rerun over the same directory rewrites identical bytes
    before = tree_bytes(out1)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert tree_bytes(out1) == before


def test_run_parallel_matches_serial(tmp_path, small_config):
    cfg = small_config(reps=2, news_limit=2)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert cli.main(["run", "--config", str(cfg), "--out", str(serial)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(parallel),
                     "--parallel", "4"]) == 0
    assert tree_bytes(serial) == tree_bytes(parallel)


def _record_pids(monkeypatch, path: Path) -> None:
    """Append the pid of each process that executes a group to `path`."""
    real = plan._execute_group

    def recording(cells, decider):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(cells, decider)

    monkeypatch.setattr(plan, "_execute_group", recording)


@pytest.mark.parametrize("command", ["compare", "sweep-personality"])
def test_stub_groups_run_in_worker_processes_with_serial_bytes(tmp_path, small_config,
                                                               monkeypatch, command):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = str(small_config(reps=2, news_limit=2))
    pids = tmp_path / "pids.txt"
    _record_pids(monkeypatch, pids)
    trees = {}
    for parallel in ("1", "2"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / parallel),
                         "--parallel", parallel]) == 0
        trees[parallel] = tree_bytes(tmp_path / parallel)
        workers = set(pids.read_text(encoding="utf-8").split())
        pids.unlink()
        if parallel == "1":
            assert workers == {str(os.getpid())}
        else:
            assert str(os.getpid()) not in workers and 1 <= len(workers) <= 2
    assert trees["1"] == trees["2"]


def test_one_usable_cpu_starts_no_pool(tmp_path, small_config, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a pool or a thread started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", boom)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", boom)
    monkeypatch.setattr(threading.Thread, "start", boom)
    cfg = str(small_config(reps=2, news_limit=1))
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "in"),
                     "--parallel", "4"]) == 0
    added = _modules_beyond_bare(
        "import os; os.sched_getaffinity = lambda pid: {0}\n"
        f"from newssim import cli; assert cli.main(['compare', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--parallel', '4']) == 0")
    assert "newssim.plan" in added
    assert not added & {"multiprocessing", "concurrent.futures", "logging"}


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert plan._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert plan._usable_cpus() == 7


def test_a_group_that_fails_in_a_worker_reports_as_at_parallel_one(tmp_path, small_config,
                                                                   monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    failed_in = tmp_path / "failed_in.txt"
    real = engine.run_group

    def failing(specs, *args, **kwargs):
        labels = specs[0].meta["labels"]
        if labels["network"] == "scale_free" and labels["replicate"] == 1:
            failed_in.write_text(str(os.getpid()), encoding="utf-8")
            raise policy.PolicyError("day 1, agent 3: chat completion failed after 1 tries")
        return real(specs, *args, **kwargs)

    monkeypatch.setattr(plan.engine, "run_group", failing)
    cfg = str(small_config(reps=2, news_limit=2))
    for parallel in ("1", "2"):
        out = tmp_path / parallel
        assert cli.main(["compare", "--config", cfg, "--out", str(out),
                         "--parallel", parallel]) == 2
        assert capsys.readouterr().err == (
            "error: day 1, agent 3: chat completion failed after 1 tries\n")
        assert (out / "INCOMPLETE").exists() and not (out / "summary.json").exists()
        assert (failed_in.read_text(encoding="utf-8") == str(os.getpid())) == (parallel == "1")


@pytest.mark.parametrize("error", [
    ingest.ConfigError(["days must be >= 1, got 0", "news.limit must be >= 1, got 0"]),
    ingest.NewsFormatError("news.jsonl:3: record 'n1' has no 'veracity'"),
    *(kind("what went wrong") for kind in plan.ERRORS),
], ids=lambda error: type(error).__name__)
def test_plan_errors_survive_pickling(error):
    """A worker process's error reaches the parent as it was raised."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert getattr(copy, "problems", None) == getattr(error, "problems", None)


def test_interrupted_run_leaves_incomplete_marker(tmp_path, small_config, monkeypatch):
    out = tmp_path / "out"
    calls = {"n": 0}
    real_run = engine.run_group

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("simulated crash")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(plan.engine, "run_group", flaky)
    with pytest.raises(RuntimeError):
        cli.main(["run", "--config", str(small_config(reps=3, news_limit=2)),
                  "--out", str(out)])
    assert (out / "INCOMPLETE").exists()
    assert len(list((out / "runs").glob("*.json"))) < 6


def test_run_effective_retry_rewrites_attempt(tmp_path, small_config):
    out = tmp_path / "out"
    cfg_path = small_config(reps=4, news_limit=2)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    news = {item.news_id: item for item in ingest.load_news(cfg.news_path, cfg.news_limit)}
    records = [engine.RunRecord.from_json(p.read_text())
               for p in sorted((out / "runs").glob("*.json"))]
    assert len(records) == 8
    for r in records:
        meta = r.meta["labels"]
        attempt = meta["attempt"]
        # a cell stops at its first effective attempt, or when the budget is spent
        assert r.effective or attempt == cfg.effective_retry_budget
        seeds = [derive_seed(cfg.master_seed, "decide", meta["replicate"], meta["news_id"], k)
                 for k in range(attempt + 1)]
        assert meta["decision_seed"] == seeds[-1]
        net = plan._cached_network(cfg.network_kind, tuple(sorted(cfg.network_params.items())),
                                  meta["net_seed"])
        personas = plan._cached_cohort(net.n, meta["persona_seed"])
        for seed in seeds[:-1]:  # every earlier attempt was non-effective
            stub = policy.StubPolicy(policy.StubParams.from_dict(cfg.stub_params), rng_seed=seed)
            earlier = engine.run(cfg, net, personas, news[meta["news_id"]], stub)
            assert not earlier.effective


#: sha256 over the runs/ tree (relative path and bytes of each file, in path
#: order) of PINNED_CFG's compare, as the per-cell executor wrote it before
#: plans ran in lockstep groups. Records hold no version string.
PINNED_RUNS_SHA256 = "ee5d2d676d88b07fb8f8f5ef903682723bc7d6963f9eb06546030b6288ef6db9"
PINNED_CFG = """\
network:
  kind: random
  n: 60
  edge_prob: 0.12
replications: 2
master_seed: 7
news:
  path: news.jsonl
  limit: 2
effective_retry_budget: 3
policy:
  stub:
    intercept: -0.5
"""


@pytest.mark.parametrize("parallel", [1, 2])
def test_stub_compare_runs_bytes_are_pinned(tmp_path, news_path, monkeypatch, parallel):
    """Retries, exclusions and every record byte of a small stub compare stay as they were."""
    monkeypatch.chdir(tmp_path)  # relative paths keep config_sha independent of the checkout
    (tmp_path / "news.jsonl").write_bytes(news_path.read_bytes())
    (tmp_path / "cfg.yaml").write_text(PINNED_CFG, encoding="utf-8")
    assert cli.main(["compare", "--config", "cfg.yaml", "--out", "out",
                     "--parallel", str(parallel)]) == 0
    records = [engine.RunRecord.from_json(text.decode("utf-8"))
               for text in tree_bytes(tmp_path / "out" / "runs").values()]
    assert len(records) == 48
    assert any(r.meta["labels"]["attempt"] >= 2 and r.effective for r in records)
    assert any(r.meta["labels"]["attempt"] == 3 and not r.effective for r in records)
    digest = hashlib.sha256()
    for name, data in tree_bytes(tmp_path / "out" / "runs").items():
        digest.update(Path(name).as_posix().encode("utf-8") + b"\0" + data + b"\0")
    assert digest.hexdigest() == PINNED_RUNS_SHA256


def test_compare_runs_each_group_once_at_full_length(tmp_path, news_path, monkeypatch):
    """Retry attempts are picked in one-day probes: each group then makes one
    full-length `run_group` call, which holds every cell of the group once."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "news.jsonl").write_bytes(news_path.read_bytes())
    (tmp_path / "cfg.yaml").write_text(PINNED_CFG, encoding="utf-8")
    calls = []
    real_run_group = engine.run_group

    def run_group(specs, *args):
        calls.append([(spec.config.days, spec.meta["labels"]) for spec in specs])
        return real_run_group(specs, *args)

    monkeypatch.setattr(plan.engine, "run_group", run_group)
    assert cli.main(["compare", "--config", "cfg.yaml", "--out", "out"]) == 0
    assert {days for call in calls for days, _ in call} == {1, 7}
    full = [[labels for _, labels in call] for call in calls if call[0][0] == 7]
    groups = [{(labels["network"], labels["replicate"]) for labels in call} for call in full]
    assert all(len(group) == 1 for group in groups)
    assert len(full) == len(set.union(*groups)) == 3 * 2  # network kinds x replicates
    cells = [(labels["network"], labels["intervention"], labels["replicate"], labels["news_id"])
             for call in full for labels in call]
    assert len(cells) == len(set(cells)) == 48
    assert any(labels["attempt"] > 0 for labels in sum(full, []))


def test_a_group_probes_with_one_day_config_per_cell_config(tmp_path, news_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "news.jsonl").write_bytes(news_path.read_bytes())
    (tmp_path / "cfg.yaml").write_text(PINNED_CFG, encoding="utf-8")
    probed = {}  # (network, replicate): the config of every probe its group ran
    real_run_group = engine.run_group

    def run_group(specs, *args):
        for spec in specs:
            if spec.config.days == 1:
                labels = spec.meta["labels"]
                probed.setdefault((labels["network"], labels["replicate"]), []).append(spec.config)
        return real_run_group(specs, *args)

    monkeypatch.setattr(plan.engine, "run_group", run_group)
    assert cli.main(["compare", "--config", "cfg.yaml", "--out", "out"]) == 0
    assert len(probed) == 3 * 2  # network kinds x replicates
    for configs in probed.values():
        assert len(configs) > 4  # some cells were probed more than once
        assert len({id(c) for c in configs}) == len({c.intervention_kind for c in configs}) == 4


def test_probe_passes_build_no_record(tmp_path, news_path, monkeypatch):
    """A retry probe reads its source's decision from the engine's state:
    the plan builds one record per cell, all from full-length passes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "news.jsonl").write_bytes(news_path.read_bytes())
    (tmp_path / "cfg.yaml").write_text(PINNED_CFG, encoding="utf-8")
    passes, built = [], []
    real_run_group, real_record = engine.run_group, engine.RunRecord

    def run_group(specs, *args):
        passes.append(specs[0].config.days)
        return real_run_group(specs, *args)

    def record(**fields):
        built.append(passes[-1])
        return real_record(**fields)

    monkeypatch.setattr(plan.engine, "run_group", run_group)
    monkeypatch.setattr(engine, "RunRecord", record)
    assert cli.main(["compare", "--config", "cfg.yaml", "--out", "out"]) == 0
    assert passes.count(1) > passes.count(7) == 6  # probes, then one pass per group
    assert built == [7] * 48


def test_executed_groups_return_the_same_rows_from_worker_processes(tmp_path, small_config,
                                                                     monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = load_config(small_config(reps=2, news_limit=2))
    cells = [plan.Cell(replace(cfg, intervention_kind=kind), item, rep,
                       {"intervention": kind}, f"{kind}_rep{rep}_news{item.news_id}.json")
             for kind in ("none", "blocking") for rep in range(2) for item in plan._news_for(cfg)]
    groups = {}
    for i, cell in enumerate(cells):
        groups.setdefault(plan._inputs(cell), []).append(i)
    rows = {}
    for parallel in (1, 2):
        (tmp_path / str(parallel)).mkdir()
        rows[parallel] = plan._executed_groups(list(groups.values()), cells,
                                               plan._open_policy(cfg), tmp_path / str(parallel),
                                               parallel)
    assert len(rows[1]) == 2 and rows[1] == rows[2]
    assert tree_bytes(tmp_path / "1") == tree_bytes(tmp_path / "2")
    for members, group_rows in zip(groups.values(), rows[2]):
        for i, row in zip(members, group_rows, strict=True):
            written = engine.RunRecord.from_json((tmp_path / "2" / cells[i].file).read_text())
            assert type(row) is stats.SummaryRow and row == stats.SummaryRow.of(written)


#: sha256 over the runs/ tree, as for PINNED_RUNS_SHA256, of PINNED_LLM_CFG's
#: compare answered by `_pinned_llm_transport`, as the engine wrote it when
#: comments and transcript keys were kept by slot and split per run at the end
PINNED_LLM_RUNS_SHA256 = "40d5b304008b94bf0472dc4dea9ac39b860a55e4c3a8c11c08833b4456214432"
PINNED_LLM_CFG = """\
network:
  kind: random
  n: 40
  edge_prob: 0.15
replications: 1
master_seed: 11
news:
  path: news.jsonl
  limit: 1
policy:
  kind: llm
  llm:
    cache_path: cache.jsonl
    reask_limit: 1
"""


def _pinned_llm_transport(url, headers, payload, timeout):
    """A reply fixed by the prompt: a commented share, a bare share, an
    ignore, or (one prompt in seven) no DECISION line at all."""
    prompt = payload["messages"][0]["content"]
    h = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:4], "big")
    text = ["REASON: no idea", f"DECISION: SHARE\nCOMMENT: see {h % 97}\nREASON: new",
            "DECISION: SHARE\nREASON: new", "DECISION: IGNORE\nREASON: old"][
        0 if h % 7 == 0 else 1 + h % 3]
    return {"choices": [{"message": {"content": text}}]}


@pytest.mark.parametrize("parallel", [1, 2])
def test_llm_compare_runs_bytes_are_pinned(tmp_path, news_path, monkeypatch, parallel):
    """Comments, transcript keys, parse-failure taints and every record byte
    of a small LLM compare stay as they were."""
    monkeypatch.chdir(tmp_path)  # relative paths keep config_sha independent of the checkout
    monkeypatch.setattr(policy, "_default_transport", _pinned_llm_transport)
    (tmp_path / "news.jsonl").write_bytes(news_path.read_bytes())
    (tmp_path / "cfg.yaml").write_text(PINNED_LLM_CFG, encoding="utf-8")
    assert cli.main(["compare", "--config", "cfg.yaml", "--out", "out",
                     "--parallel", str(parallel)]) == 0
    runs = tree_bytes(tmp_path / "out" / "runs")
    records = [engine.RunRecord.from_json(text.decode("utf-8")) for text in runs.values()]
    assert len(records) == 12 and all(r.transcripts for r in records)
    assert any(r.comments for r in records) and any(r.taints for r in records)
    digest = hashlib.sha256()
    for name, data in runs.items():
        digest.update(Path(name).as_posix().encode("utf-8") + b"\0" + data + b"\0")
    assert digest.hexdigest() == PINNED_LLM_RUNS_SHA256


def test_plan_failures_are_one_error_line(tmp_path, small_config, monkeypatch, capsys):
    def refuse(*args):
        raise OSError("connection refused")

    monkeypatch.setattr(policy, "_default_transport", refuse)
    llm = small_config(reps=1, news_limit=1, extra=(
        "policy:\n  kind: llm\n  llm:\n    max_retries: 0\n"
        f"    cache_path: {tmp_path / 'cache.jsonl'}\n"))
    assert cli.main(["run", "--config", str(llm), "--out", str(tmp_path / "llm")]) == 2
    assert re.fullmatch(r"error: day 1, agent \d+: chat completion failed after 1 tries: "
                        r"connection refused\n", capsys.readouterr().err)
    # two cliques and no bridges: every seed gives a disconnected network
    cliques = small_config(reps=1, news_limit=1).read_text().replace(
        "kind: random\n  n: 60\n  edge_prob: 0.12",
        "kind: high_brokerage\n  n: 8\n  community_size: 4\n  rewire_p: 0.0")
    (tmp_path / "cliques.yaml").write_text(cliques, encoding="utf-8")
    assert cli.main(["run", "--config", str(tmp_path / "cliques.yaml"),
                     "--out", str(tmp_path / "net")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not generate a connected high_brokerage network")
    assert err.count("\n") == 1


def test_run_refuses_news_ids_that_share_a_run_file(tmp_path, capsys):
    news = tmp_path / "news.jsonl"
    news.write_text("".join(json.dumps({"news_id": i, "title": "t", "veracity": "fake"}) + "\n"
                            for i in ("x/1", "y", "x-1")), encoding="utf-8")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({"replications": 1, "news": {"path": str(news)}}),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == ("error: news ids 'x/1' and 'x-1' would both write "
                                       "runs/run_rep000_newsx-1.json\n")


def test_compare_checks_every_network_before_writing(tmp_path, news_path, capsys):
    # random is valid at n = 10; compare's default high_brokerage communities are not
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({"network": {"kind": "random", "n": 10, "edge_prob": 0.5},
                               "replications": 1, "news": {"path": str(news_path), "limit": 2}}),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: invalid config:\n"
        "  - high_brokerage: network.community_size must be in [3, n] for n = 10, got 13\n")


@pytest.mark.parametrize("compare, problems", [
    ({"networks": [], "interventions": ["none", "accuracy", "none"]},
     ["compare.networks must not be empty",
      "compare.interventions must not repeat an entry, got ['none', 'accuracy', 'none']"]),
    ({"networks": ["random", "random"], "interventions": []},
     ["compare.networks must not repeat an entry, got ['random', 'random']",
      "compare.interventions must not be empty"]),
], ids=["empty-networks", "repeated-networks"])
def test_compare_refuses_empty_or_repeated_axes(tmp_path, news_path, capsys, compare, problems):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({"replications": 1, "news": {"path": str(news_path)},
                               "compare": compare}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: invalid config:\n" + "".join(f"  - {p}\n" for p in problems))


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _refused(tmp_path, capsys, doc) -> str:
    """stderr of `newssim run` over the config `doc`, which must exit 2 and write nothing."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:") and err.count("error:") == 1
    return err


SCHEMA_KEYS = [
    *((None, key) for key in ingest.CONFIG_KEYS),
    *((kind, f"network.{key}") for kind in ingest.NETWORK_KINDS
      for key in ingest.default_network_params(kind)),
    *((None, f"policy.stub.{f.name}") for f in fields(policy.StubParams)),
    *((None, f"policy.llm.{f.name}") for f in fields(policy.LlmSettings)),
]


def _config_doc(kind, key, value) -> dict:
    """A config holding only `key` (dotted) set to `value`, under network kind `kind`."""
    *sections, leaf = key.split(".")
    doc = {leaf: value}
    if kind:
        doc["kind"] = kind
    for section in reversed(sections):
        doc = {section: doc}
    return doc


@pytest.mark.parametrize("kind, key", SCHEMA_KEYS)
def test_misspelled_config_key_is_refused_before_any_write(tmp_path, capsys, kind, key):
    leaf = key.rpartition(".")[2]
    doc = _config_doc(kind, key + leaf[-1], 1)  # the last letter doubled
    assert f"unknown key {key}{leaf[-1]}" in _refused(tmp_path, capsys, doc)


@pytest.mark.parametrize("kind, key", SCHEMA_KEYS)
def test_a_bool_is_refused_for_every_config_key(tmp_path, capsys, kind, key):
    # no key takes a bool, and YAML reads `yes`/`true` as one
    err = _refused(tmp_path, capsys, _config_doc(kind, key, True))
    assert err.count("\n  - ") == 1 and f"\n  - {key} must be " in err
    assert err.endswith(", got True\n")


@pytest.mark.parametrize("doc, problems", [
    ({"days": "abc"}, ["days must be an integer, got 'abc'"]),
    ({"network": {"kind": "scale_free", "attach_m": "abc"}},
     ["network.attach_m must be an integer, got 'abc'"]),
    ({"network": {"n": 50.0}, "replications": 2.5, "news": {"limit": "x"}},
     ["replications must be an integer, got 2.5",
      "news.limit must be an integer or null, got 'x'", "network.n must be an integer, got 50.0"]),
    ({"intervention": {"trigger_threshold": "0.1"}, "compare": {"networks": "random"}},
     ["intervention.trigger_threshold must be a number, got '0.1'",
      "compare.networks must be a list, got 'random'"]),
    ({"policy": {"kind": "llm", "llm": {"temperature": "hot", "cache_path": 3}}},
     ["policy.llm.cache_path must be a string or null, got 3",
      "policy.llm.temperature must be a number, got 'hot'"]),
], ids=["days", "attach_m", "n-replications-limit", "threshold-networks", "llm"])
def test_a_value_of_the_wrong_type_is_one_problem_line(tmp_path, capsys, doc, problems):
    err = _refused(tmp_path, capsys, doc)
    assert err == "error: invalid config:\n" + "".join(f"  - {p}\n" for p in problems)


@pytest.mark.parametrize("network, problems", [
    ({"edge_prob": 0.0}, ["network.edge_prob must be in (0, 1), got 0.0"]),
    ({"edge_prob": 1.5}, ["network.edge_prob must be in (0, 1), got 1.5"]),
    ({"kind": "scale_free", "attach_m": 0},
     ["network.attach_m must be in [1, n - 2] for n = 288, got 0"]),
    ({"kind": "scale_free", "n": 10, "attach_m": 9},
     ["network.attach_m must be in [1, n - 2] for n = 10, got 9"]),
    ({"kind": "high_brokerage", "community_size": 2, "rewire_p": 1.5},
     ["network.community_size must be in [3, n] for n = 300, got 2",
      "network.rewire_p must be in [0, 1], got 1.5"]),
    ({"kind": "high_brokerage", "n": 10},
     ["network.community_size must be in [3, n] for n = 10, got 13"]),
], ids=["edge_prob-0", "edge_prob-1.5", "attach_m-0", "attach_m-n-1", "two-values",
        "default-community_size"])
def test_a_network_value_out_of_range_is_refused_before_any_write(tmp_path, capsys, network,
                                                                   problems):
    err = _refused(tmp_path, capsys, {"network": network})
    assert err == "error: invalid config:\n" + "".join(f"  - {p}\n" for p in problems)
    # the generator refuses the same values with the same words
    network = dict(network)
    kind = network.pop("kind", "random")
    params = {**ingest.default_network_params(kind, network.get("n", 300)), **network}
    with pytest.raises(ValueError) as refused:
        netgen.generate(kind, params, 0)
    assert str(refused.value) == "; ".join(problems)


def test_ints_pass_as_numbers_and_null_as_an_unset_news_limit(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({"intervention": {"trigger_threshold": 1}, "sweep": {"offset": 2},
                               "news": {"limit": None},
                               "network": {"kind": "high_brokerage", "rewire_p": 1}}),
                   encoding="utf-8")
    loaded = load_config(cfg)
    assert (loaded.trigger_threshold, loaded.sweep_offset, loaded.news_limit) == (1, 2, None)
    assert loaded.network_params["rewire_p"] == 1


@pytest.mark.parametrize("text, where, problem", [
    ("network: [\n", "2:1", "expected the node content, but found '<stream end>'"),
    ("days:\t7\n", "1:6", "found character '\\t' that cannot start any token"),
], ids=["unclosed-list", "tab-before-value"])
def test_a_config_that_is_not_yaml_is_one_error_line(tmp_path, capsys, text, where, problem):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: invalid config:\n  - {cfg}:{where}: not valid YAML: {problem}\n")


def test_json_reads_an_exponent_float_that_pyyaml_reads_as_a_string(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text('{"intervention": {"trigger_threshold": 1e-05}}', encoding="utf-8")
    assert load_config(cfg).trigger_threshold == 1e-05
    cfg.write_text("intervention:\n  trigger_threshold: 1e-05\n", encoding="utf-8")
    with pytest.raises(ingest.ConfigError, match="must be a number, got '1e-05'"):
        load_config(cfg)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_nan_and_infinity_stay_strings_as_pyyaml_reads_them(tmp_path, capsys, constant):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f'{{"sweep": {{"offset": {constant}}}}}', encoding="utf-8")
    with pytest.raises(ingest.ConfigError, match=f"sweep.offset must be a number, got '{constant}'"):
        load_config(cfg)


def test_example_config_and_its_json_form_load_alike(tmp_path, example_config_path):
    import yaml

    as_json = tmp_path / "cfg.json"
    as_json.write_text(json.dumps(yaml.safe_load(example_config_path.read_text(encoding="utf-8"))),
                       encoding="utf-8")
    cfgs = [load_config(example_config_path), load_config(as_json)]
    assert cfgs[0] == cfgs[1]
    shas = {plan._config_hash(ingest.config_snapshot(cfg)) for cfg in cfgs}
    assert len(shas) == 1


@pytest.mark.parametrize("as_json", [True, False])
def test_only_a_config_that_is_not_json_imports_pyyaml(tmp_path, small_config, as_json):
    import yaml

    cfg = small_config(reps=1, news_limit=1)
    if as_json:
        cfg.write_text(json.dumps(yaml.safe_load(cfg.read_text(encoding="utf-8"))),
                       encoding="utf-8")
    code = (f"import sys; from newssim import cli; "
            f"assert cli.main(['run', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0; print('yaml' in sys.modules)")
    assert _python(code).splitlines()[-1] == str(not as_json)


@pytest.mark.parametrize("doc, typos", [
    ({"network": {"kind": "scale_free", "edge_prob": 0.1}}, ["network.edge_prob"]),
    ({"network": {"kind": "high_brokerage", "broker_frac": 0.5}}, ["network.broker_frac"]),
    ({"policy": {"stub": {"intercpt": 1.0}}}, ["policy.stub.intercpt"]),
    ({"policy": {"kind": "llm", "llm": {"modle": "m"}}}, ["policy.llm.modle"]),
    ({"replicatons": 3, "intervention": {"kind": "blocking", "block_fracton": 0.5}},
     ["replicatons", "intervention.block_fracton"]),
], ids=["edge_prob-scale_free", "broker_frac", "stub-intercpt", "llm-modle", "two-typos"])
def test_config_key_outside_the_schema_is_refused(tmp_path, capsys, doc, typos):
    err = _refused(tmp_path, capsys, doc)
    for typo in typos:
        assert f"unknown key {typo}" in err


# ---------------------------------------------------------------------------
# sweep / compare / stats / export
# ---------------------------------------------------------------------------

def test_sweep_personality_groups(tmp_path, small_config):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-personality", "--config",
                   str(small_config(reps=2, news_limit=1)), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    groups = doc["summary"]["groups"]
    assert len(groups) == 10  # 5 traits x 2 levels
    assert set(doc["summary"]["group_by"]) == {"trait", "level"}


@pytest.mark.parametrize("command", ["compare", "sweep-personality"])
def test_a_replicate_samples_its_cohort_once(tmp_path, small_config, monkeypatch, command):
    """An LLM plan's groups race for a replicate's cohort on threads; a stub
    plan's worker processes each sample a replicate's cohort at most once."""
    samples = tmp_path / "samples.txt"
    real = persona.sample_personas

    def counting(n, *args, **kwargs):
        with open(samples, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {n} {kwargs['rng_seed']}\n")
        return real(n, *args, **kwargs)

    monkeypatch.setattr(persona, "sample_personas", counting)
    monkeypatch.setattr(policy, "_default_transport",
                        scripted_transport("DECISION: SHARE\nREASON: interesting"))
    llm = small_config(reps=2, news_limit=2, extra=(
        f"policy:\n  kind: llm\n  llm:\n    cache_path: {tmp_path / 'cache.jsonl'}\n"))
    plan._cached_cohort.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # parallel groups racing for one replicate's cohort
    try:
        assert cli.main([command, "--config", str(llm), "--out", str(tmp_path / "llm"),
                         "--parallel", "4"]) == 0
    finally:
        sys.setswitchinterval(old)
    lines = samples.read_text(encoding="utf-8").splitlines()
    assert [line.split()[1] for line in lines] == ["60", "60"]
    assert {line.split()[0] for line in lines} == {str(os.getpid())}

    samples.unlink()
    plan._cached_cohort.cache_clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert cli.main([command, "--config", str(small_config(reps=2, news_limit=2)),
                     "--out", str(tmp_path / "stub"), "--parallel", "4"]) == 0
    lines = samples.read_text(encoding="utf-8").splitlines()
    assert str(os.getpid()) not in {line.split()[0] for line in lines}
    assert len(set(lines)) == len(lines)  # no worker samples one (n, seed) twice
    assert len({tuple(line.split()[1:]) for line in lines}) == 2  # one cohort per replicate


def test_cached_cohorts_are_shared_and_pinned_per_trait_level():
    base = plan._cached_cohort(30, 5)
    assert plan._cached_cohort(30, 5) is base
    pinned = {(t, lv): plan._cached_cohort(30, 5, t, lv, 1.0)
              for t in persona.TRAITS for lv in persona.LEVELS}
    for cohort in (base, pinned["openness", "high"]):  # cells share them: no column is writable
        for column in (cohort.female, cohort.age, cohort.scores, cohort.high):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
    assert len({c[0].big_five_scores for c in pinned.values()}) == len(pinned)
    for (trait, level), cohort in pinned.items():
        assert cohort is plan._cached_cohort(30, 5, trait, level, 1.0)
        idx = persona.TRAITS.index(trait)
        assert all(p.big_five_labels[idx] == level for p in cohort)
        assert [p.age for p in cohort] == [p.age for p in base]


def test_compare_cells_and_tables(tmp_path, small_config):
    extra = (
        "compare:\n"
        "  networks: [random, scale_free]\n"
        "  interventions: [none, blocking]\n"
    )
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(small_config(reps=2, news_limit=1,
                                                           extra=extra)),
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    groups = doc["summary"]["groups"]
    assert len(groups) == 4
    comps = doc["summary"]["comparisons"]
    assert set(comps) == {"final_forwarded", "final_reached", "diffusion_rate"}
    table = (out / "comparisons.tsv").read_text()
    assert "final_reached" in table and "diffusion_rate" in table


def test_compare_full_cross_product(tmp_path, small_config):
    out = tmp_path / "cmp12"
    rc = cli.main(["compare", "--config", str(small_config(reps=2, news_limit=1)),
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    assert len(doc["summary"]["groups"]) == 12  # 3 networks x 4 interventions
    assert set(doc["summary"]["comparisons"]) == {
        "final_forwarded", "final_reached", "diffusion_rate"
    }


def test_stats_command_aggregates(tmp_path, small_config):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=2)),
                     "--out", str(out)]) == 0
    rc = cli.main(["stats", "--results", str(out), "--group-by", "network"])
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    assert list(doc["summary"]["groups"]) == ["random"]


def test_stats_refuses_a_group_by_key_no_record_carries(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=1)),
                     "--out", str(out)]) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out), "--group-by", "network,bogus"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'bogus'" in err[0]
    assert tree_bytes(out) == before


def test_stats_command_missing_dir(tmp_path, capsys):
    assert cli.main(["stats", "--results", str(tmp_path / "nope")]) == 2


def test_stats_refuses_records_the_plan_does_not_list(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=2)),
                     "--out", str(out)]) == 0
    before = tree_bytes(out)
    # stale records left by an earlier plan in the same out dir
    for name in ("stale_rep999.json", "old_rep000.json"):
        (out / "runs" / name).write_text(next((out / "runs").glob("run_*.json")).read_text())
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {out / 'runs'} holds records plan.json does not "
                                       "list: old_rep000.json, stale_rep999.json\n")
    for name in ("stale_rep999.json", "old_rep000.json"):
        (out / "runs" / name).unlink()
    assert tree_bytes(out) == before
    assert cli.main(["stats", "--results", str(out)]) == 0
    assert tree_bytes(out) == before


@pytest.mark.parametrize("file, problem", [
    (None, "is listed twice"),
    ("plan.json", "is not runs/<name>.json"),
    ("runs/sub/{name}", "is not runs/<name>.json"),
    ("runs/../runs/{name}", "is not runs/<name>.json"),
    ("runs/{name}.txt", "is not runs/<name>.json"),
], ids=["repeated", "outside-runs", "nested", "dot-dot", "not-json"])
def test_stats_refuses_a_plan_that_lists_a_file_twice_or_outside_runs(tmp_path, small_config,
                                                                      capsys, file, problem):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=1)),
                     "--out", str(out)]) == 0
    doc = json.loads((out / "plan.json").read_text())
    cells = doc["cells"]
    if file is None:
        cells.append(dict(cells[-1]))
    else:
        cells[-1]["file"] = file.format(name=Path(cells[-1]["file"]).name)
    (out / "plan.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err == (f"error: {out / 'plan.json'}: cell file "
                                       f"{cells[-1]['file']!r} {problem}\n")
    assert not (tmp_path / "again").exists()


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set_format(version):
    return lambda doc: doc.update(format=version)


def _shorten(column):
    return lambda doc: doc["agents"][column].pop()


def _put(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("format"), "format None is not supported"),
    (_set_format(1), "format 1 is not supported"),
    (_set_format(2), "format 2 is not supported"),
    (_drop("agents"), "no 'agents.reach_day'"),
    (_drop("agents", "decision"), "no 'agents.decision'"),
    (_drop("series", "forwarded_prop"), "no 'series.forwarded_prop'"),
    (_drop("comments"), "no 'comments'"),
    (_drop("transcripts"), "no 'transcripts'"),
    (_drop("taints"), "no 'taints'"),
    (_shorten("reached_by"), "agents.reached_by has 59 entries, agents.reach_day has 60"),
    (_shorten("decision"), "agents.decision has 59 entries, agents.reach_day has 60"),
    (_put(5, "agents", "decision"), "agents.decision is not a list of integers"),
    (_put(0.5, "agents", "reach_day", 0), "agents.reach_day is not a list of integers"),
    (_put(True, "agents", "reached_by", 0), "agents.reached_by is not a list of integers"),
    (_put(2, "agents", "decision", 0), "agents.decision holds a value outside -1/0/1"),
    (_put(["0.5"] * 8, "series", "reached_prop"), "series.reached_prop is not a list of numbers"),
    (_put(None, "series", "forwarded_prop"), "series.forwarded_prop is not a list of numbers"),
    (_set_format(3), "format 3 is not supported"),
    (_drop("meta", "config_sha"), "no 'meta.config_sha'"),
    (_put("no", "effective"), "run record effective is not a bool"),
    (_put(1, "effective"), "run record effective is not a bool"),
    (_put("x", "events"), "run record events is not a list"),
    (_put({}, "taints"), "run record taints is not a list"),
    (_put([], "comments"), "run record comments is not an object of decimal agent ids"),
    (_put(None, "transcripts"), "run record transcripts is not an object of decimal agent ids"),
    (_put({"a": "hi"}, "comments"), "run record comments is not an object of decimal agent ids"),
    (_put({"-1": "hi"}, "comments"), "run record comments is not an object of decimal agent ids"),
    (_put({"0": 5}, "transcripts"), "run record transcripts is not an object of decimal agent ids"),
], ids=["no-format", "format-1", "format-2", "no-agents", "no-decision", "no-series-column",
        "no-comments", "no-transcripts", "no-taints", "short-reached_by", "short-decision",
        "int-decision", "float-reach_day", "bool-reached_by", "decision-2", "string-series",
        "null-series", "format-3", "no-config_sha", "string-effective", "int-effective",
        "string-events", "object-taints", "list-comments", "null-transcripts",
        "letter-comment-key", "negative-comment-key", "int-transcript"])
def test_stats_refuses_old_record_format(tmp_path, small_config, capsys, edit, message):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=1, news_limit=1)),
                     "--out", str(out)]) == 0
    path = next((out / "runs").glob("*.json"))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2))
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: ") and message in err
    with pytest.raises(ValueError, match=re.escape(message)):
        engine.RunRecord.from_json(path.read_text())


def test_stats_refuses_a_config_sha_plan_json_does_not_list(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=1, news_limit=2)),
                     "--out", str(out)]) == 0
    path = sorted((out / "runs").glob("*.json"))[-1]
    doc = json.loads(path.read_text())
    doc["meta"]["config_sha"] = "0" * 16
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: config_sha '{'0' * 16}' is not a key "
                                       "of plan.json's configs\n")
    assert not (tmp_path / "again").exists()


def test_stats_refuses_a_directory_without_plan_json(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=1, news_limit=1)),
                     "--out", str(out)]) == 0
    (out / "plan.json").unlink()
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err == f"error: no plan.json under {out}\n"
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("doc", [
    {}, [1], {"cells": 5}, {"cells": [{}]}, {"cells": [], "group_by": "trait,level"},
    {"cells": [], "group_by": ["trait", 1]}, {"cells": [], "group_by": None},
], ids=["empty", "list", "cells-not-a-list", "cell-without-file", "group-by-string",
        "group-by-not-strings", "group-by-null"])
def test_stats_refuses_a_malformed_plan_json(tmp_path, small_config, capsys, doc):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=1, news_limit=1)),
                     "--out", str(out)]) == 0
    (out / "plan.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out), "--out", str(tmp_path / "again")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {out / 'plan.json'}: ")
    assert not (tmp_path / "again").exists()


def test_stats_groups_a_plan_json_without_group_by_by_network_and_intervention(
        tmp_path, small_config, capsys):
    out, again = tmp_path / "out", tmp_path / "again"
    assert cli.main(["sweep-personality", "--config", str(small_config(reps=1, news_limit=1)),
                     "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text(encoding="utf-8"))
    del plan["group_by"]
    (out / "plan.json").write_text(json.dumps(plan))
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out), "--out", str(again)]) == 0
    assert capsys.readouterr().out.endswith(" into 1 groups by network,intervention\n")
    summary = json.loads((again / "summary.json").read_text(encoding="utf-8"))["summary"]
    assert summary["group_by"] == ["network", "intervention"]


@pytest.mark.parametrize("command, pattern", [
    ("stats", "plan.json"),
    ("stats", "runs/*.json"),
    ("export-plot-data", "summary.json"),
], ids=["plan", "record", "summary"])
def test_a_file_that_is_not_json_is_named_in_one_error_line(tmp_path, small_config, capsys,
                                                            command, pattern):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=1, news_limit=1)),
                     "--out", str(out)]) == 0
    path = next(out.glob(pattern))
    path.write_text('{"cells": ', encoding="utf-8")
    capsys.readouterr()
    assert cli.main([command, "--results", str(out), "--out", str(tmp_path / "again")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: Expecting value")
    assert not (tmp_path / "again").exists()


def test_compare_records_name_their_cell_config_in_plan_json(tmp_path, small_config):
    cfg_path = small_config(reps=2, news_limit=1)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads((out / "plan.json").read_text())
    configs = doc["configs"]
    assert len(configs) == 12  # 3 networks x 4 interventions
    assert configs == {plan._config_hash(snap): snap for snap in configs.values()}
    cfg = load_config(cfg_path)
    for cell in doc["cells"]:
        rec = json.loads((out / cell["file"]).read_text())
        assert set(rec["meta"]) == {"config_sha", "labels"}
        kind, intervention = rec["meta"]["labels"]["network"], rec["meta"]["labels"]["intervention"]
        params = (cfg.network_params if kind == cfg.network_kind
                  else ingest.default_network_params(kind, cfg.network_params["n"]))
        cell_cfg = replace(cfg, network_kind=kind, network_params=params,
                           intervention_kind=intervention)
        assert configs[rec["meta"]["config_sha"]] == ingest.config_snapshot(cell_cfg)


def test_a_plan_snapshots_each_cell_config_once(tmp_path, small_config, monkeypatch):
    snapshots = []
    real = ingest.config_snapshot

    def counting(cfg):
        snapshots.append(cfg)
        return real(cfg)

    monkeypatch.setattr(ingest, "config_snapshot", counting)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(small_config(reps=2, news_limit=2)),
                     "--out", str(out)]) == 0
    attempts = sum(json.loads(p.read_text())["meta"]["labels"]["attempt"] + 1
                   for p in (out / "runs").glob("*.json"))
    assert attempts > 48  # some of the 48 cells retried: not vacuous
    assert len(snapshots) == 12 + 1  # one per cell config, one for the provenance


def test_export_plot_data(tmp_path, small_config):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=1)),
                     "--out", str(out)]) == 0
    plots = tmp_path / "plots"
    assert cli.main(["export-plot-data", "--results", str(out),
                     "--out", str(plots)]) == 0
    for metric in ("reached", "forwarded"):
        lines = [l for l in (plots / f"figure_{metric}.tsv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "day\tgroup\tmean\tsd"
        assert len(lines) - 1 == 1 * 8  # groups x (T+1)


def test_export_plot_data_empty_dir(tmp_path, capsys):
    rc = cli.main(["export-plot-data", "--results", str(tmp_path),
                   "--out", str(tmp_path / "p")])
    assert rc == 2


_SERIES = {"reached_mean": [0.1, 0.2], "reached_sd": [0.0, 0.1],
           "forwarded_mean": [0.0, 0.1], "forwarded_sd": [0.0, 0.0]}


@pytest.mark.parametrize("doc, key", [
    ({"provenance": {}}, "summary.groups"),
    ({"summary": {"groups": []}}, "summary.groups"),
    ({"summary": {"groups": {}}}, "summary.groups"),
    ({"provenance": [], "summary": {"groups": {"g": {"days": 1, **_SERIES}}}}, "provenance"),
    ({"summary": {"groups": {"g": {**_SERIES}}}}, "days"),
    ({"summary": {"groups": {"g": {"days": 1, **_SERIES, "forwarded_sd": None}}}},
     "forwarded_sd"),
    ({"summary": {"groups": {"g": {"days": 1, **_SERIES, "reached_sd": [0.0]}}}},
     "reached_sd"),
])
def test_export_plot_data_refuses_a_malformed_summary(tmp_path, capsys, doc, key):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "plots"
    assert cli.main(["export-plot-data", "--results", str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and f"`{key}`" in err and err.count("\n") == 1
    assert not out.exists()


def test_cache_path_flag_overrides_config(tmp_path, small_config, monkeypatch):
    seen = {}
    real = plan._open_cache

    def spy(cfg):
        seen["path"] = cfg.llm_params.get("cache_path")
        return real(cfg)

    monkeypatch.setattr(plan, "_open_cache", spy)
    cfg = small_config(reps=1, news_limit=1)
    # stub policy: the flag still lands in the config for provenance
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--cache-path", str(tmp_path / "x.jsonl")]) == 0
    assert seen["path"] == str(tmp_path / "x.jsonl")


def test_provenance_comment_ignores_key_order():
    inner = {"none": "a1", "commenting": "b2", "accuracy": "c3"}
    one = {"template_hashes": inner, "master_seed": 7, "cache_sha": None}
    two = {"cache_sha": None, "master_seed": 7,
           "template_hashes": dict(reversed(list(inner.items())))}
    text = cli._provenance_comment(one)
    assert text == cli._provenance_comment(two)
    assert text.splitlines() == [
        "# cache_sha: null",
        "# master_seed: 7",
        '# template_hashes: {"accuracy": "c3", "commenting": "b2", "none": "a1"}',
    ]


# ---------------------------------------------------------------------------
# llm-mode cache replay through the orchestrator
# ---------------------------------------------------------------------------

def scripted_transport(text):
    def transport(url, headers, payload, timeout):
        transport.calls += 1
        return {"choices": [{"message": {"content": text}}]}

    transport.calls = 0
    return transport


def llm_cells(small_config, tmp_path, llm=""):
    cfg_path = small_config(reps=2, news_limit=1, extra=(
        "policy:\n  kind: llm\n  llm:\n    cache_path: " + str(tmp_path / "cache.jsonl") + "\n"
        + llm
    ))
    cfg = load_config(cfg_path)
    return [
        plan.Cell(cfg, item, rep, {"network": cfg.network_kind, "intervention": "none"},
                 f"run_rep{rep:03d}_news{item.news_id}.json")
        for rep in range(cfg.replications) for item in plan._news_for(cfg)
    ]


def test_a_cell_built_without_a_config_sha_hashes_its_config(small_config):
    cfg = load_config(small_config())
    item = plan._news_for(cfg)[0]
    sha = plan._config_hash(ingest.config_snapshot(cfg))
    assert plan.Cell(cfg, item, 0, {}, "cell.json").config_sha == sha
    assert plan.Cell(cfg, item, 0, {}, "cell.json", "given").config_sha == "given"


def test_llm_plan_replays_from_cache(tmp_path, small_config, monkeypatch):
    cells = llm_cells(small_config, tmp_path)

    live = scripted_transport("DECISION: SHARE\nREASON: interesting")
    cache1 = policy.DecisionCache(tmp_path / "cache.jsonl")
    out1 = tmp_path / "live"
    records1 = plan._run_plan(cells, out1, cache=cache1, transport=live)
    assert live.calls > 0

    def boom(*a, **k):
        raise AssertionError("network touched, or a thread started, during replay")

    # a replay answers every decision from the cache on the cell's own thread
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", boom)
    monkeypatch.setattr(threading.Thread, "start", boom)
    cache2 = policy.DecisionCache(tmp_path / "cache.jsonl")
    out2 = tmp_path / "replay"
    records2 = plan._run_plan(cells, out2, cache=cache2, transport=boom)
    assert [r.to_json() for r in records1] == [r.to_json() for r in records2]
    assert tree_bytes(out1 / "runs") == tree_bytes(out2 / "runs")


def test_llm_plan_requests_in_flight_stay_within_concurrency(tmp_path, small_config):
    concurrency = 2
    cells = llm_cells(small_config, tmp_path, llm=f"    concurrency: {concurrency}\n")
    lock = threading.Lock()
    flying = {"now": 0, "peak": 0, "calls": 0}

    def overlapping(url, headers, payload, timeout):
        with lock:
            flying["now"] += 1
            flying["calls"] += 1
            flying["peak"] = max(flying["peak"], flying["now"])
        time.sleep(0.005)
        with lock:
            flying["now"] -= 1
        share = "IGNORE" if len(payload["messages"][0]["content"]) % 5 == 0 else "SHARE"
        return {"choices": [{"message": {"content": f"DECISION: {share}"}}]}

    runs = {}
    for parallel in (1, 2):
        out = tmp_path / f"parallel{parallel}"
        with policy.DecisionCache(tmp_path / f"cache{parallel}.jsonl") as cache:
            plan._run_plan(cells, out, cache=cache, transport=overlapping, parallel=parallel)
        runs[parallel] = tree_bytes(out / "runs")
    assert flying["calls"] > 0
    assert flying["peak"] == concurrency  # the pool is used, and never beyond its size
    assert runs[1] == runs[2]


@pytest.mark.parametrize("changed", ["    temperature: 0.7\n",
                                     "    endpoint: http://127.0.0.1:9/v1/chat/completions\n"])
def test_an_llm_cache_refuses_other_settings(tmp_path, small_config, monkeypatch, capsys,
                                             changed):
    """A cache recorded at one temperature and endpoint never answers a plan at another."""
    transport = scripted_transport("DECISION: SHARE\nREASON: interesting")
    monkeypatch.setattr(policy, "_default_transport", transport)
    cache = tmp_path / "cache.jsonl"
    cfg = small_config(reps=1, news_limit=1, extra=LLM_CFG.format(cache=cache))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
    recorded, calls = cache.read_bytes(), transport.calls
    assert calls > 0 and json.loads(recorded.split(b"\n")[0]) == {"settings": {
        "endpoint": policy.LlmSettings().endpoint, "temperature": 0.0}}
    # the same settings replay from the cache
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
    assert transport.calls == calls
    capsys.readouterr()

    other = small_config(reps=1, news_limit=1, extra=LLM_CFG.format(cache=cache) + changed)
    out = tmp_path / "other"
    assert cli.main(["run", "--config", str(other), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: LLM cache {cache} was recorded under {{'endpoint': ")
    assert err.count("\n") == 1
    assert transport.calls == calls and cache.read_bytes() == recorded
    assert not out.exists()


def test_an_llm_cache_without_settings_is_refused(tmp_path, small_config, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps({"key": "k", "model": "m", "attempt": 0, "prompt_sha": "p",
                                 "response": "DECISION: SHARE"}) + "\n", encoding="utf-8")
    cfg = small_config(reps=1, news_limit=1, extra=LLM_CFG.format(cache=cache))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: LLM cache {cache} does not name the settings it was recorded under "
        "(newssim 0.4.0 or earlier); move it aside to record a new one\n")
    assert not (tmp_path / "out").exists()


LLM_CFG = "policy:\n  kind: llm\n  llm:\n    cache_path: {cache}\n"


@pytest.mark.parametrize(
    "command, group_by, extra",
    [
        ("run", "network,intervention", ""),
        ("sweep-personality", "trait,level", ""),
        ("compare", "network,intervention", ""),
        ("run", "network,intervention", LLM_CFG),
        ("sweep-personality", None, ""),
        ("compare", None, ""),
    ],
    ids=["run", "sweep-personality", "compare", "llm-run", "sweep-personality-plan-keys",
         "compare-plan-keys"],
)
def test_stats_over_finished_plan_reproduces_its_summary(
    tmp_path, small_config, monkeypatch, capsys, command, group_by, extra
):
    """With no --group-by, stats groups by the keys plan.json names."""
    monkeypatch.setattr(policy, "_default_transport",
                        scripted_transport("DECISION: SHARE\nREASON: interesting"))
    cfg = small_config(reps=2, news_limit=1,
                       extra=extra.format(cache=tmp_path / "cache.jsonl"))
    out, again = tmp_path / "out", tmp_path / "again"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    flag = [] if group_by is None else ["--group-by", group_by]
    assert cli.main(["stats", "--results", str(out), "--out", str(again), *flag]) == 0
    keys = "trait,level" if command == "sweep-personality" else "network,intervention"
    assert capsys.readouterr().out.endswith(f" groups by {keys}\n")
    for name in ("summary.json", "curves.tsv", "comparisons.tsv"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name
