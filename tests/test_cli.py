import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newssim import cli, engine, ingest, persona, policy
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


def test_gen_network_same_seed_identical_files(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main([
            "gen-network", "--kind", "high_brokerage", "--n", "60",
            "--community-size", "6", "--rewire-p", "0.5", "--seed", "3",
            "--out", str(out),
        ]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_gen_network_random_detects_modularity(tmp_path):
    out = tmp_path / "net"
    assert cli.main(["gen-network", "--kind", "random", "--n", "60", "--seed", "1",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "random_seed1.stats.json").read_text())
    assert 0.1 < doc["modularity"] < 1.0


def test_cli_import_skips_libraries_only_some_commands_use():
    code = ("import newssim.cli, sys; "
            "print(sorted({'networkx', 'requests', 'yaml'} & set(sys.modules)))")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


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
        monkeypatch.setattr(cli.os, "replace", lambda src, dst: 1 / 0)
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


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

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


def test_interrupted_run_leaves_incomplete_marker(tmp_path, small_config, monkeypatch):
    out = tmp_path / "out"
    calls = {"n": 0}
    real_run = engine.run

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("simulated crash")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli.engine, "run", flaky)
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
        net = cli._cached_network(cfg.network_kind, tuple(sorted(cfg.network_params.items())),
                                  meta["net_seed"])
        personas = cli._cached_cohort(net.n, meta["persona_seed"])
        for seed in seeds[:-1]:  # every earlier attempt was non-effective
            earlier = engine.run(cfg, net, personas, news[meta["news_id"]],
                                 cli._build_cell_policy(cfg, seed, None, None))
            assert not earlier.effective


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
    cli._cached_cohort.cache_clear()
    sampled = []
    real = persona.sample_personas

    def counting(n, *args, **kwargs):
        sampled.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(persona, "sample_personas", counting)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # parallel cells racing for one replicate's cohort
    try:
        assert cli.main([command, "--config", str(small_config(reps=2, news_limit=2)),
                         "--out", str(tmp_path / "out"), "--parallel", "4"]) == 0
    finally:
        sys.setswitchinterval(old)
    assert sampled == [60, 60]


def test_cached_cohorts_are_shared_and_pinned_per_trait_level():
    base = cli._cached_cohort(30, 5)
    assert cli._cached_cohort(30, 5) is base and isinstance(base, tuple)
    pinned = {(t, lv): cli._cached_cohort(30, 5, t, lv, 1.0)
              for t in persona.TRAITS for lv in persona.LEVELS}
    assert len({c[0].big_five_scores for c in pinned.values()}) == len(pinned)
    for (trait, level), cohort in pinned.items():
        assert cohort is cli._cached_cohort(30, 5, trait, level, 1.0)
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


def test_stats_command_missing_dir(tmp_path, capsys):
    assert cli.main(["stats", "--results", str(tmp_path / "nope")]) == 2


def test_stats_reads_only_plan_cells(tmp_path, small_config):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=2, news_limit=2)),
                     "--out", str(out)]) == 0
    summary = (out / "summary.json").read_bytes()
    # a stale record left by an earlier plan in the same out dir
    stale = json.loads(next((out / "runs").glob("*.json")).read_text())
    stale["series"]["reached_prop"] = [1.0] * len(stale["series"]["reached_prop"])
    stale["effective"] = True
    (out / "runs" / "stale_rep999.json").write_text(json.dumps(stale))
    assert cli.main(["stats", "--results", str(out)]) == 0
    assert (out / "summary.json").read_bytes() == summary


def test_stats_refuses_old_record_format(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small_config(reps=1, news_limit=1)),
                     "--out", str(out)]) == 0
    path = next((out / "runs").glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["format"]
    path.write_text(json.dumps(doc, indent=2))
    capsys.readouterr()
    assert cli.main(["stats", "--results", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert path.name in err and "format None" in err
    doc["format"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format 1 is not supported"):
        engine.RunRecord.from_json(path.read_text())


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


def test_cache_path_flag_overrides_config(tmp_path, small_config, monkeypatch):
    seen = {}
    real = cli._open_cache

    def spy(cfg):
        seen["path"] = cfg.llm_params.get("cache_path")
        return real(cfg)

    monkeypatch.setattr(cli, "_open_cache", spy)
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


def test_llm_plan_replays_from_cache(tmp_path, small_config, news_path):
    cfg_path = small_config(reps=2, news_limit=1, extra=(
        "policy:\n  kind: llm\n  llm:\n    cache_path: " + str(tmp_path / "cache.jsonl") + "\n"
    ))
    cfg = load_config(cfg_path)
    news = cli._news_for(cfg)
    cells = [
        cli.Cell(cfg, item, rep, {"network": cfg.network_kind, "intervention": "none"},
                 f"run_rep{rep:03d}_news{item.news_id}.json")
        for rep in range(cfg.replications) for item in news
    ]

    live = scripted_transport("DECISION: SHARE\nREASON: interesting")
    cache1 = policy.DecisionCache(tmp_path / "cache.jsonl")
    out1 = tmp_path / "live"
    records1 = cli._run_plan(cells, out1, cache=cache1, transport=live)
    assert live.calls > 0

    def boom(*a, **k):
        raise AssertionError("network touched during replay")

    cache2 = policy.DecisionCache(tmp_path / "cache.jsonl")
    out2 = tmp_path / "replay"
    records2 = cli._run_plan(cells, out2, cache=cache2, transport=boom)
    assert [r.to_json() for r in records1] == [r.to_json() for r in records2]
    assert tree_bytes(out1 / "runs") == tree_bytes(out2 / "runs")


LLM_CFG = "policy:\n  kind: llm\n  llm:\n    cache_path: {cache}\n"


@pytest.mark.parametrize(
    "command, group_by, extra",
    [
        ("run", "network,intervention", ""),
        ("sweep-personality", "trait,level", ""),
        ("compare", "network,intervention", ""),
        ("run", "network,intervention", LLM_CFG),
    ],
    ids=["run", "sweep-personality", "compare", "llm-run"],
)
def test_stats_over_finished_plan_reproduces_its_summary(
    tmp_path, small_config, monkeypatch, command, group_by, extra
):
    monkeypatch.setattr(policy, "_default_transport",
                        scripted_transport("DECISION: SHARE\nREASON: interesting"))
    cfg = small_config(reps=2, news_limit=1,
                       extra=extra.format(cache=tmp_path / "cache.jsonl"))
    out, again = tmp_path / "out", tmp_path / "again"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["stats", "--results", str(out), "--out", str(again),
                     "--group-by", group_by]) == 0
    for name in ("summary.json", "curves.tsv", "comparisons.tsv"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name
