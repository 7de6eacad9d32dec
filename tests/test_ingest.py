from dataclasses import replace

import pytest

from newssim.ingest import (
    ConfigError,
    ExperimentConfig,
    NewsFormatError,
    load_config,
    load_news,
    truncate_body,
)
from newssim.policy import LlmSettings, StubParams


def test_load_sample_news(news_path):
    items = load_news(news_path)
    assert len(items) == 5
    assert all(item.veracity == "fake" for item in items)
    assert all(item.topic == "political" for item in items)
    assert [i.news_id for i in items] == [f"demo-00{k}" for k in range(1, 6)]


def test_load_news_is_pure(news_path):
    assert load_news(news_path) == load_news(news_path)


def test_load_news_limit(news_path):
    assert len(load_news(news_path, limit=2)) == 2


def test_empty_news_file_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(NewsFormatError):
        load_news(path)


def test_missing_file_errors(tmp_path):
    with pytest.raises(NewsFormatError):
        load_news(tmp_path / "nope.jsonl")


def test_record_missing_veracity_reports_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"news_id": "ok-1", "title": "fine", "veracity": "fake"}\n'
        '{"news_id": "bad-7", "title": "broken"}\n',
        encoding="utf-8",
    )
    with pytest.raises(NewsFormatError, match="bad-7"):
        load_news(path)


def test_record_missing_title_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"news_id": "x", "veracity": "fake"}\n', encoding="utf-8")
    with pytest.raises(NewsFormatError, match="title"):
        load_news(path)


def test_no_partial_result_on_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"news_id": "a", "title": "t", "veracity": "fake"}\nnot json\n', encoding="utf-8"
    )
    with pytest.raises(NewsFormatError):
        load_news(path)


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "5", "null"])
def test_news_line_that_is_not_an_object_errors(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"news_id": "a", "title": "t", "veracity": "fake"}\n' + line + "\n",
                    encoding="utf-8")
    with pytest.raises(NewsFormatError, match=r"bad\.jsonl:2: not a JSON object"):
        load_news(path)


def test_truncate_body_word_boundary():
    body = "alpha beta gamma delta"
    cut = truncate_body(body, 12)
    assert cut.startswith("alpha beta")
    assert "gam" not in cut
    assert truncate_body("short", 100) == "short"


def test_minimal_config_gets_protocol_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("network:\n  kind: scale_free\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.days == 7
    assert cfg.trigger_threshold == 0.10
    assert cfg.block_fraction == 0.20
    assert cfg.network_params["attach_m"] == 6
    assert cfg.policy_kind == "stub"


def test_out_of_range_values_aggregate(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "days: 0\nintervention:\n  kind: none\n  trigger_threshold: 1.5\n"
        "  block_fraction: 0.2\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "days" in msg and "trigger_threshold" in msg


def test_every_bad_llm_value_is_named_in_one_error(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "days: 0\npolicy:\n  llm: {reask_limit: -1, concurrency: 0, timeout: 0, bogus: 1}\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == [
        "days must be >= 1, got 0",
        "unknown key policy.llm.bogus",
        "policy.llm.concurrency must be >= 1, got 0",
        "policy.llm.reask_limit must be >= 0, got -1",
        "policy.llm.timeout must be > 0, got 0",
    ]


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("intervention_kind", "bogus", "intervention.kind 'bogus' unknown"),
        ("trigger_threshold", 0.0, "trigger_threshold must be in (0, 1]"),
        ("block_fraction", 1.0, "block_fraction must be in (0, 1)"),
        ("block_denominator", "bogus", "block_denominator 'bogus' unknown"),
        ("compare_networks", ["random", "bogus"], "compare.networks entry 'bogus' unknown"),
        ("compare_interventions", ["none", "bogus"],
         "compare.interventions entry 'bogus' unknown"),
        ("llm_params", {"reask_limit": -1}, "policy.llm.reask_limit must be >= 0"),
        ("llm_params", {"concurrency": 0}, "policy.llm.concurrency must be >= 1"),
        ("llm_params", {"timeout": 0}, "policy.llm.timeout must be > 0"),
        ("effective_retry_budget", -1, "effective_retry_budget must be >= 0, got -1"),
        ("sweep_offset", -1.0, "sweep.offset must be >= 0, got -1.0"),
        ("compare_networks", [], "compare.networks must not be empty"),
        ("compare_networks", ["random", "scale_free", "random"],
         "compare.networks must not repeat an entry, got ['random', 'scale_free', 'random']"),
        ("compare_interventions", [], "compare.interventions must not be empty"),
        ("compare_interventions", ["blocking", "blocking"],
         "compare.interventions must not repeat an entry, got ['blocking', 'blocking']"),
    ],
)
def test_validate_rejects_each_bad_value(field, value, problem):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**{field: value}).validate()
    assert problem in str(err.value)


def test_cohort_size_must_match_network(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("network:\n  kind: random\n  n: 50\ncohort_size: 40\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="cohort_size"):
        load_config(path)


def test_example_config_loads_and_shows_the_defaults(example_config_path):
    cfg = load_config(example_config_path)
    default = ExperimentConfig()
    assert cfg.network_params == pytest.approx(default.network_params)
    assert StubParams.from_dict(cfg.stub_params) == StubParams()
    assert LlmSettings.from_dict(cfg.llm_params) == LlmSettings(cache_path="llm_cache.jsonl")
    assert replace(cfg, network_params=default.network_params, stub_params={},
                   llm_params={}) == default


def test_default_config_is_valid():
    ExperimentConfig().validate()
