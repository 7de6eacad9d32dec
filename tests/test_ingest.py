import pytest

from newssim.ingest import (
    ConfigError,
    ExperimentConfig,
    NewsFormatError,
    config_to_mapping,
    load_config,
    load_news,
    save_config,
    truncate_body,
)


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


def test_config_round_trip(tmp_path, example_config_path):
    cfg = load_config(example_config_path)
    out = tmp_path / "resaved.yaml"
    save_config(cfg, out)
    again = load_config(out)
    assert config_to_mapping(again) == config_to_mapping(cfg)


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.resolved_cohort_size() == cfg.network_params["n"]
