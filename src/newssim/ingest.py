"""News item and experiment configuration loading.

News files are JSON Lines: one object per line with keys
    news_id, title, body, veracity ("fake" | "real"), topic
Veracity is always explicit in the file, never inferred from content.

Experiment configs are YAML. Every unset field takes a documented default that
mirrors the standard protocol (7 simulated days, 10% intervention trigger,
20% block fraction, stub policy). See config.example.yaml at the repo root
for a fully annotated example.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .netgen import NETWORK_KINDS

VERACITIES = ("fake", "real")
INTERVENTION_KINDS = ("none", "commenting", "accuracy", "blocking")
POLICY_KINDS = ("stub", "llm")

DEFAULT_DAYS = 7
DEFAULT_TRIGGER_THRESHOLD = 0.10
DEFAULT_BLOCK_FRACTION = 0.20
DEFAULT_REPLICATIONS = 20
DEFAULT_BODY_CHAR_BUDGET = 1200


class NewsFormatError(ValueError):
    """A news file is missing or malformed."""


class ConfigError(ValueError):
    """One or more invalid experiment configuration values."""


@dataclass(frozen=True)
class NewsItem:
    news_id: str
    title: str
    body: str
    veracity: str
    topic: str = ""


def load_news(path, limit: int | None = None) -> list[NewsItem]:
    """Load news items in file order; any bad record fails the whole load."""
    items: list[NewsItem] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise NewsFormatError(f"cannot read news file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise NewsFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            rec_id = rec.get("news_id", f"<line {lineno}>")
            title = rec.get("title")
            if not title:
                raise NewsFormatError(f"{path}:{lineno}: record {rec_id} has no title")
            veracity = rec.get("veracity")
            if veracity not in VERACITIES:
                raise NewsFormatError(
                    f"{path}:{lineno}: record {rec_id} has missing or invalid "
                    f"veracity {veracity!r} (expected one of {VERACITIES})"
                )
            items.append(
                NewsItem(
                    news_id=str(rec_id),
                    title=str(title),
                    body=str(rec.get("body", "")),
                    veracity=veracity,
                    topic=str(rec.get("topic", "")),
                )
            )
    if not items:
        raise NewsFormatError(f"{path}: news file contains no items")
    if limit is not None:
        items = items[:limit]
    return items


def truncate_body(body: str, char_budget: int) -> str:
    """Cut a long body at a word boundary within char_budget."""
    if len(body) <= char_budget:
        return body
    cut = body[:char_budget]
    if " " in cut:
        cut = cut.rsplit(" ", 1)[0]
    return cut + " [...]"


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment plan."""

    network_kind: str = "random"
    network_params: dict = field(default_factory=lambda: {"n": 300, "edge_prob": 12.07 / 299})
    cohort_size: int | None = None  # defaults to network n
    days: int = DEFAULT_DAYS
    master_seed: int = 42
    replications: int = DEFAULT_REPLICATIONS

    intervention_kind: str = "none"
    trigger_threshold: float = DEFAULT_TRIGGER_THRESHOLD
    block_fraction: float = DEFAULT_BLOCK_FRACTION
    block_denominator: str = "all_agents"  # or "candidates"

    policy_kind: str = "stub"
    stub_params: dict = field(default_factory=dict)
    llm_params: dict = field(default_factory=dict)

    news_path: str = "data/sample_news.jsonl"
    news_limit: int | None = 5
    body_char_budget: int = DEFAULT_BODY_CHAR_BUDGET

    # re-run budget for runs whose source declined to share
    effective_retry_budget: int = 5

    # cross-product axes used by the compare command
    compare_networks: list = field(default_factory=lambda: list(NETWORK_KINDS))
    compare_interventions: list = field(default_factory=lambda: list(INTERVENTION_KINDS))

    # personality sweep settings
    sweep_offset: float = 1.0

    def validate(self) -> None:
        problems = []
        if self.network_kind not in NETWORK_KINDS:
            problems.append(f"network.kind {self.network_kind!r} unknown")
        n = self.network_params.get("n")
        if not isinstance(n, int) or n < 2:
            problems.append(f"network.n must be an integer >= 2, got {n!r}")
        if self.cohort_size is not None and self.cohort_size != n:
            problems.append(f"cohort_size {self.cohort_size} != network n {n}")
        if self.days < 1:
            problems.append(f"days must be >= 1, got {self.days}")
        if not 0.0 < self.trigger_threshold <= 1.0:
            problems.append(
                f"intervention.trigger_threshold must be in (0, 1], got {self.trigger_threshold}"
            )
        if not 0.0 < self.block_fraction < 1.0:
            problems.append(
                f"intervention.block_fraction must be in (0, 1), got {self.block_fraction}"
            )
        if self.block_denominator not in ("all_agents", "candidates"):
            problems.append(
                f"intervention.block_denominator {self.block_denominator!r} unknown"
            )
        if self.intervention_kind not in INTERVENTION_KINDS:
            problems.append(f"intervention.kind {self.intervention_kind!r} unknown")
        if self.policy_kind not in POLICY_KINDS:
            problems.append(f"policy.kind {self.policy_kind!r} unknown")
        if self.replications < 1:
            problems.append(f"replications must be >= 1, got {self.replications}")
        if self.news_limit is not None and self.news_limit < 1:
            problems.append(f"news.limit must be >= 1, got {self.news_limit}")
        if self.body_char_budget < 1:
            problems.append(f"news.body_char_budget must be >= 1, got {self.body_char_budget}")
        for kind in self.compare_networks:
            if kind not in NETWORK_KINDS:
                problems.append(f"compare.networks entry {kind!r} unknown")
        for kind in self.compare_interventions:
            if kind not in INTERVENTION_KINDS:
                problems.append(f"compare.interventions entry {kind!r} unknown")
        if problems:
            raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))

    def resolved_cohort_size(self) -> int:
        return self.cohort_size if self.cohort_size is not None else self.network_params["n"]


def default_network_params(kind: str, n: int = 300) -> dict:
    if kind == "random":
        return {"n": n, "edge_prob": 12.07 / (n - 1)}
    if kind == "scale_free":
        return {"n": 288 if n == 300 else n, "attach_m": 6}
    if kind == "high_brokerage":
        return {"n": n, "community_size": 13, "rewire_p": 0.7}
    raise ValueError(f"unknown network kind {kind!r}")


def _config_from_mapping(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    network = raw.get("network", {})
    if "kind" in network:
        cfg.network_kind = network["kind"]
    params = {k: v for k, v in network.items() if k != "kind"}
    defaults = {}
    try:
        defaults = default_network_params(cfg.network_kind, params.get("n", 300))
    except ValueError:
        pass
    defaults.update(params)
    cfg.network_params = defaults

    cfg.cohort_size = raw.get("cohort_size", cfg.cohort_size)
    cfg.days = raw.get("days", cfg.days)
    cfg.master_seed = raw.get("master_seed", cfg.master_seed)
    cfg.replications = raw.get("replications", cfg.replications)

    intervention = raw.get("intervention", {})
    cfg.intervention_kind = intervention.get("kind", cfg.intervention_kind)
    cfg.trigger_threshold = intervention.get("trigger_threshold", cfg.trigger_threshold)
    cfg.block_fraction = intervention.get("block_fraction", cfg.block_fraction)
    cfg.block_denominator = intervention.get("block_denominator", cfg.block_denominator)

    policy = raw.get("policy", {})
    cfg.policy_kind = policy.get("kind", cfg.policy_kind)
    cfg.stub_params = dict(policy.get("stub", {}))
    cfg.llm_params = dict(policy.get("llm", {}))

    news = raw.get("news", {})
    cfg.news_path = news.get("path", cfg.news_path)
    cfg.news_limit = news.get("limit", cfg.news_limit)
    cfg.body_char_budget = news.get("body_char_budget", cfg.body_char_budget)

    cfg.effective_retry_budget = raw.get("effective_retry_budget", cfg.effective_retry_budget)

    compare = raw.get("compare", {})
    cfg.compare_networks = list(compare.get("networks", cfg.compare_networks))
    cfg.compare_interventions = list(compare.get("interventions", cfg.compare_interventions))

    sweep = raw.get("sweep", {})
    cfg.sweep_offset = sweep.get("offset", cfg.sweep_offset)
    return cfg


def load_config(path) -> ExperimentConfig:
    import yaml  # imported here so commands that read no config skip it

    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    cfg = _config_from_mapping(raw)
    cfg.validate()
    return cfg


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    return {
        "network": {"kind": cfg.network_kind, **cfg.network_params},
        "cohort_size": cfg.cohort_size,
        "days": cfg.days,
        "master_seed": cfg.master_seed,
        "replications": cfg.replications,
        "intervention": {
            "kind": cfg.intervention_kind,
            "trigger_threshold": cfg.trigger_threshold,
            "block_fraction": cfg.block_fraction,
            "block_denominator": cfg.block_denominator,
        },
        "policy": {"kind": cfg.policy_kind, "stub": cfg.stub_params, "llm": cfg.llm_params},
        "news": {
            "path": cfg.news_path,
            "limit": cfg.news_limit,
            "body_char_budget": cfg.body_char_budget,
        },
        "effective_retry_budget": cfg.effective_retry_budget,
        "compare": {
            "networks": cfg.compare_networks,
            "interventions": cfg.compare_interventions,
        },
        "sweep": {"offset": cfg.sweep_offset},
    }


def save_config(cfg: ExperimentConfig, path) -> None:
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_mapping(cfg), fh, sort_keys=True)


def config_snapshot(cfg: ExperimentConfig) -> dict:
    """Flat JSON-serializable snapshot embedded in run records."""
    return json.loads(json.dumps(asdict(cfg)))
