"""News item and experiment configuration loading.

News files are JSON Lines: one object per line with keys
    news_id, title, body, veracity ("fake" | "real"), topic
Veracity is always explicit in the file, never inferred from content.

Experiment configs are YAML; a config that is JSON is read without PyYAML
(see _parse_config). Every unset field takes a documented default that
mirrors the standard protocol (7 simulated days, 10% intervention trigger,
20% block fraction, stub policy), and a key outside the schema (CONFIG_KEYS)
is refused. See config.example.yaml at the repo root for a fully annotated
example.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field
from functools import partial

from . import NETWORK_KINDS, POLICY_KINDS

VERACITIES = ("fake", "real")
INTERVENTION_KINDS = ("none", "commenting", "accuracy", "blocking")


class NewsFormatError(ValueError):
    """A news file is missing or malformed."""


class ConfigError(ValueError):
    """One or more invalid experiment configuration values, one problem line each."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid config:\n  - " + "\n  - ".join(problems))

    def __reduce__(self):
        # unpickling calls the class with the pickled args: the problems, not the message
        return ConfigError, (self.problems,)


class NewsItem(typing.NamedTuple):
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
            if not isinstance(rec, dict):
                raise NewsFormatError(f"{path}:{lineno}: not a JSON object")
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


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "a mapping",
               list: "a list", type(None): "null"}


def type_problem(key: str, value, kind) -> str | None:
    """A problem line naming `key` if `value` is not a `kind`, else None.

    `kind` is a type or a union such as `int | None`. An int passes as a
    float; a bool passes as neither.
    """
    types = typing.get_args(kind) or (kind,)
    if isinstance(value, bool) or not isinstance(value, types + ((int,) if float in types else ())):
        return f"{key} must be {' or '.join(_TYPE_NAMES[t] for t in types)}, got {value!r}"
    return None


def _network_n_problem(n) -> str | None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        return f"network.n must be an integer >= 2, got {n!r}"
    return None


#: kind -> (key, test of (value, n), the range in words) for each of its keys but n
_NETWORK_RANGES = {
    "random": (("edge_prob", lambda p, n: 0 < p < 1, "in (0, 1)"),),
    "scale_free": (("attach_m", lambda m, n: 1 <= m <= n - 2, "in [1, n - 2] for n = {n}"),),
    "high_brokerage": (("community_size", lambda c, n: 3 <= c <= n, "in [3, n] for n = {n}"),
                       ("rewire_p", lambda r, n: 0 <= r <= 1, "in [0, 1]")),
}


def network_param_problems(kind: str, params: dict) -> list[str]:
    """A problem line, naming its dotted key, for each value of `params` out of range.

    `kind` is one of NETWORK_KINDS. The generators in netgen check their
    arguments here too, so a config and a generator accept the same values.
    """
    n = params.get("n")
    if problem := _network_n_problem(n):
        return [problem]
    problems = []
    for key, in_range, span in _NETWORK_RANGES[kind]:
        value = params.get(key)
        problem = type_problem(f"network.{key}", value, float)
        if problem is None and not in_range(value, n):
            problem = f"network.{key} must be {span.format(n=n)}, got {value!r}"
        if problem:
            problems.append(problem)
    return problems


def default_network_params(kind: str, n: int = 300) -> dict:
    """The network keys `kind` accepts, with their defaults for `n` agents.

    The type of each default is the type a config value for it must have.
    """
    if problem := _network_n_problem(n):
        raise ValueError(problem)
    if kind == "random":
        return {"n": n, "edge_prob": 12.07 / (n - 1)}
    if kind == "scale_free":
        return {"n": 288 if n == 300 else n, "attach_m": 6}
    if kind == "high_brokerage":
        return {"n": n, "community_size": 13, "rewire_p": 0.7}
    raise ValueError(f"unknown network kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment plan."""

    network_kind: str = "random"
    network_params: dict = field(default_factory=partial(default_network_params, "random"))
    days: int = 7  # simulated days T
    master_seed: int = 42
    replications: int = 20

    intervention_kind: str = "none"
    trigger_threshold: float = 0.10  # reached fraction that arms accuracy/blocking
    block_fraction: float = 0.20
    block_denominator: str = "all_agents"  # or "candidates"

    policy_kind: str = "stub"
    stub_params: dict = field(default_factory=dict)
    llm_params: dict = field(default_factory=dict)

    news_path: str = "data/sample_news.jsonl"
    news_limit: int | None = 5
    body_char_budget: int = 1200

    # re-run budget for runs whose source declined to share
    effective_retry_budget: int = 5

    # cross-product axes used by the compare command
    compare_networks: list = field(default_factory=lambda: list(NETWORK_KINDS))
    compare_interventions: list = field(default_factory=lambda: list(INTERVENTION_KINDS))

    # personality sweep settings
    sweep_offset: float = 1.0

    def validate(self, problems=()) -> None:
        """Raise one ConfigError listing `problems` and every bad value."""
        from . import policy  # policy imports this module

        problems = list(problems)
        if self.network_kind not in NETWORK_KINDS:
            problems.append(f"network.kind {self.network_kind!r} unknown")
        else:
            problems.extend(network_param_problems(self.network_kind, self.network_params))
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
        for params, cls in ((self.stub_params, policy.StubParams),
                            (self.llm_params, policy.LlmSettings)):
            try:
                cls.from_dict(params)
            except ConfigError as exc:
                problems.extend(exc.problems)
            except (TypeError, ValueError) as exc:
                problems.append(str(exc))
        if self.replications < 1:
            problems.append(f"replications must be >= 1, got {self.replications}")
        if self.news_limit is not None and self.news_limit < 1:
            problems.append(f"news.limit must be >= 1, got {self.news_limit}")
        if self.body_char_budget < 1:
            problems.append(f"news.body_char_budget must be >= 1, got {self.body_char_budget}")
        if self.effective_retry_budget < 0:
            problems.append(
                f"effective_retry_budget must be >= 0, got {self.effective_retry_budget}")
        if not self.sweep_offset >= 0:
            problems.append(f"sweep.offset must be >= 0, got {self.sweep_offset}")
        for key, kinds, known in (("compare.networks", self.compare_networks, NETWORK_KINDS),
                                  ("compare.interventions", self.compare_interventions,
                                   INTERVENTION_KINDS)):
            problems.extend(f"{key} entry {kind!r} unknown" for kind in kinds if kind not in known)
            if not kinds:
                problems.append(f"{key} must not be empty")
            elif any(kind in kinds[:i] for i, kind in enumerate(kinds)):
                problems.append(f"{key} must not repeat an entry, got {kinds!r}")
        if problems:
            raise ConfigError(problems)


#: Every config key, dotted: the ExperimentConfig field it sets, and the type
#: its value must have. The other `network.` keys fill network_params: a kind
#: takes exactly the keys default_network_params returns for it, typed like
#: their defaults. `policy.stub.*` and `policy.llm.*` are typed by the fields
#: of policy.StubParams and policy.LlmSettings.
CONFIG_KEYS = {
    "network.kind": ("network_kind", str),
    "days": ("days", int),
    "master_seed": ("master_seed", int),
    "replications": ("replications", int),
    "intervention.kind": ("intervention_kind", str),
    "intervention.trigger_threshold": ("trigger_threshold", float),
    "intervention.block_fraction": ("block_fraction", float),
    "intervention.block_denominator": ("block_denominator", str),
    "policy.kind": ("policy_kind", str),
    "policy.stub": ("stub_params", dict),
    "policy.llm": ("llm_params", dict),
    "news.path": ("news_path", str),
    "news.limit": ("news_limit", int | None),
    "news.body_char_budget": ("body_char_budget", int),
    "effective_retry_budget": ("effective_retry_budget", int),
    "compare.networks": ("compare_networks", list),
    "compare.interventions": ("compare_interventions", list),
    "sweep.offset": ("sweep_offset", float),
}
_SECTIONS = {key.partition(".")[0] for key in CONFIG_KEYS if "." in key}


def _config_from_mapping(raw: dict) -> tuple[ExperimentConfig, list[str]]:
    """The config `raw` describes, and a problem for each key outside the schema
    and each value of the wrong type; such a value is left at its default."""
    cfg = ExperimentConfig()
    problems: list[str] = []
    leaves = []
    for key, value in raw.items():
        if key in _SECTIONS and isinstance(value, dict):
            leaves.extend((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            leaves.append((str(key), value))
    network = {}
    for path, value in leaves:
        if path in CONFIG_KEYS:
            field_name, kind = CONFIG_KEYS[path]
            if problem := type_problem(path, value, kind):
                problems.append(problem)
            else:
                setattr(cfg, field_name, value)
        elif path in _SECTIONS:
            problems.append(f"{path} must be a mapping, got {value!r}")
        elif path.startswith("network."):
            network[path.removeprefix("network.")] = value
        else:
            problems.append(f"unknown key {path}")
    kind = dict(leaves).get("network.kind", cfg.network_kind)
    if kind in NETWORK_KINDS:
        n = network.get("n", 300)
        defaults = default_network_params(kind, 300 if _network_n_problem(n) else n)
        for key, value in list(network.items()):
            if key not in defaults:
                problems.append(
                    f"unknown key network.{key} (kind {kind} takes {', '.join(defaults)})")
            elif problem := type_problem(f"network.{key}", value, type(defaults[key])):
                problems.append(problem)
                del network[key]
        cfg.network_params = {**defaults, **network}
    return cfg, problems


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a YAML number")


def _parse_config(path) -> object:
    """The document in the file at `path`, read as JSON if it is JSON, else as YAML.

    PyYAML reads a JSON document as json does, but for two kinds of number.
    It reads an exponent float without a dot or an exponent sign (1e-05) as a
    string, where json reads a float. It reads NaN and Infinity as strings
    too; json would read floats, so a document holding one goes to PyYAML,
    as does every document that is not JSON.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except ValueError:
        pass
    import yaml  # imported here so JSON configs, and commands that read none, skip it

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError([f"{where}: not valid YAML: {problem}"]) from None


def load_config(path) -> ExperimentConfig:
    """Load a JSON or YAML config; one ConfigError names every unknown key and
    bad value, or where the file stops being YAML."""
    raw = _parse_config(path) or {}
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: config must be a mapping"])
    cfg, problems = _config_from_mapping(raw)
    cfg.validate(problems)
    return cfg


def config_snapshot(cfg: ExperimentConfig) -> dict:
    """Flat JSON-serializable snapshot of a config, as plan.json's `configs` keeps it."""
    return json.loads(json.dumps(asdict(cfg)))
