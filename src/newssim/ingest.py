"""News item and experiment configuration loading.

News files are JSON Lines: one object per line with keys
    news_id, title, body, veracity ("fake" | "real"), topic
Veracity is always explicit in the file, never inferred from content.

Experiment configs are YAML; a config that is JSON is read without PyYAML
(see _parse_config). Every unset field takes a documented default that
mirrors the standard protocol (7 simulated days, 10% intervention trigger,
20% block fraction, stub policy), and a key outside the schema is refused.
See config.example.yaml at the repo root for a fully annotated example.

This module holds the whole config schema. The type of every value is the
annotation of its field on ExperimentConfig, StubParams (`policy.stub`) or
LlmSettings (`policy.llm`), and the range or choices of every key is one
rule: CONFIG_KEYS for the top-level keys and _LLM_RANGES for `policy.llm`.
The network keys are the exception, since each kind takes its own:
NETWORK_PARAMS declares every key of every kind once, with its default for
n agents (whose type is the key's type) and its range, and the config
loader, ExperimentConfig.validate, the generators in netgen and
`newssim gen-network` all read it. _rule_problem words every refusal.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field
from functools import cache, partial

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


def _rule_problem(key: str, value, rule) -> str | None:
    """A problem line naming `key` if `value` breaks `rule`, else None.

    A rule is a tuple of the allowed choices, a (test of the value, the range
    in words) pair, or None for any value. A test sees only values of its
    key's type.
    """
    if rule is None:
        return None
    if not callable(rule[0]):
        return None if value in rule else f"{key} {value!r} unknown"
    test, words = rule
    return None if test(value) else f"{key} must be {words}, got {value!r}"


_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_NETWORK_N = (lambda n: not isinstance(n, bool) and isinstance(n, int) and n >= 2,
              "an integer >= 2")

#: kind -> {key: (its default for n agents, test of (value, n), the range in
#: words)} for every key a network of that kind takes, n first. A key's value
#: must have its default's type; the words may name n as {n}. n's own rule is
#: _NETWORK_N, checked before the others, so its test and words are None.
NETWORK_PARAMS = {
    "random": {"n": (lambda n: n, None, None),
               "edge_prob": (lambda n: 12.07 / (n - 1), lambda p, n: 0 < p < 1, "in (0, 1)")},
    "scale_free": {"n": (lambda n: 288 if n == 300 else n, None, None),
                   "attach_m": (lambda n: 6, lambda m, n: 1 <= m <= n - 2,
                                "in [1, n - 2] for n = {n}")},
    "high_brokerage": {"n": (lambda n: n, None, None),
                       "community_size": (lambda n: 13, lambda c, n: 3 <= c <= n,
                                          "in [3, n] for n = {n}"),
                       "rewire_p": (lambda n: 0.7, lambda r, n: 0 <= r <= 1, "in [0, 1]")},
}


def network_param_problems(kind: str, params: dict) -> list[str]:
    """A problem line, naming its dotted key, for each value of `params` of the
    wrong type or out of range.

    `kind` is one of NETWORK_KINDS. The generators in netgen check their
    arguments here too, so a config and a generator accept the same values.
    """
    n = params.get("n")
    # in the config loader's words when n is not an integer
    if problem := (type_problem("network.n", n, int)
                   or _rule_problem("network.n", n, _NETWORK_N)):
        return [problem]
    problems = []
    for key, (default, test, words) in NETWORK_PARAMS[kind].items():
        value = params.get(key)
        if problem := (type_problem(f"network.{key}", value, type(default(n)))
                       or _rule_problem(f"network.{key}", value,
                                        test and (partial(test, n=n), words.format(n=n)))):
            problems.append(problem)
    return problems


def default_network_params(kind: str, n: int = 300) -> dict:
    """The network keys `kind`, one of NETWORK_KINDS, takes, n first, with their
    defaults for `n` agents."""
    if problem := _rule_problem("network.n", n, _NETWORK_N):
        raise ValueError(problem)
    return {key: default(n) for key, (default, _, _) in NETWORK_PARAMS[kind].items()}


@cache
def _field_types(cls) -> dict:
    """Each field of dataclass `cls` and its type; the string annotations are
    evaluated once per class, not on every cell's from_dict."""
    return typing.get_type_hints(cls)


def _from_section(cls, section: str, d: dict, rules: dict):
    """cls(**d); a ConfigError names, by its config path, each key of d that
    cls lacks, each value of the wrong type, and each value that breaks its
    rule in `rules`."""
    if problem := type_problem(section, d, dict):
        raise ConfigError([problem])
    types = _field_types(cls)
    problems = []
    for key, value in sorted(d.items(), key=lambda kv: str(kv[0])):
        if key not in types:
            problems.append(f"unknown key {section}.{key}")
        elif problem := (type_problem(f"{section}.{key}", value, types[key])
                         or _rule_problem(f"{section}.{key}", value, rules.get(key))):
            problems.append(problem)
    if problems:
        raise ConfigError(problems)
    return cls(**d)


@dataclass(frozen=True)
class StubParams:
    """Coefficients of the offline logistic decision model (`policy.stub`)."""

    intercept: float = -0.25
    weight_e: float = 0.8
    weight_o: float = 0.8
    accuracy_penalty: float = -2.0
    comment_shift: float = 0.0

    @classmethod
    def from_dict(cls, d: dict) -> "StubParams":
        return _from_section(cls, "policy.stub", d, {})


#: key -> rule for LlmSettings.from_dict
_LLM_RANGES = {
    "temperature": _AT_LEAST_0,
    "max_retries": _AT_LEAST_0,
    "reask_limit": _AT_LEAST_0,
    "concurrency": _AT_LEAST_1,
    "timeout": (lambda t: t > 0, "> 0"),
}


@dataclass
class LlmSettings:
    """Endpoint, model and request settings of the LLM policy (`policy.llm`)."""

    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-3.5-turbo-1106"
    temperature: float = 0.0
    max_retries: int = 3
    reask_limit: int = 2
    concurrency: int = 4
    cache_path: str | None = None
    api_key_env: str = "NEWSSIM_API_KEY"
    timeout: float = 60.0

    @classmethod
    def from_dict(cls, d: dict) -> "LlmSettings":
        return _from_section(cls, "policy.llm", d, _LLM_RANGES)


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
        """Raise one ConfigError listing `problems` and every value that is
        not of its field's type or breaks its key's rule in CONFIG_KEYS."""
        problems = list(problems)
        if self.network_kind in NETWORK_KINDS:  # else network.kind is the problem
            problems.extend(network_param_problems(self.network_kind, self.network_params))
        types = _field_types(ExperimentConfig)
        for key, (name, rule) in CONFIG_KEYS.items():
            value = getattr(self, name)
            if problem := type_problem(key, value, types[name]):
                problems.append(problem)
            elif isinstance(rule, type):  # a section, checked by its class
                try:
                    rule.from_dict(value)
                except ConfigError as exc:
                    problems.extend(exc.problems)
            elif types[name] is list:  # a compare axis: distinct entries of the choices
                problems.extend(f"{key} entry {v!r} unknown" for v in value if v not in rule)
                if not value:
                    problems.append(f"{key} must not be empty")
                elif any(v in value[:i] for i, v in enumerate(value)):
                    problems.append(f"{key} must not repeat an entry, got {value!r}")
            elif problem := _rule_problem(key, value, rule):
                problems.append(problem)
        if problems:
            raise ConfigError(problems)


#: Every config key, dotted: the ExperimentConfig field it sets, whose
#: annotation is the type its value must have, and its rule (see
#: _rule_problem). `policy.stub` and `policy.llm` are sections, checked key
#: by key by the class in place of their rule. The other `network.` keys fill
#: network_params: a kind takes exactly its keys in NETWORK_PARAMS, typed like
#: their defaults and ranged by their tests there.
CONFIG_KEYS = {
    "network.kind": ("network_kind", NETWORK_KINDS),
    "days": ("days", _AT_LEAST_1),
    "master_seed": ("master_seed", None),
    "replications": ("replications", _AT_LEAST_1),
    "intervention.kind": ("intervention_kind", INTERVENTION_KINDS),
    "intervention.trigger_threshold": ("trigger_threshold", (lambda t: 0 < t <= 1, "in (0, 1]")),
    "intervention.block_fraction": ("block_fraction", (lambda f: 0 < f < 1, "in (0, 1)")),
    "intervention.block_denominator": ("block_denominator", ("all_agents", "candidates")),
    "policy.kind": ("policy_kind", POLICY_KINDS),
    "policy.stub": ("stub_params", StubParams),
    "policy.llm": ("llm_params", LlmSettings),
    "news.path": ("news_path", None),
    "news.limit": ("news_limit", (lambda v: v is None or v >= 1, ">= 1")),
    "news.body_char_budget": ("body_char_budget", _AT_LEAST_1),
    "effective_retry_budget": ("effective_retry_budget", _AT_LEAST_0),
    "compare.networks": ("compare_networks", NETWORK_KINDS),
    "compare.interventions": ("compare_interventions", INTERVENTION_KINDS),
    "sweep.offset": ("sweep_offset", _AT_LEAST_0),
}
_SECTIONS = {key.partition(".")[0] for key in CONFIG_KEYS if "." in key}


def _config_from_mapping(raw: dict) -> tuple[ExperimentConfig, list[str]]:
    """The config `raw` describes, and a problem for each key outside the schema
    and each value of the wrong type; such a value is left at its default."""
    cfg = ExperimentConfig()
    types = _field_types(ExperimentConfig)
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
            field_name = CONFIG_KEYS[path][0]
            if problem := type_problem(path, value, types[field_name]):
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
        n_problem = _rule_problem("network.n", n, _NETWORK_N)
        defaults = default_network_params(kind, 300 if n_problem else n)
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
