"""Decision policies: the share/ignore boundary for every agent.

Two interchangeable policies implement `decide(request, persona)` for one
agent and `decide_many(batch, personas)` for one day's deciders, across
every run of a lockstep group:

* StubPolicy: an offline logistic model over the agent's standardized
  extraversion and openness scores, decided for a whole batch in numpy.
  Every (agent, news) pair draws from a counter-based stream keyed by its
  run's decision seed, so outcomes are reproducible and independent of the
  order, the batches, or the runs with which decisions are requested.
* LlmPolicy: renders a prompt per agent from an editable text template,
  calls an OpenAI-compatible chat-completion endpoint, and parses a
  line-oriented reply (DECISION / COMMENT / REASON). Raw responses are
  stored in an append-only cache keyed by (model, attempt, prompt), whose
  file names the endpoint and temperature it was recorded under. Cache
  hits are decided on the calling thread, and replaying against a complete
  cache performs no network calls, starts no thread and does not import
  `concurrent.futures`. A prompt the cache lacks is asked by one task of a
  pool of `concurrency` threads, shared by every caller that misses on that
  prompt.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import threading
import time
import typing
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from string import Template

import numpy as np

from . import persona as persona_mod
from .ingest import ConfigError, NewsItem, truncate_body, type_problem
from .seeding import derive_rng, derive_seed  # noqa: F401 - perfbench traces policy.derive_rng

if typing.TYPE_CHECKING:  # imported where the first ask starts the pool
    from concurrent.futures import Future, ThreadPoolExecutor

TEMPLATE_IDS = ("none", "commenting", "accuracy")

#: Sentence substituted into the accuracy template once the refutation fires.
REFUTATION_SENTENCE = (
    "Official fact-checkers have reviewed this story and announced that it is false."
)

MAX_PEER_COMMENTS = 3

_STUB_COMMENTS = (
    "Can this really be true? Sharing so we can discuss.",
    "Everyone should see this.",
    "Not sure what to make of this, thoughts?",
    "This is worth a read.",
)


class PolicyError(RuntimeError):
    """Unrecoverable policy failure (e.g. network failure after retries)."""


class _Request(typing.NamedTuple):
    news: NewsItem
    day: int
    template_id: str = "none"
    peer_comments: tuple[str, ...] | None = None


class DecisionRequest(_Request):
    """One agent's decision on `news` on `day`. The template is its whole
    context: "accuracy" carries the accuracy notice, and only "commenting"
    the `peer_comments` delivered to the agent so far, oldest first. A
    ValueError refuses any other template, or peer comments outside
    "commenting"."""

    __slots__ = ()

    def __new__(cls, news: NewsItem, day: int, template_id: str = "none",
                peer_comments: tuple[str, ...] | None = None):
        if template_id not in TEMPLATE_IDS:
            raise ValueError(f"unknown template id {template_id!r}")
        if peer_comments is not None and template_id != "commenting":
            raise ValueError("peer_comments are only valid under the commenting template")
        return super().__new__(cls, news, day, template_id, peer_comments)


class DecisionBatch(typing.NamedTuple):
    """One day's deciders, over one or more runs that share a cohort.

    Decider i is agent `agents[i]` of run `runs[i]`, in (run, agent) order
    as the engine builds them. Run r decides on `news[r]` under template
    `template_id[r]`, which is "accuracy" exactly when the run sees the
    accuracy notice, and draws with decision seed `seed[r]` (None: the
    policy's own). A policy's decision for one decider must not depend on
    the others. Under the commenting template, `peer_comments(run, agent)`
    returns the comments delivered to that agent so far, oldest first.
    """

    day: int
    agents: np.ndarray
    runs: np.ndarray
    news: tuple[NewsItem, ...]
    template_id: tuple[str, ...]
    seed: tuple[int | None, ...]
    peer_comments: Callable[[int, int], tuple[str, ...]] | None = None

    def deciders(self):
        """(run, agent) of each decider, in order."""
        return zip(self.runs.tolist(), self.agents.tolist())

    def request(self, agent: int, run: int = 0) -> DecisionRequest:
        template_id = self.template_id[run]
        comments = self.peer_comments(run, agent) if template_id == "commenting" else None
        return DecisionRequest(news=self.news[run], day=self.day, template_id=template_id,
                               peer_comments=comments)


class DecisionOutcome(typing.NamedTuple):
    share: bool
    comment: str | None
    rationale: str | None
    raw_response: str
    source: str  # "stub" | "llm_live" | "llm_cache"
    parse_failure: bool = False
    # cache key of the transcript that produced this outcome; stable across
    # live and cache-replayed executions (None for the stub)
    transcript_key: str | None = None


class Decisions(typing.NamedTuple):
    """Outcomes of one DecisionBatch as columns, in the batch's agent order.

    `transcript` holds the cache key of each LLM decision's transcript
    (None for the stub); a rationale, when the reply gave one, is parsed
    back out of that transcript rather than carried here.
    """

    share: np.ndarray  # bool
    comment: list[str | None]
    transcript: list[str | None]
    parse_failure: list[bool]

    @classmethod
    def from_outcomes(cls, outcomes: list[DecisionOutcome]) -> "Decisions":
        return cls(
            share=np.array([bool(o.share) for o in outcomes], dtype=bool),
            comment=[o.comment for o in outcomes],
            transcript=[o.transcript_key for o in outcomes],
            parse_failure=[o.parse_failure for o in outcomes],
        )


def _located(exc: PolicyError, day: int, agent: int) -> PolicyError:
    return PolicyError(f"day {day}, agent {agent}: {exc}")


def decide_each(policy, batch: DecisionBatch, personas) -> Decisions:
    """Decide a batch one agent at a time through `policy.decide`, in order.

    A policy that decides one agent at a time sets `decide_many = decide_each`.
    A PolicyError is re-raised naming the day and agent.
    """
    outcomes = []
    for run, agent in batch.deciders():
        try:
            outcomes.append(policy.decide(batch.request(agent, run), personas[agent]))
        except PolicyError as exc:
            raise _located(exc, batch.day, agent) from exc
    return Decisions.from_outcomes(outcomes)


@functools.cache
def _field_types(cls) -> dict:
    """Each field of dataclass `cls` and its type; the string annotations are
    evaluated once per class, not on every cell's from_dict."""
    return typing.get_type_hints(cls)


def _from_section(cls, section: str, d: dict, ranges: dict):
    """cls(**d); a ConfigError names, by its config path, each key of d that
    cls lacks, each value of the wrong type, and each value out of `ranges`,
    which maps a key to (test of its value, the range in words)."""
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be a mapping, got {d!r}")
    types = _field_types(cls)
    problems = []
    for key, value in sorted(d.items(), key=lambda kv: str(kv[0])):
        if key not in types:
            problems.append(f"unknown key {section}.{key}")
        elif problem := type_problem(f"{section}.{key}", value, types[key]):
            problems.append(problem)
        elif key in ranges and not ranges[key][0](value):
            problems.append(f"{section}.{key} must be {ranges[key][1]}, got {value!r}")
    if problems:
        raise ConfigError(problems)
    return cls(**d)


@dataclass(frozen=True)
class StubParams:
    """Coefficients of the offline logistic decision model."""

    intercept: float = -0.25
    weight_e: float = 0.8
    weight_o: float = 0.8
    accuracy_penalty: float = -2.0
    comment_shift: float = 0.0

    @classmethod
    def from_dict(cls, d: dict) -> "StubParams":
        return _from_section(cls, "policy.stub", d, {})


def share_probability(
    z_extraversion,
    z_openness,
    params: StubParams,
    accuracy_notice: bool = False,
    commenting: bool = False,
):
    """Closed-form logistic share probability for the stub, elementwise over
    arrays; `accuracy_notice` and `commenting` may be arrays too."""
    logit = (
        params.intercept
        + params.weight_e * np.asarray(z_extraversion, dtype=float)
        + params.weight_o * np.asarray(z_openness, dtype=float)
    )
    logit = np.where(accuracy_notice, logit + params.accuracy_penalty, logit)
    logit = np.where(commenting, logit + params.comment_shift, logit)
    return 1.0 / (1.0 + np.exp(-logit))


def _zscores(scores: np.ndarray, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Standardized extraversion and openness of `rows` (default: every row)
    of an agents x traits matrix; only those two columns are gathered."""
    stats = persona_mod.DEFAULT_TRAIT_STATS
    means, sds = np.asarray(stats.means), np.asarray(stats.sds)
    return tuple((scores[rows, c] - means[c]) / sds[c]
                 for c in (persona_mod.TRAITS.index("extraversion"),
                           persona_mod.TRAITS.index("openness")))


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): state increment and finalizer
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


@functools.lru_cache(maxsize=4096)  # a run asks for its key on every day it steps
def _stub_key(rng_seed: int, news_id: str) -> int:
    return derive_seed(rng_seed, "stub", news_id) & 0xFFFF_FFFF_FFFF_FFFF


def _splitmix(agents, keys) -> np.ndarray:
    """Output agent + 1 of the SplitMix64 stream seeded with each agent's key."""
    z = (np.asarray(agents, dtype=np.uint64) + np.uint64(1)) * _GOLDEN_GAMMA + keys
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def stub_bits(rng_seed: int, news_id: str, agents) -> np.ndarray:
    """64 random bits per agent for the stub's decision on `news_id`.

    Counter-based: the bits for agent a are output a + 1 of a SplitMix64
    stream seeded with derive_seed(rng_seed, "stub", news_id) truncated to
    64 bits. They depend only on (rng_seed, news_id, a), never on which other
    agents, or runs, are drawn with a or in what order. The top 53 bits are
    the share uniform; the low 11 bits pick the comment.
    """
    return _splitmix(agents, np.uint64(_stub_key(rng_seed, news_id)))


def _decide_stub_columns(z_e, z_o, bits, commenting, accuracy_notice,
                         params: StubParams) -> Decisions:
    """Stub decisions from each decider's z-scores and bits; `commenting` and
    `accuracy_notice` are per decider, or one bool for all."""
    prob = share_probability(z_e, z_o, params, accuracy_notice, commenting)
    share = (bits >> np.uint64(11)) * 2.0**-53 < prob
    comment: list[str | None] = [None] * len(share)
    picks = (bits & np.uint64(0x7FF)) % np.uint64(len(_STUB_COMMENTS))
    for i in np.flatnonzero(share & commenting).tolist():
        comment[i] = _STUB_COMMENTS[int(picks[i])]
    return Decisions(share=share, comment=comment, transcript=[None] * len(share),
                     parse_failure=[False] * len(share))


def decide_stub(
    req: DecisionRequest,
    persona: persona_mod.AgentPersona,
    params: StubParams,
    rng_seed: int,
) -> DecisionOutcome:
    """One agent's stub decision; equal to its entry in any batch holding it."""
    z_e, z_o = _zscores(np.array([persona.big_five_scores]))
    d = _decide_stub_columns(z_e, z_o, stub_bits(rng_seed, req.news.news_id, [persona.agent_id]),
                             req.template_id == "commenting", req.template_id == "accuracy",
                             params)
    share = bool(d.share[0])
    return DecisionOutcome(
        share=share,
        comment=d.comment[0],
        rationale=None,
        raw_response=f"DECISION: {'SHARE' if share else 'IGNORE'}",
        source="stub",
    )


class StubPolicy:
    """Deterministic offline policy; safe to call from any thread.

    `rng_seed` is the decision seed of `decide` and of every batch run whose
    own seed is None.
    """

    def __init__(self, params: StubParams | None = None, rng_seed: int = 0):
        self.params = params or StubParams()
        self.rng_seed = rng_seed

    def decide(self, req: DecisionRequest, persona: persona_mod.AgentPersona) -> DecisionOutcome:
        return decide_stub(req, persona, self.params, self.rng_seed)

    def decide_many(self, batch: DecisionBatch, personas: persona_mod.Cohort) -> Decisions:
        """Decide the whole batch in numpy, each decider as `decide` would
        with its run's seed: every run's stream key is taken per row."""
        runs = batch.runs
        keys = np.array([_stub_key(self.rng_seed if seed is None else seed, news.news_id)
                         for seed, news in zip(batch.seed, batch.news)], dtype=np.uint64)
        template = np.array(batch.template_id)
        z_e, z_o = _zscores(personas.scores, batch.agents)
        return _decide_stub_columns(z_e, z_o, _splitmix(batch.agents, keys[runs]),
                                    (template == "commenting")[runs],
                                    (template == "accuracy")[runs], self.params)


# ---------------------------------------------------------------------------
# Prompt rendering
# ---------------------------------------------------------------------------

@functools.cache
def _load_template(template_id: str) -> str:
    if template_id not in TEMPLATE_IDS:
        raise ValueError(f"unknown template id {template_id!r}")
    return resources.files("newssim.templates").joinpath(f"{template_id}.txt").read_text("utf-8")


@functools.cache
def _template_parts(text: str) -> tuple[str, ...]:
    """Template `text` parsed once, as string.Template parses it: literal
    text at even positions and placeholder names at odd ones."""
    parts, literal, end = [], "", 0
    for m in Template.pattern.finditer(text):
        literal += text[end:m.start()]
        end = m.end()
        if m["escaped"] is not None:
            literal += Template.delimiter
        elif m["invalid"] is not None:
            raise ValueError(f"invalid placeholder at offset {m.start()} of a template")
        else:
            parts += [literal, m["named"] or m["braced"]]
            literal = ""
    return (*parts, literal + text[end:])


def template_hashes() -> dict[str, str]:
    return {
        tid: hashlib.sha256(_load_template(tid).encode("utf-8")).hexdigest()[:16]
        for tid in TEMPLATE_IDS
    }


def _prompt_inputs(news: NewsItem, template_id: str, peer_comments: tuple[str, ...] | None
                   ) -> tuple[NewsItem, str, tuple[str, ...] | None]:
    """All that render_prompt reads of a request's `news`, `template_id` and
    `peer_comments`: the news item, the template id and, under the
    commenting template, the last MAX_PEER_COMMENTS peer comments (else
    None). Requests with equal inputs render equal prompts."""
    comments = None
    if template_id == "commenting":
        comments = tuple(peer_comments or ())[-MAX_PEER_COMMENTS:]
    return news, template_id, comments


def render_prompt(
    req: DecisionRequest,
    persona_text: str,
    body_char_budget: int = 1200,
) -> str:
    """Deterministic template instantiation for a decision request."""
    news, template_id, comments = _prompt_inputs(req.news, req.template_id, req.peer_comments)
    mapping = {
        "persona": persona_text,
        "news_title": news.title,
        "news_body": truncate_body(news.body, body_char_budget),
    }
    if template_id == "commenting":
        if comments:
            mapping["peer_comments"] = "\n".join(f"- {c}" for c in comments)
        else:
            mapping["peer_comments"] = "(no comments yet)"
    if template_id == "accuracy":
        mapping["refutation"] = REFUTATION_SENTENCE
    parts = list(_template_parts(_load_template(template_id)))
    parts[1::2] = [mapping[name] for name in parts[1::2]]
    return "".join(parts)


# ---------------------------------------------------------------------------
# LLM response parsing
# ---------------------------------------------------------------------------

_DECISION_RE = re.compile(r"decision\s*[:\-]\s*\"?\**\s*(share|ignore)", re.IGNORECASE)
_COMMENT_RE = re.compile(r"^\s*\**comment\**\s*[:\-]\s*(.*)$", re.IGNORECASE | re.MULTILINE)
_REASON_RE = re.compile(r"^\s*\**reason\**\s*[:\-]\s*(.*)$", re.IGNORECASE | re.MULTILINE)


def _decision(text: str) -> re.Match | None:
    """The first DECISION token of a reply; None if it has none, or is not text."""
    return _DECISION_RE.search(text) if isinstance(text, str) else None


def parse_response(text: str, want_comment: bool) -> tuple[bool | None, str | None, str | None]:
    """(share, comment, rationale); share is None when no DECISION token is found."""
    m = _decision(text)
    if m is None:
        return None, None, None
    share = m.group(1).lower() == "share"
    comment = None
    if share and want_comment:
        cm = _COMMENT_RE.search(text)
        if cm:
            comment = cm.group(1).strip() or None
    rm = _REASON_RE.search(text)
    rationale = rm.group(1).strip() if rm else None
    return share, comment, rationale


def _outcome(transcript: tuple[str, str, str], want_comment: bool) -> DecisionOutcome:
    """The outcome of a (reply, source, cache key)."""
    raw, source, key = transcript
    share, comment, rationale = parse_response(raw, want_comment)
    return DecisionOutcome(share=bool(share), comment=comment,
                           rationale="unparseable response" if share is None else rationale,
                           raw_response=raw, source=source, parse_failure=share is None,
                           transcript_key=key)


def _settled(decision: DecisionOutcome | Future, want_comment: bool) -> DecisionOutcome:
    """`decision` itself, or the outcome of the transcript its future returns."""
    if isinstance(decision, DecisionOutcome):
        return decision
    return _outcome(decision.result(), want_comment)


# ---------------------------------------------------------------------------
# LLM client with replayable cache
# ---------------------------------------------------------------------------

#: key -> (test of its value, the range in words) for LlmSettings.from_dict
_LLM_RANGES = {
    "temperature": (lambda t: t >= 0, ">= 0"),
    "max_retries": (lambda r: r >= 0, ">= 0"),
    "reask_limit": (lambda r: r >= 0, ">= 0"),
    "concurrency": (lambda c: c >= 1, ">= 1"),
    "timeout": (lambda t: t > 0, "> 0"),
}


@dataclass
class LlmSettings:
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


def cache_key(model: str, prompt: str, attempt: int) -> str:
    h = hashlib.sha256()
    h.update(model.encode("utf-8"))
    h.update(b"\x1f")
    h.update(str(attempt).encode("utf-8"))
    h.update(b"\x1f")
    h.update(prompt.encode("utf-8"))
    return h.hexdigest()


class DecisionCache:
    """Append-only JSONL store of raw LLM transcripts keyed by cache_key.

    A cache file's first line names the settings its transcripts were
    recorded under, `{"settings": {"endpoint": ..., "temperature": ...}}`;
    bind() refuses other settings, and a file of transcripts without that
    line (written by newssim 0.4.0 or earlier). The line is written before
    the first transcript of a new file.

    A last line that has no newline and does not parse was torn by an
    interrupted append: loading drops it and truncates the file to the last
    complete line. Any other line that is not JSON, is not an object with a
    string `key` and `response`, or is a settings line after the first line
    raises a ValueError naming path:line.

    The first put opens one append handle, and each put flushes its line;
    close() (or leaving a `with` block) closes the handle, and a later put
    opens it again.
    """

    def __init__(self, path=None):
        self.path = path
        self.settings: dict | None = None
        self._records: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._fh = None
        self._header_due = False
        if path is None:
            return
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        *lines, tail = data.split(b"\n")
        for number, line in enumerate(lines, 1):
            if line.strip():
                self._load(line, number)
        if tail.strip():
            try:
                json.loads(tail)
            except ValueError:
                with open(path, "r+b") as fh:
                    fh.truncate(len(data) - len(tail))
                return
            self._load(tail, len(lines) + 1)
            with open(path, "ab") as fh:  # so the next append starts a line of its own
                fh.write(b"\n")

    def _load(self, line: bytes, number: int) -> None:
        """Keep line `number`: the settings if no line came before it, else a
        transcript. A ValueError naming path:number refuses any other line."""
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{self.path}:{number}: {exc}") from None
        if not isinstance(rec, dict):
            rec = {}  # refused below
        if "settings" in rec and self.settings is None and not self._records:
            self.settings = rec["settings"]
        elif isinstance(rec.get("key"), str) and isinstance(rec.get("response"), str):
            self._records[rec["key"]] = rec
        else:
            raise ValueError(f"{self.path}:{number}: neither the settings (only on the first "
                             "line) nor a transcript with a string `key` and `response`")

    def bind(self, settings: LlmSettings) -> None:
        """Check that this cache's transcripts were recorded under the
        endpoint and temperature of `settings`, which cache_key leaves out,
        or make it record them; a ValueError names a mismatch."""
        wanted = {"endpoint": settings.endpoint, "temperature": settings.temperature}
        with self._lock:
            if self.settings is None and self._records:
                raise ValueError(
                    f"LLM cache {self.path} does not name the settings it was recorded "
                    "under (newssim 0.4.0 or earlier); move it aside to record a new one")
            if self.settings is None:
                self.settings, self._header_due = wanted, self.path is not None
            elif self.settings != wanted:
                raise ValueError(
                    f"LLM cache {self.path} was recorded under {self.settings}, not "
                    f"{wanted}; point policy.llm.cache_path at another file")

    def __len__(self):
        return len(self._records)

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    def put(self, key: str, model: str, prompt: str, attempt: int, response: str) -> dict:
        rec = {
            "key": key,
            "model": model,
            "attempt": attempt,
            "prompt_sha": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "response": response,
        }
        line = (json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self._records[key] = rec
            if self.path is not None:
                if self._fh is None:
                    self._fh = open(self.path, "ab")
                if self._header_due:
                    self._fh.write((json.dumps({"settings": self.settings}, sort_keys=True)
                                    + "\n").encode("utf-8"))
                    self._header_due = False
                self._fh.write(line)
                self._fh.flush()
        return rec

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def content_hash(self) -> str | None:
        """Hash of the distinct records in the file, whatever order they were appended in."""
        if self.path is None:
            return None
        try:
            with open(self.path, "rb") as fh:
                lines = {line.strip() for line in fh} - {b""}
        except FileNotFoundError:
            return None
        return hashlib.sha256(b"\n".join(sorted(lines))).hexdigest()[:16]


def _default_transport(url, headers, payload, timeout):
    """POST `payload` as JSON on a fresh connection and return the parsed reply.

    A non-2xx reply raises urllib.error.HTTPError, after closing its body.
    """
    import urllib.error
    import urllib.request

    req = urllib.request.Request(url, data=json.dumps(payload).encode("utf-8"),
                                 headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        exc.close()
        raise


class LlmPolicy:
    """Chat-completion decision policy with caching and bounded re-asks.

    `decide` and `decide_many` render each prompt on the calling thread and
    answer there every prompt whose attempts the cache already holds. A
    prompt the cache lacks goes to the policy's one pool of
    `settings.concurrency` threads, started at the first such prompt, so all
    the batches and plan cells that share the policy share that bound on
    requests in flight. Each distinct prompt has at most one pool task,
    which asks the endpoint from the first attempt the cache lacks onward:
    every caller that misses on that prompt waits for the same task, and
    gets its transcript, or its PolicyError if the ask failed. A finished
    ask is kept as its transcript alone, until close().

    The outcome of every decision made from a transcript at hand (a cache
    hit or a finished ask) is kept until close(), keyed by the decider's
    inputs: its persona text and `_prompt_inputs`. A later decider with the
    same inputs gets that outcome without rendering, hashing or parsing;
    `decide_many` reads those inputs from the batch's columns, and builds a
    DecisionRequest only for a decider whose outcome is not kept.
    Deciders that wait on an ask in flight keep nothing; the next decider
    with their inputs finds the transcript in the cache.

    `transport` takes (url, headers, payload, timeout) and returns the parsed
    JSON body; tests inject fakes here. `api_key` falls back to the
    environment variable named in settings. `cache` belongs to the caller,
    who closes it once the policy's decisions are done; the policy binds it
    to its settings (see DecisionCache.bind). close() shuts the pool down
    and forgets its tasks.
    """

    def __init__(self, settings: LlmSettings, cache: DecisionCache,
                 transport=None, api_key: str | None = None,
                 body_char_budget: int = 1200):
        cache.bind(settings)
        self.settings = settings
        self.cache = cache
        self.transport = transport or _default_transport
        self.api_key = api_key
        self.body_char_budget = body_char_budget
        self.network_calls = 0
        self._lock = threading.Lock()  # guards network_calls, _asks and _pool
        self._asks: dict[str, Future | tuple] = {}  # attempt-0 key: its task, then transcript
        self._outcomes: dict[tuple, DecisionOutcome] = {}  # decider inputs: their outcome
        self._pool: ThreadPoolExecutor | None = None

    def close(self) -> None:
        """Drop the prompts a failed batch left queued, wait for those in
        flight, then stop the pool's threads and forget the kept outcomes;
        a later miss asks anew."""
        with self._lock:
            pool, self._pool, self._asks, self._outcomes = self._pool, None, {}, {}
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    def _headers(self) -> dict:
        key = self.api_key or os.environ.get(self.settings.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _request(self, prompt: str) -> str:
        """The reply text to one prompt from the endpoint, retried with backoff."""
        payload = {
            "model": self.settings.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.settings.temperature,
        }
        last_exc = None
        for retry in range(self.settings.max_retries + 1):
            try:
                with self._lock:
                    self.network_calls += 1
                body = self.transport(self.settings.endpoint, self._headers(), payload,
                                      self.settings.timeout)
                return body["choices"][0]["message"]["content"]
            except Exception as exc:  # noqa: BLE001 - any transport failure retries
                last_exc = exc
                if retry < self.settings.max_retries:
                    time.sleep(min(2.0**retry * 0.1, 2.0))
        raise PolicyError(
            f"chat completion failed after {self.settings.max_retries + 1} tries: {last_exc}"
        )

    def _transcript(self, prompt: str) -> tuple[str, str, str] | Future:
        """The (reply, source, cache key) that decides `prompt`, from the cache or
        a finished ask, or else the future of the one pool task asking for it."""
        last = self.settings.reask_limit
        for attempt in range(last + 1):
            key = cache_key(self.settings.model, prompt, attempt)
            cached = self.cache.get(key)
            if cached is None:
                ask_id = key if attempt == 0 else cache_key(self.settings.model, prompt, 0)
                with self._lock:
                    if ask_id not in self._asks:
                        if self._pool is None:  # a replay from a complete cache starts none
                            from concurrent.futures import ThreadPoolExecutor

                            self._pool = ThreadPoolExecutor(
                                self.settings.concurrency, thread_name_prefix="newssim-llm")
                        self._asks[ask_id] = self._pool.submit(self._ask, prompt, attempt, ask_id)
                    return self._asks[ask_id]
            if attempt == last or _decision(cached["response"]):
                return cached["response"], "llm_cache", key

    def _ask(self, prompt: str, start: int, ask_id: str) -> tuple[str, str, str]:
        """Ask the endpoint `prompt` from attempt `start` on, caching each
        reply, until one parses or the re-asks run out."""
        for attempt in range(start, self.settings.reask_limit + 1):
            key = cache_key(self.settings.model, prompt, attempt)
            raw = self._request(prompt)
            self.cache.put(key, self.settings.model, prompt, attempt, raw)
            if _decision(raw):
                break
        with self._lock:
            transcript = self._asks[ask_id] = raw, "llm_live", key
        return transcript

    def _outcome_or_ask(self, persona_text: str, inputs: tuple, day: int
                        ) -> DecisionOutcome | Future:
        """The outcome kept for a decider's persona text and `_prompt_inputs`,
        or one decided now from a transcript at hand (and kept), or else the
        future of the ask in flight for its prompt. Only a decider with no
        kept outcome has its request built and its prompt rendered."""
        key = (persona_text, *inputs)
        kept = self._outcomes.get(key)
        if kept is None:
            news, template_id, comments = inputs
            req = DecisionRequest(news, day, template_id, comments)
            transcript = self._transcript(render_prompt(req, persona_text, self.body_char_budget))
            if not isinstance(transcript, tuple):  # the future of an ask in flight
                return transcript
            kept = self._outcomes[key] = _outcome(transcript, template_id == "commenting")
        return kept

    def decide(self, req: DecisionRequest, persona: persona_mod.AgentPersona) -> DecisionOutcome:
        decision = self._outcome_or_ask(
            persona_mod.render_persona_text(persona),
            _prompt_inputs(req.news, req.template_id, req.peer_comments), req.day)
        return _settled(decision, req.template_id == "commenting")

    def decide_many(self, batch: DecisionBatch, personas: persona_mod.Cohort) -> Decisions:
        """Decide the batch as `decide` would each decider: kept outcomes and
        the cache's answers here, and every run's misses on the pool at once.
        A PolicyError is re-raised naming the day and agent."""
        asked = []
        for run, agent in batch.deciders():
            template_id = batch.template_id[run]
            commenting = template_id == "commenting"
            inputs = _prompt_inputs(batch.news[run], template_id,
                                    batch.peer_comments(run, agent) if commenting else None)
            asked.append((agent, commenting, self._outcome_or_ask(personas.persona_text(agent),
                                                                  inputs, batch.day)))
        outcomes = []
        for agent, want_comment, decision in asked:
            try:
                outcomes.append(_settled(decision, want_comment))
            except PolicyError as exc:
                raise _located(exc, batch.day, agent) from exc
        return Decisions.from_outcomes(outcomes)
