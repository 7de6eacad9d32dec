"""Decision policies: the share/ignore boundary for every agent.

Two interchangeable policies implement `decide(request, persona)` for one
agent and `decide_many(batch, personas)` for one day's deciders:

* StubPolicy: an offline logistic model over the agent's standardized
  extraversion and openness scores, decided for a whole batch in numpy.
  Every (agent, news) pair draws from a counter-based stream keyed by the
  decision seed, so outcomes are reproducible and independent of the order,
  or the batches, in which decisions are requested.
* LlmPolicy: renders a prompt from an editable text template, calls an
  OpenAI-compatible chat-completion endpoint, and parses a line-oriented
  reply (DECISION / COMMENT / REASON), one agent at a time. Raw responses
  are stored in an append-only cache keyed by (model, attempt, prompt);
  replaying against a complete cache performs no network calls.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from string import Template

import numpy as np

from . import persona as persona_mod
from .ingest import NewsItem, truncate_body
from .seeding import derive_rng, derive_seed  # noqa: F401 - perfbench traces policy.derive_rng

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


@dataclass(frozen=True)
class DecisionRequest:
    news: NewsItem
    day: int
    template_id: str = "none"
    peer_comments: tuple[str, ...] | None = None
    accuracy_notice: bool = False

    def __post_init__(self):
        if self.template_id not in TEMPLATE_IDS:
            raise ValueError(f"unknown template id {self.template_id!r}")
        if self.peer_comments is not None and self.template_id != "commenting":
            raise ValueError("peer_comments are only valid under the commenting template")
        if self.accuracy_notice and self.template_id != "accuracy":
            raise ValueError("accuracy_notice requires the accuracy template")


@dataclass(frozen=True)
class DecisionBatch:
    """One day's deciders; they all see the same news, template and notice.

    `agents` is an array of agent ids (ascending, as the engine builds it);
    a policy's decision for one agent must not depend on the others. Under
    the commenting template, `peer_comments(agent)` returns the comments
    delivered to that agent so far, oldest first.
    """

    news: NewsItem
    day: int
    agents: np.ndarray
    template_id: str = "none"
    accuracy_notice: bool = False
    peer_comments: Callable[[int], tuple[str, ...]] | None = None

    def request(self, agent: int) -> DecisionRequest:
        comments = self.peer_comments(agent) if self.template_id == "commenting" else None
        return DecisionRequest(news=self.news, day=self.day, template_id=self.template_id,
                               peer_comments=comments, accuracy_notice=self.accuracy_notice)


@dataclass(frozen=True)
class DecisionOutcome:
    share: bool
    comment: str | None
    rationale: str | None
    raw_response: str
    source: str  # "stub" | "llm_live" | "llm_cache"
    parse_failure: bool = False
    # cache key of the transcript that produced this outcome; stable across
    # live and cache-replayed executions (None for the stub)
    transcript_key: str | None = None

    def policy_kind(self) -> str:
        return "llm" if self.source.startswith("llm") else self.source


@dataclass(frozen=True)
class Decisions:
    """Outcomes of one DecisionBatch as columns, in the batch's agent order."""

    share: np.ndarray  # bool
    comment: list[str | None]
    rationale: list[str | None]
    policy: list[str]
    transcript: list[str | None]
    parse_failure: list[bool]

    @classmethod
    def from_outcomes(cls, outcomes: list[DecisionOutcome]) -> "Decisions":
        return cls(
            share=np.array([bool(o.share) for o in outcomes], dtype=bool),
            comment=[o.comment for o in outcomes],
            rationale=[o.rationale for o in outcomes],
            policy=[o.policy_kind() for o in outcomes],
            transcript=[o.transcript_key for o in outcomes],
            parse_failure=[o.parse_failure for o in outcomes],
        )


def decide_each(policy, batch: DecisionBatch, personas) -> Decisions:
    """Decide a batch one agent at a time through `policy.decide`.

    Runs on up to `policy.concurrency` threads, so it serves any policy that
    defines only `decide`. A PolicyError is re-raised naming the day and agent.
    """
    agents = batch.agents.tolist()

    def one(agent):
        try:
            return policy.decide(batch.request(agent), personas[agent])
        except PolicyError as exc:
            raise PolicyError(f"day {batch.day}, agent {agent}: {exc}") from exc

    workers = getattr(policy, "concurrency", 1)
    if workers > 1 and len(agents) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, agents))
    else:
        outcomes = [one(agent) for agent in agents]
    return Decisions.from_outcomes(outcomes)


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
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown stub params: {sorted(bad)}")
        return cls(**d)


def share_probability(
    z_extraversion,
    z_openness,
    params: StubParams,
    accuracy_notice: bool = False,
    commenting: bool = False,
):
    """Closed-form logistic share probability for the stub, elementwise over arrays."""
    logit = (
        params.intercept
        + params.weight_e * np.asarray(z_extraversion, dtype=float)
        + params.weight_o * np.asarray(z_openness, dtype=float)
    )
    if accuracy_notice:
        logit = logit + params.accuracy_penalty
    if commenting:
        logit = logit + params.comment_shift
    return 1.0 / (1.0 + np.exp(-logit))


def _zscore_columns(personas, stats: persona_mod.BigFiveStats) -> tuple[np.ndarray, np.ndarray]:
    """Standardized extraversion and openness of every persona, by agent id."""
    cols = [persona_mod.TRAITS.index("extraversion"), persona_mod.TRAITS.index("openness")]
    scores = np.array([p.big_five_scores for p in personas], dtype=float).reshape(-1, 5)[:, cols]
    z = (scores - np.asarray(stats.means)[cols]) / np.asarray(stats.sds)[cols]
    return z[:, 0], z[:, 1]


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): state increment and finalizer
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def stub_bits(rng_seed: int, news_id: str, agents) -> np.ndarray:
    """64 random bits per agent for the stub's decision on `news_id`.

    Counter-based: the bits for agent a are output a + 1 of a SplitMix64
    stream seeded with derive_seed(rng_seed, "stub", news_id) truncated to
    64 bits. They depend only on (rng_seed, news_id, a), never on which other
    agents are drawn with a or in what order. The top 53 bits are the share
    uniform; the low 11 bits pick the comment.
    """
    key = np.uint64(derive_seed(rng_seed, "stub", news_id) & 0xFFFF_FFFF_FFFF_FFFF)
    z = (np.asarray(agents, dtype=np.uint64) + np.uint64(1)) * _GOLDEN_GAMMA + key
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _decide_stub_columns(z_e, z_o, agents, news_id, template_id, accuracy_notice,
                         params: StubParams, rng_seed: int) -> Decisions:
    commenting = template_id == "commenting"
    prob = share_probability(z_e, z_o, params, accuracy_notice, commenting)
    bits = stub_bits(rng_seed, news_id, agents)
    share = (bits >> np.uint64(11)) * 2.0**-53 < prob
    comment: list[str | None] = [None] * len(share)
    if commenting:
        picks = (bits & np.uint64(0x7FF)) % np.uint64(len(_STUB_COMMENTS))
        for i in np.flatnonzero(share).tolist():
            comment[i] = _STUB_COMMENTS[int(picks[i])]
    return Decisions(
        share=share,
        comment=comment,
        rationale=[f"p_share={p:.4f}" for p in prob.tolist()],
        policy=["stub"] * len(share),
        transcript=[None] * len(share),
        parse_failure=[False] * len(share),
    )


def decide_stub(
    req: DecisionRequest,
    persona: persona_mod.AgentPersona,
    params: StubParams,
    rng_seed: int,
    stats: persona_mod.BigFiveStats = persona_mod.DEFAULT_TRAIT_STATS,
) -> DecisionOutcome:
    """One agent's stub decision; equal to its entry in any batch holding it."""
    z_e, z_o = _zscore_columns([persona], stats)
    d = _decide_stub_columns(z_e, z_o, [persona.agent_id], req.news.news_id, req.template_id,
                             req.accuracy_notice, params, rng_seed)
    share = bool(d.share[0])
    return DecisionOutcome(
        share=share,
        comment=d.comment[0],
        rationale=d.rationale[0],
        raw_response=f"DECISION: {'SHARE' if share else 'IGNORE'}",
        source="stub",
    )


class StubPolicy:
    """Deterministic offline policy; safe to call from any thread."""

    concurrency = 1

    def __init__(self, params: StubParams | None = None, rng_seed: int = 0,
                 stats: persona_mod.BigFiveStats = persona_mod.DEFAULT_TRAIT_STATS):
        self.params = params or StubParams()
        self.rng_seed = rng_seed
        self.stats = stats

    def decide(self, req: DecisionRequest, persona: persona_mod.AgentPersona) -> DecisionOutcome:
        return decide_stub(req, persona, self.params, self.rng_seed, self.stats)

    def decide_many(self, batch: DecisionBatch, personas) -> Decisions:
        """Decide the whole batch in numpy; each agent as `decide` would.

        A persona_mod.Cohort keeps its z-score columns across runs; a plain
        list of personas has them rebuilt on every call.
        """
        if isinstance(personas, persona_mod.Cohort):
            z_e, z_o = personas.column(("stub_z", self.stats),
                                       lambda c: _zscore_columns(c, self.stats))
        else:
            z_e, z_o = _zscore_columns(personas, self.stats)
        agents = batch.agents
        return _decide_stub_columns(z_e[agents], z_o[agents], agents, batch.news.news_id,
                                    batch.template_id, batch.accuracy_notice, self.params,
                                    self.rng_seed)

    def identity(self) -> dict:
        return {"kind": "stub", "rng_seed": self.rng_seed, **self.params.__dict__}


# ---------------------------------------------------------------------------
# Prompt rendering
# ---------------------------------------------------------------------------

@functools.cache
def _load_template(template_id: str) -> str:
    if template_id not in TEMPLATE_IDS:
        raise ValueError(f"unknown template id {template_id!r}")
    return resources.files("newssim.templates").joinpath(f"{template_id}.txt").read_text("utf-8")


def template_hashes() -> dict[str, str]:
    return {
        tid: hashlib.sha256(_load_template(tid).encode("utf-8")).hexdigest()[:16]
        for tid in TEMPLATE_IDS
    }


def render_prompt(
    req: DecisionRequest,
    persona_text: str,
    body_char_budget: int = 1200,
    refutation: str = REFUTATION_SENTENCE,
    max_peer_comments: int = MAX_PEER_COMMENTS,
) -> str:
    """Deterministic template instantiation for a decision request."""
    mapping = {
        "persona": persona_text,
        "news_title": req.news.title,
        "news_body": truncate_body(req.news.body, body_char_budget),
    }
    if req.template_id == "commenting":
        comments = list(req.peer_comments or ())[-max_peer_comments:]
        if comments:
            mapping["peer_comments"] = "\n".join(f"- {c}" for c in comments)
        else:
            mapping["peer_comments"] = "(no comments yet)"
    if req.template_id == "accuracy":
        mapping["refutation"] = refutation if req.accuracy_notice else ""
    return Template(_load_template(req.template_id)).substitute(mapping)


# ---------------------------------------------------------------------------
# LLM response parsing
# ---------------------------------------------------------------------------

_DECISION_RE = re.compile(r"decision\s*[:\-]\s*\"?\**\s*(share|ignore)", re.IGNORECASE)
_COMMENT_RE = re.compile(r"^\s*\**comment\**\s*[:\-]\s*(.*)$", re.IGNORECASE | re.MULTILINE)
_REASON_RE = re.compile(r"^\s*\**reason\**\s*[:\-]\s*(.*)$", re.IGNORECASE | re.MULTILINE)


def parse_response(text: str, want_comment: bool) -> tuple[bool | None, str | None, str | None]:
    """(share, comment, rationale); share is None when no DECISION token is found."""
    if not isinstance(text, str):
        return None, None, None
    m = _DECISION_RE.search(text)
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


# ---------------------------------------------------------------------------
# LLM client with replayable cache
# ---------------------------------------------------------------------------

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

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "LlmSettings":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown llm params: {sorted(bad)}")
        return cls(**d)


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

    A last line that has no newline and does not parse was torn by an
    interrupted append: loading drops it and truncates the file to the last
    complete line. A bad line anywhere else raises.
    """

    def __init__(self, path=None):
        self.path = path
        self._records: dict[str, dict] = {}
        self._lock = threading.Lock()
        if path is None:
            return
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        complete, _, tail = data.rpartition(b"\n")
        for line in complete.split(b"\n"):
            if line.strip():
                rec = json.loads(line)
                self._records[rec["key"]] = rec
        if tail.strip():
            try:
                rec = json.loads(tail)
            except ValueError:
                with open(path, "r+b") as fh:
                    fh.truncate(len(data) - len(tail))
                return
            self._records[rec["key"]] = rec
            with open(path, "ab") as fh:  # so the next append starts a line of its own
                fh.write(b"\n")

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
        with self._lock:
            self._records[key] = rec
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return rec

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

    `transport` takes (url, headers, payload, timeout) and returns the parsed
    JSON body; tests inject fakes here. `api_key` falls back to the
    environment variable named in settings.
    """

    def __init__(self, settings: LlmSettings, cache: DecisionCache | None = None,
                 transport=None, api_key: str | None = None,
                 body_char_budget: int = 1200):
        self.settings = settings
        self.cache = cache if cache is not None else DecisionCache(settings.cache_path)
        self.transport = transport or _default_transport
        self.api_key = api_key
        self.body_char_budget = body_char_budget
        self.concurrency = max(1, settings.concurrency)
        self.network_calls = 0
        self._calls_lock = threading.Lock()

    def identity(self) -> dict:
        return {
            "kind": "llm",
            "model": self.settings.model,
            "temperature": self.settings.temperature,
        }

    def _headers(self) -> dict:
        import os

        key = self.api_key or os.environ.get(self.settings.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _complete(self, prompt: str, attempt: int) -> tuple[str, str, str]:
        """Return (raw_text, source, key) for one prompt attempt, via cache or wire."""
        key = cache_key(self.settings.model, prompt, attempt)
        cached = self.cache.get(key)
        if cached is not None:
            return cached["response"], "llm_cache", key
        payload = {
            "model": self.settings.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.settings.temperature,
        }
        last_exc = None
        for retry in range(self.settings.max_retries + 1):
            try:
                with self._calls_lock:
                    self.network_calls += 1
                body = self.transport(self.settings.endpoint, self._headers(), payload,
                                      self.settings.timeout)
                text = body["choices"][0]["message"]["content"]
                break
            except Exception as exc:  # noqa: BLE001 - any transport failure retries
                last_exc = exc
                if retry < self.settings.max_retries:
                    time.sleep(min(2.0**retry * 0.1, 2.0))
        else:
            raise PolicyError(
                f"chat completion failed after {self.settings.max_retries + 1} tries: {last_exc}"
            )
        self.cache.put(key, self.settings.model, prompt, attempt, text)
        return text, "llm_live", key

    def decide_many(self, batch: DecisionBatch, personas) -> Decisions:
        return decide_each(self, batch, personas)

    def decide(self, req: DecisionRequest, persona: persona_mod.AgentPersona) -> DecisionOutcome:
        prompt = render_prompt(req, persona_mod.render_persona_text(persona),
                               self.body_char_budget)
        want_comment = req.template_id == "commenting"
        raw_last, source_last, key_last = "", "llm_live", None
        for attempt in range(self.settings.reask_limit + 1):
            raw, source, key = self._complete(prompt, attempt)
            raw_last, source_last, key_last = raw, source, key
            share, comment, rationale = parse_response(raw, want_comment)
            if share is not None:
                return DecisionOutcome(
                    share=share,
                    comment=comment,
                    rationale=rationale,
                    raw_response=raw,
                    source=source,
                    transcript_key=key,
                )
        return DecisionOutcome(
            share=False,
            comment=None,
            rationale="unparseable response",
            raw_response=raw_last,
            source=source_last,
            parse_failure=True,
            transcript_key=key_last,
        )
