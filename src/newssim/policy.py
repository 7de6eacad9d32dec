"""Decision policies: the share/ignore boundary for every agent.

Two interchangeable policies implement `decide(request, persona)`:

* StubPolicy: an offline logistic model over the agent's standardized
  extraversion and openness scores. Every (agent, news) pair owns its own
  seeded random stream, so outcomes are reproducible and independent of the
  order decisions are requested in.
* LlmPolicy: renders a prompt from an editable text template, calls an
  OpenAI-compatible chat-completion endpoint, and parses a line-oriented
  reply (DECISION / COMMENT / REASON). Raw responses are stored in an
  append-only cache keyed by (model, attempt, prompt); replaying against a
  complete cache performs no network calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from dataclasses import dataclass, field
from importlib import resources
from string import Template

from . import persona as persona_mod
from .ingest import NewsItem, truncate_body
from .seeding import derive_rng

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
    persona_text: str
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
    z_extraversion: float,
    z_openness: float,
    params: StubParams,
    accuracy_notice: bool = False,
    commenting: bool = False,
) -> float:
    """Closed-form logistic share probability for the stub."""
    logit = (
        params.intercept
        + params.weight_e * z_extraversion
        + params.weight_o * z_openness
    )
    if accuracy_notice:
        logit += params.accuracy_penalty
    if commenting:
        logit += params.comment_shift
    return 1.0 / (1.0 + math.exp(-logit))


def _zscores(persona: persona_mod.AgentPersona, stats: persona_mod.BigFiveStats):
    e_idx = persona_mod.TRAITS.index("extraversion")
    o_idx = persona_mod.TRAITS.index("openness")
    z_e = (persona.big_five_scores[e_idx] - stats.means[e_idx]) / stats.sds[e_idx]
    z_o = (persona.big_five_scores[o_idx] - stats.means[o_idx]) / stats.sds[o_idx]
    return z_e, z_o


def decide_stub(
    req: DecisionRequest,
    persona: persona_mod.AgentPersona,
    params: StubParams,
    rng_seed: int,
    stats: persona_mod.BigFiveStats = persona_mod.DEFAULT_TRAIT_STATS,
) -> DecisionOutcome:
    """Bernoulli draw from the per-(agent, news) stream at the closed-form probability."""
    z_e, z_o = _zscores(persona, stats)
    commenting = req.template_id == "commenting"
    prob = share_probability(z_e, z_o, params, req.accuracy_notice, commenting)
    rng = derive_rng(rng_seed, "stub", persona.agent_id, req.news.news_id)
    share = bool(rng.random() < prob)
    comment = None
    if share and commenting:
        comment = _STUB_COMMENTS[int(rng.integers(0, len(_STUB_COMMENTS)))]
    rationale = f"p_share={prob:.4f}"
    return DecisionOutcome(
        share=share,
        comment=comment,
        rationale=rationale,
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

    def identity(self) -> dict:
        return {"kind": "stub", "rng_seed": self.rng_seed, **self.params.__dict__}


# ---------------------------------------------------------------------------
# Prompt rendering
# ---------------------------------------------------------------------------

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
    body_char_budget: int = 1200,
    refutation: str = REFUTATION_SENTENCE,
    max_peer_comments: int = MAX_PEER_COMMENTS,
) -> str:
    """Deterministic template instantiation for a decision request."""
    mapping = {
        "persona": req.persona_text,
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
    """Append-only JSONL store of raw LLM transcripts keyed by cache_key."""

    def __init__(self, path=None):
        self.path = path
        self._records: dict[str, dict] = {}
        self._lock = threading.Lock()
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        rec = json.loads(line)
                        self._records[rec["key"]] = rec
            except FileNotFoundError:
                pass

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
        if self.path is None:
            return None
        try:
            with open(self.path, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()[:16]
        except FileNotFoundError:
            return None


def _default_transport(url, headers, payload, timeout):
    import requests

    resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    resp.raise_for_status()
    return resp.json()


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

    def decide(self, req: DecisionRequest, persona: persona_mod.AgentPersona) -> DecisionOutcome:
        prompt = render_prompt(req, self.body_char_budget)
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
