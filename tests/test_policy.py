import hashlib
import json
import math
import re
import string
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newssim import engine, persona
from newssim.ingest import ExperimentConfig, NewsItem
from newssim.netgen import gen_random
from newssim.persona import DEFAULT_TRAIT_STATS, TRAITS, AgentPersona
from newssim.policy import (
    _STUB_COMMENTS,
    MAX_PEER_COMMENTS,
    REFUTATION_SENTENCE,
    TEMPLATE_IDS,
    DecisionBatch,
    DecisionCache,
    DecisionRequest,
    LlmPolicy,
    LlmSettings,
    PolicyError,
    StubParams,
    StubPolicy,
    Decisions,
    cache_key,
    decide_stub,
    parse_response,
    render_prompt,
    share_probability,
    stub_bits,
    template_hashes,
)
from newssim.seeding import derive_seed

NEWS = NewsItem(news_id="n-1", title="Test headline", body="Body text of the story.",
                veracity="fake", topic="political")


def one_run_batch(news, day, agents, template_id="none", peer_comments=None):
    """The DecisionBatch of one run's deciders; `peer_comments` takes the agent alone."""
    agents = np.asarray(agents)
    return DecisionBatch(day=day, agents=agents, runs=np.zeros(len(agents), dtype=np.intp),
                         news=(news,), template_id=(template_id,), seed=(None,),
                         peer_comments=lambda run, agent: peer_comments(agent))


def persona_at(z_e=0.0, z_o=0.0, agent_id=0):
    means = DEFAULT_TRAIT_STATS.means
    sds = DEFAULT_TRAIT_STATS.sds
    e = TRAITS.index("extraversion")
    o = TRAITS.index("openness")
    scores = list(means)
    scores[e] = means[e] + z_e * sds[e]
    scores[o] = means[o] + z_o * sds[o]
    labels = tuple("high" if s >= m else "low" for s, m in zip(scores, means))
    return AgentPersona(agent_id=agent_id, gender="female", age=30,
                        big_five_scores=tuple(scores), big_five_labels=labels)


PERSONA_TEXT = "persona text here"


def request(template_id="none", peer_comments=None, day=1):
    return DecisionRequest(
        news=NEWS,
        day=day,
        template_id=template_id,
        peer_comments=peer_comments,
    )


# ---------------------------------------------------------------------------
# stub
# ---------------------------------------------------------------------------

def test_share_probability_closed_form():
    params = StubParams(intercept=0.0)
    assert share_probability(0.0, 0.0, params) == pytest.approx(0.5)
    # logistic of the assembled logit
    p = share_probability(1.0, -0.5, StubParams(intercept=0.3, weight_e=0.8, weight_o=0.8))
    assert p == pytest.approx(1 / (1 + math.exp(-(0.3 + 0.8 - 0.4))))


def test_stub_empirical_rate_matches_half():
    params = StubParams(intercept=0.0)
    shares = 0
    n = 10_000
    for agent in range(n):
        out = decide_stub(request(), persona_at(agent_id=agent), params, rng_seed=1234)
        shares += out.share
    assert 0.49 <= shares / n <= 0.51


def test_stub_saturates_negative():
    params = StubParams(intercept=-50.0)
    assert all(
        not decide_stub(request(), persona_at(agent_id=a), params, rng_seed=0).share
        for a in range(200)
    )


def test_stub_monotone_in_traits_and_penalty():
    params = StubParams()
    assert share_probability(0.0, 1.0, params) > share_probability(0.0, 0.0, params)
    assert share_probability(1.0, 0.0, params) > share_probability(0.0, 0.0, params)
    assert share_probability(0.0, 0.0, params, accuracy_notice=True) < share_probability(
        0.0, 0.0, params
    )
    shifted = StubParams(comment_shift=-1.0)
    assert share_probability(0.0, 0.0, shifted, commenting=True) < share_probability(
        0.0, 0.0, shifted
    )


def test_stub_deterministic_and_order_independent():
    params = StubParams()
    news = [NEWS, NewsItem(news_id="n-2", title="t", body="b", veracity="fake")]
    pairs = [(a, item) for a in range(50) for item in news]

    def decide_all(order):
        out = {}
        for a, item in order:
            req = DecisionRequest(news=item, day=1, template_id="commenting",
                                  peer_comments=())
            out[a, item.news_id] = decide_stub(req, persona_at(agent_id=a), params, 7)
        return out

    outs = decide_all(pairs)
    assert decide_all(reversed(pairs)) == outs
    shuffled = [pairs[i] for i in np.random.default_rng(0).permutation(len(pairs))]
    assert decide_all(shuffled) == outs


@pytest.mark.parametrize("p", [0.1, 0.9])  # 0.5: test_stub_empirical_rate_matches_half
def test_stub_share_rate_matches_probability(p):
    params = StubParams(intercept=math.log(p / (1 - p)))
    n = 10_000
    shares = sum(
        decide_stub(request(), persona_at(agent_id=a), params, rng_seed=99).share
        for a in range(n)
    )
    assert abs(shares / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_stub_sharers_draw_each_comment_equally_often():
    params = StubParams(intercept=0.0)  # p = 0.5: the comment must not follow the share bits
    req = request("commenting", peer_comments=())
    comments = [
        out.comment
        for out in (decide_stub(req, persona_at(agent_id=a), params, 5) for a in range(20_000))
        if out.share
    ]
    counts = {c: comments.count(c) for c in set(comments)}
    assert len(counts) == 4
    n = len(comments)
    for count in counts.values():
        assert abs(count / n - 0.25) < 4 * math.sqrt(0.25 * 0.75 / n)


def test_stub_comment_only_when_sharing_under_commenting():
    params = StubParams(intercept=50.0)  # always share
    out = decide_stub(request("commenting", peer_comments=()), persona_at(), params, 3)
    assert out.share and out.comment
    out = decide_stub(request(), persona_at(), params, 3)
    assert out.share and out.comment is None
    never = StubParams(intercept=-50.0)
    out = decide_stub(request("commenting", peer_comments=()), persona_at(), never, 3)
    assert not out.share and out.comment is None


def _splitmix64_outputs(seed, count):
    """Reference SplitMix64 over Python ints: the first `count` outputs from `seed`."""
    mask = 2**64 - 1
    state, out = seed & mask, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_stub_bits_are_splitmix64_outputs_keyed_by_the_run():
    key = derive_seed(17, "stub", NEWS.news_id)
    assert stub_bits(17, NEWS.news_id, np.arange(50)).tolist() == _splitmix64_outputs(key, 50)
    assert stub_bits(17, NEWS.news_id, [49, 3]).tolist() == [_splitmix64_outputs(key, 50)[i]
                                                            for i in (49, 3)]


def _cohort(n, seed=0):
    return persona.sample_personas(n, rng_seed=seed)


def _outcomes(decisions, agents):
    return {a: (s, c) for a, s, c in zip(agents, decisions.share.tolist(), decisions.comment)}


@pytest.mark.parametrize("template_id", ["none", "commenting", "accuracy"])
def test_decide_many_is_independent_of_batch_order_and_split(template_id):
    cohort = _cohort(400)
    policy = StubPolicy(StubParams(intercept=0.0), rng_seed=21)

    def decide(agents):
        batch = one_run_batch(news=NEWS, day=2, agents=np.asarray(agents),
                              template_id=template_id,
                              peer_comments=lambda a: ())
        return _outcomes(policy.decide_many(batch, cohort), list(agents))

    whole = decide(range(400))
    assert 0 < sum(s for s, _ in whole.values()) < 400
    permuted = np.random.default_rng(1).permutation(400)
    assert decide(permuted) == whole
    assert {**decide(permuted[:137]), **decide(permuted[137:])} == whole
    # decide() on each agent's persona decides as the batch over the columns does
    batch = one_run_batch(news=NEWS, day=2, agents=np.arange(400),
                          template_id=template_id,
                          peer_comments=lambda a: ())
    for a in range(400):
        out = policy.decide(batch.request(a), cohort[a])
        assert (out.share, out.comment) == whole[a]


def test_none_and_blocking_runs_share_their_decisions():
    net = gen_random(200, 0.05, seed=8)
    cohort = _cohort(200, seed=8)
    decided = {}
    for kind in ("none", "blocking"):
        cfg = ExperimentConfig(intervention_kind=kind)
        rec = engine.run(cfg, net, cohort, NEWS, StubPolicy(StubParams(intercept=1.5),
                                                             rng_seed=5))
        # an agent decides on the day after it was reached
        decided[kind] = {a: (rec.reach_day[a] + 1, share)
                         for a, share in enumerate(rec.decision) if share >= 0}
    assert any(e["type"] == "blocking_applied" for e in rec.events)
    day1 = [{a: v for a, v in d.items() if v[0] == 1} for d in decided.values()]
    assert day1[0] == day1[1] and day1[0]
    common = decided["none"].keys() & decided["blocking"].keys()
    assert len(common) > 20
    assert all(decided["none"][a][1:] == decided["blocking"][a][1:] for a in common)


def test_share_uniforms_are_uniform_over_agents_and_attempt_seeds():
    scipy_stats = pytest.importorskip("scipy.stats")
    over_agents = (stub_bits(3, NEWS.news_id, np.arange(100_000)) >> np.uint64(11)) * 2.0**-53
    assert scipy_stats.kstest(over_agents, "uniform").pvalue > 0.001
    seeds = [derive_seed(7, "decide", 0, NEWS.news_id, attempt) for attempt in range(20_000)]
    over_seeds = [int(stub_bits(s, NEWS.news_id, [0])[0] >> np.uint64(11)) * 2.0**-53
                  for s in seeds]
    assert scipy_stats.kstest(over_seeds, "uniform").pvalue > 0.001


def test_comment_index_uses_bits_disjoint_from_the_share_uniform():
    agents = np.arange(20_000)
    policy = StubPolicy(StubParams(intercept=0.0), rng_seed=5)  # p = 0.5 at mean traits
    at_means = persona_at()
    cohort = persona.Cohort(female=np.ones(len(agents), dtype=bool),
                            age=np.full(len(agents), at_means.age),
                            scores=np.tile(at_means.big_five_scores, (len(agents), 1)),
                            high=np.tile([lv == "high" for lv in at_means.big_five_labels],
                                         (len(agents), 1)))
    batch = one_run_batch(news=NEWS, day=1, agents=agents, template_id="commenting",
                          peer_comments=lambda a: ())
    out = policy.decide_many(batch, cohort)
    bits = stub_bits(5, NEWS.news_id, agents)
    assert np.array_equal(out.share, (bits >> np.uint64(11)) * 2.0**-53 < 0.5)
    picks = ((bits & np.uint64(0x7FF)) % np.uint64(len(_STUB_COMMENTS))).tolist()
    expected = [_STUB_COMMENTS[k] if s else None for k, s in zip(picks, out.share.tolist())]
    assert out.comment == expected
    # the low 11 bits carry no share information: flipping them keeps every share
    flipped = ((bits ^ np.uint64(0x7FF)) >> np.uint64(11)) * 2.0**-53 < 0.5
    assert np.array_equal(flipped, out.share)


def test_stub_params_reject_unknown_keys():
    with pytest.raises(ValueError):
        StubParams.from_dict({"weight_x": 1.0})


# ---------------------------------------------------------------------------
# request validation / prompt rendering
# ---------------------------------------------------------------------------

def test_request_invariants():
    with pytest.raises(ValueError):
        request(template_id="bogus")
    with pytest.raises(ValueError):
        request(template_id="none", peer_comments=("hey",))


def test_render_none_template():
    text = render_prompt(request(), PERSONA_TEXT)
    assert PERSONA_TEXT in text
    assert NEWS.title in text
    assert NEWS.body in text
    assert "SHARE or IGNORE" in text


def test_render_commenting_newest_last():
    req = request("commenting", peer_comments=("older comment", "newer comment"))
    text = render_prompt(req, PERSONA_TEXT)
    assert "older comment" in text and "newer comment" in text
    assert text.index("older comment") < text.index("newer comment")
    empty = render_prompt(request("commenting", peer_comments=()), PERSONA_TEXT)
    assert "(no comments yet)" in empty


def test_render_commenting_caps_to_most_recent():
    comments = tuple(f"comment {i}" for i in range(6))
    text = render_prompt(request("commenting", peer_comments=comments), PERSONA_TEXT)
    assert "comment 5" in text and "comment 3" in text
    assert "comment 2" not in text


def test_render_accuracy_refutation_exactly_once():
    text = render_prompt(request("accuracy"), PERSONA_TEXT)
    assert text.count(REFUTATION_SENTENCE) == 1


def test_render_body_truncated_by_budget():
    long_news = NewsItem(news_id="n", title="t", body="word " * 2000, veracity="fake")
    req = DecisionRequest(news=long_news, day=1)
    text = render_prompt(req, "p", body_char_budget=200)
    assert len(text) < 600


@pytest.mark.parametrize("text", [*TEMPLATE_IDS, "$$ is ${persona}, $news_title$$\n",
                                  "${persona}", "no placeholder", ""])
def test_parsed_templates_render_as_string_template_does(text):
    from newssim import policy as policy_module

    text = policy_module._load_template(text) if text in TEMPLATE_IDS else text
    mapping = {"persona": "a $persona", "news_title": "${title}", "news_body": "b",
               "peer_comments": "- c", "refutation": "$$"}
    parts = list(policy_module._template_parts(text))
    parts[1::2] = [mapping[name] for name in parts[1::2]]
    assert "".join(parts) == string.Template(text).substitute(mapping)


def test_a_template_with_an_invalid_placeholder_is_refused():
    from newssim import policy as policy_module

    with pytest.raises(ValueError, match="invalid placeholder at offset 4"):
        policy_module._template_parts("the $ sign")


def test_template_hashes_stable():
    assert set(template_hashes()) == {"none", "commenting", "accuracy"}
    assert template_hashes() == template_hashes()


# ---------------------------------------------------------------------------
# response parsing
# ---------------------------------------------------------------------------

def test_parse_share_with_comment():
    share, comment, _ = parse_response("DECISION: SHARE\nCOMMENT: is this real?", True)
    assert share is True
    assert comment == "is this real?"


def test_parse_case_insensitive_with_prose():
    share, _, reason = parse_response(
        "Well, considering everything...\ndecision: ignore\nREASON: seems fake", False
    )
    assert share is False
    assert reason == "seems fake"


def test_parse_first_decision_token_wins():
    share, _, _ = parse_response("DECISION: SHARE\n...\nDECISION: IGNORE", False)
    assert share is True


def test_parse_unparseable_returns_none():
    assert parse_response("maybe??", False) == (None, None, None)


def test_parse_comment_ignored_when_not_requested():
    share, comment, _ = parse_response("DECISION: SHARE\nCOMMENT: hello", False)
    assert share is True and comment is None


def test_parse_totality_fuzz():
    rng = np.random.default_rng(99)
    alphabet = string.printable + "DECISION:SHAREIGNORE\x00\x1f"
    for _ in range(500):
        n = int(rng.integers(0, 120))
        text = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
        share, comment, reason = parse_response(text, True)
        assert share in (True, False, None)


# ---------------------------------------------------------------------------
# llm client + cache
# ---------------------------------------------------------------------------

def make_transport(script):
    """script: list of response texts (or Exception instances) served in order."""
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append({"url": url, "headers": headers, "payload": payload})
        item = script[min(len(calls) - 1, len(script) - 1)]
        if isinstance(item, Exception):
            raise item
        return {"choices": [{"message": {"content": item}}]}

    transport.calls = calls
    return transport


def test_llm_outcome_and_wire_format(tmp_path):
    transport = make_transport(["DECISION: SHARE\nREASON: looks important"])
    settings = LlmSettings(cache_path=str(tmp_path / "cache.jsonl"), max_retries=0)
    policy = LlmPolicy(settings, DecisionCache(settings.cache_path), transport=transport,
                       api_key="sk-test")
    with policy.cache:
        out = policy.decide(request(), persona_at())
    assert out.share is True and out.source == "llm_live"
    assert out.rationale == "looks important"
    call = transport.calls[0]
    assert call["payload"]["model"] == settings.model
    assert call["payload"]["temperature"] == 0.0
    assert call["payload"]["messages"][0]["role"] == "user"
    assert call["headers"]["Authorization"] == "Bearer sk-test"


def test_llm_cache_hit_is_byte_identical_without_network(tmp_path):
    cache_path = str(tmp_path / "cache.jsonl")
    transport = make_transport(["DECISION: IGNORE\nREASON: why not"])
    settings = LlmSettings(cache_path=cache_path)
    policy = LlmPolicy(settings, DecisionCache(cache_path), transport=transport)
    with policy.cache:
        first = policy.decide(request(), persona_at())
    assert policy.network_calls == 1

    # a fresh policy over the same cache file must not touch the wire
    def boom(*a, **k):
        raise AssertionError("network touched during replay")

    replay = LlmPolicy(settings, DecisionCache(cache_path), transport=boom)
    second = replay.decide(request(), persona_at())
    assert replay.network_calls == 0
    assert second.source == "llm_cache"
    assert second.raw_response == first.raw_response
    assert (second.share, second.comment, second.rationale) == (
        first.share, first.comment, first.rationale)


def test_llm_reask_then_fallback(tmp_path):
    transport = make_transport(["maybe??", "huh", "still nothing"])
    settings = LlmSettings(cache_path=None, reask_limit=2, max_retries=0)
    policy = LlmPolicy(settings, DecisionCache(), transport=transport)
    out = policy.decide(request(), persona_at())
    assert out.share is False and out.parse_failure
    assert len(transport.calls) == 3  # one per re-ask attempt


def test_llm_reask_recovers_on_second_attempt():
    transport = make_transport(["garbled", "DECISION: SHARE"])
    policy = LlmPolicy(LlmSettings(reask_limit=2, max_retries=0), DecisionCache(),
                       transport=transport)
    out = policy.decide(request(), persona_at())
    assert out.share is True and not out.parse_failure
    assert len(transport.calls) == 2


def test_llm_network_failure_aborts():
    transport = make_transport([RuntimeError("connection refused")])
    policy = LlmPolicy(LlmSettings(max_retries=1), DecisionCache(), transport=transport)
    with pytest.raises(PolicyError, match="2 tries"):
        policy.decide(request(), persona_at())
    assert len(transport.calls) == 2


def test_llm_retries_transient_then_succeeds():
    transport = make_transport([RuntimeError("503"), "DECISION: SHARE"])
    policy = LlmPolicy(LlmSettings(max_retries=2), DecisionCache(), transport=transport)
    out = policy.decide(request(), persona_at())
    assert out.share is True
    assert len(transport.calls) == 2


class RecordingCache(DecisionCache):
    """An in-memory DecisionCache that records, with the calling thread's
    name, each lookup as (thread, key, hit) and each put as (thread, prompt,
    attempt). `on_get` is called after each lookup is recorded."""

    def __init__(self, on_get=None):
        super().__init__()
        self.gets, self.puts, self.on_get = [], [], on_get
        self._seen = threading.Lock()

    def get(self, key):
        rec = super().get(key)
        with self._seen:
            self.gets.append((threading.current_thread().name, key, rec is not None))
        if self.on_get is not None:
            self.on_get(self)
        return rec

    def put(self, key, model, prompt, attempt, response):
        with self._seen:
            self.puts.append((threading.current_thread().name, prompt, attempt))
        return super().put(key, model, prompt, attempt, response)

    def lookups(self, key) -> int:
        return sum(1 for _, k, _ in self.gets if k == key)


def headline_request(title):
    """A request whose prompt differs with `title`."""
    return DecisionRequest(news=NewsItem(news_id="n", title=title, body="b", veracity="fake",
                                         topic="political"), day=1)


def test_network_calls_counted_across_threads():
    transport = make_transport(["DECISION: SHARE"])
    threads, per_thread = 8, 500
    cache = RecordingCache()
    policy = LlmPolicy(LlmSettings(concurrency=threads), cache, transport=transport)

    def work(t):
        for i in range(per_thread):
            policy.decide(headline_request(f"{t} {i}"), persona_at())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
        policy.close()
    assert not any(w.is_alive() for w in workers)
    assert len({thread for thread, _, _ in cache.puts}) > 1  # counted on several threads
    assert policy.network_calls == len(transport.calls) == len(cache) == threads * per_thread


def _decide_on_two_threads(policy, entered):
    results = [None, None]

    def work(i):
        try:
            results[i] = policy.decide(request(), persona_at())
        except PolicyError as exc:
            results[i] = exc

    first = threading.Thread(target=work, args=(0,))
    first.start()
    assert entered.wait(timeout=5)  # the first call is out before the second asks
    second = threading.Thread(target=work, args=(1,))
    second.start()
    for t in (first, second):
        t.join(timeout=10)
    assert not first.is_alive() and not second.is_alive()
    return results


def _held_until_both_missed(first_reply):
    """A policy whose first endpoint call waits until both callers have
    missed the key in the cache, then returns `first_reply` (or raises it);
    the event is set once that call is out."""
    entered, both_missed = threading.Event(), threading.Event()

    def on_get(cache):
        if sum(not hit for _, _, hit in cache.gets) >= 2:
            both_missed.set()

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        entered.set()
        assert both_missed.wait(timeout=5), "the second caller never missed the key"
        if isinstance(first_reply, Exception):
            raise first_reply
        return {"choices": [{"message": {"content": first_reply}}]}

    calls = []
    cache = RecordingCache(on_get)
    return LlmPolicy(LlmSettings(max_retries=0), cache, transport=transport), calls, entered


def test_two_threads_missing_one_key_make_one_call():
    policy, calls, entered = _held_until_both_missed("DECISION: SHARE\nREASON: first")
    first, second = _decide_on_two_threads(policy, entered)
    policy.close()
    assert len(calls) == 1 and policy.network_calls == 1 and len(policy.cache) == 1
    # both callers get the one request's transcript
    assert (first.source, second.source) == ("llm_live", "llm_live")
    assert second.raw_response == first.raw_response == "DECISION: SHARE\nREASON: first"
    assert second.transcript_key == first.transcript_key
    assert policy.cache.lookups(first.transcript_key) == 2  # once by each caller


def test_every_waiter_gets_the_failure_of_the_call_in_flight():
    policy, calls, entered = _held_until_both_missed(RuntimeError("connection reset"))
    first, second = _decide_on_two_threads(policy, entered)
    policy.close()
    for result in (first, second):
        assert isinstance(result, PolicyError) and "connection reset" in str(result)
    assert len(calls) == 1 and len(policy.cache) == 0


def test_a_lookup_that_missed_before_the_ask_finished_gets_its_transcript():
    """A caller whose lookup ran before the ask cached its reply makes no second request."""
    transport = make_transport(["DECISION: SHARE\nREASON: once"])
    cache = RecordingCache()
    policy = LlmPolicy(LlmSettings(max_retries=0), cache, transport=transport)
    first = policy.decide(request(), persona_at())
    cache.get = lambda key: None  # as if this lookup ran before the put
    late = policy.decide(request(), persona_at())
    policy.close()
    assert len(transport.calls) == policy.network_calls == 1
    assert (late.source, late.raw_response, late.transcript_key) == (
        "llm_live", first.raw_response, first.transcript_key)


def test_a_missed_attempt_is_looked_up_once():
    transport = make_transport(["garbled", "DECISION: SHARE"])
    cache = RecordingCache()
    policy = LlmPolicy(LlmSettings(reask_limit=2, max_retries=0), cache, transport=transport)
    first = policy.decide(request(), persona_at())
    prompt = transport.calls[0]["payload"]["messages"][0]["content"]
    keys = [cache_key(policy.settings.model, prompt, attempt) for attempt in range(3)]
    assert first.source == "llm_live" and first.transcript_key == keys[1]
    # attempt 0 missed once on the caller; the pool task asked 0 and 1 without looking
    assert [(k, hit) for _, k, hit in cache.gets] == [(keys[0], False)]
    assert [attempt for _, _, attempt in cache.puts] == [0, 1]
    again = policy.decide(request(), persona_at())
    policy.close()
    assert (again.source, again.raw_response) == ("llm_cache", first.raw_response)
    assert [(k, hit) for _, k, hit in cache.gets[1:]] == [(keys[0], True), (keys[1], True)]
    assert len(transport.calls) == 2


def test_decide_keeps_requests_in_flight_within_concurrency():
    concurrency, threads, per_thread = 2, 8, 5
    lock = threading.Lock()
    flying = {"now": 0, "peak": 0}

    def overlapping(url, headers, payload, timeout):
        with lock:
            flying["now"] += 1
            flying["peak"] = max(flying["peak"], flying["now"])
        time.sleep(0.005)
        with lock:
            flying["now"] -= 1
        return {"choices": [{"message": {"content": "DECISION: SHARE"}}]}

    policy = LlmPolicy(LlmSettings(concurrency=concurrency, max_retries=0), DecisionCache(),
                       transport=overlapping)
    workers = [threading.Thread(target=lambda t=t: [
        policy.decide(headline_request(f"{t} {i}"), persona_at())
        for i in range(per_thread)]) for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    policy.close()
    assert not any(w.is_alive() for w in workers)
    assert policy.network_calls == len(policy.cache) == threads * per_thread
    assert flying["peak"] == concurrency  # the pool is used, and never beyond its size


def _cohort_batch(n=12, template_id="commenting"):
    cohort = persona.sample_personas(n, rng_seed=3)
    batch = one_run_batch(news=NEWS, day=2, agents=np.arange(n),
                          template_id=template_id,
                          peer_comments=lambda agent: (f"comment for {agent}",))
    return cohort, batch


def test_llm_decide_many_answers_hits_inline_and_misses_on_the_pool():
    cohort, batch = _cohort_batch()
    calls = []

    def reply(url, headers, payload, timeout):
        calls.append(threading.current_thread().name)
        prompt = payload["messages"][0]["content"]
        text = "DECISION: SHARE\nCOMMENT: yes" if len(prompt) % 2 else "no decision here"
        return {"choices": [{"message": {"content": text}}]}

    settings = LlmSettings(max_retries=0, reask_limit=1, concurrency=3)
    everyone = range(len(cohort))
    expected = [LlmPolicy(settings, DecisionCache(), transport=reply).decide(
        batch.request(a), cohort[a]) for a in everyone]
    # a cache that holds the even agents' transcripts
    cache = RecordingCache()
    warm = LlmPolicy(settings, cache, transport=reply)
    for a in everyone[::2]:
        warm.decide(batch.request(a), cohort[a])
    warm.close()
    calls.clear()
    warm_puts, cache.gets[:] = len(cache.puts), []
    policy = LlmPolicy(settings, cache, transport=reply)
    got = policy.decide_many(batch, cohort)
    policy.close()
    assert got.share.tolist() == [o.share for o in expected]
    assert got.comment == [o.comment for o in expected]
    assert got.transcript == [o.transcript_key for o in expected]
    assert got.parse_failure == [o.parse_failure for o in expected]
    assert any(got.parse_failure) and not all(got.parse_failure)
    # every lookup is made on the calling thread, every request on the pool
    caller = threading.current_thread().name
    assert {thread for thread, _, _ in cache.gets} == {caller}
    assert calls and all(thread.startswith("newssim-llm") for thread in calls)
    # only the odd agents' prompts went to the pool, each from attempt 0
    new_puts = cache.puts[warm_puts:]
    assert len(calls) == policy.network_calls == len(new_puts) == sum(
        1 + o.parse_failure for o in expected[1::2])
    assert sorted(a for _, _, a in new_puts if a == 0) == [0] * len(everyone[1::2])
    odd_keys = {o.transcript_key for o in expected[1::2]}
    assert {cache_key(settings.model, p, a) for _, p, a in new_puts} >= odd_keys


def test_a_lockstep_batch_asks_each_prompt_attempt_once():
    """The none and blocking runs of one group decide on the same prompts."""
    cohort = persona.sample_personas(10, rng_seed=5)
    n = len(cohort)
    batch = DecisionBatch(day=1, agents=np.tile(np.arange(n), 2),
                          runs=np.repeat(np.arange(2), n), news=(NEWS, NEWS),
                          template_id=("none", "none"), seed=(None, None))
    lock, asked = threading.Lock(), []

    def reply(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        with lock:
            attempt = sum(p == prompt for p in asked)
            asked.append(prompt)
        time.sleep(0.001)
        garbled = attempt == 0 and len(prompt) % 2
        return {"choices": [{"message": {"content": "huh" if garbled else "DECISION: SHARE"}}]}

    cache = RecordingCache()
    policy = LlmPolicy(LlmSettings(max_retries=0, reask_limit=2, concurrency=3), cache,
                       transport=reply)
    got = policy.decide_many(batch, cohort)
    policy.close()
    assert got.transcript[:n] == got.transcript[n:] and got.share.all()
    # the two runs share every prompt (agents whose personas read alike share one too)
    assert {p for _, p, _ in cache.puts} == {
        render_prompt(batch.request(a, 0), persona.render_persona_text(cohort[a]))
        for a in range(n)}
    puts = [(p, a) for _, p, a in cache.puts]
    assert len(puts) == len(set(puts)) == len(asked) == policy.network_calls
    assert len(asked) > n  # some prompts were re-asked: not vacuous


def test_llm_decide_many_names_the_day_and_agent_of_a_failure():
    cohort, batch = _cohort_batch(n=4, template_id="none")
    policy = LlmPolicy(LlmSettings(max_retries=0), DecisionCache(),
                       transport=make_transport([RuntimeError("refused")]))
    with pytest.raises(PolicyError, match=r"^day 2, agent 0: .*refused"):
        policy.decide_many(batch, cohort)
    policy.close()


# ---------------------------------------------------------------------------
# outcomes kept by decider inputs
# ---------------------------------------------------------------------------

KEPT_COHORT = persona.sample_personas(6, rng_seed=11)
#: one news id with two titles, and one title under two ids: the prompt, not
#: the id, must tell decisions apart
KEPT_NEWS = (
    NEWS,
    NewsItem(news_id=NEWS.news_id, title="Other headline", body=NEWS.body, veracity="fake"),
    NewsItem(news_id="n-2", title=NEWS.title, body="Another body.", veracity="real"),
)
COMMENT_POOL = ("agreed", "fake!", "sharing")
KEPT_SETTINGS = LlmSettings(max_retries=0, reask_limit=2, concurrency=2)
_REPLIES = ("no decision", "DECISION: IGNORE\nREASON: dull",
            "DECISION: SHARE\nCOMMENT: look\nREASON: big", "DECISION: SHARE")


def scripted_reply(prompt: str, attempt: int) -> str:
    """The mock endpoint's reply to the attempt-th ask of `prompt`; a quarter are garbled."""
    return _REPLIES[hashlib.sha256(f"{attempt}:{prompt}".encode()).digest()[0] % 4]


def scripted_transport(asked: list, lock: threading.Lock):
    """A transport that answers scripted_reply, appending each prompt asked to `asked`."""
    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        with lock:
            attempt = asked.count(prompt)
            asked.append(prompt)
        return {"choices": [{"message": {"content": scripted_reply(prompt, attempt)}}]}

    return transport


def refuse(url, headers, payload, timeout):
    raise AssertionError("network touched during replay")


@st.composite
def kept_batches(draw):
    """A DecisionBatch over 1-3 runs of KEPT_COHORT: random news, templates and
    deciders, and peer-comment histories up to twice MAX_PEER_COMMENTS long."""
    runs = draw(st.integers(1, 3))
    agents = st.sets(st.integers(0, len(KEPT_COHORT) - 1), max_size=len(KEPT_COHORT))
    deciders = [(r, a) for r in range(runs) for a in sorted(draw(agents))]
    comments = st.lists(st.sampled_from(COMMENT_POOL), max_size=2 * MAX_PEER_COMMENTS)
    history = {decider: tuple(draw(comments)) for decider in deciders}
    return DecisionBatch(
        day=draw(st.integers(1, 7)),
        agents=np.array([a for _, a in deciders], dtype=np.intp),
        runs=np.array([r for r, _ in deciders], dtype=np.intp),
        news=tuple(draw(st.sampled_from(KEPT_NEWS)) for _ in range(runs)),
        template_id=tuple(draw(st.sampled_from(TEMPLATE_IDS)) for _ in range(runs)),
        seed=(None,) * runs,
        peer_comments=lambda run, agent: history[run, agent],
    )


def columns(decisions: Decisions) -> tuple:
    return (decisions.share.tolist(), decisions.comment, decisions.transcript,
            decisions.parse_failure)


def fresh_decisions(cache: DecisionCache, batch: DecisionBatch) -> Decisions:
    """Each decider's outcome from decide() on a fresh policy replaying `cache`."""
    return Decisions.from_outcomes([
        LlmPolicy(KEPT_SETTINGS, cache, transport=refuse).decide(
            batch.request(agent, run), KEPT_COHORT[agent])
        for run, agent in batch.deciders()])


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(kept_batches(), min_size=1, max_size=4))
def test_a_replay_decides_every_decider_as_a_fresh_policy_does(batches):
    cache, asked = DecisionCache(), []
    record = LlmPolicy(KEPT_SETTINGS, cache,
                       transport=scripted_transport(asked, threading.Lock()))
    for batch in batches:  # a complete cache for every decider
        for run, agent in batch.deciders():
            record.decide(batch.request(agent, run), KEPT_COHORT[agent])
    record.close()
    replay = LlmPolicy(KEPT_SETTINGS, cache, transport=refuse)
    for batch in batches:
        assert columns(replay.decide_many(batch, KEPT_COHORT)) == columns(
            fresh_decisions(cache, batch))
    assert replay.network_calls == 0


def asks_needed(prompt: str) -> int:
    """Asks of `prompt` until a reply parses or the re-asks run out."""
    for attempt in range(KEPT_SETTINGS.reask_limit + 1):
        if parse_response(scripted_reply(prompt, attempt), False)[0] is not None:
            return attempt + 1
    return KEPT_SETTINGS.reask_limit + 1


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(kept_batches(), min_size=1, max_size=4))
def test_a_live_pass_asks_each_distinct_prompt_once_plus_its_reasks(batches):
    asked = []
    policy = LlmPolicy(KEPT_SETTINGS, DecisionCache(),
                       transport=scripted_transport(asked, threading.Lock()))
    try:
        got = [policy.decide_many(batch, KEPT_COHORT) for batch in batches]
    finally:
        policy.close()
    prompts = {render_prompt(batch.request(agent, run),
                             persona.render_persona_text(KEPT_COHORT[agent]))
               for batch in batches for run, agent in batch.deciders()}
    assert set(asked) == prompts
    assert len(asked) == policy.network_calls == sum(map(asks_needed, prompts))
    for batch, decisions in zip(batches, got):
        assert columns(decisions) == columns(fresh_decisions(policy.cache, batch))


def test_a_kept_outcome_skips_rendering_and_lookups(monkeypatch):
    """Two runs deciding alike render and look up each distinct input once,
    on every day, until close() forgets the kept outcomes."""
    from newssim import policy as policy_module

    n = len(KEPT_COHORT)
    batch = DecisionBatch(day=1, agents=np.tile(np.arange(n), 2),
                          runs=np.repeat(np.arange(2), n), news=(NEWS, NEWS),
                          template_id=("none", "none"), seed=(None, None))
    cache, asked = RecordingCache(), []
    LlmPolicy(KEPT_SETTINGS, cache,
              transport=scripted_transport(asked, threading.Lock())).decide_many(batch,
                                                                                 KEPT_COHORT)
    rendered = []

    def counting_render(req, persona_text, body_char_budget=1200):
        rendered.append(persona_text)
        return render_prompt(req, persona_text, body_char_budget)

    monkeypatch.setattr(policy_module, "render_prompt", counting_render)
    policy = LlmPolicy(KEPT_SETTINGS, cache, transport=refuse)
    cache.gets.clear()
    first = policy.decide_many(batch, KEPT_COHORT)
    lookups = len(cache.gets)
    assert len(rendered) == n and lookups >= n
    assert columns(policy.decide_many(batch, KEPT_COHORT)) == columns(first)
    assert len(rendered) == n and len(cache.gets) == lookups
    policy.close()
    assert columns(policy.decide_many(batch, KEPT_COHORT)) == columns(first)
    assert len(rendered) == 2 * n and len(cache.gets) == 2 * lookups


def test_decide_many_builds_requests_only_for_deciders_without_a_kept_outcome(monkeypatch):
    """Run 1 repeats run 0's last MAX_PEER_COMMENTS comments after one older
    comment: its deciders are keyed from the batch's columns, find run 0's
    outcomes kept, and build no request."""
    from newssim import policy as policy_module

    n = len(KEPT_COHORT)
    batch = DecisionBatch(day=2, agents=np.tile(np.arange(n), 2),
                          runs=np.repeat(np.arange(2), n), news=(NEWS, NEWS),
                          template_id=("commenting", "commenting"), seed=(None, None),
                          peer_comments=lambda run, agent: ("older",) * run
                          + COMMENT_POOL[:MAX_PEER_COMMENTS])
    cache = DecisionCache()
    LlmPolicy(KEPT_SETTINGS, cache, transport=scripted_transport([], threading.Lock())
              ).decide_many(batch, KEPT_COHORT)
    built = []

    class CountedRequest(DecisionRequest):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(policy_module, "DecisionRequest", CountedRequest)
    policy = LlmPolicy(KEPT_SETTINGS, cache, transport=refuse)
    first = policy.decide_many(batch, KEPT_COHORT)
    distinct = len({KEPT_COHORT.persona_text(a) for a in range(n)})
    assert len(built) == distinct
    assert columns(first)[0][:n] == columns(first)[0][n:]
    assert columns(policy.decide_many(batch, KEPT_COHORT)) == columns(first)
    assert len(built) == distinct
    policy.close()


def test_a_failed_ask_is_not_kept():
    transport = make_transport([RuntimeError("refused"), "DECISION: SHARE"])
    policy = LlmPolicy(LlmSettings(max_retries=0), DecisionCache(), transport=transport)
    with pytest.raises(PolicyError, match="refused"):
        policy.decide(request(), persona_at())
    policy.close()  # forgets the failed ask
    assert policy.decide(request(), persona_at()).share is True
    policy.close()
    assert len(transport.calls) == 2


def test_cache_keys_distinguish_attempts_and_prompts():
    k1 = cache_key("m", "prompt a", 0)
    assert cache_key("m", "prompt a", 1) != k1
    assert cache_key("m", "prompt b", 0) != k1
    assert cache_key("m2", "prompt a", 0) != k1


@pytest.mark.parametrize("changed", [{"temperature": 0.5},
                                     {"endpoint": "http://127.0.0.1:9/v1/chat/completions"}])
def test_a_cache_is_never_hit_under_other_settings(tmp_path, changed):
    path = tmp_path / "cache.jsonl"
    settings = LlmSettings(max_retries=0)
    first = LlmPolicy(settings, DecisionCache(path), transport=make_transport(["DECISION: SHARE"]))
    req, p = DecisionRequest(news=NEWS, day=1), persona_at()
    assert first.decide(req, p).source == "llm_live"
    first.cache.close()
    with DecisionCache(path) as cache:
        assert LlmPolicy(settings, cache).decide(req, p).source == "llm_cache"
        with pytest.raises(ValueError, match="was recorded under"):
            LlmPolicy(LlmSettings(max_retries=0, **changed), cache)
    in_memory = DecisionCache()
    LlmPolicy(settings, in_memory)
    with pytest.raises(ValueError, match="was recorded under"):
        LlmPolicy(LlmSettings(**changed), in_memory)


def test_cache_file_is_append_only_jsonl(tmp_path):
    path = tmp_path / "cache.jsonl"
    with DecisionCache(path) as cache:
        cache.put("k1", "model", "prompt", 0, "RESPONSE TEXT")
        cache.put("k2", "model", "prompt2", 0, "OTHER")
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["key"] == "k1" and rec["response"] == "RESPONSE TEXT"
    assert rec["prompt_sha"]
    reloaded = DecisionCache(path)
    assert len(reloaded) == 2
    assert reloaded.get("k2")["response"] == "OTHER"


def test_cache_appends_through_one_flushed_handle(tmp_path, monkeypatch):
    from newssim import policy as policy_module

    opened = []

    def counting_open(file, mode="r", **kwargs):
        opened.append(mode)
        return open(file, mode, **kwargs)

    monkeypatch.setattr(policy_module, "open", counting_open, raising=False)
    path = tmp_path / "cache.jsonl"
    with DecisionCache(path) as cache:
        for i in range(4):
            cache.put(f"k{i}", "m", f"prompt {i}", 0, f"DECISION: SHARE {i}")
            assert path.read_bytes().count(b"\n") == i + 1  # each line flushed at once
    assert opened.count("ab") == 1
    # one sorted-key JSON object per line, as a reload and the content hash read them
    assert path.read_bytes() == b"".join(
        json.dumps(cache.get(f"k{i}"), sort_keys=True).encode() + b"\n" for i in range(4))
    cache.put("k4", "m", "prompt 4", 0, "DECISION: IGNORE")  # reopens after close
    cache.close()
    cache.close()
    assert opened.count("ab") == 2 and len(DecisionCache(path)) == 5


def test_cache_appends_from_many_threads_stay_whole_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    threads, per_thread = 8, 200

    def work(cache, t):
        for i in range(per_thread):
            cache.put(f"k{t}.{i}", "m", f"prompt {t} {i}", 0, "DECISION: SHARE " * (i % 7))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with DecisionCache(path) as cache:
            workers = [threading.Thread(target=work, args=(cache, t)) for t in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b"" and len(lines) == threads * per_thread
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(
        f"k{t}.{i}" for t in range(threads) for i in range(per_thread))


def test_cache_hash_ignores_append_order(tmp_path):
    recs = [("k1", "DECISION: SHARE"), ("k2", "DECISION: IGNORE"), ("k3", "DECISION: SHARE")]

    def fill(path, order):
        with DecisionCache(path) as cache:
            for key, response in order:
                cache.put(key, "m", "prompt " + key, 0, response)
            return cache.content_hash()

    forward = fill(tmp_path / "a.jsonl", recs)
    assert fill(tmp_path / "b.jsonl", recs[::-1]) == forward
    assert fill(tmp_path / "d.jsonl", recs + recs[:1]) == forward  # a repeated append
    assert fill(tmp_path / "c.jsonl", recs + [("k4", "DECISION: SHARE")]) != forward


def one_record_cache(path):
    with DecisionCache(path) as cache:
        cache.put("k1", "m", "prompt 1", 0, "DECISION: SHARE")
    return path.read_bytes()


def test_cache_drops_a_torn_tail_and_appends_on_a_fresh_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = one_record_cache(path)
    path.write_bytes(whole + b'{"attempt": 0, "key": "k2", "resp')  # an append cut short
    with DecisionCache(path) as cache:
        assert len(cache) == 1
        assert path.read_bytes() == whole
        cache.put("k2", "m", "prompt 2", 0, "DECISION: IGNORE")
    reloaded = DecisionCache(path)
    assert len(reloaded) == 2 and reloaded.get("k2")["response"] == "DECISION: IGNORE"


def test_cache_keeps_a_complete_last_line_without_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = one_record_cache(path)
    path.write_bytes(whole.rstrip(b"\n"))
    with DecisionCache(path) as cache:
        assert len(cache) == 1
        cache.put("k2", "m", "prompt 2", 0, "DECISION: IGNORE")
    assert len(DecisionCache(path)) == 2


@pytest.mark.parametrize("line, after", [
    (b'{"key": "k2", "resp', b"\n"),
    (b'{"key": "k2", "resp', b"\n" + b'{"key": "k3", "response": "r"}\n'),
    (b'{"foo": 1}', b"\n"),
    (b'{"key": "k2"}', b""),  # a complete last line without its newline
    (b"[1, 2]", b"\n"),
    (b"not json", b"\n"),
    (b'{"settings": {"endpoint": "e", "temperature": 0.0}}', b"\n"),
], ids=["last", "middle", "no-key", "no-response", "not-an-object", "not-json",
        "settings-not-first"])
def test_cache_raises_on_a_bad_complete_line(tmp_path, line, after):
    path = tmp_path / "cache.jsonl"
    whole = one_record_cache(path)  # one transcript line
    path.write_bytes(whole + line + after)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        DecisionCache(path)
    assert path.read_bytes() == whole + line + after


def test_llm_settings_validation():
    with pytest.raises(ValueError, match="policy.llm.temperature must be >= 0, got -0.5"):
        LlmSettings.from_dict({"temperature": -0.5})
    with pytest.raises(ValueError):
        LlmSettings.from_dict({"modle": "typo"})
