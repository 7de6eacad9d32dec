import json
import math
import string
import sys
import threading

import numpy as np
import pytest

from newssim import engine, persona
from newssim.ingest import ExperimentConfig, NewsItem
from newssim.netgen import gen_random
from newssim.persona import DEFAULT_TRAIT_STATS, TRAITS, AgentPersona
from newssim.policy import (
    _STUB_COMMENTS,
    REFUTATION_SENTENCE,
    DecisionBatch,
    DecisionCache,
    DecisionRequest,
    LlmPolicy,
    LlmSettings,
    PolicyError,
    StubParams,
    StubPolicy,
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


def request(template_id="none", peer_comments=None, accuracy_notice=False, day=1):
    return DecisionRequest(
        news=NEWS,
        day=day,
        template_id=template_id,
        peer_comments=peer_comments,
        accuracy_notice=accuracy_notice,
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
    return persona.Cohort(persona.sample_personas(n, rng_seed=seed))


def _outcomes(decisions, agents):
    return {
        a: (s, c, r) for a, s, c, r in zip(agents, decisions.share.tolist(), decisions.comment,
                                          decisions.rationale)
    }


@pytest.mark.parametrize("template_id", ["none", "commenting", "accuracy"])
def test_decide_many_is_independent_of_batch_order_and_split(template_id):
    cohort = _cohort(400)
    policy = StubPolicy(StubParams(intercept=0.0), rng_seed=21)
    notice = template_id == "accuracy"

    def decide(agents):
        batch = DecisionBatch(news=NEWS, day=2, agents=np.asarray(agents),
                              template_id=template_id, accuracy_notice=notice,
                              peer_comments=lambda a: ())
        return _outcomes(policy.decide_many(batch, cohort), list(agents))

    whole = decide(range(400))
    assert 0 < sum(s for s, _, _ in whole.values()) < 400
    permuted = np.random.default_rng(1).permutation(400)
    assert decide(permuted) == whole
    assert {**decide(permuted[:137]), **decide(permuted[137:])} == whole
    # a plain list decides as the Cohort does, and decide() as the batch does
    batch = DecisionBatch(news=NEWS, day=2, agents=np.arange(400), template_id=template_id,
                          accuracy_notice=notice, peer_comments=lambda a: ())
    assert _outcomes(policy.decide_many(batch, list(cohort)), range(400)) == whole
    for a in (0, 7, 399):
        out = policy.decide(batch.request(a), cohort[a])
        assert (out.share, out.comment, out.rationale) == whole[a]


def test_none_and_blocking_runs_share_their_decisions():
    net = gen_random(200, 0.05, seed=8)
    cohort = _cohort(200, seed=8)
    decided = {}
    for kind in ("none", "blocking"):
        cfg = ExperimentConfig(intervention_kind=kind)
        rec = engine.run(cfg, net, cohort, NEWS, StubPolicy(StubParams(intercept=1.5),
                                                             rng_seed=5))
        decided[kind] = {e["agent"]: (e["day"], e["share"], e["rationale"])
                         for e in rec.events if e["type"] == "decision"}
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
    cohort = [persona_at(agent_id=a) for a in agents]
    batch = DecisionBatch(news=NEWS, day=1, agents=agents, template_id="commenting",
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
    with pytest.raises(ValueError):
        request(template_id="none", accuracy_notice=True)


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
    text = render_prompt(request("commenting", peer_comments=comments), PERSONA_TEXT,
                         max_peer_comments=3)
    assert "comment 5" in text and "comment 3" in text
    assert "comment 2" not in text


def test_render_accuracy_refutation_exactly_once():
    text = render_prompt(request("accuracy", accuracy_notice=True), PERSONA_TEXT)
    assert text.count(REFUTATION_SENTENCE) == 1


def test_render_body_truncated_by_budget():
    long_news = NewsItem(news_id="n", title="t", body="word " * 2000, veracity="fake")
    req = DecisionRequest(news=long_news, day=1)
    text = render_prompt(req, "p", body_char_budget=200)
    assert len(text) < 600


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
    policy = LlmPolicy(settings, transport=transport, api_key="sk-test")
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
    policy = LlmPolicy(settings, transport=transport)
    first = policy.decide(request(), persona_at())
    assert policy.network_calls == 1

    # a fresh policy over the same cache file must not touch the wire
    def boom(*a, **k):
        raise AssertionError("network touched during replay")

    replay = LlmPolicy(LlmSettings(cache_path=cache_path), transport=boom)
    second = replay.decide(request(), persona_at())
    assert replay.network_calls == 0
    assert second.source == "llm_cache"
    assert second.raw_response == first.raw_response
    assert (second.share, second.comment, second.rationale) == (
        first.share, first.comment, first.rationale)


def test_llm_reask_then_fallback(tmp_path):
    transport = make_transport(["maybe??", "huh", "still nothing"])
    settings = LlmSettings(cache_path=None, reask_limit=2, max_retries=0)
    policy = LlmPolicy(settings, transport=transport)
    out = policy.decide(request(), persona_at())
    assert out.share is False and out.parse_failure
    assert len(transport.calls) == 3  # one per re-ask attempt


def test_llm_reask_recovers_on_second_attempt():
    transport = make_transport(["garbled", "DECISION: SHARE"])
    policy = LlmPolicy(LlmSettings(reask_limit=2, max_retries=0), transport=transport)
    out = policy.decide(request(), persona_at())
    assert out.share is True and not out.parse_failure
    assert len(transport.calls) == 2


def test_llm_network_failure_aborts():
    transport = make_transport([RuntimeError("connection refused")])
    policy = LlmPolicy(LlmSettings(max_retries=1), transport=transport)
    with pytest.raises(PolicyError, match="2 tries"):
        policy.decide(request(), persona_at())
    assert len(transport.calls) == 2


def test_llm_retries_transient_then_succeeds():
    transport = make_transport([RuntimeError("503"), "DECISION: SHARE"])
    policy = LlmPolicy(LlmSettings(max_retries=2), transport=transport)
    out = policy.decide(request(), persona_at())
    assert out.share is True
    assert len(transport.calls) == 2


def test_network_calls_counted_across_threads():
    policy = LlmPolicy(LlmSettings(), transport=make_transport(["DECISION: SHARE"]))
    threads, per_thread = 8, 500

    def work(t):
        for i in range(per_thread):
            policy._complete(f"prompt {t} {i}", 0)

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
    assert not any(w.is_alive() for w in workers)
    assert policy.network_calls == threads * per_thread


def test_cache_keys_distinguish_attempts_and_prompts():
    k1 = cache_key("m", "prompt a", 0)
    assert cache_key("m", "prompt a", 1) != k1
    assert cache_key("m", "prompt b", 0) != k1
    assert cache_key("m2", "prompt a", 0) != k1


def test_cache_file_is_append_only_jsonl(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = DecisionCache(path)
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


def test_cache_hash_ignores_append_order(tmp_path):
    recs = [("k1", "DECISION: SHARE"), ("k2", "DECISION: IGNORE"), ("k3", "DECISION: SHARE")]

    def fill(path, order):
        cache = DecisionCache(path)
        for key, response in order:
            cache.put(key, "m", "prompt " + key, 0, response)
        return cache.content_hash()

    forward = fill(tmp_path / "a.jsonl", recs)
    assert fill(tmp_path / "b.jsonl", recs[::-1]) == forward
    assert fill(tmp_path / "d.jsonl", recs + recs[:1]) == forward  # a repeated append
    assert fill(tmp_path / "c.jsonl", recs + [("k4", "DECISION: SHARE")]) != forward


def one_record_cache(path):
    DecisionCache(path).put("k1", "m", "prompt 1", 0, "DECISION: SHARE")
    return path.read_bytes()


def test_cache_drops_a_torn_tail_and_appends_on_a_fresh_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = one_record_cache(path)
    path.write_bytes(whole + b'{"attempt": 0, "key": "k2", "resp')  # an append cut short
    cache = DecisionCache(path)
    assert len(cache) == 1
    assert path.read_bytes() == whole
    cache.put("k2", "m", "prompt 2", 0, "DECISION: IGNORE")
    reloaded = DecisionCache(path)
    assert len(reloaded) == 2 and reloaded.get("k2")["response"] == "DECISION: IGNORE"


def test_cache_keeps_a_complete_last_line_without_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = one_record_cache(path)
    path.write_bytes(whole.rstrip(b"\n"))
    cache = DecisionCache(path)
    assert len(cache) == 1
    cache.put("k2", "m", "prompt 2", 0, "DECISION: IGNORE")
    assert len(DecisionCache(path)) == 2


@pytest.mark.parametrize("after", [b"\n", b"\n" + b'{"key": "k3"}\n'], ids=["last", "middle"])
def test_cache_raises_on_a_bad_complete_line(tmp_path, after):
    path = tmp_path / "cache.jsonl"
    whole = one_record_cache(path)
    path.write_bytes(whole + b'{"key": "k2", "resp' + after)
    with pytest.raises(ValueError):
        DecisionCache(path)


def test_llm_settings_validation():
    with pytest.raises(ValueError):
        LlmSettings(temperature=-0.5)
    with pytest.raises(ValueError):
        LlmSettings.from_dict({"modle": "typo"})
