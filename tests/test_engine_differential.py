"""The array engine against the set-based engine it replaced.

`oracle_run` is the earlier engine (version 0.2.0): sets of reached, pending
and sharing agents, and one inbox per agent. `OldDrawStub` is the 0.2.0 stub
draw, one SHA-256 per (agent, news), which the engine reaches through the
per-agent `decide_each` path. Under the same decisions both engines must
write byte-identical records and ask the policy the same requests. The
oracle logs one event per decision, as the 0.2.0 records did, and its
record assembly turns them into the format-4 columns, storing the meta it is
given as the engine does.

`run_group` steps a group of runs in lockstep; each of its records must equal
the record of the same run executed alone. A plan group picks each stub
cell's retry attempt in one-day probes; the attempt and record it keeps must
be those that full runs, tried one attempt at a time, would give.
"""

import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newssim import engine, ingest, persona, plan
from newssim.netgen import NetworkGenerationError
from newssim.plan import connected_network
from newssim.engine import RunRecord, RunSpec, blocking_candidates
from newssim.ingest import NewsItem
from newssim.netgen import Network
from newssim.policy import (
    _STUB_COMMENTS,
    DecisionOutcome,
    DecisionRequest,
    StubParams,
    StubPolicy,
)
from newssim.seeding import derive_seed
from policy_helpers import decide_each

NEWS = NewsItem(news_id="n-1", title="headline", body="body", veracity="fake")
META = {"config_sha": "0123456789abcdef", "labels": {"replicate": 0}}


class OldDrawStub:
    """The 0.2.0 stub: share when the (agent, news) hash's top 53 bits fall below p."""

    decide_many = decide_each

    def __init__(self, params, rng_seed):
        self.params, self.rng_seed = params, rng_seed
        self.requests = []

    def decide(self, req, p):
        self.requests.append((p.agent_id, req))
        stats = persona.DEFAULT_TRAIT_STATS
        e, o = persona.TRAITS.index("extraversion"), persona.TRAITS.index("openness")
        z_e = (p.big_five_scores[e] - stats.means[e]) / stats.sds[e]
        z_o = (p.big_five_scores[o] - stats.means[o]) / stats.sds[o]
        logit = self.params.intercept + self.params.weight_e * z_e + self.params.weight_o * z_o
        if req.template_id == "accuracy":
            logit += self.params.accuracy_penalty
        if req.template_id == "commenting":
            logit += self.params.comment_shift
        prob = 1.0 / (1.0 + math.exp(-logit))
        draw = derive_seed(self.rng_seed, "stub", p.agent_id, req.news.news_id)
        share = (draw >> 75) * 2.0**-53 < prob
        comment = None
        if share and req.template_id == "commenting":
            comment = _STUB_COMMENTS[draw % len(_STUB_COMMENTS)]
        return DecisionOutcome(share=share, comment=comment, rationale=f"p_share={prob:.4f}",
                               raw_response="", source="stub")


# ---------------------------------------------------------------------------
# the 0.2.0 engine, reduced to what a run needs
# ---------------------------------------------------------------------------

class _State:
    def __init__(self, n, source):
        self.n, self.day = n, 0
        self.reached, self.pending, self.spreaders, self.blocked = {source}, {source}, set(), set()
        self.inbox = {u: [] for u in range(n)}
        self.reach_day, self.reached_by = [-1] * n, [-1] * n
        self.reach_day[source] = 0
        self.accuracy_triggered = self.blocking_applied = False


def _oracle_request(state, agent, cfg):
    peer_comments, template_id = None, "none"
    if cfg.intervention_kind == "commenting":
        template_id = "commenting"
        peer_comments = tuple(c for (_, _, c) in sorted(state.inbox[agent], key=lambda d: d[:2])
                              if c is not None)
    if cfg.intervention_kind == "accuracy" and state.accuracy_triggered:
        template_id = "accuracy"
    return DecisionRequest(news=NEWS, day=state.day + 1, template_id=template_id,
                           peer_comments=peer_comments)


def _oracle_step(state, net, personas, policy, cfg, events):
    day = state.day + 1
    deciders = sorted(state.pending)
    requests = {a: _oracle_request(state, a, cfg) for a in deciders}
    outcomes = {a: policy.decide(requests[a], personas[a]) for a in deciders}
    adj = net.adjacency()
    spreading = []
    for agent in deciders:
        out = outcomes[agent]
        events.append({"type": "decision", "day": day, "agent": agent, "share": out.share,
                       "transcript": out.transcript_key, "comment": out.comment})
        if out.share:
            state.spreaders.add(agent)
            spreading.append((agent, out.comment))
    state.pending.clear()
    for agent, comment in spreading:
        for nbr in adj[agent]:
            if nbr in state.blocked:
                continue
            state.inbox[nbr].append((day, agent, comment))
            if nbr not in state.reached:
                state.reached.add(nbr)
                state.pending.add(nbr)
                state.reach_day[nbr], state.reached_by[nbr] = day, agent
    state.day = day


def _oracle_triggers(state, net, personas, cfg, events):
    prop = len(state.reached) / state.n
    kind, threshold = cfg.intervention_kind, cfg.trigger_threshold
    if kind == "accuracy" and not state.accuracy_triggered and prop >= threshold:
        state.accuracy_triggered = True
        events.append({"type": "accuracy_triggered", "day": state.day})
    if kind == "blocking" and not state.blocking_applied and prop >= threshold:
        state.blocking_applied = True
        to_block = blocking_candidates(net, personas)[:math.ceil(cfg.block_fraction * state.n)]
        for agent in to_block:
            state.blocked.add(agent)
            state.pending.discard(agent)
            state.inbox[agent] = []
        events.append({"type": "blocking_applied", "day": state.day, "blocked": to_block})


def oracle_run(cfg, net, personas, policy, meta) -> RunRecord:
    deg = [len(a) for a in net.adjacency()]
    source = max(range(net.n), key=lambda u: (deg[u], -u))
    state = _State(net.n, source)
    events = [{"type": "seed", "day": 0, "agent": source}]
    reached, forwarded = [1 / net.n], [0.0]
    _oracle_triggers(state, net, personas, cfg, events)
    for _ in range(cfg.days):
        _oracle_step(state, net, personas, policy, cfg, events)
        reached.append(len(state.reached) / net.n)
        forwarded.append(len(state.spreaders) / net.n)
        _oracle_triggers(state, net, personas, cfg, events)
    decisions = [e for e in events if e["type"] == "decision"]
    decision = [-1] * net.n
    for e in decisions:
        decision[e["agent"]] = int(e["share"])
    return RunRecord(
        meta=meta, reached_prop=reached, forwarded_prop=forwarded,
        reach_day=state.reach_day, reached_by=state.reached_by, decision=decision,
        comments={e["agent"]: e["comment"] for e in decisions
                  if e["share"] and e["comment"] is not None},
        transcripts={e["agent"]: e["transcript"] for e in decisions
                     if e["transcript"] is not None},
        events=[e for e in events if e["type"] != "decision"],
        effective=source in state.spreaders, taints=[],
    )


@pytest.fixture(scope="module")
def cohorts():
    out = {}
    for kind in ("random", "scale_free", "high_brokerage"):
        net = connected_network(kind, ingest.default_network_params(kind, 120), seed=3)
        out[kind] = (net, persona.sample_personas(net.n, rng_seed=4))
    return out


@pytest.mark.parametrize("kind", ["random", "scale_free", "high_brokerage"])
@pytest.mark.parametrize("intervention", ["none", "commenting", "accuracy", "blocking"])
@pytest.mark.parametrize("intercept", [-1.0, 0.0, 1.0, 2.5])
def test_array_engine_matches_set_engine_under_old_draws(cohorts, kind, intervention, intercept):
    net, personas = cohorts[kind]
    cfg = ingest.ExperimentConfig(intervention_kind=intervention)
    for seed in (1, 2, 3):
        params = StubParams(intercept=intercept, comment_shift=0.5)
        new, old = OldDrawStub(params, seed), OldDrawStub(params, seed)
        record = engine.run(cfg, net, personas, NEWS, new, meta=META)
        assert record.to_json() == oracle_run(cfg, net, personas, old, META).to_json()
        assert new.requests == old.requests


# ---------------------------------------------------------------------------
# lockstep groups against runs executed one at a time
# ---------------------------------------------------------------------------

class ScriptedHashPolicy:
    """Decides each (agent, news, template) by a hash, one agent at a time.

    Sharers under the commenting template leave a comment; every decision
    gets a transcript key, and a few are parse failures. The requests are
    logged by news id, so the runs of a group (one news item each) can be
    told apart.
    """

    decide_many = decide_each

    def __init__(self, share_below):
        self.share_below = share_below
        self.requests = {}

    def decide(self, req, p):
        self.requests.setdefault(req.news.news_id, []).append((p.agent_id, req))
        digest = hashlib.sha256(
            f"{p.agent_id}|{req.news.news_id}|{req.template_id}".encode()).digest()
        share = digest[0] < self.share_below
        comment = f"c{p.agent_id}" if share and req.template_id == "commenting" else None
        return DecisionOutcome(share=share, comment=comment, rationale=None, raw_response="",
                               source="llm_live", parse_failure=digest[1] < 8,
                               transcript_key=None if digest[2] < 64 else digest.hex())


@st.composite
def lockstep_groups(draw):
    """A random graph, a cohort, and R random run specs over them, of one `days`."""
    n = draw(st.integers(2, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    net = Network(n=n, edges=tuple(sorted(edges)), kind="random", gen_seed=0)
    personas = persona.sample_personas(n, rng_seed=draw(st.integers(0, 999)))
    if draw(st.booleans()):  # many blocking candidates, tied on degree
        personas = persona.pin_trait(personas, "openness", "high")
    days = draw(st.integers(0, 8))
    specs = []
    for r in range(draw(st.integers(1, 6))):
        cfg = ingest.ExperimentConfig(
            intervention_kind=draw(st.sampled_from(["none", "commenting", "accuracy",
                                                    "blocking"])),
            trigger_threshold=draw(st.floats(0.01, 1.0)),
            block_fraction=draw(st.sampled_from([0.0, 0.2, 0.5])),
            block_denominator=draw(st.sampled_from(["all_agents", "candidates"])),
        )
        cfg.days = days
        news = NewsItem(news_id=f"n-{r}", title="headline", body="body", veracity="fake")
        specs.append(RunSpec(cfg, news, seed=draw(st.integers(0, 2**64)),
                             meta={"config_sha": f"{r:016x}", "labels": {"run": r}}))
    return net, personas, specs


@settings(max_examples=120, deadline=None)
@given(group=lockstep_groups(), intercept=st.floats(-2.0, 3.0))
def test_run_group_equals_one_run_per_spec_under_the_stub(group, intercept):
    net, personas, specs = group
    params = StubParams(intercept=intercept, comment_shift=0.5, accuracy_penalty=-1.5)
    records = engine.run_group(specs, net, personas, StubPolicy(params)).records(specs)
    assert len(records) == len(specs)
    for spec, record in zip(specs, records):
        alone = engine.run(spec.config, net, personas, spec.news,
                           StubPolicy(params, rng_seed=spec.seed), meta=spec.meta)
        assert record.to_json() == alone.to_json()


@settings(max_examples=120, deadline=None)
@given(group=lockstep_groups(), share_below=st.integers(0, 256))
def test_run_group_asks_a_scripted_policy_what_single_runs_ask(group, share_below):
    net, personas, specs = group
    grouped = ScriptedHashPolicy(share_below)
    records = engine.run_group(specs, net, personas, grouped).records(specs)
    for spec, record in zip(specs, records):
        single = ScriptedHashPolicy(share_below)
        alone = engine.run(spec.config, net, personas, spec.news, single, meta=spec.meta)
        assert record.to_json() == alone.to_json()
        news_id = spec.news.news_id
        assert grouped.requests.get(news_id, []) == single.requests.get(news_id, [])


# ---------------------------------------------------------------------------
# a plan group's retry attempts against full runs, one attempt at a time
# ---------------------------------------------------------------------------

@st.composite
def retry_groups(draw):
    """The cells of one plan group: a small random network, one replicate,
    and up to four cells of any intervention, trigger and retry budget. A
    threshold at or below 1/n latches on day 0, before the source decides."""
    n = draw(st.integers(5, 24))
    base = ingest.ExperimentConfig(
        network_params={"n": n, "edge_prob": draw(st.floats(0.4, 0.9))},
        days=draw(st.integers(1, 4)), master_seed=draw(st.integers(0, 2**32)),
        stub_params={"intercept": draw(st.floats(-2.0, 2.0))})
    pin = draw(st.sampled_from([{}, {"trait": "openness", "level": "high"}]))
    replicate = draw(st.integers(0, 3))
    cells = []
    for i in range(draw(st.integers(1, 4))):
        cfg = replace(
            base,
            intervention_kind=draw(st.sampled_from(["none", "commenting", "accuracy",
                                                    "blocking"])),
            trigger_threshold=draw(st.one_of(st.just(1 / n), st.floats(0.01, 1.0))),
            block_fraction=draw(st.sampled_from([0.2, 0.5, 0.9])),
            block_denominator=draw(st.sampled_from(["all_agents", "candidates"])),
            effective_retry_budget=draw(st.integers(0, 5)))
        news = NewsItem(news_id=f"n-{i}", title="headline", body="body", veracity="fake")
        labels = {"intervention": cfg.intervention_kind, **pin}
        cells.append(plan.Cell(cfg, news, replicate, labels, f"cell{i}.json"))
    return cells


@settings(max_examples=80, deadline=None)
@given(cells=retry_groups())
def test_a_group_keeps_the_first_effective_attempt_of_full_runs(cells):
    params = StubParams.from_dict(cells[0].cfg.stub_params)
    try:
        records = plan._execute_group(cells, StubPolicy(params))
    except NetworkGenerationError:
        assume(False)
    _, net_params, net_seed, persona_seed, pin = plan._inputs(cells[0])
    net = plan._cached_network("random", net_params, net_seed)
    personas = plan._cached_cohort(net.n, persona_seed)
    if pin:
        personas = persona.pin_trait(personas, pin[0], pin[1], offset=pin[2])
    for cell, record in zip(cells, records, strict=True):
        budget = cell.cfg.effective_retry_budget
        for attempt in range(budget + 1):
            seed = derive_seed(cell.cfg.master_seed, "decide", cell.replicate,
                               cell.news.news_id, attempt)
            full = engine.run(cell.cfg, net, personas, cell.news,
                              StubPolicy(params, rng_seed=seed), meta=record.meta)
            if full.effective:
                break
        labels = record.meta["labels"]
        assert (labels["attempt"], labels["decision_seed"]) == (attempt, seed)
        assert record.to_json() == full.to_json()
