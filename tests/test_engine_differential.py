"""The array engine against the set-based engine it replaced.

`oracle_run` is the earlier engine (version 0.2.0): sets of reached, pending
and sharing agents, and one inbox per agent. `OldDrawStub` is the 0.2.0 stub
draw, one SHA-256 per (agent, news), which the engine reaches through the
per-agent `decide_each` path. Under the same decisions both engines must
write byte-identical records and ask the policy the same requests.
"""

import math

import pytest

from newssim import engine, ingest, persona
from newssim.cli import connected_network
from newssim.engine import InterventionSpec, RunRecord, blocking_candidates
from newssim.ingest import NewsItem, config_snapshot
from newssim.policy import _STUB_COMMENTS, DecisionOutcome, DecisionRequest, StubParams
from newssim.seeding import derive_seed

NEWS = NewsItem(news_id="n-1", title="headline", body="body", veracity="fake")


class OldDrawStub:
    """The 0.2.0 stub: share when the (agent, news) hash's top 53 bits fall below p."""

    concurrency = 1

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
        if req.accuracy_notice:
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

    def identity(self):
        return {"kind": "old-draw", "rng_seed": self.rng_seed}


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


def _oracle_request(state, agent, intervention):
    peer_comments, template_id = None, "none"
    if intervention.kind == "commenting":
        template_id = "commenting"
        peer_comments = tuple(c for (_, _, c) in sorted(state.inbox[agent], key=lambda d: d[:2])
                              if c is not None)
    notice = intervention.kind == "accuracy" and state.accuracy_triggered
    if notice:
        template_id = "accuracy"
    return DecisionRequest(news=NEWS, day=state.day + 1, template_id=template_id,
                           peer_comments=peer_comments, accuracy_notice=notice)


def _oracle_step(state, net, personas, policy, intervention, events):
    day = state.day + 1
    deciders = sorted(state.pending)
    requests = {a: _oracle_request(state, a, intervention) for a in deciders}
    outcomes = {a: policy.decide(requests[a], personas[a]) for a in deciders}
    adj = net.adjacency()
    spreading = []
    for agent in deciders:
        out = outcomes[agent]
        events.append({"type": "decision", "day": day, "agent": agent, "share": out.share,
                       "policy": out.policy_kind(), "transcript": out.transcript_key,
                       "comment": out.comment, "rationale": out.rationale})
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


def _oracle_triggers(state, net, personas, spec, events):
    prop = len(state.reached) / state.n
    if spec.kind == "accuracy" and not state.accuracy_triggered and prop >= spec.trigger_threshold:
        state.accuracy_triggered = True
        events.append({"type": "accuracy_triggered", "day": state.day})
    if spec.kind == "blocking" and not state.blocking_applied and prop >= spec.trigger_threshold:
        state.blocking_applied = True
        to_block = blocking_candidates(net, personas)[:math.ceil(spec.block_fraction * state.n)]
        for agent in to_block:
            state.blocked.add(agent)
            state.pending.discard(agent)
            state.inbox[agent] = []
        events.append({"type": "blocking_applied", "day": state.day, "blocked": to_block})


def oracle_run(cfg, net, personas, policy) -> RunRecord:
    spec = InterventionSpec(kind=cfg.intervention_kind, trigger_threshold=cfg.trigger_threshold,
                            block_fraction=cfg.block_fraction)
    deg = [len(a) for a in net.adjacency()]
    source = max(range(net.n), key=lambda u: (deg[u], -u))
    state = _State(net.n, source)
    events = [{"type": "seed", "day": 0, "agent": source}]
    reached, forwarded = [1 / net.n], [0.0]
    _oracle_triggers(state, net, personas, spec, events)
    for _ in range(cfg.days):
        _oracle_step(state, net, personas, policy, spec, events)
        reached.append(len(state.reached) / net.n)
        forwarded.append(len(state.spreaders) / net.n)
        _oracle_triggers(state, net, personas, spec, events)
    meta = {"config": config_snapshot(cfg), "news_id": NEWS.news_id, "source_agent": source,
            "policy": policy.identity(), "labels": {}}
    return RunRecord(meta=meta, reached_prop=reached, forwarded_prop=forwarded,
                     reach_day=state.reach_day, reached_by=state.reached_by, events=events,
                     effective=source in state.spreaders, taints=[])


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
        record = engine.run(cfg, net, personas, NEWS, new)
        assert record.to_json() == oracle_run(cfg, net, personas, old).to_json()
        assert new.requests == old.requests
