import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newssim import engine as engine_mod
from newssim import persona as persona_mod
from newssim.engine import (
    DiffusionState,
    InterventionSpec,
    RunRecord,
    apply_accuracy_intervention,
    apply_blocking_intervention,
    blocking_candidates,
    initial_state,
    run,
    select_source,
    step_day,
)
from newssim.ingest import ExperimentConfig, NewsItem
from newssim.netgen import Network, gen_random
from newssim.policy import DecisionOutcome, StubParams, StubPolicy

NEWS = NewsItem(news_id="n-1", title="headline", body="body", veracity="fake")


def net_from_edges(n, edges):
    return Network(
        n=n,
        edges=tuple(sorted((min(u, v), max(u, v)) for u, v in edges)),
        kind="random",
        gen_seed=0,
    )


def star(n):
    return net_from_edges(n, [(0, i) for i in range(1, n)])


def config(days=7, intervention="none", **kw):
    cfg = ExperimentConfig(intervention_kind=intervention, **kw)
    cfg.days = days
    return cfg


class ScriptedPolicy:
    """share per agent id; defaults to False."""

    concurrency = 1

    def __init__(self, shares):
        self.shares = shares

    def decide(self, req, persona):
        share = self.shares.get(persona.agent_id, False)
        return DecisionOutcome(
            share=share, comment=None, rationale=None,
            raw_response="", source="stub",
        )

    def identity(self):
        return {"kind": "scripted"}


def always_share():
    return StubPolicy(StubParams(intercept=50.0), rng_seed=0)


def never_share():
    return StubPolicy(StubParams(intercept=-50.0), rng_seed=0)


def bfs_layers(net, source):
    """Oracle: plain BFS distance layers."""
    adj = net.adjacency()
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    layers = {}
    for node, d in dist.items():
        layers.setdefault(d, set()).add(node)
    return layers


# ---------------------------------------------------------------------------
# source selection
# ---------------------------------------------------------------------------

def test_select_source_star_hub():
    assert select_source(star(5)) == 0


def test_select_source_all_tie_lowest_id():
    k4 = net_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert select_source(k4) == 0


def test_select_source_two_hubs_tie():
    edges = [(3, 0), (3, 1), (3, 2), (7, 4), (7, 5), (7, 6)]
    assert select_source(net_from_edges(8, edges)) == 3


# ---------------------------------------------------------------------------
# basic runs
# ---------------------------------------------------------------------------

def test_star_full_reach_day_one():
    personas = persona_mod.sample_personas(5, rng_seed=0)
    rec = run(config(days=7), star(5), personas, NEWS, always_share())
    assert rec.reached_prop[0] == pytest.approx(1 / 5)
    assert rec.reached_prop[1] == 1.0
    assert rec.reached_prop[-1] == 1.0
    assert rec.effective


def test_source_declines_freezes_run():
    personas = persona_mod.sample_personas(5, rng_seed=0)
    rec = run(config(days=7), star(5), personas, NEWS, never_share())
    assert not rec.effective
    assert rec.forwarded_prop == [0.0] * 8
    assert rec.reached_prop == [pytest.approx(1 / 5)] * 8


def test_idle_days_are_not_stepped(monkeypatch):
    stepped = []
    real_step = engine_mod.step_day

    def counting_step(state, *args):
        stepped.append(state.day)
        return real_step(state, *args)

    monkeypatch.setattr(engine_mod, "step_day", counting_step)
    personas = persona_mod.sample_personas(5, rng_seed=0)
    rec = run(config(days=7), star(5), personas, NEWS, never_share())
    assert stepped == [0]
    assert len(rec.reached_prop) == len(rec.forwarded_prop) == 8


def test_triangle_hand_trace():
    tri = net_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    personas = persona_mod.sample_personas(3, rng_seed=0)
    policy = ScriptedPolicy({0: True, 1: False, 2: False})
    rec = run(config(days=3), tri, personas, NEWS, policy)
    assert rec.reached_prop == [pytest.approx(1 / 3), 1.0, 1.0, 1.0]
    assert rec.forwarded_prop == [0.0] + [pytest.approx(1 / 3)] * 3
    decisions = [e for e in rec.events if e["type"] == "decision"]
    assert [(e["agent"], e["share"]) for e in decisions] == [(0, True), (1, False), (2, False)]


def test_two_clique_bridge_reaches_at_eccentricity():
    # cliques {0..4} and {5..9} joined by (4, 5); degrees make node 4 the source
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    edges += [(4, 5)]
    net = net_from_edges(10, edges)
    source = select_source(net)
    layers = bfs_layers(net, source)
    ecc = max(layers)
    personas = persona_mod.sample_personas(10, rng_seed=0)
    rec = run(config(days=6), net, personas, NEWS, always_share())
    first_full = next(d for d, p in enumerate(rec.reached_prop) if p == 1.0)
    assert first_full == ecc


def test_wavefront_equals_bfs_layers():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(10, 60))
        net = gen_random(n, 0.15, seed=int(rng.integers(0, 10_000)))
        source = select_source(net)
        oracle = bfs_layers(net, source)
        if len(set().union(*oracle.values())) != n:
            continue  # disconnected sample; covered by acceptance with retries
        personas = persona_mod.sample_personas(n, rng_seed=1)
        rec = run(config(days=n), net, personas, NEWS, always_share())
        assert rec.first_reached_by_day() == oracle


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    return net_from_edges(n, edges)


@settings(max_examples=80, deadline=None)
@given(
    net=small_graphs(),
    seed=st.integers(0, 2**32 - 1),
    intercept=st.floats(-1.0, 3.0),
    intervention=st.sampled_from(["none", "commenting", "accuracy", "blocking"]),
)
def test_reach_columns_match_first_delivery(net, seed, intercept, intervention):
    personas = persona_mod.sample_personas(net.n, rng_seed=seed % 1000)
    rec = run(config(days=6, intervention=intervention), net, personas, NEWS,
              StubPolicy(StubParams(intercept=intercept), rng_seed=seed))
    adj = net.adjacency()
    source = rec.meta["source_agent"]
    shared_on = {e["agent"]: e["day"] for e in rec.events
                 if e["type"] == "decision" and e["share"]}
    assert len(rec.reach_day) == len(rec.reached_by) == net.n
    assert (rec.reach_day[source], rec.reached_by[source]) == (0, -1)
    for v in range(net.n):
        day, sender = rec.reach_day[v], rec.reached_by[v]
        if v == source:
            continue
        if day < 0:
            assert (day, sender) == (-1, -1)
            continue
        # the first delivery came from the lowest-id neighbour sharing that day
        senders = [u for u in adj[v] if shared_on.get(u) == day]
        assert senders and sender == min(senders)
    layers = {}
    for v, day in enumerate(rec.reach_day):
        if day >= 0:
            layers.setdefault(day, set()).add(v)
    assert rec.first_reached_by_day() == layers
    for day, prop in enumerate(rec.reached_prop):
        assert sum(1 for d in rec.reach_day if 0 <= d <= day) == round(prop * net.n)


@settings(max_examples=60, deadline=None)
@given(
    net=small_graphs(),
    seed=st.integers(0, 2**32 - 1),
    intercept=st.floats(-2.0, 2.0),
    intervention=st.sampled_from(["none", "commenting", "accuracy", "blocking"]),
    threshold=st.floats(0.01, 1.0),
)
def test_skipping_idle_days_matches_stepping_every_day(net, seed, intercept, intervention,
                                                       threshold):
    cfg = config(days=6, intervention=intervention, trigger_threshold=threshold)
    personas = persona_mod.sample_personas(net.n, rng_seed=seed % 1000)
    policy = StubPolicy(StubParams(intercept=intercept), rng_seed=seed)
    rec = run(cfg, net, personas, NEWS, policy)

    # reference: step all cfg.days days, idle ones included
    spec = InterventionSpec(kind=intervention, trigger_threshold=threshold)
    state = initial_state(net, select_source(net))
    events = [{"type": "seed", "day": 0, "agent": rec.meta["source_agent"]}]
    taints = []
    reached, forwarded = [state.reached_prop()], [state.forwarded_prop()]
    engine_mod._evaluate_triggers(state, net, personas, spec, events)
    for _ in range(cfg.days):
        step_day(state, net, personas, NEWS, policy, spec, events, taints)
        reached.append(state.reached_prop())
        forwarded.append(state.forwarded_prop())
        engine_mod._evaluate_triggers(state, net, personas, spec, events)

    assert (rec.reached_prop, rec.forwarded_prop) == (reached, forwarded)
    assert (rec.events, rec.taints) == (events, taints)
    assert (rec.reach_day, rec.reached_by) == (state.reach_day, state.reached_by)


def test_series_monotone_and_ordered():
    rng = np.random.default_rng(9)
    for intervention in ("none", "commenting", "accuracy", "blocking"):
        net = gen_random(80, 0.08, seed=int(rng.integers(0, 10_000)))
        personas = persona_mod.sample_personas(80, rng_seed=2)
        rec = run(config(days=7, intervention=intervention), net, personas, NEWS,
                  StubPolicy(rng_seed=33))
        assert len(rec.reached_prop) == 8 and len(rec.forwarded_prop) == 8
        for a, b in zip(rec.reached_prop, rec.reached_prop[1:]):
            assert b >= a
        for a, b in zip(rec.forwarded_prop, rec.forwarded_prop[1:]):
            assert b >= a
        for r, f in zip(rec.reached_prop, rec.forwarded_prop):
            assert f <= r


def test_single_decision_per_agent():
    net = gen_random(60, 0.1, seed=4)
    personas = persona_mod.sample_personas(60, rng_seed=4)
    rec = run(config(days=7), net, personas, NEWS, StubPolicy(rng_seed=8))
    deciders = [e["agent"] for e in rec.events if e["type"] == "decision"]
    assert len(deciders) == len(set(deciders))


def test_replay_byte_identical():
    net = gen_random(50, 0.12, seed=6)
    personas = persona_mod.sample_personas(50, rng_seed=6)
    rec1 = run(config(days=7), net, personas, NEWS, StubPolicy(rng_seed=10))
    rec2 = run(config(days=7), net, personas, NEWS, StubPolicy(rng_seed=10))
    assert rec1.to_json() == rec2.to_json()
    assert RunRecord.from_json(rec1.to_json()).to_dict() == rec1.to_dict()


# ---------------------------------------------------------------------------
# accuracy intervention
# ---------------------------------------------------------------------------

def test_accuracy_trigger_boundary():
    state = DiffusionState(n=1000)
    state.day_reached[:99] = 0
    apply_accuracy_intervention(state, 0.10)
    assert not state.accuracy_triggered  # 9.9%
    state.day_reached[:100] = 0
    apply_accuracy_intervention(state, 0.10)
    assert state.accuracy_triggered  # 10.0%, >= comparison


def test_accuracy_latches():
    state = DiffusionState(n=10)
    state.day_reached[:5] = 0
    apply_accuracy_intervention(state, 0.10)
    assert state.accuracy_triggered
    state.day_reached[:] = -1
    apply_accuracy_intervention(state, 0.10)
    assert state.accuracy_triggered


def test_accuracy_threshold_one_never_fires_early():
    state = DiffusionState(n=10)
    state.day_reached[:9] = 0
    apply_accuracy_intervention(state, 1.0)
    assert not state.accuracy_triggered
    state.day_reached[:] = 0
    apply_accuracy_intervention(state, 1.0)
    assert state.accuracy_triggered


def test_accuracy_notice_reaches_requests_next_day():
    # star n=20: day-0 reach 5% < 10%; source shares day 1 (reach 100%),
    # so the trigger latches at day-1 end and only day-2 deciders see it
    seen = []

    class Spy(ScriptedPolicy):
        def decide(self, req, persona):
            seen.append((req.day, persona.agent_id, req.accuracy_notice, req.template_id))
            return super().decide(req, persona)

    personas = persona_mod.sample_personas(20, rng_seed=0)
    run(config(days=2, intervention="accuracy"), star(20), personas, NEWS,
        Spy({0: True}))
    day1 = [s for s in seen if s[0] == 1]
    day2 = [s for s in seen if s[0] == 2]
    assert all(not notice for (_, _, notice, _) in day1)
    assert all(notice and tid == "accuracy" for (_, _, notice, tid) in day2)


def test_accuracy_penalty_reduces_reach():
    net = gen_random(120, 0.08, seed=3)
    personas = persona_mod.sample_personas(120, rng_seed=3)
    seed = next(
        s for s in range(50)
        if run(config(days=7), net, personas, NEWS, StubPolicy(rng_seed=s)).effective
    )
    base = run(config(days=7), net, personas, NEWS, StubPolicy(rng_seed=seed))
    treated = run(config(days=7, intervention="accuracy"), net, personas, NEWS,
                  StubPolicy(StubParams(accuracy_penalty=-50.0), rng_seed=seed))
    assert treated.reached_prop[-1] < base.reached_prop[-1]


# ---------------------------------------------------------------------------
# blocking intervention
# ---------------------------------------------------------------------------

def test_blocking_blocks_exactly_quota():
    net = gen_random(300, 12.07 / 299, seed=1)
    personas = persona_mod.sample_personas(300, rng_seed=1)
    assert len(blocking_candidates(net, personas)) >= 60
    rec = run(config(days=7, intervention="blocking"), net, personas, NEWS, always_share())
    blocked_events = [e for e in rec.events if e["type"] == "blocking_applied"]
    assert len(blocked_events) == 1
    blocked = set(blocked_events[0]["blocked"])
    assert len(blocked) == math.ceil(0.20 * 300) == 60
    day_blocked = blocked_events[0]["day"]
    reached_after = [v for v, d in enumerate(rec.reach_day) if d > day_blocked]
    assert reached_after  # the checks below are not vacuous
    # no blocked agent is first reached after the block ...
    assert all(rec.reach_day[a] <= day_blocked for a in blocked)
    # ... nor first reaches anyone after it
    assert not {rec.reached_by[v] for v in reached_after} & blocked
    for e in rec.events:
        if e["type"] == "decision" and e["day"] > day_blocked:
            assert e["agent"] not in blocked


def test_blocking_candidates_ranked_by_degree_then_id():
    edges = [(0, i) for i in range(1, 4)] + [(4, i) for i in range(5, 8)] + [(3, 8)]
    net = net_from_edges(9, edges)
    personas = persona_mod.pin_trait(
        persona_mod.sample_personas(9, rng_seed=0), "openness", "high"
    )
    cands = blocking_candidates(net, personas)
    deg = net.degrees()
    assert [deg[c] for c in cands] == sorted((int(d) for d in deg), reverse=True)
    assert cands[0] == 0 and cands[1] == 4  # equal degree 3, lower id first


def test_blocking_zero_candidates_noop():
    net = gen_random(50, 0.15, seed=2)
    personas = persona_mod.sample_personas(50, rng_seed=2)
    personas = persona_mod.pin_trait(personas, "openness", "low")
    personas = persona_mod.pin_trait(personas, "extraversion", "low")
    rec = run(config(days=7, intervention="blocking"), net, personas, NEWS, always_share())
    events = [e for e in rec.events if e["type"] == "blocking_applied"]
    assert len(events) == 1 and events[0]["blocked"] == []
    assert rec.reached_prop[-1] == 1.0


def test_blocking_dead_end_candidate_still_blocked():
    net = star(6)
    personas = persona_mod.pin_trait(
        persona_mod.sample_personas(6, rng_seed=0), "openness", "high"
    )
    state = initial_state(net, 0)
    state.decision[3] = 0  # a dead end
    state.day_reached[:] = 0
    apply_blocking_intervention(state, net, personas, 0.10, 0.20)
    assert state.blocked[0]  # hub is the top candidate
    assert 0 not in state.pending
    assert np.count_nonzero(state.blocked) == math.ceil(0.2 * 6)


def test_blocking_candidate_pool_denominator():
    net = star(10)
    personas = persona_mod.pin_trait(
        persona_mod.sample_personas(10, rng_seed=0), "openness", "high"
    )
    state = initial_state(net, 0)
    state.day_reached[:] = 0
    apply_blocking_intervention(state, net, personas, 0.10, 0.20,
                                block_denominator="candidates")
    assert np.count_nonzero(state.blocked) == math.ceil(
        0.2 * len(blocking_candidates(net, personas)))


def test_blocking_drops_pending_and_inbox():
    net = star(10)
    personas = persona_mod.pin_trait(
        persona_mod.sample_personas(10, rng_seed=0), "extraversion", "high"
    )
    state = initial_state(net, 0)
    # day 1: the hub shared, reaching leaf 1, which would decide on day 2
    state.day = 1
    state.decision[0], state.day_shared[0] = 1, 1
    state.comments[0] = "a comment"
    state.day_reached[1], state.sender[1] = 1, 0
    assert state.pending == [1]
    apply_blocking_intervention(state, net, personas, 0.10, 0.20)
    assert state.blocked[0] and state.blocked[1]  # hub + lowest-id leaf
    assert 1 not in state.pending
    # the comment delivered to leaf 1 is never read: leaf 1 is asked nothing
    asked = []

    class Spy(ScriptedPolicy):
        def decide(self, req, persona):
            asked.append(persona.agent_id)
            return super().decide(req, persona)

    step_day(state, net, personas, NEWS, Spy({}), InterventionSpec("commenting"), [], [])
    assert asked == []
    assert state.blocking_applied


def test_conservation_each_day():
    net = gen_random(150, 0.07, seed=11)
    personas = persona_mod.sample_personas(150, rng_seed=11)
    cfg = config(days=7, intervention="blocking")
    spec = InterventionSpec("blocking", cfg.trigger_threshold, cfg.block_fraction)
    state = initial_state(net, select_source(net))
    events, taints = [], []
    # the first decision seed from 14 on whose run applies the block (any
    # stream has one), so the block checks below are not vacuous
    policy = next(
        StubPolicy(rng_seed=s) for s in range(14, 200)
        if any(e["type"] == "blocking_applied"
               for e in run(cfg, net, personas, NEWS, StubPolicy(rng_seed=s)).events)
    )
    days_after_block = 0
    for _ in range(7):
        reached_before = state.day_reached >= 0
        days_after_block += bool(state.blocked.any())
        step_day(state, net, personas, NEWS, policy, spec, events, taints)
        reached = state.day_reached >= 0
        # no blocked agent entered the reached set after blocking was applied
        assert not (reached & ~reached_before & state.blocked).any()
        apply_blocking_intervention(state, net, personas, spec.trigger_threshold,
                                    spec.block_fraction, events)
        # blocked agents decide nothing, from the block day on
        assert not state.blocked[state.frontier()].any()
        assert np.count_nonzero(reached) == round(state.reached_prop() * 150)
        # every decider was reached, and exactly the sharers have a share day
        assert reached[state.decision >= 0].all()
        assert np.array_equal(state.decision == 1, state.day_shared >= 0)
    assert state.blocked.any() and days_after_block > 0  # the block checks are not vacuous


def test_status_union_matches_reached_without_blocking():
    net = gen_random(100, 0.08, seed=12)
    personas = persona_mod.sample_personas(100, rng_seed=12)
    spec = InterventionSpec("none")
    state = initial_state(net, select_source(net))
    events, taints = [], []
    policy = StubPolicy(rng_seed=20)
    for _ in range(7):
        step_day(state, net, personas, NEWS, policy, spec, events, taints)
        union = set(state.pending) | set(np.flatnonzero(state.decision >= 0).tolist())
        assert union == set(np.flatnonzero(state.day_reached >= 0).tolist())


def test_commenting_passes_peer_comments():
    seen = {}

    class Spy(StubPolicy):
        def decide_many(self, batch, personas):
            seen.update((a, batch.request(a)) for a in batch.agents.tolist())
            return super().decide_many(batch, personas)

    tri = net_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    personas = persona_mod.sample_personas(3, rng_seed=0)
    run(config(days=2, intervention="commenting"), tri, personas, NEWS,
        Spy(StubParams(intercept=50.0), rng_seed=0))
    assert seen[0].template_id == "commenting"
    assert seen[0].peer_comments == ()
    # leaves received the source's comment before deciding
    assert len(seen[1].peer_comments) == 1
    assert seen[1].peer_comments == seen[2].peer_comments


def test_policy_error_carries_day_and_agent():
    from newssim.policy import PolicyError

    class Exploding(ScriptedPolicy):
        def decide(self, req, persona):
            raise PolicyError("connection refused")

    personas = persona_mod.sample_personas(5, rng_seed=0)
    with pytest.raises(PolicyError, match=r"day 1, agent 0"):
        run(config(days=2), star(5), personas, NEWS, Exploding({}))


def test_run_rejects_mismatched_cohort():
    net = star(5)
    personas = persona_mod.sample_personas(4, rng_seed=0)
    with pytest.raises(ValueError):
        run(config(), net, personas, NEWS, always_share())
