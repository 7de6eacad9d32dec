import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newssim import engine as engine_mod
from newssim import netgen as netgen_mod
from newssim import persona as persona_mod
from newssim.engine import (
    DiffusionState,
    RunRecord,
    RunSpec,
    blocking_candidates,
    initial_state,
    run,
    select_source,
    step_day,
)
from newssim.ingest import ExperimentConfig, NewsItem
from newssim.netgen import Network, gen_random
from newssim.policy import DecisionOutcome, StubParams, StubPolicy
from newssim.record import AGENT_COLUMNS
from policy_helpers import decide_each

NEWS = NewsItem(news_id="n-1", title="headline", body="body", veracity="fake")
# what a plan passes as a record's meta; a record that is read back needs one
META = {"config_sha": "0123456789abcdef", "labels": {"replicate": 0}}


def net_from_edges(n, edges):
    return Network(
        n=n,
        edges=tuple(sorted((min(u, v), max(u, v)) for u, v in edges)),
        kind="random",
        gen_seed=0,
    )


def star(n):
    return net_from_edges(n, [(0, i) for i in range(1, n)])


def listed(rec):
    """An engine record with its numpy agent columns as lists, as
    RunRecord.from_json reads the record back."""
    return rec._replace(**{name: getattr(rec, name).tolist() for name in AGENT_COLUMNS})


def config(days=7, intervention="none", **kw):
    cfg = ExperimentConfig(intervention_kind=intervention, **kw)
    cfg.days = days
    return cfg


class ScriptedPolicy:
    """share per agent id; defaults to False."""

    decide_many = decide_each

    def __init__(self, shares):
        self.shares = shares

    def decide(self, req, persona):
        share = self.shares.get(persona.agent_id, False)
        return DecisionOutcome(
            share=share, comment=None, rationale=None,
            raw_response="", source="stub",
        )


def day_end(state, kind, threshold, net=None, personas=None, **kw):
    """Evaluate the day-end triggers of a one-run `state` whose run has
    intervention `kind` at `threshold`; `kw` sets the config's other fields."""
    cfg = config(intervention=kind, trigger_threshold=threshold, **kw)
    engine_mod._evaluate_triggers(state, net, personas, [RunSpec(cfg, NEWS)],
                                  state.reached_prop())


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
    assert rec.decision.tolist() == [1, 0, 0]
    assert rec.reach_day.tolist() == [0, 1, 1]  # so 0 decided on day 1, and 1 and 2 on day 2
    assert rec.comments == {} and rec.transcripts == {}


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
              StubPolicy(StubParams(intercept=intercept), rng_seed=seed), meta=META)
    adj = net.adjacency()
    source = rec.events[0]["agent"]
    # an agent decides on the day after it was reached
    shared_on = {v: rec.reach_day[v] + 1 for v in range(net.n) if rec.decision[v] == 1}
    assert len(rec.reach_day) == len(rec.reached_by) == len(rec.decision) == net.n
    assert all(rec.reach_day[v] >= 0 for v in range(net.n) if rec.decision[v] >= 0)
    assert len(shared_on) / net.n == rec.forwarded_prop[-1]
    assert all(rec.decision[v] == 1 for v in rec.comments)
    assert rec.effective == (rec.decision[source] == 1)
    assert rec.transcripts == {}
    assert rec.events[0]["type"] == "seed"
    assert [e["type"] for e in rec.events[1:]] in ([], ["accuracy_triggered"],
                                                    ["blocking_applied"])
    assert RunRecord.from_json(rec.to_json()) == listed(rec)
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
    specs = [RunSpec(cfg, NEWS)]
    state = initial_state(net, select_source(net))
    events = state.events[0]
    assert events == [{"type": "seed", "day": 0, "agent": rec.events[0]["agent"]}]
    taints = state.taints[0]
    reached, forwarded = [state.reached_prop()[0]], [state.forwarded_prop()[0]]
    engine_mod._evaluate_triggers(state, net, personas, specs, state.reached_prop())
    for _ in range(cfg.days):
        step_day(state, net, personas, specs, policy)
        reached.append(state.reached_prop()[0])
        forwarded.append(state.forwarded_prop()[0])
        engine_mod._evaluate_triggers(state, net, personas, specs, state.reached_prop())

    assert (rec.reached_prop, rec.forwarded_prop) == (reached, forwarded)
    assert (rec.events, rec.taints) == (events, taints)
    assert (rec.reach_day.tolist(), rec.reached_by.tolist()) == (state.day_reached.tolist(),
                                                                 state.sender.tolist())
    assert (rec.decision.tolist(), rec.comments) == (state.decision.tolist(), state.comments[0])


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
    asked = []

    class Spy(StubPolicy):
        def decide_many(self, batch, personas):
            asked.extend(batch.agents.tolist())
            return super().decide_many(batch, personas)

    net = gen_random(60, 0.1, seed=4)
    personas = persona_mod.sample_personas(60, rng_seed=4)
    rec = run(config(days=7), net, personas, NEWS, Spy(rng_seed=8))
    deciders = [v for v, d in enumerate(rec.decision) if d >= 0]
    assert len(deciders) > 1  # not vacuous
    assert sorted(asked) == deciders  # each decider was asked exactly once


def test_comments_transcripts_and_taints_come_from_the_decision_columns():
    class Scripted(ScriptedPolicy):
        def decide(self, req, persona):
            a = persona.agent_id
            return DecisionOutcome(
                share=a in (0, 2), comment=f"c{a}" if a in (0, 1) else None, rationale=None,
                raw_response="", source="llm_live", parse_failure=a == 3,
                transcript_key=None if a == 4 else f"k{a}",
            )

    personas = persona_mod.sample_personas(6, rng_seed=0)
    rec = run(config(days=3, intervention="commenting"), star(6), personas, NEWS, Scripted({}),
              meta=META)
    assert rec.decision.tolist() == [1, 0, 1, 0, 0, 0]
    assert rec.comments == {0: "c0"}  # agent 1 ignored, so its comment is dropped
    assert rec.transcripts == {0: "k0", 1: "k1", 2: "k2", 3: "k3", 5: "k5"}
    assert rec.taints == ["parse_failure day=2 agent=3"]
    doc = json.loads(rec.to_json())
    assert (doc["format"], doc["comments"], doc["agents"]["decision"]) == (
        4, {"0": "c0"}, [1, 0, 1, 0, 0, 0])
    assert RunRecord.from_json(rec.to_json()) == listed(rec)


def test_replay_byte_identical():
    net = gen_random(50, 0.12, seed=6)
    personas = persona_mod.sample_personas(50, rng_seed=6)
    rec1 = run(config(days=7), net, personas, NEWS, StubPolicy(rng_seed=10), meta=META)
    rec2 = run(config(days=7), net, personas, NEWS, StubPolicy(rng_seed=10), meta=META)
    assert rec1.to_json() == rec2.to_json()
    assert rec1.meta is META  # stored as given
    assert RunRecord.from_json(rec1.to_json()).to_dict() == listed(rec1).to_dict()


_texts = st.text(max_size=12)
_by_agent = st.dictionaries(st.integers(0, 10**6), _texts, max_size=5)
_json_values = st.none() | st.booleans() | st.integers() | _texts


@st.composite
def run_records(draw):
    n = draw(st.integers(0, 12))
    days = draw(st.integers(1, 8))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    def series():
        return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
                             min_size=days, max_size=days))

    return RunRecord(
        meta={"config_sha": draw(_texts), "labels": draw(st.dictionaries(_texts, _json_values)),
              **draw(st.dictionaries(st.sampled_from(["decision_seed", "replicate"]),
                                     st.integers()))},
        reached_prop=series(),
        forwarded_prop=series(),
        reach_day=column(st.integers(-1, days)),
        reached_by=column(st.integers(-1, max(n - 1, -1))),
        decision=column(st.sampled_from([-1, 0, 1])),
        comments=draw(_by_agent),
        transcripts=draw(_by_agent),
        events=draw(st.lists(st.dictionaries(_texts, _json_values, max_size=3), max_size=4)),
        effective=draw(st.booleans()),
        taints=draw(st.lists(_texts, max_size=3)),
    )


@settings(max_examples=80, deadline=None)
@given(rec=run_records())
def test_record_json_round_trip_is_exact_and_byte_stable(rec):
    text = rec.to_json()
    again = RunRecord.from_json(text)
    assert again == rec
    assert again.to_json() == text


@st.composite
def column_records(draw):
    """A record with numpy agent columns, as a plan writes it, and its copy
    with list columns. Values run from -1 to n - 1 (decisions -1 to 1), and
    now and then one lies outside what the encoder's table holds."""
    n = draw(st.integers(1, 40) | st.integers(10_001, 12_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {
        "reach_day": rng.integers(-1, n, n, dtype=np.int32),
        "reached_by": rng.integers(-1, n, n, dtype=np.int32),
        "decision": rng.integers(-1, 2, n, dtype=np.int8),
    }
    if draw(st.integers(0, 5)) == 0:
        name = draw(st.sampled_from(["reach_day", "reached_by"]))
        columns[name][draw(st.integers(0, n - 1))] = draw(st.sampled_from([-2, -n - 2, 2 * n + 5]))
    agents = st.integers(0, n - 1)
    blocked = draw(st.lists(agents, max_size=6, unique=True))
    rec = RunRecord(
        meta={"config_sha": draw(_texts), "labels": draw(st.dictionaries(_texts, _json_values))},
        reached_prop=draw(st.lists(st.floats(0, 1), min_size=1, max_size=8)),
        forwarded_prop=draw(st.lists(st.floats(0, 1), min_size=1, max_size=8)),
        **columns,
        comments=draw(st.dictionaries(agents, st.text(max_size=12), max_size=5)),
        transcripts=draw(st.dictionaries(agents, _texts, max_size=3)),
        events=[{"type": "seed", "day": 0, "agent": int(np.argmax(columns["reach_day"] == 0))},
                {"type": "blocking_applied", "day": draw(st.integers(0, 7)),
                 "blocked": blocked}],
        effective=draw(st.booleans()),
        taints=draw(st.lists(_texts, max_size=2)),
    )
    return rec, listed(rec)


@settings(max_examples=60, deadline=None)
@given(records=column_records())
def test_numpy_agent_columns_encode_as_their_lists(records):
    rec, listed = records
    text = rec.to_json()
    assert text == json.dumps(listed.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert listed.to_json() == text
    assert RunRecord.from_json(text) == listed


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------

def deliver_with_unique(state, net, sharers, day):
    """Delivery as the engine made it before it gathered in int32: int64
    slot keys, and each target's first delivery from np.unique."""
    runs, agents = np.divmod(sharers, state.n)
    senders, targets = net.neighbours(agents)
    targets = targets + np.repeat(runs * state.n, net.degrees()[agents])
    fresh = (state.day_reached[targets] < 0) & ~state.blocked[targets]
    reached, first = np.unique(targets[fresh], return_index=True)
    state.day_reached[reached] = day
    state.sender[reached] = senders[fresh][first]


def copied(state):
    twin = DiffusionState(state.n, state.runs)
    for name in ("day_reached", "sender", "blocked"):
        getattr(twin, name)[:] = getattr(state, name)
    return twin


@st.composite
def deliveries(draw):
    """A random graph, up to four runs over it with reached and blocked
    agents, and an ascending set of sharer slots."""
    net = draw(small_graphs())
    runs = draw(st.integers(1, 4))
    slots = runs * net.n
    state = DiffusionState(net.n, runs)
    state.day_reached[:] = draw(st.lists(st.sampled_from([-1, -1, 0, 1]),
                                         min_size=slots, max_size=slots))
    state.blocked[:] = draw(st.lists(st.booleans(), min_size=slots, max_size=slots))
    sharers = np.array(sorted(draw(st.sets(st.integers(0, slots - 1)))), dtype=np.int64)
    return state, net, sharers


@settings(max_examples=100, deadline=None)
@given(case=deliveries(), wide=st.booleans())
def test_delivery_equals_first_delivery_by_unique(case, wide):
    state, net, sharers = case
    expected = copied(state)
    deliver_with_unique(expected, net, sharers, 2)
    with pytest.MonkeyPatch.context() as patched:
        if wide:  # as from 2**31 slots or CSR entries on
            for module in (engine_mod, netgen_mod):
                patched.setattr(module, "index_dtype", lambda bound: np.int64)
        engine_mod._deliver(state, net, sharers, 2)
    assert state.day_reached.tolist() == expected.day_reached.tolist()
    assert state.sender.tolist() == expected.sender.tolist()


def test_two_sharers_on_one_day_deliver_from_the_lower_id():
    # runs of the path 0-1-2-3: agents 0 and 2 share to 1 on the same day
    # in both runs; run 1 has agent 3 blocked
    net = net_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    state = DiffusionState(4, runs=2)
    state.grid(state.day_reached)[:, [0, 2]] = 0
    state.grid(state.blocked)[1, 3] = True
    sharers = np.array([0, 2, 4, 6])
    expected = copied(state)
    deliver_with_unique(expected, net, sharers, 1)
    engine_mod._deliver(state, net, sharers, 1)
    assert state.grid(state.day_reached).tolist() == [[0, 1, 0, 1], [0, 1, 0, -1]]
    assert state.grid(state.sender).tolist() == [[-1, 0, -1, 2], [-1, 0, -1, -1]]
    assert state.sender.tolist() == expected.sender.tolist()


def test_delivery_gathers_in_int32_below_2_to_the_31(monkeypatch):
    assert netgen_mod.index_dtype(2**31 - 1) is np.int32
    assert netgen_mod.index_dtype(2**31) is np.int64
    asked = []
    real = netgen_mod.index_dtype
    for module in (engine_mod, netgen_mod):
        monkeypatch.setattr(module, "index_dtype",
                            lambda bound: asked.append(bound) or real(bound))
    net = star(5)
    state = initial_state(net, 0, runs=3)
    engine_mod._deliver(state, net, np.array([0, 5]), 1)
    assert sorted(asked) == [2 * 4, 3 * 5]  # 2 x edges CSR entries, runs x n slots
    assert state.grid(state.day_reached).tolist() == [[0, 1, 1, 1, 1], [0, 1, 1, 1, 1],
                                                      [0, -1, -1, -1, -1]]


# ---------------------------------------------------------------------------
# accuracy intervention
# ---------------------------------------------------------------------------

def test_accuracy_trigger_boundary():
    state = DiffusionState(n=1000)
    state.day_reached[:99] = 0
    day_end(state, "accuracy", 0.10)
    assert not state.triggered  # 9.9%
    state.day_reached[:100] = 0
    day_end(state, "accuracy", 0.10)
    assert state.triggered  # 10.0%, >= comparison

    # one pass over a group of three at 10.0%: the accuracy and blocking runs latch
    net, personas = star(1000), persona_mod.sample_personas(1000, rng_seed=0)
    specs = [RunSpec(config(intervention=kind), NEWS) for kind in ("accuracy", "blocking", "none")]
    state = initial_state(net, 0, runs=3)
    state.grid(state.day_reached)[:, :99] = 0
    engine_mod._evaluate_triggers(state, net, personas, specs, state.reached_prop())
    assert not state.triggered.any() and all(len(events) == 1 for events in state.events)
    state.grid(state.day_reached)[:, :100] = 0
    engine_mod._evaluate_triggers(state, net, personas, specs, state.reached_prop())
    assert state.triggered.tolist() == [True, True, False]
    assert [[e["type"] for e in events[1:]] for events in state.events] == [
        ["accuracy_triggered"], ["blocking_applied"], []]
    assert np.count_nonzero(state.grid(state.blocked), axis=1).tolist() == [0, 200, 0]
    assert state.events[1][1]["blocked"] == blocking_candidates(net, personas)[:200]


def test_accuracy_latches():
    state = DiffusionState(n=10)
    state.day_reached[:5] = 0
    day_end(state, "accuracy", 0.10)
    assert state.triggered
    state.day_reached[:] = -1
    day_end(state, "accuracy", 0.10)
    assert state.triggered


def test_accuracy_threshold_one_never_fires_early():
    state = DiffusionState(n=10)
    state.day_reached[:9] = 0
    day_end(state, "accuracy", 1.0)
    assert not state.triggered
    state.day_reached[:] = 0
    day_end(state, "accuracy", 1.0)
    assert state.triggered


def test_accuracy_notice_reaches_requests_next_day():
    # star n=20: day-0 reach 5% < 10%; source shares day 1 (reach 100%),
    # so the trigger latches at day-1 end and only day-2 deciders see it
    seen = []

    class Spy(ScriptedPolicy):
        def decide(self, req, persona):
            seen.append((req.day, persona.agent_id, req.template_id == "accuracy", req.template_id))
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
    # an agent decides the day after it was reached
    deciding_after = [v for v, d in enumerate(rec.decision)
                      if d >= 0 and rec.reach_day[v] + 1 > day_blocked]
    assert deciding_after
    assert not set(deciding_after) & blocked


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


def blocking_candidates_oracle(net, personas):
    """The per-persona ranking by sort key that the column version replaced."""
    e_idx = persona_mod.TRAITS.index("extraversion")
    o_idx = persona_mod.TRAITS.index("openness")
    deg = net.degrees()
    cands = [
        p.agent_id
        for p in personas
        if p.big_five_labels[e_idx] == "high" or p.big_five_labels[o_idx] == "high"
    ]
    cands.sort(key=lambda a: (-deg[a], a))
    return cands


@settings(max_examples=80, deadline=None)
@given(
    net=small_graphs(),
    seed=st.integers(0, 999),
    pins=st.lists(st.tuples(st.sampled_from(persona_mod.TRAITS),
                            st.sampled_from(persona_mod.LEVELS)), max_size=2),
    fraction=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    denominator=st.sampled_from(["all_agents", "candidates"]),
)
def test_blocking_candidates_match_the_per_persona_ranking(net, seed, pins, fraction,
                                                           denominator):
    personas = persona_mod.sample_personas(net.n, rng_seed=seed)
    for trait, level in pins:
        personas = persona_mod.pin_trait(personas, trait, level)
    oracle = blocking_candidates_oracle(net, personas)
    cands = blocking_candidates(net, personas)
    assert cands == oracle and all(type(a) is int for a in cands)
    state = initial_state(net, 0)
    day_end(state, "blocking", 0.0, net, personas, block_fraction=fraction,
            block_denominator=denominator)
    quota = math.ceil(fraction * (net.n if denominator == "all_agents" else len(oracle)))
    assert state.events[0][-1]["blocked"] == oracle[:quota]
    assert np.flatnonzero(state.blocked).tolist() == sorted(oracle[:quota])


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
    day_end(state, "blocking", 0.10, net, personas, block_fraction=0.20)
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
    day_end(state, "blocking", 0.10, net, personas, block_fraction=0.20,
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
    state.comments[0][0] = "a comment"
    state.day_reached[1], state.sender[1] = 1, 0
    assert state.pending == [1]
    day_end(state, "blocking", 0.10, net, personas, block_fraction=0.20)
    assert state.blocked[0] and state.blocked[1]  # hub + lowest-id leaf
    assert 1 not in state.pending
    # the comment delivered to leaf 1 is never read: leaf 1 is asked nothing
    asked = []

    class Spy(ScriptedPolicy):
        def decide(self, req, persona):
            asked.append(persona.agent_id)
            return super().decide(req, persona)

    step_day(state, net, personas, [RunSpec(config(intervention="commenting"), NEWS)], Spy({}))
    assert asked == []
    assert state.triggered


def test_conservation_each_day():
    net = gen_random(150, 0.07, seed=11)
    personas = persona_mod.sample_personas(150, rng_seed=11)
    cfg = config(days=7, intervention="blocking")
    state = initial_state(net, select_source(net))
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
        step_day(state, net, personas, [RunSpec(cfg, NEWS)], policy)
        reached = state.day_reached >= 0
        # no blocked agent entered the reached set after blocking was applied
        assert not (reached & ~reached_before & state.blocked).any()
        engine_mod._evaluate_triggers(state, net, personas, [RunSpec(cfg, NEWS)],
                                      state.reached_prop())
        # blocked agents decide nothing, from the block day on
        assert not state.blocked[state.frontier()].any()
        assert np.count_nonzero(reached) == round(state.reached_prop()[0] * 150)
        # every decider was reached, and exactly the sharers have a share day
        assert reached[state.decision >= 0].all()
        assert np.array_equal(state.decision == 1, state.day_shared >= 0)
    assert state.blocked.any() and days_after_block > 0  # the block checks are not vacuous


def test_status_union_matches_reached_without_blocking():
    net = gen_random(100, 0.08, seed=12)
    personas = persona_mod.sample_personas(100, rng_seed=12)
    cfg = config(intervention="none")
    state = initial_state(net, select_source(net))
    policy = StubPolicy(rng_seed=20)
    for _ in range(7):
        step_day(state, net, personas, [RunSpec(cfg, NEWS)], policy)
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


def test_run_group_refuses_a_group_of_mixed_days(monkeypatch):
    stepped = []
    real_step = engine_mod.step_day

    def counting_step(state, *args):
        stepped.append(state.day)
        return real_step(state, *args)

    monkeypatch.setattr(engine_mod, "step_day", counting_step)
    specs = [RunSpec(config(days=3), NEWS), RunSpec(config(days=5), NEWS)]
    personas = persona_mod.sample_personas(5, rng_seed=0)
    with pytest.raises(ValueError, match=r"one number of days, got \[3, 5\]"):
        engine_mod.run_group(specs, star(5), personas, always_share())
    assert stepped == []
