"""Day-stepped diffusion state machine.

Day 0 seeds the highest-degree node as the only reached agent. On each
subsequent day, every agent first reached the previous day makes exactly one
share/ignore decision (with the day's intervention context), new spreaders
deliver the story to all their non-blocked neighbors the same day, and newly
reached agents queue to decide the next day. Once an agent has decided, the
outcome is final: spreaders never share again and dead ends never reconsider,
no matter how many repeat deliveries they receive.

Intervention triggers are evaluated at day end and affect the next day's
decisions: the accuracy notice latches once the reached fraction crosses the
trigger threshold, and blocking removes the top slice of high-openness /
high-extraversion agents by degree at the first crossing.

A run's state is a set of per-agent numpy columns (see DiffusionState), and
a day's frontier expands over the network's CSR adjacency in array
operations. Same-day decisions depend only on start-of-day state, so they
are order-independent and are requested from the policy as one batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import persona as persona_mod
from . import policy as policy_mod
from .ingest import ExperimentConfig, NewsItem, config_snapshot
from .netgen import Network


@dataclass(frozen=True)
class InterventionSpec:
    kind: str = "none"
    trigger_threshold: float = 0.10
    block_fraction: float = 0.20
    # what block_fraction is a fraction of: every agent (default, capped by
    # the candidate pool) or the candidate pool itself
    block_denominator: str = "all_agents"


@dataclass(eq=False)
class DiffusionState:
    """Mutable per-run ledger: one numpy column per agent attribute.

    day_reached[v]  day v was first reached: -1 never, 0 the source
    sender[v]       neighbour whose delivery reached v first: -1 for the
                    source and for unreached agents
    decision[v]     -1 undecided, 0 ignored, 1 shared
    day_shared[v]   day v shared, -1 if it has not
    blocked[v]      removed by the blocking intervention
    comments        the comment of each sharer that left one
    """

    n: int
    day: int = 0
    accuracy_triggered: bool = False
    blocking_applied: bool = False
    day_reached: np.ndarray = field(init=False)
    sender: np.ndarray = field(init=False)
    decision: np.ndarray = field(init=False)
    day_shared: np.ndarray = field(init=False)
    blocked: np.ndarray = field(init=False)
    comments: dict[int, str] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.day_reached = np.full(self.n, -1, dtype=np.int32)
        self.sender = np.full(self.n, -1, dtype=np.int32)
        self.decision = np.full(self.n, -1, dtype=np.int8)
        self.day_shared = np.full(self.n, -1, dtype=np.int32)
        self.blocked = np.zeros(self.n, dtype=bool)

    @property
    def reach_day(self) -> list[int]:
        """day_reached as a list, the form a RunRecord stores."""
        return self.day_reached.tolist()

    @property
    def reached_by(self) -> list[int]:
        """sender as a list, the form a RunRecord stores."""
        return self.sender.tolist()

    def frontier(self) -> np.ndarray:
        """Ascending ids of the agents that decide next: reached on the
        current day and not blocked."""
        return np.flatnonzero((self.day_reached == self.day) & ~self.blocked)

    @property
    def pending(self) -> list[int]:
        """frontier() as a list: empty once the run has gone idle."""
        return self.frontier().tolist()

    def reached_prop(self) -> float:
        return int(np.count_nonzero(self.day_reached >= 0)) / self.n

    def forwarded_prop(self) -> float:
        return int(np.count_nonzero(self.decision == 1)) / self.n


RECORD_FORMAT = 2


@dataclass
class RunRecord:
    """Replayable result of one seeded run.

    Its size grows with the number of agents, not edges: per-agent columns
    (see DiffusionState) plus seed, decision and intervention events. Repeat
    deliveries are not stored; they follow from the network's adjacency, the
    decisions and the blocking_applied event.
    """

    meta: dict
    reached_prop: list[float]
    forwarded_prop: list[float]
    reach_day: list[int]
    reached_by: list[int]
    events: list[dict]
    effective: bool
    taints: list[str]

    @property
    def tainted(self) -> bool:
        return bool(self.taints)

    def first_reached_by_day(self) -> dict[int, set[int]]:
        layers: dict[int, set[int]] = {}
        for agent, day in enumerate(self.reach_day):
            if day >= 0:
                layers.setdefault(day, set()).add(agent)
        return layers

    def to_dict(self) -> dict:
        return {
            "format": RECORD_FORMAT,
            "meta": self.meta,
            "series": {
                "reached_prop": self.reached_prop,
                "forwarded_prop": self.forwarded_prop,
            },
            "agents": {"reach_day": self.reach_day, "reached_by": self.reached_by},
            "events": self.events,
            "effective": self.effective,
            "taints": self.taints,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        found = d.get("format")
        if found != RECORD_FORMAT:
            raise ValueError(
                f"run record format {found!r} is not supported (expected {RECORD_FORMAT})"
            )
        return cls(
            meta=d["meta"],
            reached_prop=list(d["series"]["reached_prop"]),
            forwarded_prop=list(d["series"]["forwarded_prop"]),
            reach_day=list(d["agents"]["reach_day"]),
            reached_by=list(d["agents"]["reached_by"]),
            events=list(d["events"]),
            effective=d["effective"],
            taints=list(d["taints"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


def select_source(net: Network) -> int:
    """Highest-degree node; ties broken by lowest id."""
    return int(np.argmax(net.degrees()))


def initial_state(net: Network, source: int) -> DiffusionState:
    state = DiffusionState(n=net.n)
    state.day_reached[source] = 0
    return state


def _peer_comments(state: DiffusionState, net: Network, agent: int) -> tuple[str, ...]:
    """Comments the neighbours who shared so far delivered to `agent`, by (day, sender)."""
    indptr, indices = net.csr()
    nbrs = indices[indptr[agent]:indptr[agent + 1]]
    days = state.day_shared[nbrs]
    shared = days >= 0
    senders = nbrs[shared][np.argsort(days[shared], kind="stable")]
    return tuple(state.comments[u] for u in senders.tolist() if u in state.comments)


def _batch(state, net, agents, news, intervention) -> policy_mod.DecisionBatch:
    accuracy_notice = intervention.kind == "accuracy" and state.accuracy_triggered
    if accuracy_notice:
        template_id = "accuracy"
    elif intervention.kind == "commenting":
        template_id = "commenting"
    else:
        template_id = "none"
    return policy_mod.DecisionBatch(
        news=news,
        day=state.day + 1,
        agents=agents,
        template_id=template_id,
        accuracy_notice=accuracy_notice,
        peer_comments=partial(_peer_comments, state, net),
    )


def _deliver(state: DiffusionState, net: Network, sharers: np.ndarray, day: int) -> None:
    """Reach every unreached, unblocked neighbour of `sharers` on `day`.

    `sharers` is ascending, so the first delivery to a new agent, and its
    reached_by, comes from the lowest-id neighbour sharing that day.
    """
    indptr, indices = net.csr()
    starts = indptr[sharers]
    counts = indptr[sharers + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return
    # positions of every sharer's neighbours in `indices`, sharer by sharer
    ends = np.cumsum(counts)
    offsets = np.arange(total) + np.repeat(starts - (ends - counts), counts)
    targets = indices[offsets]
    senders = np.repeat(sharers, counts)
    fresh = (state.day_reached[targets] < 0) & ~state.blocked[targets]
    reached, first = np.unique(targets[fresh], return_index=True)
    state.day_reached[reached] = day
    state.sender[reached] = senders[fresh][first]


def step_day(
    state: DiffusionState,
    net: Network,
    personas: list[persona_mod.AgentPersona],
    news: NewsItem,
    policy,
    intervention: InterventionSpec,
    events: list[dict],
    taints: list[str],
) -> DiffusionState:
    """Advance one day: pending agents decide, spreaders deliver, new agents queue."""
    day = state.day + 1
    agents = state.frontier()
    if agents.size:
        batch = _batch(state, net, agents, news, intervention)
        decide_many = getattr(policy, "decide_many", None)
        if decide_many is not None:
            out = decide_many(batch, personas)
        else:
            out = policy_mod.decide_each(policy, batch, personas)
        for agent, share, kind, transcript, comment, rationale, failed in zip(
            agents.tolist(), out.share.tolist(), out.policy, out.transcript, out.comment,
            out.rationale, out.parse_failure,
        ):
            events.append(
                {
                    "type": "decision",
                    "day": day,
                    "agent": agent,
                    "share": share,
                    "policy": kind,
                    "transcript": transcript,
                    "comment": comment,
                    "rationale": rationale,
                }
            )
            if failed:
                taints.append(f"parse_failure day={day} agent={agent}")
            if share and comment is not None:
                state.comments[agent] = comment
        state.decision[agents] = out.share
        sharers = agents[out.share]
        state.day_shared[sharers] = day
        _deliver(state, net, sharers, day)
    state.day = day
    return state


def apply_accuracy_intervention(
    state: DiffusionState, trigger_threshold: float, events: list[dict] | None = None
) -> DiffusionState:
    """Latch the accuracy notice once the reached fraction crosses the threshold."""
    if not state.accuracy_triggered and state.reached_prop() >= trigger_threshold:
        state.accuracy_triggered = True
        if events is not None:
            events.append({"type": "accuracy_triggered", "day": state.day})
    return state


def blocking_candidates(net: Network, personas) -> list[int]:
    """High-openness or high-extraversion agents, ranked by degree desc, id asc."""
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


def apply_blocking_intervention(
    state: DiffusionState,
    net: Network,
    personas: list[persona_mod.AgentPersona],
    trigger_threshold: float,
    block_fraction: float,
    events: list[dict] | None = None,
    block_denominator: str = "all_agents",
) -> DiffusionState:
    """Block the top ceil(block_fraction*N) candidates at the first threshold crossing.

    Blocked agents never decide and never receive; a blocked agent reached
    today does not decide tomorrow. Agents who already shared keep their past effect. With
    block_denominator="candidates" the quota is a fraction of the candidate
    pool instead of all agents.
    """
    if state.blocking_applied or state.reached_prop() < trigger_threshold:
        return state
    state.blocking_applied = True
    candidates = blocking_candidates(net, personas)
    base = state.n if block_denominator == "all_agents" else len(candidates)
    quota = math.ceil(block_fraction * base)
    to_block = candidates[:quota]
    state.blocked[to_block] = True
    if events is not None:
        events.append({"type": "blocking_applied", "day": state.day, "blocked": to_block})
    return state


def _evaluate_triggers(state, net, personas, intervention, events):
    if intervention.kind == "accuracy":
        apply_accuracy_intervention(state, intervention.trigger_threshold, events)
    elif intervention.kind == "blocking":
        apply_blocking_intervention(
            state, net, personas, intervention.trigger_threshold,
            intervention.block_fraction, events,
            block_denominator=intervention.block_denominator,
        )


def run(
    config: ExperimentConfig,
    net: Network,
    personas: list[persona_mod.AgentPersona],
    news: NewsItem,
    policy,
    extra_meta: dict | None = None,
) -> RunRecord:
    """Execute one seeded run of `config.days` days and return its full record."""
    if len(personas) != net.n:
        raise ValueError(f"cohort size {len(personas)} != network size {net.n}")
    intervention = InterventionSpec(
        kind=config.intervention_kind,
        trigger_threshold=config.trigger_threshold,
        block_fraction=config.block_fraction,
        block_denominator=config.block_denominator,
    )
    source = select_source(net)
    state = initial_state(net, source)
    events: list[dict] = [{"type": "seed", "day": 0, "agent": source}]
    taints: list[str] = []

    reached_prop = [state.reached_prop()]
    forwarded_prop = [state.forwarded_prop()]
    _evaluate_triggers(state, net, personas, intervention, events)

    for _ in range(config.days):
        if not state.frontier().size:  # idle days change nothing and cannot newly fire a trigger
            break
        step_day(state, net, personas, news, policy, intervention, events, taints)
        reached_prop.append(state.reached_prop())
        forwarded_prop.append(state.forwarded_prop())
        _evaluate_triggers(state, net, personas, intervention, events)
    idle = config.days + 1 - len(reached_prop)
    reached_prop += reached_prop[-1:] * idle
    forwarded_prop += forwarded_prop[-1:] * idle

    meta = {
        "config": config_snapshot(config),
        "news_id": news.news_id,
        "source_agent": source,
        "policy": policy.identity() if hasattr(policy, "identity") else {"kind": "unknown"},
        "labels": dict(extra_meta or {}),
    }
    return RunRecord(
        meta=meta,
        reached_prop=reached_prop,
        forwarded_prop=forwarded_prop,
        reach_day=state.reach_day,
        reached_by=state.reached_by,
        events=events,
        effective=bool(state.decision[source] == 1),
        taints=taints,
    )
