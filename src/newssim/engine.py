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

Same-day decisions depend only on start-of-day state, so they are
order-independent and may be requested concurrently.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

from . import persona as persona_mod
from .ingest import INTERVENTION_KINDS  # noqa: F401 - re-exported
from .ingest import ExperimentConfig, NewsItem, config_snapshot
from .netgen import Network
from .policy import DecisionRequest, PolicyError


class Status(str, Enum):
    UNREACHED = "unreached"
    PENDING = "pending_decision"
    SPREADER = "spreader"
    DEAD_END = "dead_end"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class InterventionSpec:
    kind: str = "none"
    trigger_threshold: float = 0.10
    block_fraction: float = 0.20
    # what block_fraction is a fraction of: every agent (default, capped by
    # the candidate pool) or the candidate pool itself
    block_denominator: str = "all_agents"


@dataclass
class DiffusionState:
    """Mutable per-run ledger; reached / spreader sets are cumulative.

    reach_day[v] is the day v was first reached (-1 never, 0 the source) and
    reached_by[v] the neighbour whose delivery reached it first (-1 for the
    source and for unreached agents).
    """

    n: int
    day: int = 0
    status: list[Status] = field(default_factory=list)
    reached: set[int] = field(default_factory=set)
    pending: set[int] = field(default_factory=set)
    spreaders_cum: set[int] = field(default_factory=set)
    blocked: set[int] = field(default_factory=set)
    inbox: dict[int, list[tuple[int, int, str | None]]] = field(default_factory=dict)
    reach_day: list[int] = field(default_factory=list)
    reached_by: list[int] = field(default_factory=list)
    accuracy_triggered: bool = False
    blocking_applied: bool = False

    def reached_prop(self) -> float:
        return len(self.reached) / self.n

    def forwarded_prop(self) -> float:
        return len(self.spreaders_cum) / self.n


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
    deg = net.degrees()
    best = 0
    for u in range(net.n):
        if deg[u] > deg[best]:
            best = u
    return best


def initial_state(net: Network, source: int) -> DiffusionState:
    state = DiffusionState(n=net.n)
    state.status = [Status.UNREACHED] * net.n
    state.status[source] = Status.PENDING
    state.reached.add(source)
    state.pending.add(source)
    state.inbox = {u: [] for u in range(net.n)}
    state.reach_day = [-1] * net.n
    state.reach_day[source] = 0
    state.reached_by = [-1] * net.n
    return state


def _build_request(state, agent, personas, news, intervention) -> DecisionRequest:
    if intervention.kind == "commenting":
        template_id = "commenting"
        comments = tuple(
            c for (_, _, c) in sorted(state.inbox[agent], key=lambda d: (d[0], d[1]))
            if c is not None
        )
        peer_comments: tuple[str, ...] | None = comments
    else:
        template_id = "none"
        peer_comments = None
    accuracy_notice = intervention.kind == "accuracy" and state.accuracy_triggered
    if accuracy_notice:
        template_id = "accuracy"
    return DecisionRequest(
        persona_text=persona_mod.render_persona_text(personas[agent]),
        news=news,
        day=state.day + 1,
        template_id=template_id,
        peer_comments=peer_comments,
        accuracy_notice=accuracy_notice,
    )


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
    deciders = sorted(state.pending)
    requests = {a: _build_request(state, a, personas, news, intervention) for a in deciders}

    outcomes: dict[int, object] = {}
    workers = getattr(policy, "concurrency", 1)

    def _decide(agent):
        try:
            return policy.decide(requests[agent], personas[agent])
        except PolicyError as exc:
            raise PolicyError(f"day {day}, agent {agent}: {exc}") from exc

    if workers > 1 and len(deciders) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for agent, outcome in zip(deciders, pool.map(_decide, deciders)):
                outcomes[agent] = outcome
    else:
        for agent in deciders:
            outcomes[agent] = _decide(agent)

    adj = net.adjacency()
    new_spreaders: list[tuple[int, str | None]] = []
    for agent in deciders:
        out = outcomes[agent]
        events.append(
            {
                "type": "decision",
                "day": day,
                "agent": agent,
                "share": out.share,
                "policy": out.policy_kind(),
                "transcript": out.transcript_key,
                "comment": out.comment,
                "rationale": out.rationale,
            }
        )
        if out.parse_failure:
            taints.append(f"parse_failure day={day} agent={agent}")
        if out.share:
            state.status[agent] = Status.SPREADER
            state.spreaders_cum.add(agent)
            new_spreaders.append((agent, out.comment))
        else:
            state.status[agent] = Status.DEAD_END
    state.pending.clear()

    for agent, comment in new_spreaders:
        for nbr in adj[agent]:
            if nbr in state.blocked:
                continue
            state.inbox[nbr].append((day, agent, comment))
            if nbr not in state.reached:
                state.reached.add(nbr)
                state.status[nbr] = Status.PENDING
                state.pending.add(nbr)
                state.reach_day[nbr] = day
                state.reached_by[nbr] = agent

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

    Blocked agents never decide and never receive; pending deliveries to them
    are dropped. Agents who already shared keep their past effect. With
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
    for agent in to_block:
        state.blocked.add(agent)
        state.pending.discard(agent)
        state.status[agent] = Status.BLOCKED
        state.inbox[agent] = []
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
        step_day(state, net, personas, news, policy, intervention, events, taints)
        reached_prop.append(state.reached_prop())
        forwarded_prop.append(state.forwarded_prop())
        _evaluate_triggers(state, net, personas, intervention, events)

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
        effective=source in state.spreaders_cum,
        taints=taints,
    )
