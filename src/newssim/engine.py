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

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import persona as persona_mod
from . import policy as policy_mod
from .ingest import ExperimentConfig, NewsItem
from .ingest import config_snapshot  # noqa: F401 - perfbench traces engine.config_snapshot
from .netgen import Network
from .record import RunRecord


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
    transcripts     the LLM transcript cache key of each decider that has one
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
    transcripts: dict[int, str] = field(init=False, default_factory=dict)

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


def _batch(state, net, agents, news, config) -> policy_mod.DecisionBatch:
    accuracy_notice = config.intervention_kind == "accuracy" and state.accuracy_triggered
    if accuracy_notice:
        template_id = "accuracy"
    elif config.intervention_kind == "commenting":
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
    senders, targets = net.neighbours(sharers)
    fresh = (state.day_reached[targets] < 0) & ~state.blocked[targets]
    reached, first = np.unique(targets[fresh], return_index=True)
    state.day_reached[reached] = day
    state.sender[reached] = senders[fresh][first]


def step_day(
    state: DiffusionState,
    net: Network,
    personas: persona_mod.Cohort,
    news: NewsItem,
    policy,
    config: ExperimentConfig,
    taints: list[str],
) -> DiffusionState:
    """Advance one day: pending agents decide, spreaders deliver, new agents queue.

    The day's deciders go to `policy.decide_many` as one batch; their
    decisions, sharers' comments and transcript keys land in `state`, and a
    decision whose reply could not be parsed adds a taint.
    """
    day = state.day + 1
    agents = state.frontier()
    if agents.size:
        out = policy.decide_many(_batch(state, net, agents, news, config), personas)
        ids = agents.tolist()
        for i in np.flatnonzero(out.share).tolist():
            if out.comment[i] is not None:
                state.comments[ids[i]] = out.comment[i]
        state.transcripts.update((a, k) for a, k in zip(ids, out.transcript) if k is not None)
        taints.extend(f"parse_failure day={day} agent={ids[i]}"
                      for i in np.flatnonzero(out.parse_failure).tolist())
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


def blocking_candidates(net: Network, personas: persona_mod.Cohort) -> list[int]:
    """High-openness or high-extraversion agents, ranked by degree desc, id asc."""
    e_idx = persona_mod.TRAITS.index("extraversion")
    o_idx = persona_mod.TRAITS.index("openness")
    cands = np.flatnonzero(personas.high[:, e_idx] | personas.high[:, o_idx])
    return cands[np.lexsort((cands, -net.degrees()[cands]))].tolist()


def apply_blocking_intervention(
    state: DiffusionState,
    net: Network,
    personas: persona_mod.Cohort,
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


def _evaluate_triggers(state, net, personas, config: ExperimentConfig, events):
    if config.intervention_kind == "accuracy":
        apply_accuracy_intervention(state, config.trigger_threshold, events)
    elif config.intervention_kind == "blocking":
        apply_blocking_intervention(
            state, net, personas, config.trigger_threshold, config.block_fraction, events,
            block_denominator=config.block_denominator,
        )


def run(
    config: ExperimentConfig,
    net: Network,
    personas: persona_mod.Cohort,
    news: NewsItem,
    policy,
    meta: dict | None = None,
) -> RunRecord:
    """Execute one seeded run of `config.days` days; its record keeps `meta` as given."""
    if len(personas) != net.n:
        raise ValueError(f"cohort size {len(personas)} != network size {net.n}")
    source = select_source(net)
    state = initial_state(net, source)
    events: list[dict] = [{"type": "seed", "day": 0, "agent": source}]
    taints: list[str] = []

    reached_prop = [state.reached_prop()]
    forwarded_prop = [state.forwarded_prop()]
    _evaluate_triggers(state, net, personas, config, events)

    for _ in range(config.days):
        if not state.frontier().size:  # idle days change nothing and cannot newly fire a trigger
            break
        step_day(state, net, personas, news, policy, config, taints)
        reached_prop.append(state.reached_prop())
        forwarded_prop.append(state.forwarded_prop())
        _evaluate_triggers(state, net, personas, config, events)
    idle = config.days + 1 - len(reached_prop)
    reached_prop += reached_prop[-1:] * idle
    forwarded_prop += forwarded_prop[-1:] * idle

    return RunRecord(
        meta={} if meta is None else meta,
        reached_prop=reached_prop,
        forwarded_prop=forwarded_prop,
        reach_day=state.reach_day,
        reached_by=state.reached_by,
        decision=state.decision.tolist(),
        comments=state.comments,
        transcripts=state.transcripts,
        events=events,
        effective=bool(state.decision[source] == 1),
        taints=taints,
    )
