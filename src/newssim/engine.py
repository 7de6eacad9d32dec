"""Day-stepped diffusion state machine.

Day 0 seeds the highest-degree node as the only reached agent. On each
subsequent day, every agent first reached the previous day makes exactly one
share/ignore decision (with the day's intervention context), new spreaders
deliver the story to all their non-blocked neighbors the same day, and newly
reached agents queue to decide the next day. Once an agent has decided, the
outcome is final: spreaders never share again and dead ends never reconsider,
no matter how many repeat deliveries they receive.

Intervention triggers are evaluated at day end, in one pass over the group
(`_evaluate_triggers`), and affect the next day's decisions: an accuracy or
blocking run latches once its reached fraction crosses its trigger
threshold. From then on an accuracy run decides under the accuracy template;
a blocking run removes the top slice of high-openness / high-extraversion
agents by degree at that first crossing.

The runs of one lockstep group share a network, a cohort and their number
of days, and advance together: their state is one set of (runs x agents)
numpy columns (see DiffusionState), a day's frontier is one flatnonzero
over all of them, every run's deciders go to the policy as one batch, and
the sharers of every run deliver over the network's CSR adjacency at once.
A run reads and writes only its own slots, and same-day decisions depend
only on start-of-day state, so a run's record does not depend on the runs
grouped with it. `run` is a group of one.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Sequence
from functools import partial
from itertools import compress, count, repeat
from operator import is_not

import numpy as np

from . import persona as persona_mod
from . import policy as policy_mod
from .ingest import ExperimentConfig, NewsItem
from .ingest import config_snapshot  # noqa: F401 - perfbench traces engine.config_snapshot
from .netgen import Network, index_dtype
from .record import RunRecord


class RunSpec(typing.NamedTuple):
    """One run of a lockstep group: its config and news item, its decision
    seed (None: the policy's own), and the meta its record keeps as given."""

    config: ExperimentConfig
    news: NewsItem
    seed: int | None = None
    meta: dict | None = None


class DiffusionState:
    """Mutable ledger of `runs` runs over one n-agent network.

    Each per-agent column is flat, with the slot of (run, agent) at
    run * n + agent, so `grid(column)` is its (runs, n) view; with one run,
    a slot is the agent id.

    day_reached[s]  day the agent was first reached: -1 never, 0 the source
    sender[s]       neighbour whose delivery reached it first: -1 for the
                    source and for unreached agents
    decision[s]     -1 undecided, 0 ignored, 1 shared
    day_shared[s]   day it shared, -1 if it has not
    blocked[s]      removed by its run's blocking intervention

    Per run: `triggered`, latched when its accuracy notice or its block
    fires (a run has one intervention kind), its events, which start with
    the seed, its taints, and two dicts keyed by agent id: comments (of each
    sharer that left one) and transcripts (the LLM transcript cache key of
    each decider that has one). `day` is the group's: its runs start
    together on day 0. States compare by identity.
    """

    __slots__ = ("n", "runs", "day", "day_reached", "sender", "decision", "day_shared",
                 "blocked", "triggered", "events", "taints", "comments", "transcripts")

    def __init__(self, n: int, runs: int = 1):
        self.n, self.runs, self.day = n, runs, 0
        slots = runs * n
        self.day_reached = np.full(slots, -1, dtype=np.int32)
        self.sender = np.full(slots, -1, dtype=np.int32)
        self.decision = np.full(slots, -1, dtype=np.int8)
        self.day_shared = np.full(slots, -1, dtype=np.int32)
        self.blocked = np.zeros(slots, dtype=bool)
        self.triggered = np.zeros(self.runs, dtype=bool)
        self.events = [[] for _ in range(self.runs)]
        self.taints = [[] for _ in range(self.runs)]
        self.comments = [{} for _ in range(self.runs)]
        self.transcripts = [{} for _ in range(self.runs)]

    def grid(self, column: np.ndarray) -> np.ndarray:
        """The (runs, n) view of a per-slot column."""
        return column.reshape(self.runs, self.n)

    def frontier(self) -> np.ndarray:
        """Ascending slots of the agents that decide next: reached on the
        current day and not blocked."""
        return np.flatnonzero((self.day_reached == self.day) & ~self.blocked)

    @property
    def pending(self) -> list[int]:
        """frontier() as a list: empty once every run has gone idle."""
        return self.frontier().tolist()

    def reached_prop(self) -> np.ndarray:
        """Each run's reached fraction."""
        return np.count_nonzero(self.grid(self.day_reached) >= 0, axis=1) / self.n

    def forwarded_prop(self) -> np.ndarray:
        """Each run's shared fraction."""
        return np.count_nonzero(self.grid(self.decision) == 1, axis=1) / self.n


def select_source(net: Network) -> int:
    """Highest-degree node; ties broken by lowest id."""
    return int(np.argmax(net.degrees()))


def initial_state(net: Network, source: int, runs: int = 1) -> DiffusionState:
    state = DiffusionState(n=net.n, runs=runs)
    state.grid(state.day_reached)[:, source] = 0
    for events in state.events:
        events.append({"type": "seed", "day": 0, "agent": source})
    return state


def _peer_comments(state: DiffusionState, net: Network, run: int,
                   agent: int) -> tuple[str, ...]:
    """Comments the neighbours who shared so far in `run` delivered to `agent`,
    by (day, sender)."""
    indptr, indices = net.csr()
    nbrs = indices[indptr[agent]:indptr[agent + 1]]
    days = state.grid(state.day_shared)[run, nbrs]
    shared = days >= 0
    senders = nbrs[shared][np.argsort(days[shared], kind="stable")]
    comments = state.comments[run]
    return tuple(comments[u] for u in senders.tolist() if u in comments)


def _template(kind: str, latched: bool) -> str:
    if kind == "accuracy" and latched:
        return "accuracy"
    return "commenting" if kind == "commenting" else "none"


def _batch(state, net, specs: Sequence[RunSpec], slots: np.ndarray) -> policy_mod.DecisionBatch:
    runs, agents = np.divmod(slots, state.n)
    return policy_mod.DecisionBatch(
        day=state.day + 1,
        agents=agents,
        runs=runs,
        news=tuple(spec.news for spec in specs),
        template_id=tuple(_template(spec.config.intervention_kind, latched)
                          for spec, latched in zip(specs, state.triggered.tolist())),
        seed=tuple(spec.seed for spec in specs),
        peer_comments=partial(_peer_comments, state, net),
    )


def _deliver(state: DiffusionState, net: Network, sharers: np.ndarray, day: int) -> None:
    """Reach every unreached, unblocked neighbour of each sharer slot, in the
    sharer's run, on `day`.

    `sharers` is ascending, so within a run the first delivery to a new
    agent, and its reached_by, comes from the lowest-id neighbour sharing
    that day: a stable sort of the fresh target slots (run * n + agent)
    keeps each target's first delivery at the head of its ties.
    """
    dtype = index_dtype(state.runs * state.n)  # for slots; neighbours picks its own
    runs, agents = np.divmod(sharers.astype(dtype), dtype(state.n))
    senders, targets = net.neighbours(agents)
    targets = targets.astype(dtype, copy=False)  # the CSR's int32 ids, copied only to widen
    targets += np.repeat(runs * dtype(state.n), net.degrees()[agents])
    fresh = (state.day_reached[targets] < 0) & ~state.blocked[targets]
    targets, senders = targets[fresh], senders[fresh]
    order = np.argsort(targets, kind="stable")
    targets = targets[order]
    first = np.ones(targets.size, dtype=bool)
    np.not_equal(targets[1:], targets[:-1], out=first[1:])
    state.day_reached[targets[first]] = day
    state.sender[targets[first]] = senders[order[first]]


def _true_at(flags) -> np.ndarray:
    """Positions of the true entries of an iterable of flags."""
    return np.fromiter(compress(count(), flags), dtype=np.intp)


def _located(batch: policy_mod.DecisionBatch, deciders: np.ndarray):
    """(index, run, agent) of each of the batch's `deciders`, by index."""
    return zip(deciders.tolist(), batch.runs[deciders].tolist(), batch.agents[deciders].tolist())


def step_day(
    state: DiffusionState,
    net: Network,
    personas: persona_mod.Cohort,
    specs: Sequence[RunSpec],
    policy,
) -> DiffusionState:
    """Advance every run one day: pending agents decide, spreaders deliver,
    new agents queue.

    The deciders of every run go to `policy.decide_many` as one batch; their
    decisions, sharers' comments and transcript keys land in `state`, and a
    decision whose reply could not be parsed adds a taint to its run.
    """
    day = state.day + 1
    slots = state.frontier()
    if slots.size:
        batch = _batch(state, net, specs, slots)
        out = policy.decide_many(batch, personas)
        # visit only the deciders that left a comment (kept for sharers), a
        # transcript key or a parse failure: the stub leaves only comments,
        # and only under the commenting template
        commented = _true_at(map(is_not, out.comment, repeat(None)))
        for i, run, agent in _located(batch, commented[out.share[commented]]):
            state.comments[run][agent] = out.comment[i]
        for i, run, agent in _located(batch, _true_at(map(is_not, out.transcript, repeat(None)))):
            state.transcripts[run][agent] = out.transcript[i]
        for _, run, agent in _located(batch, _true_at(out.parse_failure)):
            state.taints[run].append(f"parse_failure day={day} agent={agent}")
        state.decision[slots] = out.share
        sharers = slots[out.share]
        state.day_shared[sharers] = day
        _deliver(state, net, sharers, day)
    state.day = day
    return state


def blocking_candidates(net: Network, personas: persona_mod.Cohort) -> list[int]:
    """High-openness or high-extraversion agents, ranked by degree desc, id asc."""
    e_idx = persona_mod.TRAITS.index("extraversion")
    o_idx = persona_mod.TRAITS.index("openness")
    cands = np.flatnonzero(personas.high[:, e_idx] | personas.high[:, o_idx])
    return cands[np.lexsort((cands, -net.degrees()[cands]))].tolist()


def _evaluate_triggers(state, net, personas, specs: Sequence[RunSpec], reached) -> None:
    """Latch each accuracy or blocking run whose `reached` fraction is at or
    above its trigger threshold, and record the event, once per run.

    A latched accuracy run decides under the accuracy template from the next
    day on. A blocking run blocks its top ceil(block_fraction * base)
    candidates, base being n, or the candidate count with block_denominator
    "candidates": blocked agents never decide and never receive, so one
    reached today does not decide tomorrow, and agents who already shared
    keep their past effect. The candidates are ranked at most once a call.
    """
    candidates = None
    for run, (spec, prop) in enumerate(zip(specs, reached.tolist())):
        config = spec.config
        if (config.intervention_kind not in ("accuracy", "blocking")
                or state.triggered[run] or prop < config.trigger_threshold):
            continue
        state.triggered[run] = True
        if config.intervention_kind == "accuracy":
            state.events[run].append({"type": "accuracy_triggered", "day": state.day})
            continue
        if candidates is None:
            candidates = blocking_candidates(net, personas)
        base = state.n if config.block_denominator == "all_agents" else len(candidates)
        to_block = candidates[:math.ceil(config.block_fraction * base)]
        state.grid(state.blocked)[run, to_block] = True
        state.events[run].append({"type": "blocking_applied", "day": state.day,
                                  "blocked": to_block})


class GroupRun(typing.NamedTuple):
    """A lockstep group stepped to its end: its final state, the source every
    run was seeded at, and each run's reached and forwarded fraction per
    day, as a (2, runs, days + 1) array."""

    state: DiffusionState
    source: int
    series: np.ndarray

    def effective(self) -> list[bool]:
        """Whether each run's source shared."""
        return (self.state.grid(self.state.decision)[:, self.source] == 1).tolist()

    def records(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        """One record per spec, in order. Its agent columns are the run's rows
        of the state's integer columns, which RunRecord.to_json encodes
        without making Python ints of them."""
        state = self.state
        columns = [state.grid(c) for c in (state.day_reached, state.sender, state.decision)]
        reached, forwarded = self.series.tolist()
        effective = self.effective()
        return [RunRecord(
            meta={} if spec.meta is None else spec.meta,
            reached_prop=reached[run],
            forwarded_prop=forwarded[run],
            reach_day=columns[0][run],
            reached_by=columns[1][run],
            decision=columns[2][run],
            comments=state.comments[run],
            transcripts=state.transcripts[run],
            events=state.events[run],
            effective=effective[run],
            taints=state.taints[run],
        ) for run, spec in enumerate(specs)]


def run_group(
    specs: Sequence[RunSpec],
    net: Network,
    personas: persona_mod.Cohort,
    policy,
) -> GroupRun:
    """Step the seeded runs `specs` over one network and cohort in lockstep
    for their common `config.days`. A ValueError refuses specs whose days
    differ.

    Each lockstep day adds one row of every run's reached and forwarded
    fractions, and evaluates every run's triggers: a run with no frontier
    changes nothing that day, so it cannot newly fire a trigger. The group
    stops stepping on its last day, or once no run has a frontier; its last
    row then stands for the days left.
    """
    if len(personas) != net.n:
        raise ValueError(f"cohort size {len(personas)} != network size {net.n}")
    days = {spec.config.days for spec in specs}
    if len(days) != 1:
        raise ValueError(f"a lockstep group runs one number of days, got {sorted(days)}")
    days = days.pop()
    source = select_source(net)
    state = initial_state(net, source, len(specs))
    rows = []  # per lockstep day: (reached, forwarded) of every run
    while True:
        reached = state.reached_prop()
        rows.append((reached, state.forwarded_prop()))
        _evaluate_triggers(state, net, personas, specs, reached)
        if state.day == days or not state.frontier().size:
            break
        step_day(state, net, personas, specs, policy)
    rows += rows[-1:] * (days + 1 - len(rows))
    return GroupRun(state, source, np.array(rows).transpose(1, 2, 0))


def run(
    config: ExperimentConfig,
    net: Network,
    personas: persona_mod.Cohort,
    news: NewsItem,
    policy,
    meta: dict | None = None,
) -> RunRecord:
    """Execute one seeded run of `config.days` days, a lockstep group of one;
    its record keeps `meta` as given."""
    specs = [RunSpec(config, news, meta=meta)]
    return run_group(specs, net, personas, policy).records(specs)[0]
