"""Policy helpers shared by the engine tests."""

from newssim.policy import Decisions, PolicyError, _located


def decide_each(policy, batch, personas) -> Decisions:
    """Decide a batch one agent at a time through `policy.decide`, in order.

    A test policy that decides one agent at a time sets
    `decide_many = decide_each`. A PolicyError is re-raised naming the day
    and agent.
    """
    outcomes = []
    for run, agent in batch.deciders():
        try:
            outcomes.append(policy.decide(batch.request(agent, run), personas[agent]))
        except PolicyError as exc:
            raise _located(exc, batch.day, agent) from exc
    return Decisions.from_outcomes(outcomes)
