"""Experiment-level aggregation: diffusion rates and rank-sum comparisons.

The two-sample test is Mann-Whitney U with midrank tie handling. For small
tie-free samples (n1+n2 <= 12) the two-sided p-value is computed by exact
enumeration of all rank assignments; otherwise a normal approximation with
tie and continuity corrections is used. Diffusion rate is the first day the
reached proportion crosses a threshold (default 50%); runs that never cross
are censored and rank slowest (T+1) in comparisons.

The result types are NamedTuples, so `newssim stats` loads no dataclasses.
"""

from __future__ import annotations

import json
import math
import typing
from collections import Counter
from itertools import combinations

ALPHA = 0.05
RATE_THRESHOLD = 0.5
EXACT_LIMIT = 12


class DiffusionRate(typing.NamedTuple):
    days_to_threshold: int | None
    threshold: float
    censored: bool


class ComparisonResult(typing.NamedTuple):
    group_a: str
    group_b: str
    n_a: int
    n_b: int
    u_statistic: float
    p_value: float
    significant: bool
    method: str  # "exact" | "normal"


def diffusion_rate(record, threshold: float = RATE_THRESHOLD) -> DiffusionRate:
    """First day (series index) with reached_prop >= threshold; censored if never."""
    for day, prop in enumerate(record.reached_prop):
        if prop >= threshold:
            return DiffusionRate(days_to_threshold=day, threshold=threshold, censored=False)
    return DiffusionRate(days_to_threshold=None, threshold=threshold, censored=True)


def _midranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _exact_two_sided_p(u_obs: float, n1: int, n2: int) -> float:
    """Enumerate all C(n1+n2, n1) tie-free rank assignments of sample one."""
    n = n1 + n2
    offset = n1 * (n1 + 1) / 2.0
    u_lo = min(u_obs, n1 * n2 - u_obs)
    u_hi = n1 * n2 - u_lo
    total = 0
    hits = 0
    eps = 1e-9
    for ranks in combinations(range(1, n + 1), n1):
        u = sum(ranks) - offset
        total += 1
        if u <= u_lo + eps or u >= u_hi - eps:
            hits += 1
    return min(1.0, hits / total)


def _normal_two_sided_p(u_obs: float, n1: int, n2: int, pooled_ranks) -> float:
    n = n1 + n2
    counts = Counter(pooled_ranks)
    tie_term = sum(c**3 - c for c in counts.values())
    correction = 1.0 - tie_term / float(n**3 - n) if n > 1 else 0.0
    sigma2 = n1 * n2 * (n + 1) / 12.0 * correction
    if sigma2 <= 0.0:
        return 1.0
    mu = n1 * n2 / 2.0
    num = max(abs(u_obs - mu) - 0.5, 0.0)  # continuity correction
    z = num / math.sqrt(sigma2)
    return math.erfc(z / math.sqrt(2.0))


def rank_sum_test(
    sample_a,
    sample_b,
    group_a: str = "a",
    group_b: str = "b",
) -> ComparisonResult:
    """Two-sided Mann-Whitney U test; U is reported for sample_a."""
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    if not a or not b:
        raise ValueError("rank_sum_test requires two non-empty samples")
    n1, n2 = len(a), len(b)
    pooled = a + b
    ranks = _midranks(pooled)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0

    has_ties = len(set(pooled)) != len(pooled)
    if n1 + n2 <= EXACT_LIMIT and not has_ties:
        p = _exact_two_sided_p(u1, n1, n2)
        method = "exact"
    else:
        p = _normal_two_sided_p(u1, n1, n2, ranks)
        method = "normal"
    p = min(max(p, math.ulp(0.0)), 1.0)
    return ComparisonResult(
        group_a=group_a,
        group_b=group_b,
        n_a=n1,
        n_b=n2,
        u_statistic=u1,
        p_value=p,
        significant=p < ALPHA,
        method=method,
    )


class SummaryRow(typing.NamedTuple):
    """What aggregate_experiment reads of one run record: its labels,
    whether it was effective, and its two series. A plan's executor returns
    one per cell in place of the record it wrote."""

    labels: dict
    effective: bool
    reached_prop: list[float]
    forwarded_prop: list[float]

    @classmethod
    def of(cls, record) -> "SummaryRow":
        return cls(record.labels, record.effective, record.reached_prop, record.forwarded_prop)

    def to_json(self) -> str:
        """The row as one line of compact JSON with sorted keys, so the rows
        of two plans compare byte for byte."""
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":")) + "\n"


class GroupSummary(typing.NamedTuple):
    label: str
    n_runs: int
    days: int
    reached_mean: list[float]
    reached_sd: list[float]
    forwarded_mean: list[float]
    forwarded_sd: list[float]
    final_reached: list[float]
    final_forwarded: list[float]
    rate_days: list[int]  # censored runs coded as T+1
    censored_runs: int


class ExperimentSummary(typing.NamedTuple):
    group_by: tuple[str, ...]
    groups: dict[str, GroupSummary]
    comparisons: dict[str, list[ComparisonResult]]
    excluded_non_effective: int
    notices: list[str]

    def to_dict(self) -> dict:
        return {
            "group_by": list(self.group_by),
            "groups": {
                label: {key: value for key, value in g._asdict().items() if key != "label"}
                for label, g in sorted(self.groups.items())
            },
            "comparisons": {
                metric: [c._asdict() for c in comps]
                for metric, comps in sorted(self.comparisons.items())
            },
            "excluded_non_effective": self.excluded_non_effective,
            "notices": self.notices,
        }


def _mean_sd(rows: list[list[float]]) -> tuple[list[float], list[float]]:
    days = len(rows[0])
    means, sds = [], []
    for d in range(days):
        col = [r[d] for r in rows]
        m = sum(col) / len(col)
        var = sum((x - m) ** 2 for x in col) / len(col)
        means.append(m)
        sds.append(math.sqrt(var))
    return means, sds


def aggregate_experiment(
    rows,
    group_by,
    include_non_effective: bool = False,
) -> ExperimentSummary:
    """Group runs by their labels and compare groups pairwise.

    `rows` are SummaryRows, or run records, which carry the same fields.
    Emits per-day mean/sd of both proportions per group, plus rank-sum
    comparisons on final forwarded proportion, final reached proportion, and
    diffusion rate. Non-effective runs (source declined) are excluded by
    default; their count is recorded.

    A group-by key that no run's labels carry raises a ValueError naming
    it; a run that lacks a key other runs carry is grouped under "?".
    """
    group_by = tuple(group_by)
    carried = {key for row in rows for key in row.labels}
    if rows and (unknown := [key for key in group_by if key not in carried]):
        raise ValueError(f"no run record has the label {', '.join(map(repr, unknown))} to "
                         f"group by; the records' labels are {', '.join(sorted(carried))}")
    notices: list[str] = []
    excluded = 0
    buckets: dict[str, list] = {}
    for row in rows:
        if not include_non_effective and not row.effective:
            excluded += 1
            continue
        key = "|".join(str(row.labels.get(k, "?")) for k in group_by)
        buckets.setdefault(key, []).append(row)

    groups: dict[str, GroupSummary] = {}
    for label in sorted(buckets):
        recs = buckets[label]
        lengths = {len(r.reached_prop) for r in recs}
        if len(lengths) != 1:
            notices.append(f"group {label}: mixed series lengths {sorted(lengths)}")
        days = max(lengths) - 1
        recs = [r for r in recs if len(r.reached_prop) == days + 1]
        reached_mean, reached_sd = _mean_sd([r.reached_prop for r in recs])
        forwarded_mean, forwarded_sd = _mean_sd([r.forwarded_prop for r in recs])
        rates = []
        censored = 0
        for r in recs:
            dr = diffusion_rate(r)
            if dr.censored:
                censored += 1
                rates.append(days + 1)
            else:
                rates.append(dr.days_to_threshold)
        groups[label] = GroupSummary(
            label=label,
            n_runs=len(recs),
            days=days,
            reached_mean=reached_mean,
            reached_sd=reached_sd,
            forwarded_mean=forwarded_mean,
            forwarded_sd=forwarded_sd,
            final_reached=[r.reached_prop[-1] for r in recs],
            final_forwarded=[r.forwarded_prop[-1] for r in recs],
            rate_days=rates,
            censored_runs=censored,
        )

    metrics = {
        "final_forwarded": lambda g: g.final_forwarded,
        "final_reached": lambda g: g.final_reached,
        "diffusion_rate": lambda g: g.rate_days,
    }
    comparisons: dict[str, list[ComparisonResult]] = {m: [] for m in metrics}
    labels = sorted(groups)
    for la, lb in combinations(labels, 2):
        ga, gb = groups[la], groups[lb]
        if ga.n_runs < 2 or gb.n_runs < 2:
            notices.append(f"comparison {la} vs {lb} skipped: group with < 2 runs")
            continue
        for metric, getter in metrics.items():
            comparisons[metric].append(
                rank_sum_test(getter(ga), getter(gb), group_a=la, group_b=lb)
            )

    return ExperimentSummary(
        group_by=group_by,
        groups=groups,
        comparisons=comparisons,
        excluded_non_effective=excluded,
        notices=notices,
    )
