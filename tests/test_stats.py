from itertools import combinations

import numpy as np
import pytest

from newssim.engine import RunRecord
from newssim.stats import (
    ComparisonResult,
    aggregate_experiment,
    diffusion_rate,
    rank_sum_test,
)


def record(reached, forwarded, labels, effective=True):
    return RunRecord(
        meta={"labels": labels},
        reached_prop=list(reached),
        forwarded_prop=list(forwarded),
        reach_day=[],
        reached_by=[],
        events=[],
        effective=effective,
        taints=[],
    )


# ---------------------------------------------------------------------------
# independent oracle: value-based pair counting + full enumeration
# ---------------------------------------------------------------------------

def oracle_u(xs, ys):
    u = 0.0
    for x in xs:
        for y in ys:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def oracle_exact_p(a, b):
    pooled = list(a) + list(b)
    n1 = len(a)
    n = len(pooled)
    u_obs = oracle_u(a, b)
    u_max = n1 * (n - n1)
    lo = min(u_obs, u_max - u_obs)
    hi = u_max - lo
    total = hits = 0
    for picks in combinations(range(n), n1):
        chosen = set(picks)
        xs = [pooled[i] for i in picks]
        ys = [pooled[i] for i in range(n) if i not in chosen]
        u = oracle_u(xs, ys)
        total += 1
        if u <= lo + 1e-9 or u >= hi - 1e-9:
            hits += 1
    return min(1.0, hits / total)


# ---------------------------------------------------------------------------
# diffusion rate
# ---------------------------------------------------------------------------

def test_diffusion_rate_first_crossing():
    rec = record([1 / 300, 0.2, 0.6, 0.8], [0, 0, 0, 0], {})
    dr = diffusion_rate(rec, 0.5)
    assert dr.days_to_threshold == 2 and not dr.censored


def test_diffusion_rate_censored():
    rec = record([0.01, 0.2, 0.3, 0.4], [0, 0, 0, 0], {})
    dr = diffusion_rate(rec, 0.5)
    assert dr.censored and dr.days_to_threshold is None


def test_diffusion_rate_source_seeding():
    rec = record([1 / 300, 0.2], [0, 0], {})
    assert diffusion_rate(rec, 1 / 300).days_to_threshold == 0


# ---------------------------------------------------------------------------
# rank-sum test
# ---------------------------------------------------------------------------

def test_small_sample_exact_value():
    res = rank_sum_test([1, 2], [3, 4])
    assert res.method == "exact"
    assert res.u_statistic == 0.0
    assert res.p_value == pytest.approx(1 / 3, abs=1e-12)
    assert res.p_value == pytest.approx(oracle_exact_p([1, 2], [3, 4]), abs=1e-12)


def test_identical_samples_p_one():
    res = rank_sum_test([5, 5, 5], [5, 5, 5])
    assert res.p_value == 1.0
    assert not res.significant


def test_clear_separation_significant():
    res = rank_sum_test(list(range(1, 11)), list(range(11, 21)))
    assert res.u_statistic == 0.0
    assert res.method == "normal"
    # hand computation: mu=50, sigma=sqrt(100*21/12), z=(50-0.5)/sigma=3.742
    assert res.p_value < 0.001
    assert res.p_value == pytest.approx(1.832e-4, rel=0.01)
    assert res.significant


def test_exact_matches_oracle_random_samples():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 13 - n1))
        vals = rng.permutation(100)[: n1 + n2].tolist()  # distinct values, no ties
        a, b = vals[:n1], vals[n1:]
        res = rank_sum_test(a, b)
        assert res.method == "exact"
        assert res.p_value == pytest.approx(oracle_exact_p(a, b), abs=1e-12)


def test_u_symmetry_property():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n1 = int(rng.integers(1, 12))
        n2 = int(rng.integers(1, 12))
        a = rng.integers(0, 8, size=n1).tolist()  # ties likely
        b = rng.integers(0, 8, size=n2).tolist()
        ab = rank_sum_test(a, b)
        ba = rank_sum_test(b, a)
        assert ab.u_statistic + ba.u_statistic == pytest.approx(n1 * n2)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
        assert 0 <= ab.u_statistic <= n1 * n2
        assert 0 < ab.p_value <= 1.0


def test_scale_invariance():
    rng = np.random.default_rng(31)
    a = rng.normal(size=9).tolist()
    b = rng.normal(0.5, size=7).tolist()
    base = rank_sum_test(a, b)
    for c in (0.001, 3.0, 1e6):
        scaled = rank_sum_test([c * x for x in a], [c * x for x in b])
        assert scaled.u_statistic == pytest.approx(base.u_statistic)
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_exact_vs_normal_agreement():
    # max |p_exact - p_normal| over tie-free configurations is 0.0375 once
    # both samples have >= 3 elements (the n=2 corner genuinely exceeds 0.05)
    from newssim.stats import _exact_two_sided_p, _midranks, _normal_two_sided_p

    for n in range(6, 13):
        for n1 in range(3, n - 2):
            n2 = n - n1
            for pos in combinations(range(1, n + 1), n1):
                a = [float(r) for r in pos]
                b = [float(r) for r in range(1, n + 1) if r not in set(pos)]
                u = sum(a) - n1 * (n1 + 1) / 2.0
                p_exact = _exact_two_sided_p(u, n1, n2)
                p_norm = _normal_two_sided_p(u, n1, n2, _midranks(a + b))
                assert abs(p_exact - p_norm) <= 0.05
                if abs(p_exact - 0.05) > 0.02:
                    assert (p_exact < 0.05) == (p_norm < 0.05)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        rank_sum_test([], [1, 2])
    with pytest.raises(ValueError):
        rank_sum_test([1], [])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def series(final, days=7):
    step = final / days
    return [round(step * d, 6) for d in range(days + 1)]


def test_identical_groups_not_significant():
    recs = []
    for g in ("x", "y"):
        for _ in range(5):
            recs.append(record(series(0.8), series(0.4), {"grp": g}))
    summary = aggregate_experiment(recs, ("grp",))
    assert set(summary.groups) == {"x", "y"}
    for comps in summary.comparisons.values():
        assert all(c.p_value == 1.0 and not c.significant for c in comps)


def test_single_run_group_skipped_with_notice():
    recs = [
        record(series(0.8), series(0.4), {"grp": "solo"}),
        record(series(0.7), series(0.3), {"grp": "pair"}),
        record(series(0.6), series(0.2), {"grp": "pair"}),
    ]
    summary = aggregate_experiment(recs, ("grp",))
    assert summary.groups["solo"].n_runs == 1
    assert all(len(c) == 0 for c in summary.comparisons.values())
    assert any("skipped" in n for n in summary.notices)
    assert all(sd == 0.0 for sd in summary.groups["solo"].reached_sd)


def test_shifted_distributions_detected():
    rng = np.random.default_rng(3)
    recs = []
    for _ in range(20):
        recs.append(record(series(float(rng.normal(0.8, 0.05))),
                           series(float(rng.normal(0.5, 0.05))), {"grp": "fast"}))
        recs.append(record(series(float(rng.normal(0.5, 0.05))),
                           series(float(rng.normal(0.2, 0.05))), {"grp": "slow"}))
    summary = aggregate_experiment(recs, ("grp",))
    for metric in ("final_reached", "final_forwarded"):
        (comp,) = summary.comparisons[metric]
        assert comp.significant and comp.p_value < 0.05


def test_non_effective_excluded_by_default():
    recs = [
        record(series(0.9), series(0.5), {"grp": "a"}),
        record(series(0.9), series(0.5), {"grp": "a"}),
        record([1 / 300] * 8, [0.0] * 8, {"grp": "a"}, effective=False),
    ]
    summary = aggregate_experiment(recs, ("grp",))
    assert summary.excluded_non_effective == 1
    assert summary.groups["a"].n_runs == 2
    included = aggregate_experiment(recs, ("grp",), include_non_effective=True)
    assert included.groups["a"].n_runs == 3


def test_censored_runs_coded_slowest():
    recs = [
        record(series(0.9), series(0.5), {"grp": "a"}),
        record([0.01] * 8, [0.0] * 8, {"grp": "a"}),
    ]
    summary = aggregate_experiment(recs, ("grp",))
    g = summary.groups["a"]
    assert g.censored_runs == 1
    assert max(g.rate_days) == g.days + 1


def test_summary_serializes():
    recs = [record(series(0.8), series(0.4), {"grp": "x"}) for _ in range(3)]
    summary = aggregate_experiment(recs, ("grp",))
    doc = summary.to_dict()
    assert doc["groups"]["x"]["n_runs"] == 3
    assert len(doc["groups"]["x"]["reached_mean"]) == 8
