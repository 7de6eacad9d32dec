"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Everything here is offline and seeded; the "LLM"
criterion uses a scripted transport plus the replay cache.
"""

import time
from itertools import combinations
from pathlib import Path

import numpy as np

from newssim import cli, engine, ingest, netgen, persona, plan, policy, stats

MASTER_SEED = 42
REPS = 20


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{criterion}] {status}{suffix}")


def in_band(value, lo, hi):
    return lo <= value <= hi


# ---------------------------------------------------------------------------
# shared run helpers (same seed-derivation discipline as the CLI)
# ---------------------------------------------------------------------------

def base_config(**overrides):
    cfg = ingest.ExperimentConfig()
    cfg.master_seed = MASTER_SEED
    cfg.news_limit = 1
    cfg.effective_retry_budget = 10
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def first_news():
    cfg = base_config()
    return ingest.load_news(cfg.news_path, 1)[0]


def run_group(kind, intervention, trait=None, level=None, reps=REPS):
    cfg = base_config(
        network_kind=kind,
        network_params=ingest.default_network_params(kind, 300),
        intervention_kind=intervention,
    )
    news = first_news()
    records = []
    for rep in range(reps):
        labels = {"network": kind, "intervention": intervention}
        if trait is not None:
            labels.update({"trait": trait, "level": level})
        records.append(plan._execute_cell(plan.Cell(cfg, news, rep, labels, "")))
    return [r for r in records if r.effective]


def rate_days(records):
    out = []
    for rec in records:
        dr = stats.diffusion_rate(rec, 0.5)
        out.append(dr.days_to_threshold if not dr.censored else len(rec.reached_prop))
    return out


# ---------------------------------------------------------------------------
# criterion 1: Table-style network statistics
# ---------------------------------------------------------------------------

def test_criterion_1_network_statistics():
    start = time.time()
    failures = []

    rand_stats = {"mean_degree": [], "apl": [], "clust": [], "mod": []}
    for seed in range(10):
        net = plan.connected_network("random", {"n": 300, "edge_prob": 12.07 / 299}, seed)
        mean_deg, _ = netgen.degree_stats(net)
        rand_stats["mean_degree"].append(mean_deg)
        rand_stats["apl"].append(netgen.avg_path_length(net))
        rand_stats["clust"].append(netgen.avg_clustering(net))
        rand_stats["mod"].append(netgen.modularity(net, netgen.detect_communities(net)))
    checks = [
        ("random mean degree", np.mean(rand_stats["mean_degree"]), 11.5, 12.6),
        ("random avg path", np.mean(rand_stats["apl"]), 2.45, 2.70),
        ("random clustering", np.mean(rand_stats["clust"]), 0.03, 0.05),
        ("random detected modularity", np.mean(rand_stats["mod"]), 0.23, 0.29),
    ]

    sf_stats = {"sd": [], "apl": []}
    for seed in range(10):
        net = plan.connected_network("scale_free", {"n": 288, "attach_m": 6}, seed)
        mean_deg, sd_deg = netgen.degree_stats(net)
        if mean_deg != 11.75:
            failures.append(f"scale-free mean degree {mean_deg} != 11.75 at seed {seed}")
        sf_stats["sd"].append(sd_deg)
        sf_stats["apl"].append(netgen.avg_path_length(net))
    checks += [
        ("scale-free degree sd", np.mean(sf_stats["sd"]), 8.5, 10.6),
        ("scale-free avg path", np.mean(sf_stats["apl"]), 2.40, 2.55),
    ]

    hb_stats = {"clust": [], "mod": [], "apl": [], "sd": []}
    for seed in range(10):
        net = plan.connected_network(
            "high_brokerage", {"n": 300, "community_size": 13, "rewire_p": 0.7}, seed
        )
        hb_stats["clust"].append(netgen.avg_clustering(net))
        hb_stats["mod"].append(netgen.modularity(net, net.communities))
        hb_stats["apl"].append(netgen.avg_path_length(net))
        hb_stats["sd"].append(netgen.degree_stats(net)[1])
    checks += [
        ("high-brokerage clustering", np.mean(hb_stats["clust"]), 0.55, 0.65),
        ("high-brokerage modularity", np.mean(hb_stats["mod"]), 0.68, 0.77),
        ("high-brokerage avg path", np.mean(hb_stats["apl"]), 2.85, 3.15),
        ("high-brokerage degree sd", np.mean(hb_stats["sd"]), 1.4, 2.0),
    ]

    for name, value, lo, hi in checks:
        if not in_band(value, lo, hi):
            failures.append(f"{name} = {value:.4f} outside [{lo}, {hi}]")
    elapsed = time.time() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    report("criterion 1: Table reproduction over 10 seeds", not failures,
           f"runtime {elapsed:.1f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 2: persona distribution recovery
# ---------------------------------------------------------------------------

def test_criterion_2_persona_distribution():
    start = time.time()
    failures = []
    cohort = persona.sample_personas(100_000, rng_seed=MASTER_SEED)
    scores = np.array([p.big_five_scores for p in cohort])
    means = np.asarray(persona.DEFAULT_TRAIT_STATS.means)
    sds = np.asarray(persona.DEFAULT_TRAIT_STATS.sds)
    for i, trait in enumerate(persona.TRAITS):
        if abs(scores[:, i].mean() - means[i]) > 0.02 * means[i]:
            failures.append(f"{trait} mean {scores[:, i].mean():.4f} off {means[i]} by >2%")
        if abs(scores[:, i].std() - sds[i]) > 0.03 * sds[i]:
            failures.append(f"{trait} sd {scores[:, i].std():.4f} off {sds[i]} by >3%")
    corr_ea = np.corrcoef(scores[:, 0], scores[:, 1])[0, 1]
    corr_en = np.corrcoef(scores[:, 0], scores[:, 3])[0, 1]
    if abs(corr_ea - 0.184) > 0.03:
        failures.append(f"corr(E,A) {corr_ea:.4f} not within 0.03 of 0.184")
    if abs(corr_en + 0.236) > 0.03:
        failures.append(f"corr(E,N) {corr_en:.4f} not within 0.03 of -0.236")
    ages = np.array([p.age for p in cohort])
    if not in_band(ages.mean(), 28.0, 29.0):
        failures.append(f"age mean {ages.mean():.3f} outside [28, 29]")
    if not in_band(ages.std(), 9.2, 9.9):
        failures.append(f"age sd {ages.std():.3f} outside [9.2, 9.9]")
    elapsed = time.time() - start
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report("criterion 2: persona distribution recovery at 1e5", not failures,
           f"runtime {elapsed:.1f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 3: wavefront oracle
# ---------------------------------------------------------------------------

def bfs_layers(net, source):
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


def test_criterion_3_wavefront_equals_bfs():
    rng = np.random.default_rng(MASTER_SEED)
    news = first_news()
    always = policy.StubPolicy(policy.StubParams(intercept=50.0), rng_seed=0)
    failures = []
    checked = 0
    while checked < 25:
        n = int(rng.integers(8, 61))
        net = netgen.gen_random(n, max(0.15, 4.0 / n), seed=int(rng.integers(0, 10**6)))
        if not netgen.is_connected(net):
            continue
        source = engine.select_source(net)
        cfg = base_config(network_kind="random", network_params={"n": n, "edge_prob": 0.15})
        cfg.days = n
        record = engine.run(cfg, net, persona.sample_personas(n, rng_seed=checked),
                            news, always)
        if record.first_reached_by_day() != bfs_layers(net, source):
            failures.append(f"layer mismatch on graph {checked} (n={n})")
        checked += 1
    report("criterion 3: wavefront equals BFS layers on 25 graphs", not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 4: rank-sum correctness
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


def oracle_distribution(n1, n2):
    """All U values over rank subsets, by direct pair counting."""
    ranks = list(range(1, n1 + n2 + 1))
    dist = []
    for picks in combinations(range(n1 + n2), n1):
        chosen = set(picks)
        xs = [ranks[i] for i in picks]
        ys = [ranks[i] for i in range(n1 + n2) if i not in chosen]
        dist.append(oracle_u(xs, ys))
    return dist


def test_criterion_4_rank_sum_exactness():
    failures = []

    res = stats.rank_sum_test([1, 2], [3, 4])
    if abs(res.p_value - 1 / 3) > 1e-12 or res.u_statistic != 0.0:
        failures.append(f"[1,2] vs [3,4]: U={res.u_statistic} p={res.p_value}")

    # every tie-free rank configuration with n1+n2 <= 10
    for n in range(2, 11):
        for n1 in range(1, n):
            n2 = n - n1
            dist = oracle_distribution(n1, n2)
            total = len(dist)
            for picks in combinations(range(1, n + 1), n1):
                a = list(picks)
                b = [r for r in range(1, n + 1) if r not in set(picks)]
                u_obs = oracle_u(a, b)
                lo = min(u_obs, n1 * n2 - u_obs)
                hi = n1 * n2 - lo
                p_oracle = min(
                    1.0,
                    sum(1 for u in dist if u <= lo + 1e-9 or u >= hi - 1e-9) / total,
                )
                got = stats.rank_sum_test(a, b)
                if got.method != "exact" or abs(got.p_value - p_oracle) > 1e-12:
                    failures.append(
                        f"n1={n1} n2={n2} sample={a}: p={got.p_value} oracle={p_oracle}"
                    )

    rng = np.random.default_rng(7)
    for _ in range(1000):
        n1 = int(rng.integers(1, 15))
        n2 = int(rng.integers(1, 15))
        a = rng.integers(0, 10, size=n1).tolist()
        b = rng.integers(0, 10, size=n2).tolist()
        ab = stats.rank_sum_test(a, b)
        ba = stats.rank_sum_test(b, a)
        if abs(ab.u_statistic + ba.u_statistic - n1 * n2) > 1e-9:
            failures.append(f"U symmetry broken for {a} vs {b}")
        if abs(ab.p_value - ba.p_value) > 1e-12:
            failures.append(f"p symmetry broken for {a} vs {b}")

    report("criterion 4: rank-sum exactness and symmetry", not failures,
           "all tie-free configs n1+n2<=10 + 1000 random pairs")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# criterion 5: topology ordering
# ---------------------------------------------------------------------------

def test_criterion_5_topology_ordering():
    start = time.time()
    failures = []
    days = {}
    for kind in ("scale_free", "random", "high_brokerage"):
        days[kind] = rate_days(run_group(kind, "none"))
    mean_sf = np.mean(days["scale_free"])
    mean_rand = np.mean(days["random"])
    mean_hb = np.mean(days["high_brokerage"])
    if not mean_sf < mean_rand < mean_hb:
        failures.append(
            f"ordering violated: sf={mean_sf:.2f} rand={mean_rand:.2f} hb={mean_hb:.2f}"
        )
    for a, b in (("scale_free", "random"), ("random", "high_brokerage"),
                 ("scale_free", "high_brokerage")):
        res = stats.rank_sum_test(days[a], days[b], group_a=a, group_b=b)
        if not res.significant:
            failures.append(f"{a} vs {b}: p={res.p_value:.4f} not < 0.05")
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report("criterion 5: days-to-50% ordering sf < random < high-brokerage",
           not failures,
           f"means {mean_sf:.2f}/{mean_rand:.2f}/{mean_hb:.2f}, runtime {elapsed:.1f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 6: personality effect
# ---------------------------------------------------------------------------

def test_criterion_6_personality_effect():
    failures = []
    for trait in ("extraversion", "openness"):
        high = [r.forwarded_prop[-1] for r in run_group("random", "none", trait, "high")]
        low = [r.forwarded_prop[-1] for r in run_group("random", "none", trait, "low")]
        if not np.mean(high) > np.mean(low):
            failures.append(f"{trait}: high mean {np.mean(high):.3f} not > low {np.mean(low):.3f}")
        res = stats.rank_sum_test(high, low)
        if not res.significant:
            failures.append(f"{trait}: p={res.p_value:.4f} not < 0.05")
    report("criterion 6: high E/O cohorts forward significantly more", not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 7: intervention effect
# ---------------------------------------------------------------------------

def test_criterion_7_intervention_effect():
    failures = []
    for kind in ("random", "scale_free", "high_brokerage"):
        finals = {
            intervention: [r.reached_prop[-1] for r in run_group(kind, intervention)]
            for intervention in ("none", "commenting", "accuracy", "blocking")
        }
        for intervention in ("blocking", "accuracy"):
            res = stats.rank_sum_test(finals[intervention], finals["none"])
            lower = np.mean(finals[intervention]) < np.mean(finals["none"])
            if not (lower and res.significant):
                failures.append(
                    f"{kind}/{intervention}: mean {np.mean(finals[intervention]):.3f} "
                    f"vs none {np.mean(finals['none']):.3f}, p={res.p_value:.4f}"
                )
        res = stats.rank_sum_test(finals["commenting"], finals["none"])
        if res.significant:
            failures.append(f"{kind}/commenting unexpectedly significant p={res.p_value:.4f}")
    report("criterion 7: blocking & accuracy reduce reach; commenting is null",
           not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 8: determinism & replay
# ---------------------------------------------------------------------------

def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_determinism_and_replay(tmp_path, news_path):
    failures = []

    cfg_text = (
        "network:\n  kind: random\n  n: 80\n  edge_prob: 0.1\n"
        f"replications: 3\nmaster_seed: {MASTER_SEED}\n"
        f"news:\n  path: {news_path}\n  limit: 2\n"
    )
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    out1, out2 = tmp_path / "exec1", tmp_path / "exec2"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    if tree_bytes(out1) != tree_bytes(out2):
        failures.append("stub plan executions are not byte-identical")

    # llm-mode plan, then full replay against the complete cache
    cfg = ingest.load_config(cfg_path)
    cfg.policy_kind = "llm"
    cfg.llm_params = {"cache_path": str(tmp_path / "cache.jsonl")}
    news_items = ingest.load_news(cfg.news_path, cfg.news_limit)
    cells = [
        plan.Cell(cfg, item, rep, {"network": "random", "intervention": "none"},
                 f"run_rep{rep:03d}_news{item.news_id}.json")
        for rep in range(cfg.replications) for item in news_items
    ]

    calls = {"n": 0}

    def scripted(url, headers, payload, timeout):
        calls["n"] += 1
        prompt = payload["messages"][0]["content"]
        share = "SHARE" if len(prompt) % 3 else "IGNORE"
        return {"choices": [{"message": {"content": f"DECISION: {share}\nREASON: scripted"}}]}

    cache_live = policy.DecisionCache(tmp_path / "cache.jsonl")
    live = plan._run_plan(cells, tmp_path / "llm_live", cache=cache_live,
                         transport=scripted)
    if calls["n"] == 0:
        failures.append("scripted transport never called in live mode")

    def boom(*a, **k):
        raise AssertionError("network touched during replay")

    cache_replay = policy.DecisionCache(tmp_path / "cache.jsonl")
    replay = plan._run_plan(cells, tmp_path / "llm_replay", cache=cache_replay,
                           transport=boom)
    if [r.to_json() for r in live] != [r.to_json() for r in replay]:
        failures.append("replayed llm records differ from live records")
    if tree_bytes(tmp_path / "llm_live" / "runs") != tree_bytes(tmp_path / "llm_replay" / "runs"):
        failures.append("replayed run files differ from live run files")

    report("criterion 8: byte-identical reruns and zero-call cache replay",
           not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 9: modularity brute-force equivalence
# ---------------------------------------------------------------------------

def brute_force_modularity(net, partition):
    comm_of = {}
    for ci, nodes in enumerate(partition):
        for u in nodes:
            comm_of[u] = ci
    m = len(net.edges)
    if m == 0:
        return 0.0
    adj = net.adjacency()
    deg = [len(a) for a in adj]
    q = 0.0
    for i in range(net.n):
        for j in range(net.n):
            if comm_of[i] != comm_of[j]:
                continue
            a_ij = 1.0 if j in adj[i] else 0.0
            q += a_ij - deg[i] * deg[j] / (2.0 * m)
    return q / (2.0 * m)


def test_criterion_9_modularity_brute_force():
    rng = np.random.default_rng(MASTER_SEED)
    failures = []
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 51))
        net = netgen.gen_random(n, float(rng.uniform(0.08, 0.6)),
                                seed=int(rng.integers(0, 10**6)))
        if len(net.edges) == 0:
            continue
        k = int(rng.integers(1, 6))
        assignment = rng.integers(0, k, size=n)
        partition = [tuple(np.flatnonzero(assignment == g)) for g in range(k)]
        partition = [p for p in partition if p]
        fast = netgen.modularity(net, partition)
        slow = brute_force_modularity(net, partition)
        if abs(fast - slow) > 1e-12:
            failures.append(f"graph {checked}: fast={fast!r} brute={slow!r}")
        checked += 1
    report("criterion 9: modularity equals double-loop oracle on 100 graphs",
           not failures)
    assert not failures, failures
