import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from newssim import cli, netgen
from newssim.netgen import (
    Network,
    NetworkGenerationError,
    avg_clustering,
    avg_path_length,
    degree_stats,
    density,
    detect_communities,
    gen_high_brokerage,
    gen_random,
    gen_scale_free,
    is_connected,
    load_network,
    modularity,
    save_network,
    stats,
)


def net_from_edges(n, edges, communities=None):
    return Network(
        n=n,
        edges=tuple(sorted((min(u, v), max(u, v)) for u, v in edges)),
        kind="random",
        gen_seed=0,
        communities=communities,
    )


def complete_graph(n):
    return net_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def brute_force_modularity(net, partition):
    """Oracle: literal double loop over ordered node pairs."""
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


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_random_determinism_and_handshake():
    a = gen_random(100, 0.05, seed=7)
    b = gen_random(100, 0.05, seed=7)
    assert a.edges == b.edges
    assert gen_random(100, 0.05, seed=8).edges != a.edges
    assert int(a.degrees().sum()) == 2 * len(a.edges)


def test_gen_random_tiny_prob_mostly_edgeless():
    net = gen_random(10, 1e-9, seed=0)
    assert len(net.edges) == 0
    assert int(net.degrees().sum()) % 2 == 0


def test_gen_random_near_one_is_complete():
    net = gen_random(4, 1 - 1e-12, seed=0)
    assert len(net.edges) == 6
    assert density(net) == 1.0


def test_adjacency_and_degrees_built_once_and_read_only():
    net = gen_random(40, 0.2, seed=3)
    adj = net.adjacency()
    assert net.adjacency() is adj and net.degrees() is net.degrees()
    assert all(isinstance(a, tuple) and list(a) == sorted(a) for a in adj)
    assert [len(a) for a in adj] == net.degrees().tolist()
    with pytest.raises(ValueError):
        net.degrees()[0] = 99
    indptr, indices = net.csr()
    assert net.csr()[1] is indices
    assert [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(net.n)] == [
        list(a) for a in adj]
    with pytest.raises(ValueError):
        indices[0] = 0
    # the memo is not a field: equality and hashing still see only the graph
    twin = Network(net.n, net.edges, net.kind, net.gen_seed)
    assert twin == net and hash(twin) == hash(net)


def test_adjacency_memo_under_concurrent_first_calls():
    # plan cells on --parallel threads share one cached Network
    reference = gen_random(120, 0.1, seed=5)
    expected = (reference.adjacency(), reference.degrees().tolist())
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            net = Network(reference.n, reference.edges, reference.kind, reference.gen_seed)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: (net.adjacency(), net.degrees().tolist()))
                           for _ in range(16)]
                results = [f.result(timeout=30) for f in futures]
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(old)


def test_gen_random_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_random(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_random(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_random(10, 1.0, seed=0)


def test_scale_free_exact_edge_count_every_seed():
    for seed in range(8):
        net = gen_scale_free(288, 6, seed=seed)
        assert len(net.edges) == 6 * (288 - 6)
        assert int(net.degrees().sum()) == 2 * len(net.edges)
    mean_deg, _ = degree_stats(net)
    assert mean_deg == pytest.approx(2 * 1692 / 288)
    assert mean_deg == pytest.approx(11.75)


def test_scale_free_connected_and_deterministic():
    a = gen_scale_free(120, 4, seed=3)
    b = gen_scale_free(120, 4, seed=3)
    assert a.edges == b.edges
    assert is_connected(a)


def test_scale_free_rejects_degenerate_m():
    with pytest.raises(ValueError):
        gen_scale_free(10, 9, seed=0)  # attach_m = n - 1
    with pytest.raises(ValueError):
        gen_scale_free(10, 0, seed=0)


def test_high_brokerage_structure():
    net = gen_high_brokerage(300, 13, 0.7, seed=5)
    assert is_connected(net)
    assert net.communities is not None
    nodes = sorted(u for c in net.communities for u in c)
    assert nodes == list(range(300))
    sizes = {len(c) for c in net.communities}
    assert max(sizes) - min(sizes) <= 1
    assert int(net.degrees().sum()) == 2 * len(net.edges)
    b = gen_high_brokerage(300, 13, 0.7, seed=5)
    assert b.edges == net.edges


def test_high_brokerage_no_bridges_errors(monkeypatch):
    # two cliques, no rewiring: always disconnected; the one retry site in
    # cli.connected_network gives up after its 5 seeds
    builds = []
    real_build = netgen._build_high_brokerage

    def counting_build(*args):
        builds.append(args)
        return real_build(*args)

    monkeypatch.setattr(netgen, "_build_high_brokerage", counting_build)
    params = {"n": 8, "community_size": 4, "rewire_p": 0.0}
    with pytest.raises(NetworkGenerationError, match=r"connected high_brokerage .* seed 0"):
        cli.connected_network("high_brokerage", params, 0)
    assert len(builds) == 5


def test_high_brokerage_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_high_brokerage(10, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_high_brokerage(10, 11, 0.5, seed=0)


def test_high_brokerage_spec_example_bands_csize25():
    # 25-node communities, uniform rewiring (every node a broker), tuned rate
    clusts, mods = [], []
    for seed in range(5):
        net = gen_high_brokerage(300, 25, 0.16, seed=seed, broker_frac=1.0)
        clusts.append(avg_clustering(net))
        mods.append(modularity(net, net.communities))
    assert 0.55 <= np.mean(clusts) <= 0.65
    assert 0.68 <= np.mean(mods) <= 0.77


# ---------------------------------------------------------------------------
# metrics on hand-checkable graphs
# ---------------------------------------------------------------------------

def test_density_examples():
    assert density(complete_graph(4)) == 1.0
    path3 = net_from_edges(3, [(0, 1), (1, 2)])
    assert density(path3) == pytest.approx(2 * 2 / (3 * 2))
    assert density(net_from_edges(10, [])) == 0.0
    with pytest.raises(ValueError):
        density(net_from_edges(1, []))


def test_degree_stats_examples():
    assert degree_stats(complete_graph(4)) == (3.0, 0.0)
    star5 = net_from_edges(5, [(0, i) for i in range(1, 5)])
    mean, sd = degree_stats(star5)
    assert mean == pytest.approx(8 / 5)
    # population sd of {4,1,1,1,1}, computed from its definition
    degs = [4, 1, 1, 1, 1]
    mu = sum(degs) / 5
    assert sd == pytest.approx(math.sqrt(sum((d - mu) ** 2 for d in degs) / 5))
    assert degree_stats(net_from_edges(10, [])) == (0.0, 0.0)


def test_avg_path_length_examples():
    assert avg_path_length(complete_graph(4)) == 1.0
    path3 = net_from_edges(3, [(0, 1), (1, 2)])
    # ordered-pair enumeration: (1+2+1+1+2+1)/6
    assert avg_path_length(path3) == pytest.approx((1 + 2 + 1 + 1 + 2 + 1) / 6)
    with pytest.raises(NetworkGenerationError):
        avg_path_length(net_from_edges(4, [(0, 1), (2, 3)]))


def test_avg_path_length_bounds_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        net = gen_random(n, 0.4, seed=int(rng.integers(0, 10_000)))
        if not is_connected(net):
            continue
        apl = avg_path_length(net)
        assert 1.0 <= apl <= n - 1
        if apl == 1.0:
            assert len(net.edges) == n * (n - 1) // 2


def test_avg_clustering_examples():
    triangle = net_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert avg_clustering(triangle) == 1.0
    star5 = net_from_edges(5, [(0, i) for i in range(1, 5)])
    assert avg_clustering(star5) == 0.0
    path3 = net_from_edges(3, [(0, 1), (1, 2)])
    assert avg_clustering(path3) == 0.0


def test_modularity_two_triangles():
    net = net_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    part = [(0, 1, 2), (3, 4, 5)]
    assert modularity(net, part) == pytest.approx(0.5, abs=1e-12)
    assert modularity(net, part) == pytest.approx(brute_force_modularity(net, part), abs=1e-12)


def test_modularity_single_community_matches_brute_force():
    net = gen_random(20, 0.3, seed=2)
    part = [tuple(range(20))]
    assert modularity(net, part) == pytest.approx(brute_force_modularity(net, part), abs=1e-12)


def test_modularity_k4_singletons_negative():
    net = complete_graph(4)
    part = [(i,) for i in range(4)]
    q = modularity(net, part)
    assert q < 0
    assert q == pytest.approx(brute_force_modularity(net, part), abs=1e-12)


def test_modularity_requires_full_partition():
    net = complete_graph(4)
    with pytest.raises(ValueError):
        modularity(net, [(0, 1)])
    with pytest.raises(ValueError):
        modularity(net, [(0, 1, 2, 3), (3,)])


def test_modularity_brute_force_equivalence_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(4, 50))
        net = gen_random(n, float(rng.uniform(0.1, 0.5)), seed=int(rng.integers(0, 1_000_000)))
        # random partition into <= 4 groups
        assignment = rng.integers(0, 4, size=n)
        part = [tuple(np.flatnonzero(assignment == g)) for g in range(4)]
        part = [p for p in part if p]
        if len(net.edges) == 0:
            continue
        assert modularity(net, part) == pytest.approx(
            brute_force_modularity(net, part), abs=1e-12
        )


def test_detect_communities_two_triangles():
    net = net_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    part = detect_communities(net)
    assert part == ((0, 1, 2), (3, 4, 5))
    assert detect_communities(net) == part  # deterministic


def test_detect_communities_degenerate():
    single = net_from_edges(1, [])
    assert detect_communities(single) == ((0,),)
    assert modularity(single, detect_communities(single)) == 0.0


def test_stats_hand_built_graph():
    # two K4 cliques joined by the single edge (0, 4)
    edges = (
        [(i, j) for i in range(4) for j in range(i + 1, 4)]
        + [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
        + [(0, 4)]
    )
    part = ((0, 1, 2, 3), (4, 5, 6, 7))
    net = net_from_edges(8, edges, communities=part)
    st = stats(net)
    # every value below hand-computed from the definitions
    assert st.density == pytest.approx(2 * 13 / (8 * 7))
    assert st.mean_degree == pytest.approx(26 / 8)
    assert st.sd_degree == pytest.approx(math.sqrt((2 * 0.75**2 + 6 * 0.25**2) / 8))
    assert st.avg_path_length == pytest.approx(104 / 56)
    assert st.avg_clustering == pytest.approx((6 * 1.0 + 2 * 0.5) / 8)
    assert st.modularity == pytest.approx(2 * (6 / 13 - (13 / 26) ** 2), abs=1e-12)
    assert st.modularity == pytest.approx(brute_force_modularity(net, part), abs=1e-12)


def test_stats_uses_detected_partition_without_ground_truth():
    net = net_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    st = stats(net)
    assert st.modularity == pytest.approx(
        modularity(net, detect_communities(net)), abs=1e-12
    )


def test_save_load_round_trip(tmp_path):
    net = gen_high_brokerage(60, 6, 0.5, seed=9)
    path = tmp_path / "net.edges"
    save_network(net, path)
    assert load_network(path) == net

    plain = gen_random(30, 0.2, seed=1)
    save_network(plain, tmp_path / "plain.edges")
    assert load_network(tmp_path / "plain.edges") == plain
