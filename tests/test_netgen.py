import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newssim import netgen, plan
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
    modularity,
    save_network,
    stats,
)
from newssim.persona import pin_trait, sample_personas


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
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(gen_random(100, 0.05, seed=8).edges, a.edges)
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
    with pytest.raises(ValueError):
        net.edges[0, 0] = 0
    # the CSR is stored beside the fields, not as one
    assert "_csr" not in {f.name for f in fields(Network)}


@st.composite
def graphs_and_nodes(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return net_from_edges(n, edges), edges, np.array(nodes, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(graphs_and_nodes())
def test_neighbours_and_is_connected_match_adjacency_loops(graph):
    net, edges, nodes = graph
    # oracle: neighbour lists built from the drawn pairs, independently of the CSR
    lists = [[] for _ in range(net.n)]
    for u, v in edges:
        lists[u].append(v)
        lists[v].append(u)
    expected = [sorted(a) for a in lists]
    indptr, indices = net.csr()
    assert [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(net.n)] == expected
    assert [list(a) for a in net.adjacency()] == expected
    assert net.degrees().tolist() == [len(a) for a in expected]
    adj = net.adjacency()
    owners, nbrs = net.neighbours(nodes)
    assert list(zip(owners.tolist(), nbrs.tolist())) == [
        (u, v) for u in nodes.tolist() for v in adj[u]]
    # reference: a breadth-first search over the adjacency tuples from every node
    dists = []
    for s in range(net.n):
        dist, queue = {s: 0}, [s]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        dists.append(dist)
    connected = len(dists[0]) == net.n
    assert is_connected(net) == connected
    if net.n < 2:
        with pytest.raises(ValueError):
            avg_path_length(net)
    elif connected:
        assert avg_path_length(net) == sum(sum(d.values()) for d in dists) / (net.n * (net.n - 1))
    else:
        with pytest.raises(NetworkGenerationError):
            avg_path_length(net)
    # reference: the pair loop over each node's neighbours, summed in node order
    acc = 0.0
    for row in adj:
        k = len(row)
        if k >= 2:
            e = sum(row[j] in adj[row[i]] for i in range(k) for j in range(i + 1, k))
            acc += 2.0 * e / (k * (k - 1))
    assert avg_clustering(net) == acc / net.n


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
    assert np.array_equal(a.edges, b.edges)
    assert is_connected(a)


def test_scale_free_rejects_degenerate_m():
    with pytest.raises(ValueError):
        gen_scale_free(10, 9, seed=0)  # attach_m = n - 1
    with pytest.raises(ValueError):
        gen_scale_free(10, 0, seed=0)


def assert_simple_sorted(net):
    """Edges are int32 rows that ascend, are unique, and each is (u, v) with 0 <= u < v < n."""
    assert net.edges.dtype == np.int32 and net.edges.shape == (len(net.edges), 2)
    edges = [tuple(e) for e in net.edges.tolist()]
    assert edges == sorted(set(edges))
    assert all(0 <= u < v < net.n for u, v in edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 60), st.floats(1e-4, 0.999), st.integers(0, 2**32))
def test_gen_random_edges_are_sorted_unique_and_seeded(n, p, seed):
    net = gen_random(n, p, seed)
    assert_simple_sorted(net)
    assert np.array_equal(gen_random(n, p, seed).edges, net.edges)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(3, 60), st.integers(0, 2**32))
def test_gen_scale_free_every_node_attaches_m_older_distinct_targets(data, n, seed):
    m = data.draw(st.integers(1, n - 2), label="attach_m")
    net = gen_scale_free(n, m, seed)
    assert_simple_sorted(net)
    assert len(net.edges) == m * (n - m)
    # an edge's newer end is the node that chose its older end as a target;
    # the edges are unique, so each node's targets are distinct
    newer = np.bincount([v for _, v in net.edges], minlength=n)
    assert newer.tolist() == [0] * m + [m] * (n - m)
    assert np.array_equal(gen_scale_free(n, m, seed).edges, net.edges)


def attachment_targets_oracle(n, m, rng):
    """Oracle: every node after node m grown one draw at a time, in one loop."""
    targets = list(range(m))
    uniforms: list[float] = []
    drawn = 0
    for _ in range(n - m - 1):  # nodes m + 1 .. n - 1
        count = 2 * len(targets)
        chosen: set[int] = set()
        while len(chosen) < m:
            if drawn == len(uniforms):
                uniforms, drawn = rng.random(1024).tolist(), 0
            r = int(uniforms[drawn] * count)
            drawn += 1
            chosen.add(m + (r >> 1) // m if r & 1 else targets[r >> 1])
        targets.extend(sorted(chosen))
    return np.array(targets, dtype=np.int32)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 8), st.integers(0, 2**32),
       st.sampled_from([None, 1, 64]), st.sampled_from([1, 7, 1024]))
def test_attachment_blocks_match_the_one_by_one_oracle(data, m, seed, one_by_one_below, block):
    # one_by_one_below=1 speculates from node m + 1 on, where repeats and
    # references into the block are most common; None keeps the default
    n = data.draw(st.integers(m + 2, 5000), label="n")
    below = one_by_one_below or netgen._ONE_BY_ONE_BELOW
    with (mock.patch.object(netgen, "_ONE_BY_ONE_BELOW", below),
          mock.patch.object(netgen, "_DRAW_BLOCK", block)):
        got = netgen._attachment_targets(n, m, np.random.default_rng(seed))
    assert got.dtype == np.int32
    assert np.array_equal(got, attachment_targets_oracle(n, m, np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attachment_blocks_keep_rows_before_a_repeat_and_resize(monkeypatch, seed):
    blocks, redrawn = [], []
    speculate, grow = netgen._speculate, netgen._grow_one_by_one

    def spy_speculate(node, m, targets, uniforms):
        blocks.append((node, len(uniforms) // m))
        return speculate(node, m, targets, uniforms)

    def spy_grow(first, stop, *args):
        redrawn.extend(range(first, stop))
        return grow(first, stop, *args)

    monkeypatch.setattr(netgen, "_speculate", spy_speculate)
    monkeypatch.setattr(netgen, "_grow_one_by_one", spy_grow)
    got = netgen._attachment_targets(20000, 3, np.random.default_rng(seed))
    assert np.array_equal(got, attachment_targets_oracle(20000, 3, np.random.default_rng(seed)))
    sizes = [size for _, size in blocks]
    assert any(b > a for a, b in zip(sizes, sizes[1:]))  # doubled
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # halved
    # a node redrawn after the one-by-one nodes, with rows of its block kept before it
    late = [node for node in redrawn if node >= netgen._ONE_BY_ONE_BELOW]
    assert any(start < node < start + size for node in late for start, size in blocks)


@pytest.mark.parametrize("block", [1, 3, 50])
def test_streams_do_not_depend_on_the_draw_block(monkeypatch, block):
    cases = [(gen_random, 80, 0.1), (gen_random, 60, 0.9), (gen_random, 200, 0.001),
             (gen_scale_free, 120, 3), (gen_scale_free, 40, 1)]
    expected = [gen(n, x, seed).edges.tolist() for gen, n, x in cases for seed in range(3)]
    monkeypatch.setattr(netgen, "_DRAW_BLOCK", block)
    assert [gen(n, x, seed).edges.tolist() for gen, n, x in cases for seed in range(3)] == expected


def nx_degrees(graphs):
    return np.concatenate([[d for _, d in g.degree()] for g in graphs])


def test_gen_random_matches_the_networkx_gnp_oracle():
    # networkx is a statistical reference here, not a stream to match
    import networkx as nx
    from scipy import stats as sps

    n, p, seeds = 2000, 0.005, range(5)
    pairs = n * (n - 1) // 2
    ours = [gen_random(n, p, seed) for seed in seeds]
    sd = math.sqrt(pairs * p * (1 - p))
    assert all(abs(len(g.edges) - p * pairs) < 4 * sd for g in ours)
    reference = nx_degrees(nx.fast_gnp_random_graph(n, p, seed=seed) for seed in seeds)
    degrees = np.concatenate([g.degrees() for g in ours])
    assert sps.ks_2samp(degrees, reference).pvalue > 0.01
    assert degrees.mean() == pytest.approx(reference.mean(), rel=0.03)
    assert degrees.var() == pytest.approx(reference.var(), rel=0.1)


def test_gen_scale_free_degree_tail_matches_networkx_barabasi_albert():
    import networkx as nx
    from scipy import stats as sps

    n, m, seeds = 3000, 3, range(5)
    degrees = np.concatenate([gen_scale_free(n, m, seed).degrees() for seed in seeds])
    reference = nx_degrees(nx.barabasi_albert_graph(n, m, seed=seed) for seed in seeds)
    assert sps.ks_2samp(degrees, reference).pvalue > 0.01
    # the heavy tail: the share of nodes of degree >= k, out to 16 m
    for k in (2 * m, 4 * m, 8 * m, 16 * m):
        assert (degrees >= k).mean() == pytest.approx((reference >= k).mean(), rel=0.3)
    assert degrees.max() > 0.5 * reference.max()


def traced_peak_mb(fn, *args):
    fn(*args)  # first calls warm numpy's caches, which are not the generator's memory
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_generators_allocate_linear_memory():
    # a draw over upper-triangle index arrays, O(n^2), peaked at 299 MB
    assert traced_peak_mb(gen_random, 5000, 12 / 4999, 1) < 10.0
    # an endpoint-list draw peaked at 9.3 MB
    assert traced_peak_mb(gen_scale_free, 20000, 3, 1) < 9.3
    # N=10^5, mean degree 12, with its CSR: tuple edges and a CSR rebuilt from them peaked at 91 MB
    assert traced_peak_mb(lambda: gen_random(100000, 12 / 99999, 1).csr()) < 60.0


def test_cohorts_allocate_columns_not_objects():
    # one AgentPersona per agent, each with two 5-tuples, peaked at 63.8 MB
    assert traced_peak_mb(sample_personas, 100000) < 20.0
    base = sample_personas(1000, rng_seed=1)
    pinned = pin_trait(base, "openness", "high")
    assert np.shares_memory(pinned.female, base.female)
    assert np.shares_memory(pinned.age, base.age)
    assert not np.shares_memory(pinned.scores, base.scores)


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
    assert np.array_equal(b.edges, net.edges)


def test_high_brokerage_no_bridges_errors(monkeypatch):
    # two cliques, no rewiring: always disconnected; the one retry site in
    # plan.connected_network gives up after its 5 seeds
    builds = []
    real_build = netgen._build_high_brokerage

    def counting_build(*args):
        builds.append(args)
        return real_build(*args)

    monkeypatch.setattr(netgen, "_build_high_brokerage", counting_build)
    params = {"n": 8, "community_size": 4, "rewire_p": 0.0}
    with pytest.raises(NetworkGenerationError, match=r"connected high_brokerage .* seed 0"):
        plan.connected_network("high_brokerage", params, 0)
    assert len(builds) == 5


def test_high_brokerage_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_high_brokerage(10, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_high_brokerage(10, 11, 0.5, seed=0)


def test_high_brokerage_spec_example_bands_csize25(monkeypatch):
    # 25-node communities, uniform rewiring (every node a broker), tuned rate
    monkeypatch.setattr(netgen, "BROKER_FRACTION", 1.0)
    clusts, mods = [], []
    for seed in range(5):
        net = gen_high_brokerage(300, 25, 0.16, seed=seed)
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


def test_save_network_writes_header_edges_and_communities(tmp_path):
    net = gen_high_brokerage(60, 6, 0.5, seed=9)
    plain = gen_random(30, 0.2, seed=1)
    for name, g, tail in (("net", net, ["communities"]), ("plain", plain, [])):
        save_network(g, tmp_path / f"{name}.edges")
        lines = (tmp_path / f"{name}.edges").read_text(encoding="utf-8").splitlines()
        assert lines == [
            "# newssim network v1", f"n={g.n}", f"kind={g.kind}", f"seed={g.gen_seed}", "edges",
            *(f"{u} {v}" for u, v in g.edges),
            *tail, *(" ".join(map(str, c)) for c in g.communities or ()),
        ]
