"""Synthetic network generators and graph statistics.

Three structures are supported: Erdos-Renyi-style random graphs, scale-free
graphs grown by preferential attachment, and high-brokerage graphs built from
clique communities whose designated broker nodes carry rewired inter-community
bridges. All graphs are simple, undirected and unweighted; generation is
deterministic per (kind, params, seed).

Metrics follow the usual definitions: density 2E/(N(N-1)), mean/sd of the
degree sequence, exact BFS all-pairs average path length over ordered pairs,
mean per-node clustering 2*e_i/(k_i*(k_i-1)), and Newman modularity
(1/2E) * sum_ij [A_ij - k_i*k_j/2E] * delta(c_i, c_j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

NETWORK_KINDS = ("random", "scale_free", "high_brokerage")

# High-brokerage construction constants (see gen_high_brokerage).
BROKER_FRACTION = 0.15
CHURN_CAP = 0.05


class NetworkGenerationError(RuntimeError):
    """Raised when a generator cannot produce an acceptable graph."""


@dataclass(frozen=True)
class Network:
    """Simple undirected graph with generator provenance.

    edges is a sorted tuple of (u, v) pairs with u < v; communities, when
    present, is the ground-truth partition of range(n).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    kind: str
    gen_seed: int
    communities: tuple[tuple[int, ...], ...] | None = None

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbour ids per node; built on first use, then shared.

        Threads racing on the first call may each build it; they build equal
        values, and every later call returns the one stored last.
        """
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            lists: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            adj = tuple(tuple(sorted(a)) for a in lists)
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, indices): the ascending neighbours of u are
        indices[indptr[u]:indptr[u + 1]]. Built on first use, then shared,
        like adjacency().
        """
        csr = self.__dict__.get("_csr")
        if csr is None:
            flat = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64,
                               count=2 * len(self.edges))
            src = np.concatenate([flat[0::2], flat[1::2]])
            dst = np.concatenate([flat[1::2], flat[0::2]])
            order = np.argsort(src * self.n + dst)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            csr = (indptr, dst[order])
            for a in csr:
                a.flags.writeable = False
            object.__setattr__(self, "_csr", csr)
        return csr

    def degrees(self) -> np.ndarray:
        """Read-only degree array; built on first use, then shared."""
        deg = self.__dict__.get("_degrees")
        if deg is None:
            deg = np.diff(self.csr()[0])
            deg.flags.writeable = False
            object.__setattr__(self, "_degrees", deg)
        return deg


@dataclass(frozen=True)
class NetworkStats:
    density: float
    mean_degree: float
    sd_degree: float
    avg_path_length: float
    avg_clustering: float
    modularity: float


def _canonical_edges(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def gen_random(n: int, edge_prob: float, seed: int) -> Network:
    """Include each unordered pair independently with probability edge_prob."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < edge_prob < 1.0:
        raise ValueError("edge_prob must be in (0, 1)")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < edge_prob
    edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
    return Network(n=n, edges=_canonical_edges(edges), kind="random", gen_seed=seed)


def gen_scale_free(n: int, attach_m: int, seed: int) -> Network:
    """Preferential-attachment growth; every new node attaches attach_m edges.

    Starts from attach_m seed nodes, so the edge count is exactly
    attach_m * (n - attach_m) for every seed.
    """
    if not 1 <= attach_m <= n - 2:
        raise ValueError("attach_m must satisfy 1 <= attach_m <= n - 2")
    rng = np.random.default_rng(seed)
    edges = []
    # endpoint multiset: sampling uniformly from it is degree-proportional
    endpoints: list[int] = []
    targets = list(range(attach_m))
    for new in range(attach_m, n):
        for t in targets:
            edges.append((t, new))
            endpoints.append(t)
            endpoints.append(new)
        chosen: set[int] = set()
        while len(chosen) < attach_m:
            chosen.add(endpoints[int(rng.integers(0, len(endpoints)))])
        targets = sorted(chosen)
    return Network(n=n, edges=_canonical_edges(edges), kind="scale_free", gen_seed=seed)


def _split_communities(n: int, community_size: int) -> list[list[int]]:
    ncomm = max(1, round(n / community_size))
    base, extra = divmod(n, ncomm)
    sizes = [base + (1 if i < extra else 0) for i in range(ncomm)]
    if max(sizes) - min(sizes) > 1:
        raise ValueError("n cannot be split into communities within +/-1 of each other")
    comms, start = [], 0
    for size in sizes:
        comms.append(list(range(start, start + size)))
        start += size
    return comms


def _build_high_brokerage(n, community_size, rewire_p, seed, broker_frac, churn_p):
    rng = np.random.default_rng(seed)
    comms = _split_communities(n, community_size)
    comm_of = {}
    brokers: set[int] = set()
    for ci, nodes in enumerate(comms):
        for u in nodes:
            comm_of[u] = ci
        nbrok = max(1, round(broker_frac * len(nodes)))
        brokers.update(nodes[:nbrok])

    edges: set[tuple[int, int]] = set()
    for nodes in comms:
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                edges.add((nodes[i], nodes[j]))

    for (u, v) in sorted(edges):
        u_is_broker, v_is_broker = u in brokers, v in brokers
        if u_is_broker or v_is_broker:
            if rng.random() >= rewire_p:
                continue
            if u_is_broker and v_is_broker:
                keep = u if rng.random() < 0.5 else v
            else:
                keep = u if u_is_broker else v
        else:
            if rng.random() >= churn_p:
                continue
            keep = u if rng.random() < 0.5 else v
        for _ in range(50):
            w = int(rng.integers(0, n))
            if comm_of[w] == comm_of[keep]:
                continue
            new_edge = (min(keep, w), max(keep, w))
            if new_edge in edges:
                continue
            edges.remove((u, v))
            edges.add(new_edge)
            break

    return Network(
        n=n,
        edges=_canonical_edges(edges),
        kind="high_brokerage",
        gen_seed=seed,
        communities=tuple(tuple(c) for c in comms),
    )


def gen_high_brokerage(
    n: int,
    community_size: int,
    rewire_p: float,
    seed: int,
    *,
    broker_frac: float = BROKER_FRACTION,
    churn_p: float | None = None,
) -> Network:
    """Clique communities bridged by broker nodes.

    Each community is a clique; a per-community broker set (broker_frac of its
    members, at least one) anchors the bridges: intra-community edges touching
    a broker are rewired with probability rewire_p, keeping the broker end and
    re-attaching the other end to a random node outside the community. The
    remaining intra edges get a small uniform churn (default min(CHURN_CAP,
    rewire_p)) so degrees are not lattice-regular. Ground-truth communities are
    stored on the result. The result may be disconnected; callers that need
    a connected graph retry with another seed (see cli.connected_network).
    """
    if community_size < 3:
        raise ValueError("community_size must be >= 3")
    if community_size > n:
        raise ValueError("community_size cannot exceed n")
    if not 0.0 <= rewire_p <= 1.0:
        raise ValueError("rewire_p must be in [0, 1]")
    if churn_p is None:
        churn_p = min(CHURN_CAP, rewire_p)
    return _build_high_brokerage(n, community_size, rewire_p, seed, broker_frac, churn_p)


def generate(kind: str, params: dict, seed: int) -> Network:
    """Dispatch on kind using keyword params from a config."""
    if kind == "random":
        return gen_random(params["n"], params["edge_prob"], seed)
    if kind == "scale_free":
        return gen_scale_free(params["n"], params["attach_m"], seed)
    if kind == "high_brokerage":
        return gen_high_brokerage(
            params["n"], params["community_size"], params["rewire_p"], seed,
            broker_frac=params.get("broker_frac", BROKER_FRACTION),
            churn_p=params.get("churn_p"),
        )
    raise ValueError(f"unknown network kind {kind!r}")


def is_connected(net: Network) -> bool:
    if net.n == 0:
        return True
    adj = net.adjacency()
    seen = [False] * net.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == net.n


def density(net: Network) -> float:
    if net.n < 2:
        raise ValueError("density undefined for n < 2")
    return 2.0 * len(net.edges) / (net.n * (net.n - 1))


def degree_stats(net: Network) -> tuple[float, float]:
    """(mean, population sd) of the degree sequence."""
    deg = net.degrees()
    if net.n == 0:
        return (0.0, 0.0)
    return (float(deg.mean()), float(deg.std()))


def avg_path_length(net: Network) -> float:
    """Exact BFS mean shortest-path length over ordered pairs; errors if disconnected."""
    n = net.n
    if n < 2:
        raise ValueError("avg_path_length undefined for n < 2")
    adj = net.adjacency()
    total = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            du = dist[u]
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(v)
        if len(queue) != n:
            raise NetworkGenerationError("avg_path_length requires a connected graph")
        total += sum(dist)
    return total / (n * (n - 1))


def avg_clustering(net: Network) -> float:
    """Mean of per-node coefficients 2*e_i/(k_i*(k_i-1)); degree<2 nodes count 0."""
    if net.n == 0:
        return 0.0
    nbr_sets = [frozenset(a) for a in net.adjacency()]
    acc = 0.0
    for nbrs in net.adjacency():
        k = len(nbrs)
        if k < 2:
            continue
        e = 0
        for i in range(k):
            ni = nbr_sets[nbrs[i]]
            for j in range(i + 1, k):
                if nbrs[j] in ni:
                    e += 1
        acc += 2.0 * e / (k * (k - 1))
    return acc / net.n


def modularity(net: Network, partition) -> float:
    """Newman modularity of a node partition, via per-community aggregates."""
    comm_of: dict[int, int] = {}
    for ci, nodes in enumerate(partition):
        for u in nodes:
            if u in comm_of:
                raise ValueError(f"node {u} appears in more than one community")
            comm_of[u] = ci
    if set(comm_of) != set(range(net.n)):
        raise ValueError("partition must cover all nodes exactly")
    m = len(net.edges)
    if m == 0:
        return 0.0
    ncomm = len(list(partition))
    intra = np.zeros(ncomm)
    deg_sum = np.zeros(ncomm)
    for u, v in net.edges:
        if comm_of[u] == comm_of[v]:
            intra[comm_of[u]] += 1.0
    deg = net.degrees()
    for u in range(net.n):
        deg_sum[comm_of[u]] += deg[u]
    return float(np.sum(intra / m - (deg_sum / (2.0 * m)) ** 2))


def detect_communities(net: Network) -> tuple[tuple[int, ...], ...]:
    """Greedy agglomerative modularity maximization (Clauset-Newman-Moore).

    Deterministic for a given graph; singleton graphs fall back to one
    community.
    """
    if net.n < 2 or not net.edges:
        return (tuple(range(net.n)),) if net.n else ()
    import networkx as nx  # only gen-network needs it, and it is slow to import

    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(net.edges)
    comms = nx.community.greedy_modularity_communities(g)
    return tuple(sorted((tuple(sorted(c)) for c in comms), key=lambda c: c[0]))


def stats(net: Network) -> NetworkStats:
    """All Table-style statistics; modularity uses ground-truth communities when present."""
    mean_deg, sd_deg = degree_stats(net)
    partition = net.communities if net.communities is not None else detect_communities(net)
    return NetworkStats(
        density=density(net),
        mean_degree=mean_deg,
        sd_degree=sd_deg,
        avg_path_length=avg_path_length(net),
        avg_clustering=avg_clustering(net),
        modularity=modularity(net, partition),
    )


def save_network(net: Network, path) -> None:
    """Edge-list text format: header lines, 'edges' block, optional 'communities' block."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# newssim network v1\n")
        fh.write(f"n={net.n}\n")
        fh.write(f"kind={net.kind}\n")
        fh.write(f"seed={net.gen_seed}\n")
        fh.write("edges\n")
        for u, v in net.edges:
            fh.write(f"{u} {v}\n")
        if net.communities is not None:
            fh.write("communities\n")
            for nodes in net.communities:
                fh.write(" ".join(str(u) for u in nodes) + "\n")


def load_network(path) -> Network:
    header: dict[str, str] = {}
    edges: list[tuple[int, int]] = []
    communities: list[tuple[int, ...]] = []
    section = "header"
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "edges":
                section = "edges"
                continue
            if line == "communities":
                section = "communities"
                continue
            if section == "header":
                key, _, value = line.partition("=")
                header[key] = value
            elif section == "edges":
                u, v = line.split()
                edges.append((int(u), int(v)))
            else:
                communities.append(tuple(int(x) for x in line.split()))
    if not {"n", "kind", "seed"} <= set(header):
        raise ValueError(f"{path}: missing network header fields")
    return Network(
        n=int(header["n"]),
        edges=_canonical_edges(edges),
        kind=header["kind"],
        gen_seed=int(header["seed"]),
        communities=tuple(communities) if communities else None,
    )
