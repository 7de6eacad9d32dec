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

import typing
from dataclasses import dataclass

import numpy as np

from .ingest import network_param_problems

#: Random draws per block: preferential attachment draws its uniforms in
#: multiples of it (one block per refill when growing a node one at a time, as
#: many as a speculative block needs), and random graphs add it as slack over
#: the expected count of each block of gaps. No graph depends on it: draws
#: left in the last block are dropped only once the graph is complete.
_DRAW_BLOCK = 1024

# Preferential attachment (see _attachment_targets): nodes below
# _ONE_BY_ONE_BELOW grow one at a time; later nodes grow in speculative blocks
# of _FIRST_BLOCK nodes at first, and at most _LARGEST_BLOCK, which bounds the
# temporary arrays and the rounds of references inside one block.
_ONE_BY_ONE_BELOW = 1024
_FIRST_BLOCK = 64
_LARGEST_BLOCK = 1 << 14

# High-brokerage construction constants (see gen_high_brokerage).
BROKER_FRACTION = 0.15
CHURN_CAP = 0.05


class NetworkGenerationError(RuntimeError):
    """Raised when a generator cannot produce an acceptable graph."""


def index_dtype(bound: int) -> type:
    """int32 when every value below `bound` fits in it, else int64: the type
    gathers over a network's node slots and CSR positions compute in."""
    return np.int32 if bound < 2**31 else np.int64


def _check_params(kind: str, **params) -> None:
    """Raise one ValueError naming every value of `params` out of its range."""
    if problems := network_param_problems(kind, params):
        raise ValueError("; ".join(problems))


@dataclass(frozen=True, eq=False)
class Network:
    """Simple undirected graph with generator provenance.

    edges is a read-only int32 array of shape (m, 2) whose rows ascend, each
    row (u, v) with u < v; the constructor takes any sequence of such pairs.
    communities, when present, is the ground-truth partition of range(n).
    The CSR and the degrees are built from the edge columns when the Network
    is made.
    """

    n: int
    edges: np.ndarray
    kind: str
    gen_seed: int
    communities: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int32).reshape(-1, 2)
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        dst = np.concatenate((edges[:, 1], edges[:, 0]))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        # rows that tie on the key src * n + dst share their dst, so sorting
        # the keys alone gives each node's ascending neighbours
        indices = (np.sort(src.astype(np.int64) * self.n + dst) % self.n).astype(np.int32)
        degrees = np.diff(indptr)
        for a in (edges, indptr, indices, degrees):
            a.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_csr", (indptr, indices))
        object.__setattr__(self, "_degrees", degrees)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbour ids per node, cut from the CSR on first use, then shared."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            indptr, indices = self._csr
            flat, bounds = indices.tolist(), indptr.tolist()
            adj = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, indices): the ascending neighbours of u are
        indices[indptr[u]:indptr[u + 1]]."""
        return self._csr

    def neighbours(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owners, nbrs): every neighbour of each of `nodes`, node by node in
        the given order and ascending within a node; owners[i] is the node
        whose neighbour nbrs[i] is."""
        indptr, indices = self._csr
        dtype = index_dtype(len(indices))
        counts = self._degrees[nodes]
        # a gathered neighbour's position in `indices` is its node's start
        # plus its rank among that node's neighbours
        firsts = np.cumsum(counts) - counts
        positions = np.repeat((indptr[nodes] - firsts).astype(dtype), counts)
        positions += np.arange(int(counts.sum()), dtype=dtype)
        return np.repeat(nodes, counts), indices[positions]

    def degrees(self) -> np.ndarray:
        """Read-only degree array."""
        return self._degrees


class NetworkStats(typing.NamedTuple):
    density: float
    mean_degree: float
    sd_degree: float
    avg_path_length: float
    avg_clustering: float
    modularity: float


def gen_random(n: int, edge_prob: float, seed: int) -> Network:
    """Include each unordered pair independently with probability edge_prob.

    Geometric edge skipping (Batagelj & Brandes, Phys. Rev. E 71, 036113,
    2005): the gaps between successive included pairs, in row-major order of
    the upper triangle, are geometric(edge_prob). Time and memory are
    O(n + edges).
    """
    _check_params("random", n=n, edge_prob=edge_prob)
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    chunks, last = [], -1  # last: linear index of the last included pair
    while True:
        size = int(edge_prob * (pairs - 1 - last)) + _DRAW_BLOCK
        # a gap of pairs + 1 ends the graph from any position, so the cap changes
        # no edge; it keeps the cumulative sum from overflowing
        ks = last + np.cumsum(np.minimum(rng.geometric(edge_prob, size), pairs + 1))
        past = np.flatnonzero(ks >= pairs)
        if past.size:
            chunks.append(ks[:past[0]])
            break
        chunks.append(ks)
        last = int(ks[-1])
    ks = np.concatenate(chunks)
    del chunks  # the draws' buffers, freed before the CSR is built
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # linear index of pair (i, i + 1)
    i = np.searchsorted(starts, ks, side="right") - 1
    j = ks - starts[i] + i + 1
    return Network(n=n, edges=np.stack((i, j), axis=1, dtype=np.int32), kind="random",
                   gen_seed=seed)


def _grow_one_by_one(first, stop, m, targets, uniforms, drawn, rng):
    """Attach nodes first .. stop - 1 one draw at a time, appending each node's
    sorted targets to the list `targets`; returns the uniforms left and the
    index of the next one to read.

    Each node draws endpoints uniformly from the edges made before it, which
    is degree-proportional, and redraws repeats until it has m distinct
    targets.
    """
    # endpoint slots 2e and 2e + 1 of edge e hold targets[e] and m + e // m,
    # so the endpoint list itself is never built
    for node in range(first, stop):
        count = 2 * m * (node - m)
        chosen: set[int] = set()
        while len(chosen) < m:
            if drawn == len(uniforms):
                uniforms, drawn = rng.random(_DRAW_BLOCK).tolist(), 0
            r = int(uniforms[drawn] * count)
            drawn += 1
            chosen.add(m + (r >> 1) // m if r & 1 else targets[r >> 1])
        targets.extend(sorted(chosen))
    return uniforms, drawn


def _speculate(node: int, m: int, targets: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Sorted targets of nodes node, node + 1, ..., one row each, if every one of
    them makes exactly m draws: row i reads uniforms[i * m:(i + 1) * m].

    A row holding a repeat is a node that would have redrawn; it and every row
    after it are wrong, and the caller drops them. targets[:m * (node - m)] must
    hold the edges made before `node`.
    """
    rows = len(uniforms) // m
    base = m * (node - m)  # edges made before the block
    counts = np.repeat(2 * m * np.arange(node - m, node - m + rows, dtype=np.int64), m)
    r = (uniforms * counts).astype(np.int64)  # int(u * count), slot by slot
    edge, odd = r >> 1, (r & 1).astype(bool)
    inside = ~odd & (edge >= base)  # the even slot of an edge made inside the block
    vals = np.where(odd, m + edge // m, targets[np.where(odd | inside, 0, edge)])
    # an edge made inside the block is the (edge - base)-th entry of the block's
    # sorted rows, so a row is resolved once the rows it reads are sorted
    dst = np.flatnonzero(inside)
    src = edge[dst] - base
    grid = vals.reshape(rows, m)
    rows_sorted = np.sort(grid, axis=1)  # final for each row that reads no row of the block
    flat = rows_sorted.reshape(-1)
    waiting = np.zeros(rows, dtype=bool)
    waiting[dst // m] = True
    while dst.size:
        known = ~waiting[src // m]
        vals[dst[known]] = flat[src[known]]
        dst, src = dst[~known], src[~known]
        still = np.zeros(rows, dtype=bool)
        still[dst // m] = True
        ready = np.flatnonzero(waiting & ~still)
        rows_sorted[ready] = np.sort(grid[ready], axis=1)
        waiting = still
    return rows_sorted


def _attachment_targets(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """targets[e]: the older end of edge e, whose newer end is node m + e // m.

    Node m attaches to the m seed nodes, and every later node as
    _grow_one_by_one says. The first _ONE_BY_ONE_BELOW nodes, among which
    repeats are common, grow one at a time. Later nodes grow in blocks that
    assume no repeats (see _speculate): the rows before a block's first repeat
    are kept, that node is grown one at a time, and the next block starts
    after it, half as large; a block without a repeat doubles the next.
    """
    targets = list(range(m))
    early = min(n, max(m + 1, _ONE_BY_ONE_BELOW))
    uniforms, drawn = _grow_one_by_one(m + 1, early, m, targets, [], 0, rng)
    # `targets` lags `edges`; it catches up only when a node is grown one at a time
    edges = np.empty(m * (n - m), dtype=np.int32)
    edges[:len(targets)] = targets
    uniforms, node, size = np.asarray(uniforms), early, _FIRST_BLOCK
    while node < n:
        size = min(size, n - node)
        need = size * m
        if len(uniforms) - drawn < need:
            refill = -(-(need - len(uniforms) + drawn) // _DRAW_BLOCK) * _DRAW_BLOCK
            uniforms, drawn = np.concatenate((uniforms[drawn:], rng.random(refill))), 0
        rows = _speculate(node, m, edges, uniforms[drawn:drawn + need])
        flat = rows.ravel()
        same = flat[1:] == flat[:-1]
        same[m - 1::m] = False  # a row's last target against the next row's first
        repeats = np.flatnonzero(same)
        kept = int(repeats[0]) // m if repeats.size else size
        start = m * (node - m)
        edges[start:start + kept * m] = rows[:kept].ravel()
        drawn, node = drawn + kept * m, node + kept
        if kept == size:
            size = min(2 * size, _LARGEST_BLOCK)
            continue
        targets.extend(edges[len(targets):start + kept * m].tolist())
        uniforms, drawn = _grow_one_by_one(node, node + 1, m, targets, uniforms, drawn, rng)
        edges[start + kept * m:len(targets)] = targets[start + kept * m:]
        uniforms, node, size = np.asarray(uniforms), node + 1, max(size // 2, 1)
    return edges


def gen_scale_free(n: int, attach_m: int, seed: int) -> Network:
    """Preferential-attachment growth; every new node attaches attach_m edges.

    Starts from attach_m seed nodes, so the edge count is exactly
    attach_m * (n - attach_m) for every seed.
    """
    _check_params("scale_free", n=n, attach_m=attach_m)
    u = _attachment_targets(n, attach_m, np.random.default_rng(seed))
    v = np.repeat(np.arange(attach_m, n, dtype=np.int64), attach_m)
    # no (u, v) pair repeats, so sorting the keys u * n + v sorts the rows
    keys = np.sort(u.astype(np.int64) * n + v)
    return Network(n=n, edges=np.stack(np.divmod(keys, n), axis=1), kind="scale_free",
                   gen_seed=seed)


def _split_communities(n: int, community_size: int) -> list[list[int]]:
    ncomm = max(1, round(n / community_size))
    base, extra = divmod(n, ncomm)
    sizes = [base + (1 if i < extra else 0) for i in range(ncomm)]
    comms, start = [], 0
    for size in sizes:
        comms.append(list(range(start, start + size)))
        start += size
    return comms


def _build_high_brokerage(n, community_size, rewire_p, seed):
    churn_p = min(CHURN_CAP, rewire_p)
    rng = np.random.default_rng(seed)
    comms = _split_communities(n, community_size)
    comm_of = {}
    brokers: set[int] = set()
    for ci, nodes in enumerate(comms):
        for u in nodes:
            comm_of[u] = ci
        nbrok = max(1, round(BROKER_FRACTION * len(nodes)))
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
        edges=sorted(edges),  # every pair in the set is already (min, max)
        kind="high_brokerage",
        gen_seed=seed,
        communities=tuple(tuple(c) for c in comms),
    )


def gen_high_brokerage(n: int, community_size: int, rewire_p: float, seed: int) -> Network:
    """Clique communities bridged by broker nodes.

    Each community is a clique; a per-community broker set (BROKER_FRACTION
    of its members, at least one) anchors the bridges: intra-community edges
    touching a broker are rewired with probability rewire_p, keeping the
    broker end and re-attaching the other end to a random node outside the
    community. The remaining intra edges get a small uniform churn,
    min(CHURN_CAP, rewire_p), so degrees are not lattice-regular.
    Ground-truth communities are stored on the result. The result may be
    disconnected; callers that need a connected graph retry with another
    seed (see plan.connected_network).
    """
    _check_params("high_brokerage", n=n, community_size=community_size, rewire_p=rewire_p)
    return _build_high_brokerage(n, community_size, rewire_p, seed)


def generate(kind: str, params: dict, seed: int) -> Network:
    """Dispatch on kind using keyword params from a config."""
    if kind == "random":
        return gen_random(params["n"], params["edge_prob"], seed)
    if kind == "scale_free":
        return gen_scale_free(params["n"], params["attach_m"], seed)
    if kind == "high_brokerage":
        return gen_high_brokerage(params["n"], params["community_size"], params["rewire_p"], seed)
    raise ValueError(f"unknown network kind {kind!r}")


def is_connected(net: Network) -> bool:
    """Breadth-first search from node 0, one frontier at a time."""
    if net.n == 0:
        return True
    seen = np.zeros(net.n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        _, nbrs = net.neighbours(frontier)
        # a mask, not np.unique: numpy 2.4's unique imports numpy.ma, which no plan needs
        fresh = np.zeros(net.n, dtype=bool)
        fresh[nbrs] = True
        frontier = np.flatnonzero(fresh & ~seen)
        seen[frontier] = True
    return bool(seen.all())


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
    parts = [np.asarray(nodes, dtype=np.int64).reshape(-1) for nodes in partition]
    members = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    if not np.array_equal(np.sort(members), np.arange(net.n)):
        raise ValueError("partition must cover every node exactly once")
    m = len(net.edges)
    if m == 0:
        return 0.0
    comm = np.empty(net.n, dtype=np.int64)
    comm[members] = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    u, v = comm[net.edges[:, 0]], comm[net.edges[:, 1]]
    # integer-valued counts and degree sums, exact in float64
    intra = np.bincount(u[u == v], minlength=len(parts)).astype(float)
    deg_sum = np.bincount(comm, weights=net.degrees(), minlength=len(parts))
    return float(np.sum(intra / m - (deg_sum / (2.0 * m)) ** 2))


def detect_communities(net: Network) -> tuple[tuple[int, ...], ...]:
    """Greedy agglomerative modularity maximization (Clauset-Newman-Moore).

    Deterministic for a given graph; singleton graphs fall back to one
    community.
    """
    if net.n < 2 or len(net.edges) == 0:
        return (tuple(range(net.n)),) if net.n else ()
    import networkx as nx  # only gen-network needs it, and it is slow to import

    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(net.edges.tolist())
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
        fh.writelines(f"{u} {v}\n" for u, v in net.edges.tolist())
        if net.communities is not None:
            fh.write("communities\n")
            for nodes in net.communities:
                fh.write(" ".join(str(u) for u in nodes) + "\n")
