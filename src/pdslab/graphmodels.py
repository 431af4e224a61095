"""Graph containers, planted-model samplers, and edge-list I/O.

Graphs are immutable after construction: edges live in a canonically sorted
(M, 2) integer array; edge lookups binary-search its flat keys u*width + v,
and the key array and the adjacency view are built lazily.  That
makes instances safe to share read-only across parallel Monte Carlo trials;
generation itself is single-threaded per instance.

Samplers take a :class:`~pdslab.randkit.Seed` and split it into a
*membership* stream (which vertices are planted) and an *edge* stream, so a
planted set can be held fixed while edges are resampled.  Edge sampling is
exact under both code paths: per-pair Bernoulli for dense graphs, geometric
skip-sampling over the flat pair index space for sparse ones (q < 0.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    EdgeListParseError,
    InvalidParameterError,
    InvalidProbabilityError,
)
from .randkit import as_seed

__all__ = [
    "Graph",
    "BipartiteGraph",
    "PlantedInstance",
    "PdsParams",
    "gen_er",
    "gen_pds_random_size",
    "gen_pds_fixed_size",
    "gen_planted_clique",
    "gen_bipartite_er",
    "gen_bipartite_pds",
    "gen_bipartite_pc",
    "subgraph_edge_count",
    "read_edge_list",
    "write_edge_list",
]

# Child indices off a generator's seed.  Membership and edges must never
# share a stream: holding S fixed while resampling edges relies on it.
_MEMBERSHIP_STREAM = 0
_EDGE_STREAM = 1

_DENSE_Q_THRESHOLD = 0.1


def _check_prob(x, name="probability"):
    if not (0.0 <= x <= 1.0):
        raise InvalidProbabilityError(f"{name} {x!r} outside [0, 1]")


def _normalize_edges(edges, num_vertices, allow_equal=False, n_right=None):
    """Validate and canonically sort an edge array.

    Unipartite (n_right is None): rows are unordered pairs, stored u < v.
    Bipartite: rows are (left, right) with independent ranges.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidParameterError("edges must be pairs")
    if n_right is None:
        if np.any(arr[:, 0] == arr[:, 1]):
            raise InvalidParameterError("self-loops are not representable")
        arr = np.sort(arr, axis=1)
        hi = num_vertices
        if np.any(arr < 0) or np.any(arr >= hi):
            raise InvalidParameterError("edge endpoint out of range")
    else:
        if np.any(arr < 0) or np.any(arr[:, 0] >= num_vertices) or np.any(arr[:, 1] >= n_right):
            raise InvalidParameterError("edge endpoint out of range")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    dup = (arr[1:] == arr[:-1]).all(axis=1)
    if np.any(dup):
        u, v = arr[1:][dup][0]
        raise InvalidParameterError(f"duplicate edge ({u}, {v})")
    return arr


def _flat_keys(edges: np.ndarray, width: int) -> np.ndarray:
    """Flat keys u*width + v of canonically sorted edges, ascending since
    every v lies below width, closed by a sentinel above any key."""
    return np.append(edges[:, 0] * width + edges[:, 1], np.iinfo(np.int64).max)


def _find_keys(keys: np.ndarray, u: np.ndarray, v: np.ndarray, width: int) -> np.ndarray:
    """Binary search of the pairs (u, v) among flat keys.  A v outside
    [0, width) would alias another row's key; a u out of range matches no
    key."""
    query = u * width + v
    return (v >= 0) & (v < width) & (keys[np.searchsorted(keys, query)] == query)


class Graph:
    """Undirected simple graph on vertices 0..N-1 with no self-loops."""

    __slots__ = ("num_vertices", "edges", "_keys", "_adj")

    def __init__(self, num_vertices: int, edges=()):
        num_vertices = int(num_vertices)
        if num_vertices < 0:
            raise InvalidParameterError("vertex count must be nonnegative")
        self.num_vertices = num_vertices
        arr = _normalize_edges(edges, num_vertices)
        arr.flags.writeable = False
        self.edges = arr
        self._keys = None
        self._adj = None

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def has_edges(self, u, v) -> np.ndarray:
        """Elementwise has_edge over broadcast arrays of endpoints."""
        u, v = np.asarray(u), np.asarray(v)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if self._keys is None:
            self._keys = _flat_keys(self.edges, self.num_vertices)
        return _find_keys(self._keys, lo, hi, self.num_vertices)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(u, v))

    def adjacency(self) -> list:
        """Neighbor sets per vertex (built once, then cached)."""
        if self._adj is None:
            adj = [set() for _ in range(self.num_vertices)]
            for u, v in self.edges.tolist():
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.uint8)
        if self.num_edges:
            a[self.edges[:, 0], self.edges[:, 1]] = 1
            a[self.edges[:, 1], self.edges[:, 0]] = 1
        return a

    def fingerprint(self) -> int:
        """Stable 64-bit digest of (N, edges); platform independent."""
        h = hashlib.blake2b(digest_size=8)
        h.update(self.num_vertices.to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self.edges).tobytes())
        return int.from_bytes(h.digest(), "little")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.num_vertices == other.num_vertices
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"


class BipartiteGraph:
    """Bipartite graph with disjoint top/bottom vertex sets, indexed from 0."""

    __slots__ = ("num_top", "num_bottom", "edges", "_keys")

    def __init__(self, num_top: int, num_bottom: int, edges=()):
        self.num_top = int(num_top)
        self.num_bottom = int(num_bottom)
        if self.num_top < 0 or self.num_bottom < 0:
            raise InvalidParameterError("vertex counts must be nonnegative")
        arr = _normalize_edges(edges, self.num_top, n_right=self.num_bottom)
        arr.flags.writeable = False
        self.edges = arr
        self._keys = None

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def has_edges(self, u, v) -> np.ndarray:
        """Elementwise has_edge over broadcast arrays of top and bottom ends."""
        if self._keys is None:
            self._keys = _flat_keys(self.edges, self.num_bottom)
        return _find_keys(self._keys, np.asarray(u), np.asarray(v), self.num_bottom)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(u, v))

    def fingerprint(self) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(self.num_top.to_bytes(8, "little"))
        h.update(self.num_bottom.to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self.edges).tobytes())
        return int.from_bytes(h.digest(), "little")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.num_top == other.num_top
            and self.num_bottom == other.num_bottom
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(num_top={self.num_top}, num_bottom={self.num_bottom}, "
            f"num_edges={self.num_edges})"
        )


@dataclass(frozen=True)
class PlantedInstance:
    """A sampled graph together with its ground-truth planted set(s)."""

    graph: object
    planted: object  # tuple of vertices, or (top tuple, bottom tuple)


@dataclass(frozen=True)
class PdsParams:
    """Parameters (N, K, p, q) of the planted dense subgraph model.

    Detection theory wants q < p strictly; p == q is allowed here because
    it is the natural null-calibration case (the planted set is invisible).
    """

    N: int
    K: int
    p: float
    q: float

    def __post_init__(self):
        if not (1 <= self.K <= self.N):
            raise InvalidParameterError(f"need 1 <= K <= N, got K={self.K}, N={self.N}")
        _check_prob(self.p, "p")
        _check_prob(self.q, "q")
        if self.q > self.p:
            raise InvalidParameterError(f"need q <= p, got q={self.q} > p={self.p}")


# ---------------------------------------------------------------------------
# flat pair-index machinery (unipartite pairs in lexicographic order)
# ---------------------------------------------------------------------------


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _pairs_from_flat(n: int, t: np.ndarray) -> np.ndarray:
    """Invert lexicographic pair enumeration: flat index -> (i, j), i < j."""
    t = np.asarray(t, dtype=np.int64)
    tf = t.astype(np.float64)
    i = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * tf)) / 2).astype(np.int64)
    # float round-off can be off by one either way near block boundaries
    for _ in range(2):
        off = i * (2 * n - i - 1) // 2
        i = np.where(off > t, i - 1, i)
        off = i * (2 * n - i - 1) // 2
        too_low = (i + 1) * (2 * n - i - 2) // 2 <= t
        i = np.where(too_low & (i + 1 < n), i + 1, i)
    off = i * (2 * n - i - 1) // 2
    j = t - off + i + 1
    return np.column_stack([i, j])


def _bernoulli_flat(total: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of successes among `total` independent Bernoulli(prob) slots.

    Dense path draws one uniform per slot (chunked); sparse path walks the
    index space with exact geometric gaps.  Both sample the same law.
    """
    if total == 0 or prob == 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(total, dtype=np.int64)
    if prob >= _DENSE_Q_THRESHOLD:
        chunks = []
        chunk = 1 << 22
        for start in range(0, total, chunk):
            size = min(chunk, total - start)
            hits = np.nonzero(rng.random(size) < prob)[0]
            chunks.append(hits + start)
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    out = []
    pos = -1
    while True:
        remaining = total - pos - 1
        batch = max(64, int(1.25 * remaining * prob) + 16)
        gaps = rng.geometric(prob, size=batch).astype(np.int64)
        steps = np.cumsum(gaps) + pos
        out.append(steps[steps < total])
        if steps[-1] >= total:
            break
        pos = int(steps[-1])
    return np.concatenate(out)


def _er_pairs(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    flat = _bernoulli_flat(_pair_count(n), q, rng)
    return _pairs_from_flat(n, flat) if flat.size else np.empty((0, 2), dtype=np.int64)


def _union_edges(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    if extra.size == 0:
        return base
    if base.size == 0:
        return extra
    both = np.concatenate([base, extra])
    return np.unique(both, axis=0)


# ---------------------------------------------------------------------------
# unipartite generators
# ---------------------------------------------------------------------------


def gen_er(N: int, q: float, seed) -> Graph:
    """Erdos-Renyi G(N, q): every pair present independently with prob q."""
    if N < 1:
        raise InvalidParameterError("need N >= 1")
    _check_prob(q, "q")
    rng = as_seed(seed).child(_EDGE_STREAM).rng()
    return Graph(N, _er_pairs(N, q, rng))


def _within_pairs(members: np.ndarray, r: float, rng) -> np.ndarray:
    """Extra Bernoulli(r) pairs inside a vertex subset, mapped to labels."""
    k = members.size
    if k < 2 or r <= 0.0:
        return np.empty((0, 2), dtype=np.int64)
    local = _bernoulli_flat(_pair_count(k), r, rng)
    if local.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    pairs = _pairs_from_flat(k, local)
    return members[pairs]


def _plant_and_sample(N, members, p, q, edge_rng) -> Graph:
    # union of a rate-q background and rate-(p-q)/(1-q) extras inside the
    # planted set gives exactly Bernoulli(p) within and Bernoulli(q) outside
    base = _er_pairs(N, q, edge_rng)
    r = 0.0 if p == q else (p - q) / (1.0 - q)
    extra = _within_pairs(np.sort(members), r, edge_rng)
    return Graph(N, _union_edges(base, np.sort(extra, axis=1) if extra.size else extra))


def gen_pds_random_size(params: PdsParams, seed) -> PlantedInstance:
    """Planted dense subgraph with Bernoulli(K/N) membership per vertex."""
    s = as_seed(seed)
    mrng = s.child(_MEMBERSHIP_STREAM).rng()
    members = np.nonzero(mrng.random(params.N) < params.K / params.N)[0]
    g = _plant_and_sample(params.N, members, params.p, params.q, s.child(_EDGE_STREAM).rng())
    return PlantedInstance(graph=g, planted=tuple(members.tolist()))


def gen_pds_fixed_size(params: PdsParams, seed) -> PlantedInstance:
    """Planted dense subgraph on a uniform size-K vertex subset."""
    s = as_seed(seed)
    mrng = s.child(_MEMBERSHIP_STREAM).rng()
    members = np.sort(mrng.permutation(params.N)[: params.K])
    g = _plant_and_sample(params.N, members, params.p, params.q, s.child(_EDGE_STREAM).rng())
    return PlantedInstance(graph=g, planted=tuple(members.tolist()))


def gen_planted_clique(n: int, k: int, gamma: float, seed) -> PlantedInstance:
    """G(n, gamma) with a clique forced onto a uniform k-subset."""
    if not (1 <= k <= n):
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_prob(gamma, "gamma")
    s = as_seed(seed)
    mrng = s.child(_MEMBERSHIP_STREAM).rng()
    clique = np.sort(mrng.permutation(n)[:k])
    base = _er_pairs(n, gamma, s.child(_EDGE_STREAM).rng())
    kk = clique.size
    if kk >= 2:
        local = _pairs_from_flat(kk, np.arange(_pair_count(kk), dtype=np.int64))
        forced = clique[local]
    else:
        forced = np.empty((0, 2), dtype=np.int64)
    g = Graph(n, _union_edges(base, forced))
    return PlantedInstance(graph=g, planted=tuple(clique.tolist()))


# ---------------------------------------------------------------------------
# bipartite generators
# ---------------------------------------------------------------------------


def _bipartite_block(top: np.ndarray, bottom: np.ndarray, r: float, num_bottom: int, rng):
    if top.size == 0 or bottom.size == 0 or r <= 0.0:
        return np.empty((0, 2), dtype=np.int64)
    flat = _bernoulli_flat(top.size * bottom.size, r, rng)
    if flat.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([top[flat // bottom.size], bottom[flat % bottom.size]])


def _bipartite_er_edges(nt: int, nb: int, q: float, rng) -> np.ndarray:
    flat = _bernoulli_flat(nt * nb, q, rng)
    if flat.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([flat // nb, flat % nb])


def gen_bipartite_er(N: int, q: float, seed) -> BipartiteGraph:
    """Bipartite Erdos-Renyi with N top and N bottom vertices."""
    if N < 1:
        raise InvalidParameterError("need N >= 1")
    _check_prob(q, "q")
    rng = as_seed(seed).child(_EDGE_STREAM).rng()
    return BipartiteGraph(N, N, _bipartite_er_edges(N, N, q, rng))


def gen_bipartite_pds(params: PdsParams, seed, fixed_size: bool = False) -> PlantedInstance:
    """Bipartite planted dense subgraph; the two sides are sampled
    independently (Bernoulli(K/N) per vertex, or uniform K-subsets)."""
    s = as_seed(seed)
    mrng = s.child(_MEMBERSHIP_STREAM).rng()
    if fixed_size:
        top = np.sort(mrng.permutation(params.N)[: params.K])
        bottom = np.sort(mrng.permutation(params.N)[: params.K])
    else:
        top = np.nonzero(mrng.random(params.N) < params.K / params.N)[0]
        bottom = np.nonzero(mrng.random(params.N) < params.K / params.N)[0]
    erng = s.child(_EDGE_STREAM).rng()
    base = _bipartite_er_edges(params.N, params.N, params.q, erng)
    r = 0.0 if params.p == params.q else (params.p - params.q) / (1.0 - params.q)
    extra = _bipartite_block(top, bottom, r, params.N, erng)
    g = BipartiteGraph(params.N, params.N, _union_edges(base, extra))
    return PlantedInstance(graph=g, planted=(tuple(top.tolist()), tuple(bottom.tolist())))


def gen_bipartite_pc(n: int, k: int, gamma: float, seed) -> PlantedInstance:
    """Bipartite G(n, gamma) with a forced k x k bi-clique."""
    if not (1 <= k <= n):
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_prob(gamma, "gamma")
    s = as_seed(seed)
    mrng = s.child(_MEMBERSHIP_STREAM).rng()
    top = np.sort(mrng.permutation(n)[:k])
    bottom = np.sort(mrng.permutation(n)[:k])
    base = _bipartite_er_edges(n, n, gamma, s.child(_EDGE_STREAM).rng())
    forced = np.column_stack([np.repeat(top, k), np.tile(bottom, k)])
    g = BipartiteGraph(n, n, _union_edges(base, forced))
    return PlantedInstance(graph=g, planted=(tuple(top.tolist()), tuple(bottom.tolist())))


# ---------------------------------------------------------------------------
# queries and I/O
# ---------------------------------------------------------------------------


def subgraph_edge_count(g: Graph, S: Iterable[int]) -> int:
    """Number of edges with both endpoints in S."""
    members = sorted(set(int(v) for v in S))
    if members and (members[0] < 0 or members[-1] >= g.num_vertices):
        raise InvalidParameterError("subset is not within the vertex range")
    if len(members) < 2:
        return 0
    ss = set(members)
    adj = g.adjacency()
    return sum(1 for u in members for v in adj[u] if v > u and v in ss)


def write_edge_list(g, path) -> None:
    """Write the text edge-list format (header line, then one edge per line)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(g, BipartiteGraph):
            fh.write(f"{g.num_top} {g.num_bottom} {g.num_edges}\n")
        elif isinstance(g, Graph):
            fh.write(f"{g.num_vertices} {g.num_edges}\n")
        else:
            raise InvalidParameterError(f"cannot serialize {type(g).__name__}")
        for u, v in g.edges.tolist():
            fh.write(f"{u} {v}\n")


def _parse_ints(text: str, line_no: int, expect: int) -> list:
    parts = text.split()
    if len(parts) != expect:
        raise EdgeListParseError(f"expected {expect} fields, got {len(parts)}", line_no)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise EdgeListParseError(f"non-integer field in {text!r}", line_no) from None


def read_edge_list(path):
    """Read an edge-list file; the header arity picks Graph vs BipartiteGraph."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EdgeListParseError("empty file", 1)
    header = lines[0].split()
    if len(header) == 2:
        n, m = _parse_ints(lines[0], 1, 2)
        bipartite = False
    elif len(header) == 3:
        nt, nb, m = _parse_ints(lines[0], 1, 3)
        bipartite = True
    else:
        raise EdgeListParseError("header must be 'N M' or 'Nt Nb M'", 1)
    body = [ln for ln in lines[1:]]
    if len(body) != m:
        raise EdgeListParseError(f"expected {m} edge lines, found {len(body)}", len(lines) + 1)
    edges = []
    seen = set()
    for offset, ln in enumerate(body):
        line_no = offset + 2
        u, v = _parse_ints(ln, line_no, 2)
        if bipartite:
            if not (0 <= u < nt and 0 <= v < nb):
                raise EdgeListParseError(f"endpoint out of range in ({u}, {v})", line_no)
        else:
            if not (0 <= u < v < n):
                raise EdgeListParseError(f"need 0 <= u < v < N in ({u}, {v})", line_no)
        if (u, v) in seen:
            raise EdgeListParseError(f"duplicate edge ({u}, {v})", line_no)
        seen.add((u, v))
        edges.append((u, v))
    if bipartite:
        return BipartiteGraph(nt, nb, edges)
    return Graph(n, edges)
