"""Graph containers, planted-model samplers, and edge-list I/O.

Graphs are immutable after construction.  Graph and BipartiteGraph share one
implementation whose one stored edge form is the sorted int64 flat key
u*width + v: construction validates the rows and keys them; rows in
strictly increasing key order pass one order check, and others are sorted
and checked for duplicates.  The public (M, 2) ``edges`` rows are derived
from the keys on each access, so a caller that reads them twice holds
them in a local.  A run of rows is read as one slice of the keys
(`row_marks`).  The edge-list writer and the canonical-file reader work
on byte and digit arrays, with no Python object per edge.  Instances are
safe to share read-only across parallel Monte Carlo trials; generation
itself is single-threaded per instance.

All seven generators are one planted sampler.  G(N, q) is the planted
model with nothing planted, and the planted clique is the planted model
with p = 1.  The sampler takes a :class:`~pdslab.randkit.Seed` and splits it
into a *membership* stream (which vertices are planted) and an *edge*
stream, so a planted set can be held fixed while edges are resampled.
Edge sampling is exact for every q: per-pair Bernoulli for dense graphs,
geometric skip-sampling over the flat pair index space for sparse ones
(q < 0.1).  Background and planted extras are merged as flat indices and
turned into rows once; the inversion from flat index to pair is exact for
every vertex count up to the limit.  A request expecting more than
_MAX_EXPECTED_EDGES edges, or planting a set among more than
_MAX_VERTEX_ARRAY vertices, is refused with a TooLargeError (exit 4)
before anything is drawn.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    EdgeListParseError,
    InvalidParameterError,
    InvalidProbabilityError,
    TooLargeError,
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

# Largest expected edge count a sampler draws.  A graph holds 8 bytes per
# edge (its keys), so 0.4 GB here, and drawing it needs more;
# the largest graph drawn in the tests and benchmarks has 250k edges.
_MAX_EXPECTED_EDGES = 50_000_000


def _check_expected_edges(expected: float) -> None:
    if expected > _MAX_EXPECTED_EDGES:
        raise TooLargeError(
            f"expected {expected:.3g} edges, above the sampler's cap of {_MAX_EXPECTED_EDGES:.3g}"
        )


# Largest vertex count a path that holds arrays of one entry a vertex takes:
# the membership draw, the CSR, the heuristic scan's restarts and the
# reduction's parent draw.  At 8 bytes an entry each such array is then
# 0.4 GB, as the edge cap's keys are.
_MAX_VERTEX_ARRAY = 50_000_000


def _check_vertex_arrays(N: int) -> None:
    if N > _MAX_VERTEX_ARRAY:
        raise TooLargeError(f"{N:,} vertices, above the cap of {_MAX_VERTEX_ARRAY:,} on per-vertex arrays")


def _check_prob(x, name="probability"):
    if not (0.0 <= x <= 1.0):
        raise InvalidProbabilityError(f"{name} {x!r} outside [0, 1]")


def _integer(n, name: str) -> int:
    """n as a Python int; a bool, float, string or other non-integer is refused, not truncated."""
    if not isinstance(n, (bool, np.bool_)):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, got {n!r}")


# Largest vertex count W with W*W - 1 <= 2**63 - 1: every flat key u*width + v
# then fits int64, so no key or lookup query can wrap onto another edge.
_MAX_VERTEX_COUNT = 3_037_000_499


def _vertex_count(n) -> int:
    n = _integer(n, "vertex count")
    if n < 0:
        raise InvalidParameterError("vertex count must be nonnegative")
    if n > _MAX_VERTEX_COUNT:
        raise InvalidParameterError(
            f"vertex count {n} above {_MAX_VERTEX_COUNT}: flat edge keys would overflow int64"
        )
    return n


class _SortedKeyGraph:
    """Storage and queries shared by Graph and BipartiteGraph.

    The edge set is stored only as its sorted int64 flat keys u*width + v,
    with height the first dimension and width the last.  The public (M, 2)
    ``edges`` rows, in lexicographic order, are derived from the keys on
    each access: hold them in a local to read them twice.  Subclasses name
    their dimensions and say whether rows are unordered pairs, stored u < v.
    """

    __slots__ = ("_keys",)
    _DIM_NAMES: tuple = ()
    _UNORDERED = False

    @property
    def _dims(self) -> tuple:
        return tuple(getattr(self, name) for name in self._DIM_NAMES)

    def _orient(self, u, v):
        return (np.minimum(u, v), np.maximum(u, v)) if self._UNORDERED else (u, v)

    def _store(self, edges) -> None:
        """Validate the edge rows, then keep them as sorted flat keys.

        Keys of rows in strictly increasing key order, as the samplers and
        edge-list files give them, pass one order check; any others are
        sorted and checked for duplicates.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.dtype.kind not in "iu":
            # casting a float, string or object array would truncate, parse or overflow
            raise InvalidParameterError(f"edge endpoints must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidParameterError("edges must be pairs")
        u, v = arr[:, 0], arr[:, 1]
        if self._UNORDERED and not (u < v).all():
            if (u == v).any():
                raise InvalidParameterError("self-loops are not representable")
            u, v = self._orient(u, v)
        height, width = self._dims[0], self._dims[-1]
        if u.size and (u.min() < 0 or u.max() >= height or v.min() < 0 or v.max() >= width):
            raise InvalidParameterError("edge endpoint out of range")
        keys = u * width
        keys += v
        if not (keys[1:] > keys[:-1]).all():
            # stable is timsort: linear on nearly sorted rows
            keys.sort(kind="stable")
            repeat = np.flatnonzero(keys[1:] == keys[:-1])
            if repeat.size:
                raise InvalidParameterError("duplicate edge (%d, %d)" % divmod(keys[repeat[0]], width))
        self._keys = keys

    @property
    def edges(self) -> np.ndarray:
        """The (M, 2) int64 rows in key order, read-only, derived anew on each access."""
        rows = np.empty((self.num_edges, 2), dtype=np.int64)
        np.divmod(self._keys, self._dims[-1], out=(rows[:, 0], rows[:, 1]))
        rows.flags.writeable = False
        return rows

    @property
    def num_edges(self) -> int:
        return self._keys.size

    def row_marks(self, lo: int, hi: int) -> np.ndarray:
        """The edges of rows lo..hi-1 as a dense boolean matrix: entry
        (u - lo, v - first) is True iff (u, v) is an edge.  In a
        BipartiteGraph first is 0; in a Graph it is lo, and entries with
        v <= u are False, since a row u holds only the edges (u, v) with
        v > u.

        Those edges are one slice of the sorted keys, so only the slice is
        read.
        """
        width = self._dims[-1]
        first = lo if self._UNORDERED else 0
        a, b = self._keys.searchsorted((lo * width, hi * width))
        u, v = np.divmod(self._keys[a:b], width)
        marks = np.zeros((hi - lo, width - first), dtype=bool)
        marks[u - lo, v - first] = True
        return marks

    def fingerprint(self) -> int:
        """Stable 64-bit digest of (dimensions, edges); platform independent."""
        h = hashlib.blake2b(digest_size=8)
        for n in self._dims:
            h.update(n.to_bytes(8, "little"))
        h.update(self.edges.tobytes())
        return int.from_bytes(h.digest(), "little")

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._dims == other._dims
            and np.array_equal(self._keys, other._keys)
        )

    def __repr__(self) -> str:
        dims = "".join(f"{name}={n}, " for name, n in zip(self._DIM_NAMES, self._dims))
        return f"{type(self).__name__}({dims}num_edges={self.num_edges})"


class Graph(_SortedKeyGraph):
    """Undirected simple graph on vertices 0..N-1 with no self-loops."""

    __slots__ = ("num_vertices",)
    _DIM_NAMES = ("num_vertices",)
    _UNORDERED = True

    def __init__(self, num_vertices: int, edges=()):
        self.num_vertices = _vertex_count(num_vertices)
        self._store(edges)

    def adjacency_matrix(self) -> np.ndarray:
        u, v = self.edges.T
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.uint8)
        a[u, v] = 1
        a[v, u] = 1
        return a


class BipartiteGraph(_SortedKeyGraph):
    """Bipartite graph with disjoint top/bottom vertex sets, indexed from 0.

    Rows are (top, bottom) pairs, top end first.
    """

    __slots__ = ("num_top", "num_bottom")
    _DIM_NAMES = ("num_top", "num_bottom")

    def __init__(self, num_top: int, num_bottom: int, edges=()):
        self.num_top = _vertex_count(num_top)
        self.num_bottom = _vertex_count(num_bottom)
        self._store(edges)


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
        for name in ("N", "K"):
            _integer(getattr(self, name), name)
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


def _pair_start(n: int, i):
    """Flat index of row i's first pair (i, i + 1); every product fits int64
    up to the vertex limit."""
    return i * (2 * n - i - 1) // 2


def _colex_pairs(idx: np.ndarray) -> tuple:
    """Invert colex enumeration of pairs i < j: index = C(j,2) + i.

    j is the largest with C(j, 2) <= idx.  The float root of 8 idx + 1
    misses it by at most one either way, and the integer checks settle it
    for every idx below C(_MAX_VERTEX_COUNT, 2), where every product here
    still fits int64.
    """
    j = ((np.sqrt(8.0 * idx + 1.0) + 1.0) * 0.5).astype(np.int64)
    j -= (j * (j - 1)) >> 1 > idx
    j += ((j + 1) * j) >> 1 <= idx
    return idx - ((j * (j - 1)) >> 1), j


def _pairs_from_flat(n: int, t: np.ndarray) -> np.ndarray:
    """Invert lexicographic pair enumeration: ascending flat indices ->
    rows (i, j), i < j.

    With no more rows than indices, one searchsorted of the n row starts
    into t splits t into its rows' runs.  Otherwise each index goes
    through `_colex_pairs` with the labels reversed: lex index t of (i, j)
    is colex index C(n, 2) - 1 - t of (n - 1 - j, n - 1 - i).
    """
    t = np.asarray(t, dtype=np.int64)
    if n <= t.size:
        rows = np.arange(n)
        starts = _pair_start(n, rows)
        runs = np.diff(np.searchsorted(t, starts), append=t.size)
        return np.column_stack([np.repeat(rows, runs), t - np.repeat(starts - rows - 1, runs)])
    i, j = _colex_pairs(_pair_count(n) - 1 - t)
    return np.column_stack([n - 1 - j, n - 1 - i])


def _bernoulli_flat(total: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of successes among `total` independent Bernoulli(prob) slots.

    Dense path draws one uniform per slot (chunked); sparse path walks the
    index space with exact geometric gaps.  Both sample the same law.  A gap
    past the end ends the walk, so each is capped at total + 1: however small
    prob is, the sums up to the first step past the end stay within
    2 * total, which int64 holds for every total below 2**62 (every
    unipartite pair count up to the vertex limit).
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
            hits = np.flatnonzero(rng.random(size) < prob)
            hits += start
            chunks.append(hits)
        return np.concatenate(chunks)
    out = []
    pos = -1
    while True:
        remaining = total - pos - 1
        batch = max(64, int(1.25 * remaining * prob) + 16)
        steps = np.cumsum(np.minimum(rng.geometric(prob, size=batch), total + 1)) + pos
        past = steps >= total
        if past.any():
            out.append(steps[: past.argmax()])
            return np.concatenate(out)
        out.append(steps)
        pos = int(steps[-1])


def _extras_flat(N: int, plants: list, r: float, rng) -> np.ndarray:
    """Bernoulli(r) pairs inside the planted set (one side) or between the
    planted sets (two sides), as ascending flat indices among all N
    vertices per side: lexicographic pair indices, or top * N + bottom."""
    if len(plants) == 1:
        (members,) = plants
        local = _bernoulli_flat(_pair_count(members.size), r, rng)
        if local.size == 0:  # spares tiny samplers the inversion's fixed cost
            return local
        u, v = members[_pairs_from_flat(members.size, local)].T
        return _pair_start(N, u) + v - u - 1
    top, bottom = plants
    local = _bernoulli_flat(top.size * bottom.size, r, rng)
    return top[local // bottom.size] * N + bottom[local % bottom.size]


# ---------------------------------------------------------------------------
# generators: one planted sampler, seven public laws
# ---------------------------------------------------------------------------


def _plant(N: int, K: int, p: float, q: float, seed, sides: int, fixed_size: bool = True):
    """The planted model on one vertex set (a Graph) or on two (a BipartiteGraph).

    A request whose expected edge count, C(N, 2) q + C(K, 2) (p - q) (two
    sides: N^2 q + K^2 (p - q)), is above _MAX_EXPECTED_EDGES is refused
    with a TooLargeError before anything is drawn.  Each side's planted set
    comes from the membership stream: a uniform K-subset, or each vertex
    with probability K/N, drawn as an array over all N vertices, so N above
    _MAX_VERTEX_ARRAY is refused too.  K = 0 plants nothing and draws
    nothing there.
    The union of a rate-q background and rate-(p-q)/(1-q) extras inside the
    planted set(s) is exactly Bernoulli(p) within and Bernoulli(q)
    elsewhere.  Both parts are ascending flat pair indices, merged by
    inserting the extras the background lacks, then turned into rows once;
    extras at rate 0 (p = q) or inside an empty set draw nothing from the
    edge stream, so G(N, q) costs no more than its own pairs.
    """
    N, K = _integer(N, "N"), _integer(K, "K")
    if N < 1:
        raise InvalidParameterError("need N >= 1")
    _check_prob(q, "q")
    pairs = _pair_count if sides == 1 else lambda n: n * n
    _check_expected_edges(pairs(N) * q + pairs(K) * (p - q))
    if K:
        _check_vertex_arrays(N)
    s = as_seed(seed)
    plants = [np.empty(0, dtype=np.int64)] * sides
    if K:
        mrng = s.child(_MEMBERSHIP_STREAM).rng()
        if fixed_size:
            plants = [np.sort(mrng.permutation(N)[:K]) for _ in plants]
        else:
            plants = [np.flatnonzero(mrng.random(N) < K / N) for _ in plants]
    rng = s.child(_EDGE_STREAM).rng()
    flat = _bernoulli_flat(pairs(N), q, rng)
    extras = _extras_flat(N, plants, 0.0 if p == q else (p - q) / (1.0 - q), rng)
    if extras.size and flat.size:
        at = flat.searchsorted(extras)
        # an extra past the background's end reads its last index, never equal
        fresh = flat.take(at, mode="clip") != extras
        flat = np.insert(flat, at[fresh], extras[fresh])
    elif extras.size:
        flat = extras
    edges = _pairs_from_flat(N, flat) if sides == 1 else np.column_stack(np.divmod(flat, N))
    graph = (Graph if sides == 1 else BipartiteGraph)(*[N] * sides, edges)
    planted = tuple(tuple(m.tolist()) for m in plants)
    return PlantedInstance(graph, planted if sides == 2 else planted[0])


def _check_clique(n: int, k: int, gamma: float) -> None:
    n, k = _integer(n, "n"), _integer(k, "k")
    if not (1 <= k <= n):
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_prob(gamma, "gamma")


def gen_er(N: int, q: float, seed) -> Graph:
    """Erdos-Renyi G(N, q): every pair present independently with prob q."""
    return _plant(N, 0, q, q, seed, 1).graph


def gen_pds_random_size(params: PdsParams, seed) -> PlantedInstance:
    """Planted dense subgraph with Bernoulli(K/N) membership per vertex."""
    return _plant(params.N, params.K, params.p, params.q, seed, 1, fixed_size=False)


def gen_pds_fixed_size(params: PdsParams, seed) -> PlantedInstance:
    """Planted dense subgraph on a uniform size-K vertex subset."""
    return _plant(params.N, params.K, params.p, params.q, seed, 1)


def gen_planted_clique(n: int, k: int, gamma: float, seed) -> PlantedInstance:
    """G(n, gamma) with a clique forced onto a uniform k-subset: the
    fixed-size planted dense subgraph with p = 1, whose extras come at rate
    exactly 1 and draw nothing from the edge stream."""
    _check_clique(n, k, gamma)
    return _plant(n, k, 1.0, gamma, seed, 1)


def gen_bipartite_er(N: int, q: float, seed) -> BipartiteGraph:
    """Bipartite Erdos-Renyi with N top and N bottom vertices."""
    return _plant(N, 0, q, q, seed, 2).graph


def gen_bipartite_pds(params: PdsParams, seed, fixed_size: bool = False) -> PlantedInstance:
    """Bipartite planted dense subgraph; the two sides are sampled
    independently (Bernoulli(K/N) per vertex, or uniform K-subsets)."""
    return _plant(params.N, params.K, params.p, params.q, seed, 2, fixed_size)


def gen_bipartite_pc(n: int, k: int, gamma: float, seed) -> PlantedInstance:
    """Bipartite G(n, gamma) with a forced k x k bi-clique (see
    gen_planted_clique)."""
    _check_clique(n, k, gamma)
    return _plant(n, k, 1.0, gamma, seed, 2)


# ---------------------------------------------------------------------------
# queries and I/O
# ---------------------------------------------------------------------------


def subgraph_edge_count(g: Graph, S: Iterable[int]) -> int:
    """Number of edges with both endpoints in S; a member that is not an
    integer vertex is refused, not truncated.  Membership is looked up in
    S's own sorted members, so no array spans the vertex range."""
    members = [_integer(v, "subset member") for v in S]
    if not all(0 <= v < g.num_vertices for v in members):
        raise InvalidParameterError("subset is not within the vertex range")
    members = np.unique(np.array(members, dtype=np.int64))
    u, v = g.edges.T
    return int(np.count_nonzero(np.isin(u, members) & np.isin(v, members)))


# the edge-list writer formats this many edges at a time
_WRITE_SLICE = 1 << 16


def write_edge_list(g, path) -> None:
    """Write the text edge-list format (header line, then one edge per line).

    The body is built from the edge keys, _WRITE_SLICE edges at a time: a
    cell per endpoint holds its decimal digits right-aligned, then a space
    or a line end.  A cell's padding left of its first digit is byte 0, and
    one compress drops it, so each slice's cell width is that of its own
    largest end.
    """
    if not isinstance(g, _SortedKeyGraph):
        raise InvalidParameterError(f"cannot serialize {type(g).__name__}")
    header = " ".join(map(str, (*g._dims, g.num_edges)))
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for lo in range(0, g.num_edges, _WRITE_SLICE):
            ends = np.empty((min(_WRITE_SLICE, g.num_edges - lo), 2), dtype=np.int64)
            np.divmod(g._keys[lo : lo + ends.shape[0]], g._dims[-1], out=(ends[:, 0], ends[:, 1]))
            ends = ends.ravel()
            top = int(ends.max())
            width = len(str(top))
            # every end is below the vertex limit, so below 2**32
            rest = ends.astype(np.min_scalar_type(top))
            cells = np.empty((ends.size, width + 1), dtype=np.uint8)
            cells[0::2, width] = ord(" ")
            cells[1::2, width] = ord("\n")
            for col in range(width - 1, -1, -1):
                digit = rest % 10
                digit += ord("0")
                if col < width - 1:
                    # a zero quotient has no digit this far left: padding
                    digit *= rest != 0
                cells[:, col] = digit
                rest //= 10
            body = cells.ravel()
            fh.write(body[body != 0])


def _parse_ints(text: str, line_no: int, expect: int) -> list:
    parts = text.split()
    if len(parts) != expect:
        raise EdgeListParseError(f"expected {expect} fields, got {len(parts)}", line_no)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise EdgeListParseError(f"non-integer field in {text!r}", line_no) from None


def _parse_header(text: str):
    """The class, dimensions and edge count that header line 1 declares."""
    kinds = {len(cls._DIM_NAMES) + 1: cls for cls in (Graph, BipartiteGraph)}
    cls = kinds.get(len(text.split()))
    if cls is None:
        raise EdgeListParseError("header must be 'N M' or 'Nt Nb M'", 1)
    *dims, m = _parse_ints(text, 1, len(cls._DIM_NAMES) + 1)
    if m < 0:
        raise EdgeListParseError(f"negative edge count {m}", 1)
    return cls, dims, m


# 10**18 - 1 < 2**63 - 1: a decimal of at most this many digits fits int64
_CANONICAL_DIGITS = 18


def _canonical_rows(body: np.ndarray, cls, m: int):
    """The (m, 2) unsigned rows of a canonical body, or None if it is not one.

    Canonical is what write_edge_list writes: m lines 'u v' of ASCII
    decimals, one space between, each line ended by '\n', and for a Graph
    u < v (the container would silently reorient a reversed row).  Ranges
    and duplicates are left to the container.
    """
    digits = body - 48  # uint8: every byte but '0'..'9' wraps to 10 or more
    seps = np.flatnonzero(digits > 9)
    if seps.size != 2 * m or body.size != (seps[-1] + 1 if m else 0):
        return None
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    if (body[seps[0::2]] != ord(" ")).any() or (body[seps[1::2]] != ord("\n")).any():
        return None
    lengths = np.empty_like(seps)
    np.subtract(seps[1:], seps[:-1], out=lengths[1:])
    lengths[0] = seps[0] + 1
    lengths -= 1
    if lengths.min() < 1 or lengths.max() > _CANONICAL_DIGITS:
        return None
    # Horner over right-aligned digit columns, in the narrowest unsigned
    # type that holds every value of that many digits: a token shorter
    # than the column reads a zero there, and its index may point anywhere
    width = int(lengths.max())
    lengths = lengths.astype(np.uint8)
    values = np.zeros(seps.size, dtype=np.uint16 if width <= 4 else np.uint32 if width <= 9 else np.uint64)
    at = seps  # each token's column, from the widest one's first to its last
    at -= width
    for k in range(width - 1, -1, -1):
        column = digits.take(at, mode="clip")
        column *= lengths > k
        values *= 10
        values += column
        at += 1
    rows = values.reshape(m, 2)
    if cls._UNORDERED and (rows[:, 0] >= rows[:, 1]).any():
        return None
    return rows


def _per_line_graph(data: bytes):
    """The graph an edge-list file holds, read line by line, or the error
    at its first faulty line (see read_edge_list).  The lines are dropped
    before the rows become arrays."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # numbered as splitlines() numbers them; the dot ends the bad line
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise EdgeListParseError("not UTF-8 text", line) from None
    if not lines:
        raise EdgeListParseError("empty file", 1)
    cls, dims, m = _parse_header(lines[0])
    if len(lines) - 1 != m:
        raise EdgeListParseError(f"expected {m} edge lines, found {len(lines) - 1}", len(lines) + 1)
    height, width = dims[0], dims[-1]
    rule = "need 0 <= u < v < N" if cls._UNORDERED else "endpoint out of range"
    rows, fault = [], None
    try:
        for line_no, text in enumerate(lines[1:], start=2):
            u, v = _parse_ints(text, line_no, 2)
            if not (0 <= u < height and 0 <= v < width and (u < v or not cls._UNORDERED)):
                raise EdgeListParseError(f"{rule} in ({u}, {v})", line_no)
            rows.append((u, v))
    except EdgeListParseError as exc:
        fault = exc
    del lines
    if rows:
        # a row in range means every dimension is positive; one above the
        # limit is rejected here, before its endpoints or keys could overflow
        for n in dims:
            _vertex_count(n)
        rows = np.array(rows, dtype=np.int64)
        keys = rows[:, 0] * width + rows[:, 1]
        order = np.argsort(keys, kind="stable")
        # stable: of two equal keys the later line comes second
        repeats = order[1:][np.diff(keys[order]) == 0]
        if repeats.size:
            i = int(repeats.min())
            raise EdgeListParseError(f"duplicate edge ({rows[i, 0]}, {rows[i, 1]})", i + 2)
    if fault is not None:
        raise fault
    return cls(*dims, rows)


def read_edge_list(path):
    """Read an edge-list file; the header arity picks Graph vs BipartiteGraph.

    The file is read once.  A canonical file, as write_edge_list writes it
    (a header of digits and spaces, then lines 'u v' of ASCII digits with
    one space and one '\n', and u < v in a Graph), is parsed as one byte
    array and handed to the container, its rows' only validator.  Any
    other file, and a canonical one the container refuses, takes the
    per-line reader, which accepts every whitespace and sign that int()
    and str.split() accept.  It checks lines in order and names the first
    faulty one: it stops at the first line that breaks a per-line rule,
    and a duplicate among the lines before it wins.  A file that is not
    UTF-8 fails at the line of its first undecodable byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head_end = data.find(b"\n")
    if head_end >= 0 and data[:head_end].replace(b" ", b"").isdigit():
        # ASCII with no line break; what this stage refuses, the per-line reader reports
        try:
            cls, dims, m = _parse_header(data[:head_end].decode())
            rows = _canonical_rows(np.frombuffer(data, np.uint8, offset=head_end + 1), cls, m)
            if rows is not None:
                return cls(*dims, rows)
        except (EdgeListParseError, InvalidParameterError):
            pass
    return _per_line_graph(data)
