"""Randomized reduction from planted clique to planted dense subgraph.

The scheme blows an n-vertex graph up to N = n*ell vertices: every output
vertex picks a uniform parent, and the edge count of each parent block is
drawn from a surgically modified binomial.  Writing P = Binom(ls*lt, 2q)
and Q = Binom(ls*lt, q), the modified pair is

    P'(0)   = P(0) + a
    P'(m)   = P(m)            for 1 <= m <= m0,      m0 = floor(log2(1/gamma))
    P'(m)   = Q(m) / gamma    for m0 < m <= ls*lt
    Q'      = (Q - gamma * P') / (1 - gamma)

with the leftover mass a chosen so P' sums to one.  By construction
(1-gamma) Q' + gamma P' = Q exactly, so a clique-free input maps to an
exact Erdos-Renyi output; P' stays close to P in total variation, which is
what makes the planted side approximately correct.  Both modified vectors
are genuine PMFs whenever part sizes stay below 2*ell and 16 q ell^2 <= 1;
construction fails fast (rather than clamping) if a caller violates that.

Given the block count, the concrete edges are placed uniformly at random
among the block's slots with Floyd's sampling.  Slot indices are canonical:
row-major over the sorted vertex lists for off-diagonal blocks, colex over
within-part pairs for diagonal blocks.  The sampler collects the picked
slots of all blocks and maps them to vertex pairs in one vectorised step.

`block_routes` is the one place that walks the parent blocks and routes
each to its count law, in chunks of whole parent rows as flat arrays.
Both samplers and the exact oracles in `theorychecks` consume it, so the
oracles check the routing the samplers use.  `block_pairs` is the one slot
layout, row-major by `divmod` and colex by `_colex_pairs`: the samplers
lay out all their picks in one call, and the oracles a chunk's new blocks.

The edge stream's layout is fixed: one uniform per block with at least one
slot, in draw order (rows s, then columns t >= s, or every t when
bipartite), inverted through the block's count law; when the count is
nonzero, the block's Floyd placement draws follow at once.  The sampler
reads the stream's words itself (`_WordStream`), taking the words numpy's
Generator would take, so one look-ahead compares up to _WINDOW of a
chunk's uniforms with their zero-count thresholds and no word is drawn
twice; its output for a seed is that of a per-block loop, and the reduce
sidecar format is unchanged.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (
    InvalidGammaError,
    InvalidParameterError,
    PreconditionViolationError,
    TooLargeError,
    ValidityViolationError,
    VertexCountMismatchError,
)
from .graphmodels import _MAX_EXPECTED_EDGES, BipartiteGraph, Graph, _check_expected_edges, _integer
from .randkit import Pmf, as_seed, binom_pmf

__all__ = [
    "ReductionParams",
    "KernelTable",
    "m0_of",
    "build_pprime",
    "build_qprime",
    "block_routes",
    "block_pairs",
    "reduce_graph",
    "reduce_bipartite",
    "xi_bound",
    "xi_bound_terms",
    "map_parameters",
    "compose_test",
    "regime_classify",
    "beta_star",
    "beta_sharp",
    "hard_regime_upper",
]

_PARENT_STREAM = 0
_EDGE_STREAM = 1

# the most slots one parent block may have: its count laws are dense vectors
# over 0..slots, and below 2**32 - 1 every Floyd bound takes numpy's 32-bit
# draw, the one `_WordStream.below` reads
_MAX_BLOCK_SLOTS = 1 << 20

# `block_routes` yields runs of whole parent rows with about this many blocks,
# and the sampler's look-ahead reads at most this many count uniforms at once
_CHUNK_BLOCKS = 1 << 13
_WINDOW = 512


def m0_of(gamma) -> int:
    """floor(log2(1/gamma)), decided by exact rational comparison.

    Every float is a dyadic rational, so converting through Fraction makes
    the boundary cases (gamma = 2^-m exactly) unambiguous.
    """
    # NaN and the infinities fail here, before Fraction could raise on them
    if not (0 < gamma <= 0.5):
        raise InvalidGammaError(f"gamma must lie in (0, 1/2], got {gamma!r}")
    inv = 1 / Fraction(gamma)
    m = 1
    while Fraction(2) ** (m + 1) <= inv:
        m += 1
    return m


@dataclass(frozen=True)
class ReductionParams:
    """Reduction tuple (n, k, gamma, ell, q) with derived targets.

    The output problem has N = n*ell vertices, mean planted size K = k*ell,
    and densities (p, q) with p = 2q.  Two analytical conditions are
    tracked but only enforced in strict mode: the kernel validity condition
    16 q ell^2 <= 1 and the size condition k >= 6 e ell (only the fidelity
    guarantee needs the latter; the reduction itself runs without it).
    """

    n: int
    k: int
    gamma: float
    ell: int
    q: float

    def __post_init__(self):
        for name in ("n", "k", "ell"):
            _integer(getattr(self, name), name)
        if self.n < 1 or self.ell < 1:
            raise InvalidParameterError("need n >= 1 and ell >= 1")
        if not (1 <= self.k <= self.n):
            raise InvalidParameterError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (0.0 <= self.q <= 0.5):
            raise InvalidParameterError(f"need 0 <= q <= 1/2 so that p = 2q <= 1, got q={self.q}")
        m0_of(self.gamma)  # range check happens there

    @property
    def N(self) -> int:
        return self.n * self.ell

    @property
    def K(self) -> int:
        return self.k * self.ell

    @property
    def p(self) -> float:
        return 2.0 * self.q

    @property
    def m0(self) -> int:
        return m0_of(self.gamma)

    @property
    def kernel_condition(self) -> bool:
        return 16.0 * self.q * self.ell**2 <= 1.0

    @property
    def size_condition(self) -> bool:
        return self.k >= 6.0 * math.e * self.ell

    @functools.cached_property
    def kernel_table(self) -> KernelTable:
        """The block count laws for (q, gamma, ell), built once per
        instance: every reduction with these parameters shares its cells."""
        return KernelTable(self.q, self.gamma, self.ell)

    def validate(self, strict: bool = False) -> list:
        """Return human-readable warnings; in strict mode raise instead."""
        problems = []
        if not self.kernel_condition:
            problems.append(f"16*q*ell^2 = {16.0 * self.q * self.ell ** 2:g} > 1")
        if not self.size_condition:
            problems.append(f"k = {self.k} < 6e*ell = {6.0 * math.e * self.ell:g}")
        if strict and problems:
            raise PreconditionViolationError("; ".join(problems))
        return problems


def _kernel_laws(ls: int, lt: int, q: float, gamma, plain=None) -> tuple:
    """(P', Q', a) for a block with ls * lt slots, from one Binom(n, 2q) and
    one Binom(n, q), the latter `plain(n)` when a memo of them is given.

    Fails with ValidityViolationError if any entry of P' or Q' would be
    more negative than -1e-12; that signals the caller broke the validity
    conditions.
    """
    n = int(ls) * int(lt)
    if n < 0:
        raise InvalidParameterError("part sizes must be nonnegative")
    m0 = m0_of(gamma)
    g = float(gamma)
    p_pmf = binom_pmf(n, 2.0 * q)
    q_pmf = binom_pmf(n, q) if plain is None else plain(n)
    p_prime, a = p_pmf, 0.0
    if m0 < n:
        probs = p_pmf.probs.copy()
        tail = slice(m0 + 1, n + 1)
        scaled_tail = q_pmf.probs[tail] / g
        a = math.fsum((p_pmf.probs[tail] - scaled_tail).tolist())
        probs[0] += a
        probs[tail] = scaled_tail
        _check_valid(probs, "P'")
        p_prime = Pmf(probs)
    probs = (q_pmf.probs - g * p_prime.probs) / (1.0 - g)
    _check_valid(probs, "Q'")
    return p_prime, Pmf(probs), a


def build_pprime(ls: int, lt: int, q: float, gamma) -> tuple:
    """The modified planted-block PMF P' and its zero-bucket mass a."""
    p_prime, _, a = _kernel_laws(ls, lt, q, gamma)
    return p_prime, a


def build_qprime(ls: int, lt: int, q: float, gamma) -> Pmf:
    """The complementary null-block PMF Q' = (Q - gamma P') / (1 - gamma)."""
    return _kernel_laws(ls, lt, q, gamma)[1]


def _check_valid(probs: np.ndarray, label: str) -> None:
    worst = float(probs.min())
    if worst < -1e-12:
        raise ValidityViolationError(
            f"{label} has entry {worst:g} < -1e-12; kernel validity conditions violated"
        )


# the count law a block takes, set by `block_routes`; Q' and P' are one apart
# so that an input bit picks between them
ROUTE_PLAIN, ROUTE_QPRIME, ROUTE_PPRIME, ROUTE_MIXED = range(4)


class KernelTable:
    """Memoized block distributions for one (q, gamma, ell) triple.

    P' and Q' depend on the part sizes only through the slot count
    ls * lt, so cells are keyed by that product.  Part sizes concentrate
    near ell, so only a handful of cells ever materialize.  Cells fill on
    first use; `ReductionParams.kernel_table` keeps one table per params
    instance, so every reduction with those params shares them.
    """

    def __init__(self, q: float, gamma, ell: int):
        self.q = float(q)
        self.gamma = float(gamma)
        self.ell = int(ell)
        self.m0 = m0_of(gamma)
        self._cells: dict = {}
        self._plain: dict = {}
        self._mixed: dict = {}

    def cell(self, ls: int, lt: int) -> tuple:
        """(P', Q', a) for a block with ls * lt slots; its Binom(slots, q)
        is the one `plain` keeps."""
        slots = int(ls) * int(lt)
        hit = self._cells.get(slots)
        if hit is None:
            hit = _kernel_laws(ls, lt, self.q, self.gamma, self.plain)
            self._cells[slots] = hit
        return hit

    def plain(self, slots: int) -> Pmf:
        """Unmodified Binom(slots, q), used for oversize blocks and diagonals."""
        slots = int(slots)
        hit = self._plain.get(slots)
        if hit is None:
            hit = binom_pmf(slots, self.q)
            self._plain[slots] = hit
        return hit

    def law(self, route: int, slots: int) -> Pmf:
        """The count law of a block with `slots` slots on a `block_routes`
        route: plain, Q', P' or the gamma-mixture (1-gamma) Q' + gamma P'."""
        if route == ROUTE_PLAIN:
            return self.plain(slots)
        p_prime, q_prime, _ = self.cell(slots, 1)
        if route == ROUTE_PPRIME:
            return p_prime
        if route == ROUTE_QPRIME:
            return q_prime
        slots = int(slots)
        hit = self._mixed.get(slots)
        if hit is None:
            hit = Pmf((1.0 - self.gamma) * q_prime.probs + self.gamma * p_prime.probs)
            self._mixed[slots] = hit
        return hit


def _floyd_sample(n_slots: int, m: int, draw: Callable[[int], int]) -> list:
    """Uniform m-subset of range(n_slots) in O(m) draws (Floyd's algorithm);
    `draw(high)` is a uniform integer in [0, high)."""
    chosen = set()
    for i in range(n_slots - m, n_slots):
        t = draw(i + 1)
        chosen.add(i if t in chosen else t)
    return sorted(chosen)


def _colex_pairs(idx: np.ndarray) -> tuple:
    """Invert colex enumeration of pairs i < j: index = C(j,2) + i.

    j is the largest with C(j, 2) <= idx.  The float root of 8 idx + 1
    misses it by at most one either way, and the integer checks settle it
    for every idx below C(3e9 + 1, 2).
    """
    j = ((np.sqrt(8.0 * idx + 1.0) + 1.0) * 0.5).astype(np.int64)
    j -= (j * (j - 1)) >> 1 > idx
    j += ((j + 1) * j) >> 1 <= idx
    return idx - ((j * (j - 1)) >> 1), j


def block_routes(sizes, table: KernelTable, graph):
    """Walk the parent blocks in draw order and route each to its count law,
    a run of whole parent rows at a time.

    `sizes` holds each side's part sizes: one array for a unipartite graph,
    whose row s holds the blocks (s, t) with t >= s, s == t being the
    diagonal block of within-part pairs; or the row and column sizes of a
    bipartite graph, whose row s holds every (s, t), all off-diagonal.
    `graph` is the input graph, read through its `row_marks`, or None for an
    Erdos-Renyi(gamma) input whose edges are not drawn.

    Yields the blocks with at least one slot as flat arrays (s, t,
    diagonal, slots, route) in draw order, about _CHUNK_BLOCKS of them at a
    time and nothing when no block has a slot; block i draws its edge count
    from `table.law(route[i], slots[i])`.  Diagonal blocks and blocks with a
    part above 2*ell take the plain route, Binom(slots, q); every other
    block takes P' if its input pair is an edge, Q' if not, and the mixture
    (1-gamma) Q' + gamma P' for an Erdos-Renyi(gamma) input.
    """
    unipartite = len(sizes) == 1
    row_sizes, col_sizes = sizes[0], sizes[-1]
    n = row_sizes.size
    cols = np.flatnonzero(col_sizes)
    # row s's blocks are the nonempty columns from cols[first[s]] on: from
    # t = s when unipartite, past the diagonal when part s is one vertex
    # and has no within-part pair
    if unipartite:
        first = np.searchsorted(cols, np.arange(n)) + (row_sizes == 1)
    else:
        first = np.zeros(n, dtype=np.int64)
    count = np.where(row_sizes > 0, cols.size - first, 0)
    ends = np.cumsum(count)
    # block i of the walk, in row s, is column cols[i + shift[s]]
    shift = first - (ends - count)
    # a chunk ends with the first row whose end reaches the next multiple of
    # _CHUNK_BLOCKS, or the walk's end
    total = int(ends[-1])
    targets = np.minimum(np.arange(_CHUNK_BLOCKS, total + _CHUNK_BLOCKS, _CHUNK_BLOCKS), total)
    stops = dict.fromkeys((np.searchsorted(ends, targets) + 1).tolist())
    over_rows, over_cols = row_sizes > 2 * table.ell, col_sizes > 2 * table.ell
    lo = done = 0
    for hi in stops:
        c = count[lo:hi]
        s = np.repeat(np.arange(lo, hi), c)
        t = cols[np.arange(done, done + s.size) + np.repeat(shift[lo:hi], c)]
        ls, lt = row_sizes[s], col_sizes[t]
        slots = ls * lt
        plain = over_rows[s] | over_cols[t]
        if unipartite:
            diagonal = t == s
            slots[diagonal] = (ls * (ls - 1) // 2)[diagonal]
            plain |= diagonal
        else:
            diagonal = np.zeros(s.size, dtype=bool)
        if graph is None:
            kernel = ROUTE_MIXED
        else:
            # a Graph's marks start at column lo, since its rows hold v > u
            kernel = ROUTE_QPRIME + graph.row_marks(lo, hi)[s - lo, t - (lo if unipartite else 0)]
        yield s, t, diagonal, slots, np.where(plain, ROUTE_PLAIN, kernel)
        lo, done = hi, done + s.size


def _split_parents(parents: np.ndarray, n: int) -> tuple:
    """One side's vertices grouped by parent, as (order, start, size):
    parent s's children, ascending, are order[start[s] : start[s] + size[s]]."""
    size = np.bincount(parents, minlength=n)
    # one stable sort groups each parent's children in ascending order
    order = np.argsort(parents, kind="stable")
    return order, np.cumsum(size) - size, size


def block_pairs(sides, s, t, idx) -> np.ndarray:
    """The output vertex pairs at slot indices `idx` of parent blocks (s, t),
    entry by entry, as an (M, 2) int64 array.

    `sides` holds each side's `_split_parents`; with one side the graph is
    unipartite, and a block with s == t is diagonal.  A diagonal block's
    slots are colex over its within-part pairs, any other's row-major over
    row part x column part, each part its children in ascending order.
    """
    (row_order, row_start, _), (col_order, col_start, col_size) = sides[0], sides[-1]
    pairs = np.empty((idx.size, 2), dtype=np.int64)
    np.divmod(idx, col_size[t], out=(pairs[:, 0], pairs[:, 1]))
    if len(sides) == 1:
        d = np.flatnonzero(s == t)
        pairs[d, 0], pairs[d, 1] = _colex_pairs(idx[d])
    pairs[:, 0] += row_start[s]
    pairs[:, 1] += col_start[t]
    pairs[:, 0] = row_order[pairs[:, 0]]
    pairs[:, 1] = col_order[pairs[:, 1]]
    return pairs


class _WordStream:
    """The 64-bit words of a fresh PCG64 generator, read the way its
    `Generator` reads them.

    `uniforms(n)` looks at the next n doubles without taking them, each
    (word >> 11) * 2**-53 as `Generator.random` makes it, and `advance(n)`
    takes them.  `below(high)` is `Generator.integers(0, high)` for
    high < 2**32 - 1: Lemire's method with rejection on 32-bit draws.  A
    32-bit draw takes a word's low half and keeps its high half for the
    next 32-bit draw; doubles leave that half alone, and high = 1 takes
    nothing.  Words come from `random_raw` in chunks, so the generator runs
    ahead of the reader and serves no one else.
    """

    _CHUNK = 1 << 14

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self._words = np.empty(0, dtype=np.uint64)
        self._doubles = np.empty(0)
        self._pos = 0
        self._half = None

    def _fill(self, n: int) -> None:
        if self._pos + n > self._words.size:
            more = self._bit_generator.random_raw(max(n, self._CHUNK))
            self._words = np.concatenate((self._words[self._pos :], more))
            self._doubles = np.concatenate((self._doubles[self._pos :], (more >> 11) * 2.0**-53))
            self._pos = 0

    def uniforms(self, n: int) -> np.ndarray:
        self._fill(n)
        return self._doubles[self._pos : self._pos + n]

    def advance(self, n: int) -> None:
        self._pos += n

    def below(self, high: int) -> int:
        threshold = (1 << 32) % high
        while high > 1:
            if self._half is None:
                self._fill(1)
                word = int(self._words[self._pos])
                self._pos += 1
                draw, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                draw, self._half = self._half, None
            m = draw * high
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
        return 0


def _largest_block(sizes: list) -> int:
    """Slots of the largest parent block, given each side's part sizes: the
    two largest parts' product, or C(ls, 2) within one part when
    unipartite."""
    if len(sizes) == 2:
        return int(sizes[0].max()) * int(sizes[1].max())
    b, a = np.sort(np.append(sizes[0], 0))[-2:].tolist()
    return max(a * b, a * (a - 1) // 2)


def _sample_blocks(g, params: ReductionParams, seed) -> np.ndarray:
    """Edges of one reduced graph as an (M, 2) array: parents for each side
    from the parent stream, then, per routed block in draw order, one
    count uniform from the edge stream and, after a nonzero count, its
    Floyd placement.

    A block's count is 0 exactly when its uniform falls below its law's
    P(0), and a zero count draws nothing more, so one look-ahead compares
    the next _WINDOW of a chunk's uniforms with their thresholds at once.
    The first block at or above its threshold inverts its count from that
    same uniform through the law's CDF; its Floyd draws take the words that
    follow, and the next look-ahead starts after them.  Blocks and slot
    indices collect in flat buffers and become vertex pairs in one
    `block_pairs` call.

    Refused with a TooLargeError, before the parent split, when the output
    of an Erdos-Renyi(gamma) input, exactly G(N, q), would expect more
    edges than the samplers' cap, or there are more parent blocks to walk
    than that cap; and, after the split and before any law is built, when
    the largest block has more than _MAX_BLOCK_SLOTS slots.
    """
    n, N = params.n, params.N
    bipartite = isinstance(g, BipartiteGraph)
    _check_expected_edges((N * N if bipartite else N * (N - 1) // 2) * params.q)
    walk = n * n if bipartite else n * (n + 1) // 2
    if walk > _MAX_EXPECTED_EDGES:
        raise TooLargeError(f"{walk:,} parent blocks to walk, above the cap of {_MAX_EXPECTED_EDGES:,}")
    root = as_seed(seed)
    parent_rng = root.child(_PARENT_STREAM).rng()
    sides = [_split_parents(parent_rng.integers(0, n, size=N), n) for _ in range(2 if bipartite else 1)]
    sizes = [size for _, _, size in sides]
    largest = _largest_block(sizes)
    if largest > _MAX_BLOCK_SLOTS:
        raise TooLargeError(f"the largest parent block has {largest:,} slots, above the cap of {_MAX_BLOCK_SLOTS:,}")
    table = params.kernel_table
    # P(count = 0) by slots * 4 + route, grown and filled in as routes turn up,
    # and the CDF as a list once a block with that code draws a nonzero count
    zero_mass = np.empty(0)
    cdfs = {}
    words = _WordStream(root.child(_EDGE_STREAM).rng().bit_generator)
    # each nonzero block's parents (s, t) and count, and its slot indices
    block_s, block_t, counts, picks = (array("q") for _ in range(4))
    for s, t, _, slots, route in block_routes(sizes, table, g):
        code = slots * 4 + route
        grow = int(code.max()) + 1 - zero_mass.size
        if grow > 0:
            zero_mass = np.concatenate((zero_mass, np.full(grow, np.nan)))
        missing = np.isnan(zero_mass[code])
        if missing.any():
            for c in np.unique(code[missing]).tolist():
                zero_mass[c] = table.law(c % 4, c // 4).cdf()[0]
        chunk_zero_mass = zero_mass[code]
        start = 0
        while start < code.size:
            ahead = words.uniforms(min(_WINDOW, code.size - start))
            nonzero = ahead >= chunk_zero_mass[start : start + ahead.size]
            skip = int(nonzero.argmax())
            if not nonzero[skip]:
                words.advance(ahead.size)
                start += ahead.size
                continue
            u = float(ahead[skip])
            words.advance(skip + 1)
            i = start + skip
            c = int(code[i])
            cdf = cdfs.get(c)
            if cdf is None:
                cdf = cdfs[c] = table.law(c % 4, c // 4).cdf().tolist()
            # u >= P(0), and u < 1 = the CDF's last entry, so 1 <= m <= slots
            m = bisect.bisect_right(cdf, u)
            block_s.append(int(s[i]))
            block_t.append(int(t[i]))
            counts.append(m)
            picks.extend(_floyd_sample(c // 4, m, words.below))
            start = i + 1
    # each slot's block, then the vertex pairs; the per-block buffers are let
    # go once read, so no more than ~6 int64s an edge are held at once
    counts = np.frombuffer(counts, dtype=np.int64)
    s = np.repeat(np.frombuffer(block_s, dtype=np.int64), counts)
    t = np.repeat(np.frombuffer(block_t, dtype=np.int64), counts)
    del block_s, block_t, counts
    return block_pairs(sides, s, t, np.frombuffer(picks, dtype=np.int64))


def reduce_graph(g: Graph, params: ReductionParams, seed) -> Graph:
    """Blow an n-vertex graph up to N = n*ell vertices through the kernel.

    Parents are assigned independently and uniformly; each block draws its
    edge count from the law `block_routes` gives it, and the drawn number
    of edges lands on uniformly chosen slots.  Deterministic given the seed.
    """
    if g.num_vertices != params.n:
        raise VertexCountMismatchError(
            f"input has {g.num_vertices} vertices, parameters say n = {params.n}"
        )
    return Graph(params.N, _sample_blocks(g, params, seed))


def reduce_bipartite(g: BipartiteGraph, params: ReductionParams, seed) -> BipartiteGraph:
    """Bipartite analogue: parents per side, every block off-diagonal."""
    n = params.n
    if g.num_top != n or g.num_bottom != n:
        raise VertexCountMismatchError(
            f"input has {g.num_top} x {g.num_bottom} vertices, parameters say n = {n}"
        )
    return BipartiteGraph(params.N, params.N, _sample_blocks(g, params, seed))


def xi_bound_terms(params: ReductionParams) -> tuple:
    """The five explicit fidelity-bound terms, in display order."""
    k, ell, q = params.k, params.ell, params.q
    kk = params.K
    m0 = params.m0
    t1 = math.exp(-kk / 12.0)
    t2 = 1.5 * k * math.exp(-ell / 18.0)
    t3 = 2.0 * k**2 * (8.0 * q * ell**2) ** (m0 + 1)
    arg = 72.0 * math.e**2 * q * ell**2
    t4 = 0.5 * math.sqrt(math.expm1(arg)) if arg < 700.0 else math.inf
    t5 = math.sqrt(0.5 * k) * math.exp(-ell / 36.0)
    return t1, t2, t3, t4, t5


def xi_bound(params: ReductionParams) -> float:
    """Upper bound on the TV distance between the reduced alternative law
    and the target planted model; often vacuous (> 1) at desk scale."""
    return sum(xi_bound_terms(params))


def map_parameters(alpha: float, beta: float, delta: float, ell: int, gamma=0.5) -> ReductionParams:
    """Instantiate the reduction along the standard parameter sequence:
    q = ell^-(2+delta), n = floor(ell^((2+delta)/alpha - 1)),
    k = floor(ell^((2+delta) beta/alpha - 1)).

    The exponent targets are met in the limit: log(1/q)/log N -> alpha and
    log K / log N -> beta as ell grows.
    """
    # negated gates so that NaN fails them
    if not alpha > 0.0:
        raise InvalidParameterError("need alpha > 0")
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError("need 0 < beta < 1")
    if not delta > 0.0:
        raise InvalidParameterError("need delta > 0")
    if not ell >= 2:
        raise InvalidParameterError("need ell >= 2")
    q = float(ell) ** (-(2.0 + delta))
    try:
        n = math.floor(float(ell) ** ((2.0 + delta) / alpha - 1.0))
        k = math.floor(float(ell) ** ((2.0 + delta) * beta / alpha - 1.0))
    except OverflowError:
        raise InvalidParameterError(
            f"n = ell^((2+delta)/alpha - 1) overflows at ell={ell}, delta={delta}, alpha={alpha}"
        ) from None
    if n < 1 or k < 1:
        raise InvalidParameterError(
            f"degenerate map: n={n}, k={k} at ell={ell}; increase ell"
        )
    return ReductionParams(n=n, k=min(k, n), gamma=gamma, ell=ell, q=q)


def compose_test(phi: Callable[[Graph], object], params: ReductionParams, seed):
    """Lift a dense-subgraph test to a clique test: G -> phi(reduce(G)).

    Reduction coins are derived from the captured seed plus a digest of the
    input graph, so the composed test is a pure function: repeated calls on
    one graph agree, and distinct inputs draw fresh randomness.
    """
    root = as_seed(seed)

    def test(g: Graph):
        return phi(reduce_graph(g, params, root.child(g.fingerprint())))

    return test


def beta_star(alpha: float) -> float:
    """Statistical detection boundary: alpha, capped by 1/2 + alpha/4."""
    return min(alpha, 0.5 + alpha / 4.0)


def beta_sharp(alpha: float) -> float:
    """Conjectured polynomial-time boundary 1/2 + alpha/4."""
    return 0.5 + alpha / 4.0


def hard_regime_upper(alpha: float, gamma) -> float:
    """Upper edge of the provably-hard interval at a fixed clique density."""
    m0 = m0_of(gamma)
    if alpha <= 0.0:
        return -math.inf
    return 0.5 + (m0 * alpha + 4.0) / (4.0 * m0 * alpha + 4.0) * alpha - 2.0 / (m0 * alpha)


_REGIME_TOL = 1e-12


def regime_classify(alpha: float, beta: float, gamma=None) -> str:
    """Locate (alpha, beta) in the simple / hard / impossible phase diagram.

    Without gamma, the hard label covers the whole band between the
    statistical and computational boundaries.  With gamma given, hard is
    claimed only on the explicit interval provable at that clique density;
    detectable points outside it (and points on a dividing line) report as
    "boundary".
    """
    if not (0.0 <= alpha <= 2.0):
        raise InvalidParameterError(f"alpha {alpha!r} outside [0, 2]")
    if not (0.0 <= beta <= 1.0):
        raise InvalidParameterError(f"beta {beta!r} outside [0, 1]")
    sharp = beta_sharp(alpha)
    if abs(beta - sharp) <= _REGIME_TOL:
        return "boundary"
    if alpha <= 2.0 / 3.0 + _REGIME_TOL and abs(beta - alpha) <= _REGIME_TOL:
        return "boundary"
    if beta > sharp:
        return "simple"
    if beta < beta_star(alpha):
        return "impossible"
    if gamma is None:
        return "hard"
    upper = hard_regime_upper(alpha, gamma)
    if alpha < beta < upper - _REGIME_TOL:
        return "hard"
    return "boundary"
