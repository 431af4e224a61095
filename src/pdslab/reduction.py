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
within-part pairs for diagonal blocks.

`block_routes` is the one place that walks the parent blocks and routes
each to its count law, one parent row at a time as arrays, and
`block_pairs` the one place that lays out its slots.  Both samplers and
the exact oracles in `theorychecks` consume them, so the oracles check the
routing the samplers use.

The edge stream's layout is fixed: one uniform per block with at least one
slot, in draw order (rows s, then columns t >= s, or every t when
bipartite), inverted through the block's count law; when the count is
nonzero, the block's Floyd placement draws follow at once.  The sampler
skips each run of zero-count blocks with one vectorised draw and keeps
this layout, so its output for a seed is that of a per-block loop and the
reduce sidecar format is unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InvalidGammaError,
    InvalidParameterError,
    PreconditionViolationError,
    ValidityViolationError,
    VertexCountMismatchError,
)
from .graphmodels import BipartiteGraph, Graph, _integer
from .randkit import Pmf, as_seed, binom_pmf, sample_pmf

__all__ = [
    "ReductionParams",
    "KernelTable",
    "m0_of",
    "build_pprime",
    "build_qprime",
    "BlockRow",
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


def build_pprime(ls: int, lt: int, q: float, gamma) -> tuple:
    """The modified planted-block PMF P' and its zero-bucket mass a.

    Fails with ValidityViolationError if any entry would be more negative
    than -1e-12; that signals the caller broke the validity conditions.
    """
    n = int(ls) * int(lt)
    if n < 0:
        raise InvalidParameterError("part sizes must be nonnegative")
    m0 = m0_of(gamma)
    g = float(gamma)
    p_pmf = binom_pmf(n, 2.0 * q)
    if m0 >= n:
        return p_pmf, 0.0
    q_pmf = binom_pmf(n, q)
    probs = p_pmf.probs.copy()
    tail = slice(m0 + 1, n + 1)
    scaled_tail = q_pmf.probs[tail] / g
    a = math.fsum((p_pmf.probs[tail] - scaled_tail).tolist())
    probs[0] += a
    probs[tail] = scaled_tail
    _check_valid(probs, "P'")
    return Pmf(probs), a


def build_qprime(ls: int, lt: int, q: float, gamma) -> Pmf:
    """The complementary null-block PMF Q' = (Q - gamma P') / (1 - gamma)."""
    n = int(ls) * int(lt)
    g = float(gamma)
    p_prime, _ = build_pprime(ls, lt, q, gamma)
    q_pmf = binom_pmf(n, q)
    probs = (q_pmf.probs - g * p_prime.probs) / (1.0 - g)
    _check_valid(probs, "Q'")
    return Pmf(probs)


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
        """(P', Q', a) for a block with ls * lt slots."""
        slots = int(ls) * int(lt)
        hit = self._cells.get(slots)
        if hit is None:
            p_prime, a = build_pprime(ls, lt, self.q, self.gamma)
            q_prime = build_qprime(ls, lt, self.q, self.gamma)
            hit = (p_prime, q_prime, a)
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


def _floyd_sample(n_slots: int, m: int, rng: np.random.Generator) -> list:
    """Uniform m-subset of range(n_slots) in O(m) draws (Floyd's algorithm)."""
    chosen = set()
    for i in range(n_slots - m, n_slots):
        t = int(rng.integers(0, i + 1))
        chosen.add(i if t in chosen else t)
    return sorted(chosen)


def _colex_pair(idx: int) -> tuple:
    """Invert colex enumeration of pairs i < j: index = C(j,2) + i.

    j is the largest with C(j, 2) <= idx, that is (2j - 1)^2 <= 8 idx + 1;
    isqrt is exact, so that is 2j - 1 <= isqrt(8 idx + 1).
    """
    j = int((1 + math.isqrt(1 + 8 * idx)) // 2)
    return idx - j * (j - 1) // 2, j


class BlockRow(NamedTuple):
    """The blocks (s, t) of parent row s that have at least one slot, in
    draw order, as parallel arrays.  Block i draws its edge count from
    `table.law(route[i], slots[i])`."""

    s: int
    t: np.ndarray
    diagonal: np.ndarray
    slots: np.ndarray
    route: np.ndarray


def block_routes(rows, cols, table: KernelTable, has_edge):
    """Walk the parent blocks in draw order, one parent row at a time, and
    route each block to its count law.

    `rows[s]` and `cols[t]` hold the sorted output vertices with parent s
    (row side) and t (column side).  When `cols is rows` the graph is
    unipartite and row s holds the blocks (s, t) with t >= s, where s == t
    is the diagonal block of within-part pairs; otherwise row s holds every
    (s, t), all off-diagonal.  `has_edge(s, t)` gives, for an array of
    column parents t, whether each input pair (s, t) is an edge; None
    stands for an Erdos-Renyi(gamma) input whose edges are not drawn.

    Yields a `BlockRow` for every row with a block of at least one slot.
    Diagonal blocks and blocks with a part above 2*ell take the plain
    route, Binom(slots, q); every other block takes P' if its input pair
    is an edge, Q' if not, and the mixture (1-gamma) Q' + gamma P' for an
    Erdos-Renyi(gamma) input.
    """
    unipartite = cols is rows
    col_sizes = np.fromiter(map(len, cols), dtype=np.int64, count=len(cols))
    oversize = col_sizes > 2 * table.ell
    for s, vs in enumerate(rows):
        ls = len(vs)
        if ls == 0:
            continue
        start = s if unipartite else 0
        slots = ls * col_sizes[start:]
        plain = oversize[start:] | (ls > 2 * table.ell)
        if unipartite:
            slots[0] = ls * (ls - 1) // 2
            plain[0] = True
        t = np.flatnonzero(slots)
        if t.size == 0:
            continue
        slots, plain = slots[t], plain[t]
        t += start
        diagonal = t == s if unipartite else np.zeros(t.size, dtype=bool)
        if has_edge is None:
            kernel = ROUTE_MIXED
        else:
            kernel = ROUTE_QPRIME + np.asarray(has_edge(s, t), dtype=np.int64)
        yield BlockRow(s, t, diagonal, slots, np.where(plain, ROUTE_PLAIN, kernel))


def block_pairs(vs, vt, diagonal: bool, idx) -> list:
    """The output vertex pairs at slot indices `idx` of one block: colex
    order over within-part pairs for a diagonal block, row-major over
    vs x vt otherwise."""
    if diagonal:
        return [(int(vs[i]), int(vs[j])) for i, j in map(_colex_pair, idx)]
    lt = len(vt)
    return [(int(vs[k // lt]), int(vt[k % lt])) for k in idx]


def _sample_blocks(g, params: ReductionParams, seed) -> list:
    """Edges of one reduced graph: parents for each side from the parent
    stream, then, per routed block in draw order, one count uniform from
    the edge stream and, after a nonzero count, its Floyd placement.

    A block's count is 0 exactly when its uniform falls below its law's
    P(0), and a zero count draws nothing more, so a run of zero-count
    blocks is one vectorised `random` call.  The first block at or above
    its threshold ends the run: the generator goes back to the state
    before the run, steps past the zero-count uniforms by drawing them
    again, and draws that block's count and placement as a lone block
    would.  The stream is the one a per-block loop consumes.
    """
    n = params.n
    root = as_seed(seed)
    parent_rng = root.child(_PARENT_STREAM).rng()
    edge_rng = root.child(_EDGE_STREAM).rng()
    sides = []
    for _ in range(2 if isinstance(g, BipartiteGraph) else 1):
        parents = parent_rng.integers(0, n, size=params.N)
        sides.append([np.nonzero(parents == s)[0] for s in range(n)])
    rows, cols = sides[0], sides[-1]
    table = params.kernel_table
    # P(count = 0) by slots * 4 + route, grown and filled in as routes turn up
    zero_mass = np.empty(0)
    bit_generator = edge_rng.bit_generator
    edges = []
    # with one side, rows is cols: block_routes walks it as unipartite, and
    # asks each row s about columns t >= s only
    for row in block_routes(rows, cols, table, g.row_has_edges):
        code = row.slots * 4 + row.route
        grow = int(code.max()) + 1 - zero_mass.size
        if grow > 0:
            zero_mass = np.concatenate((zero_mass, np.full(grow, np.nan)))
        missing = np.isnan(zero_mass[code])
        if missing.any():
            for c in np.unique(code[missing]).tolist():
                zero_mass[c] = table.law(c % 4, c // 4).cdf()[0]
        row_zero_mass = zero_mass[code]
        start = 0
        while start < code.size:
            state = bit_generator.state
            nonzero = edge_rng.random(code.size - start) >= row_zero_mass[start:]
            skip = int(np.argmax(nonzero))
            if not nonzero[skip]:
                break
            bit_generator.state = state
            edge_rng.random(skip)
            i = start + skip
            m = sample_pmf(table.law(row.route[i], row.slots[i]), edge_rng)
            idx = _floyd_sample(int(row.slots[i]), m, edge_rng)
            edges.extend(block_pairs(rows[row.s], cols[row.t[i]], row.diagonal[i], idx))
            start = i + 1
    return edges


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
    if alpha <= 0.0:
        raise InvalidParameterError("need alpha > 0")
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError("need 0 < beta < 1")
    if delta <= 0.0:
        raise InvalidParameterError("need delta > 0")
    if ell < 2:
        raise InvalidParameterError("need ell >= 2")
    q = float(ell) ** (-(2.0 + delta))
    n = math.floor(float(ell) ** ((2.0 + delta) / alpha - 1.0))
    k = math.floor(float(ell) ** ((2.0 + delta) * beta / alpha - 1.0))
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
