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
each to its count law, and `block_pairs` the one place that lays out its
slots.  Both samplers and the exact oracles in `theorychecks` consume
them, so the oracles check the routing the samplers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (
    InvalidGammaError,
    InvalidParameterError,
    PreconditionViolationError,
    ValidityViolationError,
    VertexCountMismatchError,
)
from .graphmodels import BipartiteGraph, Graph
from .randkit import Pmf, as_seed, binom_pmf, sample_pmf

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


def m0_of(gamma) -> int:
    """floor(log2(1/gamma)), decided by exact rational comparison.

    Every float is a dyadic rational, so converting through Fraction makes
    the boundary cases (gamma = 2^-m exactly) unambiguous.
    """
    g = Fraction(gamma)
    if not (0 < g <= Fraction(1, 2)):
        raise InvalidGammaError(f"gamma must lie in (0, 1/2], got {gamma!r}")
    inv = 1 / g
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


class KernelTable:
    """Memoized block distributions for one (q, gamma, ell) triple.

    P' and Q' depend on the part sizes only through the slot count
    ls * lt, so cells are keyed by that product.  Part sizes concentrate
    near ell, so only a handful of cells ever materialize.  Lookups after
    construction are read-only and safe to share across threads.
    """

    def __init__(self, q: float, gamma, ell: int):
        self.q = float(q)
        self.gamma = float(gamma)
        self.ell = int(ell)
        self.m0 = m0_of(gamma)
        self._cells: dict = {}
        self._plain: dict = {}

    @classmethod
    def for_params(cls, params: ReductionParams) -> "KernelTable":
        return cls(params.q, params.gamma, params.ell)

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


def _floyd_sample(n_slots: int, m: int, rng: np.random.Generator) -> list:
    """Uniform m-subset of range(n_slots) in O(m) draws (Floyd's algorithm)."""
    chosen = set()
    for i in range(n_slots - m, n_slots):
        t = int(rng.integers(0, i + 1))
        chosen.add(i if t in chosen else t)
    return sorted(chosen)


def _colex_pair(idx: int) -> tuple:
    """Invert colex enumeration of pairs i < j: index = C(j,2) + i."""
    j = int((1 + math.isqrt(1 + 8 * idx)) // 2)
    while j * (j - 1) // 2 > idx:
        j -= 1
    while (j + 1) * j // 2 <= idx:
        j += 1
    return idx - j * (j - 1) // 2, j


def block_routes(rows, cols, table: KernelTable, w):
    """Walk the parent blocks in draw order and route each to its count law.

    `rows[s]` and `cols[t]` hold the sorted output vertices with parent s
    (row side) and t (column side).  When `cols is rows` the graph is
    unipartite and the blocks are (s, t) with s <= t, where s == t is the
    diagonal block of within-part pairs; otherwise every (s, t) is an
    off-diagonal block.  `w(s, t)` is the probability that input pair
    (s, t) is an edge: 0 or 1 for a fixed input graph, gamma for an
    Erdos-Renyi(gamma) input.

    Yields (vs, vt, diagonal, slots, law) for every block with at least one
    slot.  Diagonal blocks draw Binom(C(l,2), q); a block with a part above
    2*ell draws plain Binom(ls*lt, q); every other block draws P' if w is 1,
    Q' if w is 0, and the mixture (1-w) Q' + w P' otherwise.
    """
    unipartite = cols is rows
    for s, vs in enumerate(rows):
        ls = len(vs)
        if ls == 0:
            continue
        for t in range(s if unipartite else 0, len(cols)):
            vt = cols[t]
            lt = len(vt)
            diagonal = unipartite and s == t
            slots = ls * (ls - 1) // 2 if diagonal else ls * lt
            if slots == 0:
                continue
            if diagonal or max(ls, lt) > 2 * table.ell:
                law = table.plain(slots)
            else:
                p_prime, q_prime, _ = table.cell(ls, lt)
                weight = w(s, t)
                if weight == 1:
                    law = p_prime
                elif weight == 0:
                    law = q_prime
                else:
                    law = Pmf((1.0 - weight) * q_prime.probs + weight * p_prime.probs)
            yield vs, vt, diagonal, slots, law


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
    stream, then a count draw and a Floyd placement per routed block from
    the edge stream."""
    n = params.n
    root = as_seed(seed)
    parent_rng = root.child(_PARENT_STREAM).rng()
    edge_rng = root.child(_EDGE_STREAM).rng()
    sides = []
    for _ in range(2 if isinstance(g, BipartiteGraph) else 1):
        parents = parent_rng.integers(0, n, size=params.N)
        sides.append([np.nonzero(parents == s)[0] for s in range(n)])
    table = KernelTable.for_params(params)
    edges = []
    # with one side, sides[0] is sides[-1]: block_routes walks it as unipartite
    for vs, vt, diagonal, slots, law in block_routes(sides[0], sides[-1], table, g.has_edge):
        m = sample_pmf(law, edge_rng)
        if m:
            edges.extend(block_pairs(vs, vt, diagonal, _floyd_sample(slots, m, edge_rng)))
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
