"""Numeric verification of the supporting lemmas by exact computation.

Every check here reduces a proved inequality or identity to finite
arithmetic: PMF summation, exhaustive enumeration of ball-in-bin
assignments, or enumeration of the full graph space at tiny sizes.  Checks
return :class:`CheckReport` records and never assert; the CLI and the test
suite decide what a failure means.  Exhaustive enumerations are capped near
10^7 elementary outcomes and raise instead of silently sampling.

The negative-association check exercises a fixed battery of non-decreasing
functions; it can falsify the product bound but (being a finite battery)
cannot prove it, and its report name says so.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

from .errors import (
    InvalidParameterError,
    PreconditionViolationError,
    TooLargeError,
)
from .graphmodels import BipartiteGraph, Graph
from .randkit import binom_pmf, hyper_pmf, tv_distance
from .reduction import (
    ReductionParams,
    _kernel_laws,
    _split_parents,
    block_pairs,
    block_routes,
    m0_of,
)

__all__ = [
    "CheckReport",
    "CHECK_TOL",
    "check_kernel",
    "default_kernel_grid",
    "chi2_planted_vs_null_exact",
    "chi2_bruteforce",
    "check_decoupling",
    "check_binom_dominance",
    "check_negative_association",
    "hyper_mgf",
    "er_law_exact",
    "pds_law_exact",
    "pds_fixed_law_exact",
    "reduced_law_exact",
    "reduction_null_tv_exact",
    "reduction_alt_tv_exact",
    "reduction_null_tv_bipartite_exact",
    "reduction_alt_tv_bipartite_exact",
    "battery_kernel",
    "battery_lemmas",
    "battery_reduction_exact",
]

CHECK_TOL = 1e-10

_ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class CheckReport:
    """One verified inequality: satisfied means lhs <= rhs + CHECK_TOL."""

    name: str
    params: dict = field(compare=False)
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + CHECK_TOL

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "params": self.params,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "satisfied": self.satisfied,
                "slack": self.slack,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# kernel identity and closeness
# ---------------------------------------------------------------------------


def default_kernel_grid():
    """The standard (ls, lt, q, gamma, ell) grid: sizes 1..6 a side, q in
    {1e-3, 1e-2} and gamma in {0.5, 0.25}, with ell = max(ls, lt),
    filtered by the validity condition 16 q ell^2 <= 1."""
    sizes = range(1, 7)
    grid = []
    for ls, lt, q, gamma in product(sizes, sizes, (1e-3, 1e-2), (0.5, 0.25)):
        ell = max(ls, lt)
        if 16.0 * q * ell**2 <= 1.0:
            grid.append((ls, lt, q, gamma, ell))
    return grid


def check_kernel(grid) -> list:
    """Both kernel checks over `grid`: first each point's pointwise
    deviation of (1-gamma) Q' + gamma P' from Binom(ls*lt, q), then each
    point's tv(P', Binom(ls*lt, 2q)) against the 4 (8 q ell^2)^(m0+1)
    bound.  One walk builds each Binom(slots, rate) and each (P', Q', a)
    by (slots, q, gamma) once; the cells draw their binomials from the
    same memo."""
    binom = functools.cache(binom_pmf)
    cell = functools.cache(lambda slots, q, gamma: _kernel_laws(slots, 1, q, gamma, binom))
    mixture, pprime = [], []
    for ls, lt, q, gamma, ell in grid:
        p_prime, q_prime, _ = cell(ls * lt, q, gamma)
        mix = (1.0 - gamma) * q_prime.probs + gamma * p_prime.probs
        mixture.append(
            CheckReport(
                name="kernel-mixture-identity",
                params={"ls": ls, "lt": lt, "q": q, "gamma": gamma},
                lhs=float(np.max(np.abs(mix - binom(ls * lt, q).probs))),
                rhs=1e-12,
            )
        )
        pprime.append(
            CheckReport(
                name="kernel-pprime-tv",
                params={"ls": ls, "lt": lt, "q": q, "gamma": gamma, "ell": ell},
                lhs=tv_distance(p_prime, binom(ls * lt, 2.0 * q)),
                rhs=4.0 * (8.0 * q * ell**2) ** (m0_of(gamma) + 1),
            )
        )
    return mixture + pprime


# ---------------------------------------------------------------------------
# chi-square identity for the planted model
# ---------------------------------------------------------------------------


def _check_chi2_domain(N: int, Kp: int, q: float) -> None:
    if not (1 <= Kp <= N):
        raise InvalidParameterError(f"need 1 <= Kp <= N, got Kp={Kp}, N={N}")
    if not (0.0 < q < 1.0):
        raise InvalidParameterError("need 0 < q < 1 for the chi-square reference")


def chi2_planted_vs_null_exact(N: int, Kp: int, p: float, q: float) -> float:
    """chi^2 of the size-Kp planted law from the null, via the overlap
    identity: E[(1 + (p-q)^2 / (q(1-q)))^C(H,2)] - 1, H hypergeometric."""
    _check_chi2_domain(N, Kp, q)
    ratio = 1.0 + (p - q) ** 2 / (q * (1.0 - q))
    overlap = hyper_pmf(N, Kp, Kp)
    total = math.fsum(
        overlap[h] * ratio ** (h * (h - 1) // 2) for h in range(overlap.max_value + 1)
    )
    return total - 1.0


def _graph_space(N: int):
    pairs = list(combinations(range(N), 2))
    n_pairs = len(pairs)
    if 1 << n_pairs > _ENUMERATION_CAP:
        raise TooLargeError(f"graph space 2^{n_pairs} exceeds the enumeration cap")
    return pairs, n_pairs


def _product_law(n_slots: int, rate: float) -> np.ndarray:
    """Product Bernoulli(rate) law over all 2^n_slots edge masks, by mask:
    rate^k (1-rate)^(n_slots-k) once for each k, gathered by popcount (a
    uint8, as the enumeration caps keep n_slots far below 256)."""
    pop = np.zeros(1, dtype=np.uint8)
    for _ in range(n_slots):
        # setting the next bit adds one to the count of every lower value
        pop = np.concatenate((pop, pop + 1))
    k = np.arange(n_slots + 1)
    return (rate**k * (1.0 - rate) ** (n_slots - k))[pop]


def er_law_exact(N: int, q: float) -> np.ndarray:
    """G(N, q) law as a vector over all edge masks (lex pair order)."""
    _, n_pairs = _graph_space(N)
    return _product_law(n_pairs, q)


def pds_fixed_law_exact(N: int, Kp: int, p: float, q: float) -> np.ndarray:
    """Planted law conditional on a uniform size-Kp planted set."""
    if not (0 <= Kp <= N):
        raise InvalidParameterError(f"need 0 <= Kp <= N, got Kp={Kp}, N={N}")
    sets = ((1.0, set(subset)) for subset in combinations(range(N), Kp))
    return _planted_law(N, p, q, sets) / math.comb(N, Kp)


def pds_law_exact(N: int, K: int, p: float, q: float) -> np.ndarray:
    """Planted law with independent Bernoulli(K/N) memberships."""
    rho = K / N
    subsets = ({v for v in range(N) if bits >> v & 1} for bits in range(1 << N))
    return _planted_law(N, p, q, ((rho ** len(s) * (1.0 - rho) ** (N - len(s)), s) for s in subsets))


def _planted_law(N: int, p: float, q: float, weighted_sets) -> np.ndarray:
    """Sum over (weight, set) of weight times the law given the set: an
    outer-product chain of factors [1-r, r] in pair order, so pair i is
    bit i of the mask, with r = p on pairs inside the set and q elsewhere."""
    pairs, n_pairs = _graph_space(N)
    law = np.zeros(1 << n_pairs)
    for weight, subset in weighted_sets:
        given = np.ones(1)
        for u, v in pairs:
            r = p if u in subset and v in subset else q
            given = np.multiply.outer((1.0 - r, r), given).ravel()
        law += weight * given
    return law


def chi2_bruteforce(N: int, Kp: int, p: float, q: float) -> float:
    """Graph-space chi-square, the independent cross-check of the identity."""
    _check_chi2_domain(N, Kp, q)
    p1 = pds_fixed_law_exact(N, Kp, p, q)
    p0 = er_law_exact(N, q)
    return float(np.sum((p1 - p0) ** 2 / p0))


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------


def check_decoupling(ell: int, tau: float, lam: float) -> CheckReport:
    """E[exp(lam T(T-1))] <= exp(16 lam ell^2 tau^2) for T ~ Binom(ell, tau),
    valid whenever lam * ell <= 1/16."""
    if lam * ell > 1.0 / 16.0:
        raise PreconditionViolationError(f"need lam*ell <= 1/16, got {lam * ell:g}")
    dist = binom_pmf(ell, tau)
    lhs = math.fsum(dist[t] * math.exp(lam * t * (t - 1)) for t in range(ell + 1))
    rhs = math.exp(16.0 * lam * ell**2 * tau**2)
    return CheckReport(
        name="decoupling-mgf",
        params={"ell": ell, "tau": tau, "lam": lam},
        lhs=lhs,
        rhs=rhs,
    )


def check_binom_dominance(K: int, k: int, ell: int) -> list:
    """Pointwise Binom(1.5K, 1/k^2) <= Binom(3 ell, e/k) on 1..2*ell-1, plus
    the tail comparison at 2*ell.  1.5K is floored when fractional (the
    dominated overlap count never exceeds floor(1.5K))."""
    if K != k * ell:
        raise PreconditionViolationError(f"need K = k*ell, got K={K}, k*ell={k * ell}")
    if k < 6.0 * math.e * ell:
        raise PreconditionViolationError(f"need k >= 6e*ell, got k={k}, 6e*ell={6 * math.e * ell:g}")
    x = binom_pmf(math.floor(1.5 * K), 1.0 / k**2)
    y = binom_pmf(3 * ell, math.e / k)
    base = {"K": K, "k": k, "ell": ell}
    reports = []
    for m in range(1, 2 * ell):
        reports.append(
            CheckReport(
                name="binom-dominance-point",
                params={**base, "m": m},
                lhs=x[m],
                rhs=y[m],
            )
        )
    tail = math.fsum(x[m] for m in range(2 * ell, x.max_value + 1)) if x.max_value >= 2 * ell else 0.0
    reports.append(
        CheckReport(
            name="binom-dominance-tail",
            params={**base, "m": f">={2 * ell}"},
            lhs=tail,
            rhs=y[2 * ell] if y.max_value >= 2 * ell else 0.0,
        )
    )
    return reports


_NA_BATTERY = (
    ("identity", lambda x: x.astype(np.float64)),
    ("square", lambda x: x.astype(np.float64) ** 2),
    ("exp-quadratic", lambda x: np.exp(0.1 * x.astype(np.float64) ** 2)),
    ("threshold-at-2", lambda x: (x >= 2).astype(np.float64)),
)


def _overlap_counts(k: int, S_size: int) -> tuple:
    """(counts, mult): every distinct k^2 overlap-count vector of a pair of
    ball-in-bin assignments, and the number of pairs that share it.

    A pair is a sequence of S_size cells (a, b), the cell of each ball, so
    the vectors are the multisets of S_size cells and a vector c is shared
    by the multinomial S_size! / prod(c!) pairs.  The rows are sorted by
    their base-(S_size+1) key, sum over cells a*k + b of c * base^(a*k + b).
    """
    cells = np.array(list(combinations_with_replacement(range(k * k), S_size)))
    counts = (cells[:, :, None] == np.arange(k * k)).sum(axis=1)
    counts = counts[np.argsort(counts @ (S_size + 1) ** np.arange(k * k))]
    factorial = np.array([math.factorial(c) for c in range(S_size + 1)])
    return counts, math.factorial(S_size) // factorial[counts].prod(axis=1)


def check_negative_association(k: int, S_size: int) -> CheckReport:
    """Product-form bound for overlap counts of two independent uniform
    ball-in-bin assignments, checked exhaustively on a fixed battery of
    non-decreasing functions.  A finite battery can only falsify the
    property, never prove it; the report records the worst violation.

    Each battery function is evaluated, and its product over the cells
    taken in cell order, once per distinct overlap-count vector (3,003
    vectors for the 531,441 pairs at k = 3, S_size = 6), and both means
    weight each vector by its multinomial multiplicity (`_overlap_counts`).
    The integer-valued functions' sums are exact (every partial sum is an
    integer below 2^53), so their floats are those of a row-order mean over
    the full pair x cell table, which is never held.  The exp-quadratic
    sums may differ from a row-order sum in the last bits, but its gap
    stays far below the worst one whenever k >= 2, and at k = 1 there is
    one pair and every gap is exactly 0, so the report is the row-order
    one."""
    if k < 1 or S_size < 1:
        raise InvalidParameterError("need k >= 1 and S_size >= 1")
    if k > 3 or S_size > 6:
        raise TooLargeError("exhaustive check capped at k <= 3, S_size <= 6")
    counts, mult = _overlap_counts(k, S_size)
    levels = np.arange(S_size + 1)
    # every battery function's cell values side by side, one row per vector
    table = np.concatenate([fn(levels)[counts] for _, fn in _NA_BATTERY], axis=1)
    products = table.reshape(-1, len(_NA_BATTERY), k * k).prod(axis=2)
    n_pairs = k ** (2 * S_size)
    cell_means = (mult @ table / n_pairs).reshape(len(_NA_BATTERY), k * k)
    worst = -math.inf
    worst_fn = None
    for (fn_name, _), lhs, means in zip(_NA_BATTERY, (mult @ products / n_pairs).tolist(), cell_means):
        rhs = float(means.prod())
        if lhs - rhs > worst:
            worst = lhs - rhs
            worst_fn = fn_name
    return CheckReport(
        name="negative-association-battery",
        params={"k": k, "S_size": S_size, "worst_fn": worst_fn},
        lhs=worst,
        rhs=0.0,
    )


def hyper_mgf(pop: int, m: int, lam: float) -> float:
    """E[exp(lam H^2)] for H ~ Hypergeometric(pop, m, m), by summation."""
    if not (0 <= m <= pop):
        raise InvalidParameterError(f"need 0 <= m <= pop, got m={m}, pop={pop}")
    if lam < 0:
        raise InvalidParameterError("need lam >= 0")
    dist = hyper_pmf(pop, m, m)
    return math.fsum(dist[h] * math.exp(lam * h * h) for h in range(dist.max_value + 1))


# ---------------------------------------------------------------------------
# exact reduction-law oracles
# ---------------------------------------------------------------------------


def _side_layout(weight: float, sizes: list, table, graph) -> tuple:
    """(weights, s, t, idx, radix) for a side with these part sizes.

    weights[sum_b radix_b * c_b] is the side's factor when its block b, in
    `block_routes` order, holds c_b edges: [weight] times each block's count
    law over its placements in turn, as outer products, so each entry is the
    chain of float multiplies a per-mask product makes.  Each slot of each
    block is one entry of (s, t, idx), as `block_pairs` takes them, and of
    `radix`, its block's radix.
    """
    blocks, weights = [], np.array([weight])
    for chunk in block_routes(sizes, table, graph):
        for s, t, k, route in zip(*(a.tolist() for a in chunk)):
            blocks.append((s, t, k, weights.size))
            dist = table.law(route, k)
            weights = np.multiply.outer([dist[c] / math.comb(k, c) for c in range(k + 1)], weights).ravel()
    s, t, slots, radix = np.array(blocks, dtype=np.int64).reshape(-1, 4).T
    idx = np.arange(int(slots.sum())) - np.repeat(np.cumsum(slots) - slots, slots)
    return weights, np.repeat(s, slots), np.repeat(t, slots), idx, np.repeat(radix, slots)


def _relabellings(cases: list, bipartite: bool) -> list:
    """The relabellings of the parents that fix every case's input graph, a
    None (Erdos-Renyi) input fixed by all: each a permutation of [n], as a
    1-tuple, or a pair when bipartite, taking block (s, t) to (g[0][s], g[-1][t])."""
    n = cases[0][0].n
    # a Graph marks only its edges (u, v) with u < v
    marks = [m if bipartite else m | m.T for m in (g.row_marks(0, n) for _, g in cases if g is not None)]
    group = product(permutations(range(n)), repeat=2 if bipartite else 1)
    return [g for g in group if all((m[np.ix_(g[0], g[-1])] == m).all() for m in marks)]


def _reduced_laws(cases: list, bipartite: bool) -> list:
    """Exact output laws of the reduction, one vector over all edge masks
    for each (params, graph) case; the cases must share n and ell.

    Sums over every parent assignment (of both sides for a bipartite
    graph); the blocks, their count laws and their slots come from the
    samplers' own `block_routes` and `block_pairs`.  `graph` is the input
    graph `block_routes` takes, None for an Erdos-Renyi(gamma) input.  A
    relabelling that fixes every input (`_relabellings`) maps each side to
    one with an equal factor, so the pass sums the least side of each
    orbit, weighted by the orbit's size: 64 of the battery's 256 bipartite
    sides.

    A side's factor depends on a mask only through its blocks' edge counts,
    so it is an entry of the case's weight table for the side
    (`_side_layout`).  The table index is linear in the mask's bits, each
    slot's coefficient its block's radix: one index over the high bits plus
    one over the low bits.  The high-half index takes at most prod_b (high
    slots of block b + 1) distinct values, at most 81 of the 256 high
    halves on the battery's 16-slot bipartite shapes, so a side gathers one
    row of table entries per distinct value and copies it to every high
    half that shares it.  None of this index work depends on q, gamma or
    the input, so one pass does it once a side for every case.  Summed by
    orbit, the laws' nonzero floats are within 256 ulps of a per-mask sum
    over every side (the `verify` floats' v2), and its zeros are exact.
    """
    if len({(params.n, params.ell) for params, _ in cases}) != 1:
        raise InvalidParameterError("the cases of one pass need one n and one ell")
    n, N = cases[0][0].n, cases[0][0].N
    if bipartite:
        n_slots = N * N
        if (n**N) ** 2 * (1 << n_slots) > 20 * _ENUMERATION_CAP:
            raise TooLargeError("bipartite assignment x graph space exceeds the cap")
        slot_of = np.arange(n_slots).reshape(N, N)
    else:
        _, n_slots = _graph_space(N)
        if n**N * (1 << n_slots) > _ENUMERATION_CAP:
            raise TooLargeError("assignment x graph space exceeds the enumeration cap")
        slot_of = np.zeros((N, N), dtype=np.int64)
        u, v = np.triu_indices(N, 1)
        slot_of[u, v] = slot_of[v, u] = np.arange(n_slots)
    assignments = np.array(list(product(range(n), repeat=N)))
    splits = [_split_parents(assignment, n) for assignment in assignments]
    # a side's key is its assignments' indices in product order; keep the
    # least key of each orbit of the relabellings, and count the orbit
    dims = (len(splits),) * (2 if bipartite else 1)
    place = n ** np.arange(N - 1, -1, -1)
    images = ((np.array(pi)[assignments] @ place for pi in g) for g in _relabellings(cases, bipartite))
    least = np.minimum.reduce([np.ravel_multi_index(np.ix_(*image), dims) for image in images]).ravel()
    keys, orbits = np.unique(least, return_counts=True)
    # the bits of every half-width mask, one row per mask
    low = n_slots // 2
    low_bits, high_bits = ((np.arange(1 << w)[:, None] >> np.arange(w)) & 1 for w in (low, n_slots - low))
    # many orbits share their size and part sizes, and with them their layouts
    layouts = {}
    coef = np.zeros(n_slots, dtype=np.int64)
    factors = np.empty((len(high_bits), len(low_bits)))
    laws = [np.zeros(factors.size) for _ in cases]
    for key, orbit in zip(zip(*np.unravel_index(keys, dims)), orbits.tolist()):
        side = [splits[i] for i in key]
        shape = (orbit, *(tuple(size.tolist()) for _, _, size in side))
        if shape not in layouts:
            sized, weight = [size for _, _, size in side], orbit / least.size
            layouts[shape] = [_side_layout(weight, sized, params.kernel_table, graph) for params, graph in cases]
        # the cases' layouts differ only in their weight tables
        weights, s, t, idx, radix = layouts[shape][0]
        # every slot lies in one block, so each side sets every coefficient
        pairs = block_pairs(side, s, t, idx)
        coef[slot_of[pairs[:, 0], pairs[:, 1]]] = radix
        high = high_bits @ coef[low:]
        distinct = np.zeros(weights.size, dtype=bool)
        distinct[high] = True
        at = np.flatnonzero(distinct)[:, None] + low_bits @ coef[:low]
        rows = np.cumsum(distinct)[high] - 1
        # "clip" lets take write straight into `factors`, where "raise"
        # would buffer the copy; this check stands for the bounds check
        if rows.max() >= len(at):
            raise IndexError("row rank outside the gathered block")
        for law, (weights, *_) in zip(laws, layouts[shape]):
            weights.take(at).take(rows, axis=0, out=factors, mode="clip")
            law += factors.reshape(-1)
    return laws


def _tv(law: np.ndarray, target: np.ndarray) -> float:
    """Total variation distance between two laws over the same edge masks."""
    diff = law - target
    return 0.5 * float(np.abs(diff, out=diff).sum())


def _reduction_tvs(cases: list, bipartite: bool) -> list:
    """Exact TV of each (params, full) case's reduced law, all from one
    `_reduced_laws` pass, to its target.  For the Erdos-Renyi(gamma) input
    that is G(N, q), every pair at q; for the full clique on [n] (the full
    n x n bi-clique) it is the planted law with K = N."""
    n = cases[0][0].n
    edges = list(product(range(n), repeat=2)) if bipartite else list(combinations(range(n), 2))
    full = BipartiteGraph(n, n, edges) if bipartite else Graph(n, edges)
    laws = _reduced_laws([(params, full if is_full else None) for params, is_full in cases], bipartite)
    tvs = []
    for (params, is_full), law in zip(cases, laws):
        if bipartite:
            target = _product_law(params.N**2, params.p if is_full else params.q)
        elif is_full:
            target = pds_law_exact(params.N, params.K, params.p, params.q)
        else:
            target = er_law_exact(params.N, params.q)
        tvs.append(_tv(law, target))
    return tvs


def reduced_law_exact(g_in: Graph, params: ReductionParams) -> np.ndarray:
    """Exact output law of the reduction for one fixed input graph, as a
    vector over all 2^C(N,2) edge masks.  Sums over every parent
    assignment; only viable for tiny n and ell."""
    if not isinstance(g_in, Graph):
        raise InvalidParameterError(f"the exact oracle takes a Graph, got {type(g_in).__name__}")
    if g_in.num_vertices != params.n:
        raise InvalidParameterError("input graph size does not match params.n")
    return _reduced_laws([(params, g_in)], False)[0]


def reduction_null_tv_exact(params: ReductionParams) -> float:
    """Exact TV between the reduced law of an Erdos-Renyi(gamma) input and
    the target null G(N, q).

    Input edges are independent, and each off-diagonal block consumes a
    distinct input edge, so mixing over the input replaces each block law
    by (1-gamma) Q' + gamma P' analytically; no input enumeration needed.
    """
    return _reduction_tvs([(params, False)], bipartite=False)[0]


def reduction_alt_tv_exact(params: ReductionParams) -> float:
    """Exact TV between the reduced law of the full-clique input (k = n)
    and the target planted model with mean size K = N.

    The target puts every pair at p, including same-parent (diagonal)
    pairs, which the reduction draws at q.  On average C(N,2)/n pairs share
    a parent, so the TV has a first-order term C(N,2)/n * (p-q) on top of
    the kernel's (8 q ell^2)^(m0+1) term.
    """
    if params.k != params.n:
        raise InvalidParameterError("the exact alternative oracle needs k = n (clique on all of [n])")
    return _reduction_tvs([(params, True)], bipartite=False)[0]


def reduction_null_tv_bipartite_exact(params: ReductionParams) -> float:
    """Bipartite analogue of the null exactness oracle (same analytic
    mixing over input edges; every block is off-diagonal)."""
    return _reduction_tvs([(params, False)], bipartite=True)[0]


def reduction_alt_tv_bipartite_exact(params: ReductionParams) -> float:
    """Exact TV between the bipartite reduced law of a full bi-clique
    input (k = n) and the target planted law with K = N per side.  With no
    diagonal blocks, the whole gap comes from the modified kernel, so this
    trend isolates the (8 q ell^2)^(m0+1) term."""
    if params.k != params.n:
        raise InvalidParameterError("the exact bipartite alternative oracle needs k = n")
    return _reduction_tvs([(params, True)], bipartite=True)[0]


# ---------------------------------------------------------------------------
# batteries (what `phaselab verify` runs)
# ---------------------------------------------------------------------------


def battery_kernel() -> list:
    return check_kernel(default_kernel_grid())


def battery_lemmas() -> list:
    reports = []
    for ell in range(1, 13):
        lam = 1.0 / (16.0 * ell)
        for tau in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            reports.append(check_decoupling(ell, tau, lam))
    reports.extend(check_binom_dominance(17, 17, 1))
    reports.extend(check_binom_dominance(66, 33, 2))
    for k, s in [(1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (3, 6)]:
        reports.append(check_negative_association(k, s))
    for n_vertices in range(2, 5):
        for kp in range(1, n_vertices + 1):
            for p in (0.25, 0.5):
                for q in (0.25, 0.5):
                    identity = chi2_planted_vs_null_exact(n_vertices, kp, p, q)
                    brute = chi2_bruteforce(n_vertices, kp, p, q)
                    reports.append(
                        CheckReport(
                            name="chi2-identity-vs-bruteforce",
                            params={"N": n_vertices, "Kp": kp, "p": p, "q": q},
                            lhs=abs(identity - brute),
                            rhs=1e-10,
                        )
                    )
    return reports


def battery_reduction_exact() -> list:
    # one pass per shape over its three laws: the Erdos-Renyi input at
    # q = 0.01, and the full input at q = 0.01 and at q = 0.001
    params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
    params_lo = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.001)
    cases = [(params, False), (params, True), (params_lo, True)]
    (null, tv_hi, tv_lo), (null_bip, bip_hi, bip_lo) = (_reduction_tvs(cases, b) for b in (False, True))
    point = {"n": 2, "ell": 2, "gamma": 0.5, "q": 0.01}
    ratio = bip_hi / bip_lo
    bounds = {"q_hi": 0.01, "q_lo": 0.001, "ratio": ratio}
    return [
        CheckReport(name="reduction-null-exactness", params=point, lhs=null, rhs=1e-12),
        # the reduced alternative law tightens as q shrinks; the O(q^2) kernel
        # scaling is only isolated in the bipartite variant (no diagonal blocks)
        CheckReport(
            name="reduction-alt-tv-decreasing",
            params={"q_hi": 0.01, "q_lo": 0.001, "tv_hi": tv_hi, "tv_lo": tv_lo},
            lhs=tv_lo,
            rhs=tv_hi,
        ),
        CheckReport(name="reduction-alt-fidelity-ratio-bipartite-upper", params=bounds, lhs=ratio, rhs=200.0),
        CheckReport(name="reduction-alt-fidelity-ratio-bipartite-lower", params=bounds, lhs=50.0, rhs=ratio),
        CheckReport(name="reduction-null-exactness-bipartite", params=point, lhs=null_bip, rhs=1e-12),
    ]
