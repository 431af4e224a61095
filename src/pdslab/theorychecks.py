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

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable

import numpy as np

from .errors import (
    InvalidParameterError,
    PreconditionViolationError,
    TooLargeError,
)
from .graphmodels import BipartiteGraph, Graph
from .randkit import Pmf, binom_pmf, hyper_pmf, tv_distance
from .reduction import (
    ReductionParams,
    _kernel_laws,
    _split_parents,
    block_pairs,
    block_routes,
    build_pprime,
    m0_of,
)

__all__ = [
    "CheckReport",
    "CHECK_TOL",
    "check_mixture_identity",
    "check_pprime_tv",
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


def default_kernel_grid(
    sizes: Iterable[int] = range(1, 7),
    qs: Iterable[float] = (1e-3, 1e-2),
    gammas: Iterable[float] = (0.5, 0.25),
):
    """The standard (ls, lt, q, gamma, ell) grid with ell = max(ls, lt),
    filtered by the validity condition 16 q ell^2 <= 1."""
    grid = []
    sizes = list(sizes)
    for ls, lt, q, gamma in product(sizes, sizes, qs, gammas):
        ell = max(ls, lt)
        if 16.0 * q * ell**2 <= 1.0:
            grid.append((ls, lt, q, gamma, ell))
    return grid


def check_mixture_identity(grid) -> list:
    """Pointwise deviation of (1-gamma) Q' + gamma P' from Binom(ls*lt, q)."""
    reports = []
    for ls, lt, q, gamma, _ell in grid:
        p_prime, q_prime, _ = _kernel_laws(ls, lt, q, gamma)
        target = binom_pmf(ls * lt, q)
        mix = (1.0 - gamma) * q_prime.probs + gamma * p_prime.probs
        deviation = float(np.max(np.abs(mix - target.probs)))
        reports.append(
            CheckReport(
                name="kernel-mixture-identity",
                params={"ls": ls, "lt": lt, "q": q, "gamma": gamma},
                lhs=deviation,
                rhs=1e-12,
            )
        )
    return reports


def check_pprime_tv(grid) -> list:
    """tv(P', Binom(ls*lt, 2q)) against the 4 (8 q ell^2)^(m0+1) bound."""
    reports = []
    for ls, lt, q, gamma, ell in grid:
        p_prime, _ = build_pprime(ls, lt, q, gamma)
        target = binom_pmf(ls * lt, 2.0 * q)
        bound = 4.0 * (8.0 * q * ell**2) ** (m0_of(gamma) + 1)
        reports.append(
            CheckReport(
                name="kernel-pprime-tv",
                params={"ls": ls, "lt": lt, "q": q, "gamma": gamma, "ell": ell},
                lhs=tv_distance(p_prime, target),
                rhs=bound,
            )
        )
    return reports


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


def _popcount(n_bits: int) -> np.ndarray:
    """Number of set bits of every integer in range(2^n_bits)."""
    pop = np.zeros(1, dtype=np.int64)
    for _ in range(n_bits):
        # setting the next bit adds one to the count of every lower value
        pop = np.concatenate((pop, pop + 1))
    return pop


def _product_law(n_slots: int, rate: float) -> np.ndarray:
    """Product Bernoulli(rate) law over all 2^n_slots edge masks, by mask."""
    pop = _popcount(n_slots)
    return rate**pop * (1.0 - rate) ** (n_slots - pop)


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
    """Sum over (weight, set) of weight times the law given the set: a
    chain of factors [1-r, r] in pair order, pair i on axis n_pairs-1-i and
    r = p on pairs inside the set, q elsewhere."""
    pairs, n_pairs = _graph_space(N)
    law = np.zeros((2,) * n_pairs)
    for weight, subset in weighted_sets:
        given = 1.0
        for i, (u, v) in enumerate(pairs):
            r = p if u in subset and v in subset else q
            given = given * _slot_tensor(n_pairs, [i], np.array([1.0 - r, r]))
        law += weight * given
    return law.reshape(-1)


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


def check_negative_association(k: int, S_size: int) -> CheckReport:
    """Product-form bound for overlap counts of two independent uniform
    ball-in-bin assignments, checked exhaustively on a fixed battery of
    non-decreasing functions.  A finite battery can only falsify the
    property, never prove it; the report records the worst violation.

    An assignment pair's k^2 overlap counts, each in 0..S_size, are the
    base-(S_size+1) digits of one integer key, so each battery function is
    evaluated, and its product over the cells taken in cell order, once per
    distinct count vector (3,003 of the 531,441 pairs at k = 3,
    S_size = 6).  Both means still run over the pairs in row-major order:
    the products are gathered back to the pairs before their mean, and
    each cell's mean is a row-order sum gathered a chunk of pairs at a
    time.  The floats are those of the full pair x cell table, which is
    never held."""
    if k < 1 or S_size < 1:
        raise InvalidParameterError("need k >= 1 and S_size >= 1")
    if k > 3 or S_size > 6:
        raise TooLargeError("exhaustive check capped at k <= 3, S_size <= 6")
    assignments = np.array(list(product(range(k), repeat=S_size)), dtype=np.int64)
    # a ball in cell (a, b) adds base^(a*k + b) = base^(a*k) * base^b to the key
    base = S_size + 1
    row_digit = base ** (k * np.arange(k, dtype=np.int64))
    col_digit = base ** np.arange(k, dtype=np.int64)
    keys = row_digit[assignments] @ col_digit[assignments].T
    distinct, inverse = np.unique(keys.reshape(-1), return_inverse=True)
    counts = distinct[:, None] // base ** np.arange(k * k, dtype=np.int64) % base
    levels = np.arange(S_size + 1)
    # every battery function's cell values side by side, one row per vector
    table = np.concatenate([fn(levels)[counts] for _, fn in _NA_BATTERY], axis=1)
    # each column's sum over the pairs in row order, as mean(axis=0) over the
    # whole pair table takes it, with the running sums carried from chunk
    # to chunk in the first row
    n_pairs = inverse.size
    chunk_rows = 1 << 15
    chunk = np.zeros((1 + chunk_rows, table.shape[1]))
    for start in range(0, n_pairs, chunk_rows):
        idx = inverse[start : start + chunk_rows]
        table.take(idx, axis=0, out=chunk[1 : 1 + idx.size])
        chunk[0] = chunk[: 1 + idx.size].sum(axis=0)
    cell_means = (chunk[0] / n_pairs).reshape(len(_NA_BATTERY), k * k)
    products = table.reshape(-1, len(_NA_BATTERY), k * k).prod(axis=2)
    worst = -math.inf
    worst_fn = None
    for (fn_name, _), fn_products, means in zip(_NA_BATTERY, products.T, cell_means):
        lhs = float(fn_products[inverse].mean())
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


def _slot_tensor(n_slots: int, slot_ids: list, values: np.ndarray) -> np.ndarray:
    """`values` over the given slots' bits as a tensor that broadcasts
    against a law: slot i is axis n_slots-1-i, of length 2 for the given
    slots and 1 for every other."""
    shape = [1] * n_slots
    for slot in slot_ids:
        shape[n_slots - 1 - slot] = 2
    return values.reshape(shape)


def _block_factor(n_slots: int, slot_ids: list, dist: Pmf) -> np.ndarray:
    """Probability factor of one block as a slot tensor: the block's count
    law divided by the number of uniform placements.  The factor depends on
    the block's bits through their sum alone, so the order of its axes is
    free."""
    k = len(slot_ids)
    weights = np.array([dist[c] / math.comb(k, c) for c in range(k + 1)])
    return _slot_tensor(n_slots, slot_ids, weights[_popcount(k)])


def _reduced_law(params: ReductionParams, graph, bipartite: bool) -> np.ndarray:
    """Exact output law of the reduction as a vector over all edge masks.

    Sums over every parent assignment (of both sides for a bipartite
    graph); the blocks, their count laws and their slots come from the
    samplers' own `block_routes` and `block_pairs`.  `graph` is the input
    graph `block_routes` takes, None for an Erdos-Renyi(gamma) input.

    The law is held as a tensor of shape (2,)*n_slots with slot i on axis
    n_slots-1-i, so its C-order flattening is the mask order.  Each
    assignment's factor starts as the scalar weight and takes one block
    tensor at a time, so it grows to full size only with the blocks that
    span the last axes.  Every mask still takes the weight and then each
    block's factor in `block_routes` order, the order of a per-mask
    product, so the floats do not depend on the layout.
    """
    n, N = params.n, params.N
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
    # each assignment's parent split, and each part's vertex set as a bit mask
    assignments = []
    for assignment in product(range(n), repeat=N):
        masks = [0] * n
        for vertex, parent in enumerate(assignment):
            masks[parent] |= 1 << vertex
        assignments.append((_split_parents(np.array(assignment), n), masks))
    sides = list(product(assignments, repeat=2)) if bipartite else [(a,) for a in assignments]
    weight = 1.0 / len(sides)
    table = params.kernel_table
    # the routed blocks depend only on the part sizes, and a block's tensor
    # only on its two parts and its route (within one call, equal parts on
    # both sides of a unipartite graph mean the diagonal); many assignments
    # share each
    routes, block_tensors = {}, {}
    # the caps keep n_slots at 25 or below, inside numpy's 32-axis limit
    law = np.zeros((2,) * n_slots)
    for side in sides:
        splits = [split for split, _ in side]
        sizes = tuple(tuple(size.tolist()) for _, _, size in splits)
        if sizes not in routes:
            routes[sizes] = list(block_routes([size for _, _, size in splits], table, graph))
        row_masks, col_masks = side[0][1], side[-1][1]
        factor = weight
        for s, t, _, slots, route in routes[sizes]:
            rows, cols = [row_masks[i] for i in s.tolist()], [col_masks[i] for i in t.tolist()]
            keys = list(zip(rows, cols, route.tolist()))
            new = [i for i, key in enumerate(keys) if key not in block_tensors]
            if new:
                # every slot of the new blocks, laid out in one call
                counts = slots[new]
                offsets = np.cumsum(counts) - counts
                idx = np.arange(int(counts.sum())) - np.repeat(offsets, counts)
                pairs = block_pairs(splits, np.repeat(s[new], counts), np.repeat(t[new], counts), idx)
                ids = slot_of[pairs[:, 0], pairs[:, 1]].tolist()
                for i, lo, count in zip(new, offsets.tolist(), counts.tolist()):
                    dist = table.law(int(route[i]), count)
                    block_tensors[keys[i]] = _block_factor(n_slots, ids[lo : lo + count], dist)
            for key in keys:
                factor = factor * block_tensors[key]
        law += factor
    return law.reshape(-1)


def _tv(law: np.ndarray, target: np.ndarray) -> float:
    """Total variation distance between two laws over the same edge masks."""
    return 0.5 * float(np.abs(law - target).sum())


def reduced_law_exact(g_in: Graph, params: ReductionParams) -> np.ndarray:
    """Exact output law of the reduction for one fixed input graph, as a
    vector over all 2^C(N,2) edge masks.  Sums over every parent
    assignment; only viable for tiny n and ell."""
    if g_in.num_vertices != params.n:
        raise InvalidParameterError("input graph size does not match params.n")
    return _reduced_law(params, g_in, bipartite=False)


def reduction_null_tv_exact(params: ReductionParams) -> float:
    """Exact TV between the reduced law of an Erdos-Renyi(gamma) input and
    the target null G(N, q).

    Input edges are independent, and each off-diagonal block consumes a
    distinct input edge, so mixing over the input replaces each block law
    by (1-gamma) Q' + gamma P' analytically; no input enumeration needed.
    """
    return _tv(_reduced_law(params, None, bipartite=False), er_law_exact(params.N, params.q))


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
    n = params.n
    complete = Graph(n, list(combinations(range(n), 2)))
    law = reduced_law_exact(complete, params)
    return _tv(law, pds_law_exact(params.N, params.K, params.p, params.q))


def reduction_null_tv_bipartite_exact(params: ReductionParams) -> float:
    """Bipartite analogue of the null exactness oracle (same analytic
    mixing over input edges; every block is off-diagonal)."""
    law = _reduced_law(params, None, bipartite=True)
    return _tv(law, _product_law(params.N**2, params.q))


def reduction_alt_tv_bipartite_exact(params: ReductionParams) -> float:
    """Exact TV between the bipartite reduced law of a full bi-clique
    input (k = n) and the target planted law with K = N per side.  With no
    diagonal blocks, the whole gap comes from the modified kernel, so this
    trend isolates the (8 q ell^2)^(m0+1) term."""
    if params.k != params.n:
        raise InvalidParameterError("the exact bipartite alternative oracle needs k = n")
    n = params.n
    complete = BipartiteGraph(n, n, list(product(range(n), repeat=2)))
    law = _reduced_law(params, complete, bipartite=True)
    return _tv(law, _product_law(params.N**2, params.p))


# ---------------------------------------------------------------------------
# batteries (what `phaselab verify` runs)
# ---------------------------------------------------------------------------


def battery_kernel() -> list:
    grid = default_kernel_grid()
    return check_mixture_identity(grid) + check_pprime_tv(grid)


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
    reports = []
    params = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.01)
    reports.append(
        CheckReport(
            name="reduction-null-exactness",
            params={"n": 2, "ell": 2, "gamma": 0.5, "q": 0.01},
            lhs=reduction_null_tv_exact(params),
            rhs=1e-12,
        )
    )
    # the reduced alternative law tightens as q shrinks; the O(q^2) kernel
    # scaling is only isolated in the bipartite variant (no diagonal blocks)
    params_lo = ReductionParams(n=2, k=2, gamma=0.5, ell=2, q=0.001)
    tv_hi = reduction_alt_tv_exact(params)
    tv_lo = reduction_alt_tv_exact(params_lo)
    reports.append(
        CheckReport(
            name="reduction-alt-tv-decreasing",
            params={"q_hi": 0.01, "q_lo": 0.001, "tv_hi": tv_hi, "tv_lo": tv_lo},
            lhs=tv_lo,
            rhs=tv_hi,
        )
    )
    bip_hi = reduction_alt_tv_bipartite_exact(params)
    bip_lo = reduction_alt_tv_bipartite_exact(params_lo)
    ratio = bip_hi / bip_lo
    reports.append(
        CheckReport(
            name="reduction-alt-fidelity-ratio-bipartite-upper",
            params={"q_hi": 0.01, "q_lo": 0.001, "ratio": ratio},
            lhs=ratio,
            rhs=200.0,
        )
    )
    reports.append(
        CheckReport(
            name="reduction-alt-fidelity-ratio-bipartite-lower",
            params={"q_hi": 0.01, "q_lo": 0.001, "ratio": ratio},
            lhs=50.0,
            rhs=ratio,
        )
    )
    reports.append(
        CheckReport(
            name="reduction-null-exactness-bipartite",
            params={"n": 2, "ell": 2, "gamma": 0.5, "q": 0.01},
            lhs=reduction_null_tv_bipartite_exact(params),
            rhs=1e-12,
        )
    )
    return reports
