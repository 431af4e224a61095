"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: the recursive scan
enumerator checks the branch-and-bound exact scan, the model-law evaluator
checks the samplers' target distributions, the same-parent planted law
is the reference for the reduction's kernel-controlled gap, and the
per-block reduction loop is the reference for the vectorised reduction
sampler's counts (v2) and, in law, for its placements (the v1 loop).  The dense-matrix restart scan is the reference
for the sparse heuristic scan's swaps and tie rules, the one-restart-at-a-
time sparse scan for the lockstep one's (value, set), and the per-line
edge-list reader is the reference for every file the array parse reads,
and the string-formatting edge-list writer for every byte the array writer
writes.
The per-mask reduced law is the reference for the exact reduction oracles'
floats, the per-mask planted law for the exact planted laws', the
two-power product law for the product laws', the
count-cube negative-association check for the battery's, and the pair-key
count for its count vectors and their multiplicities.  The float
pair-index inversion the samplers used first is the reference for the
closed-form one at every vertex count where it was exact.  The sweep point
that samples and decides one trial graph at a time is the reference for
`sweep.run_point`'s rows, and membership in a graph's full key array
for `row_marks`' one-slice read.  `pdslab_modules` lists every module
for the surface and module-state checks.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

import pdslab
from pdslab.detectors import H0, H1, ErrorEstimate, scan_statistic, t_lin, tau_lin, tau_scan
from pdslab.errors import EdgeListParseError, InvalidParameterError
from pdslab.graphmodels import (
    BipartiteGraph,
    Graph,
    _parse_ints,
    _SortedKeyGraph,
    _vertex_count,
    gen_er,
    gen_pds_random_size,
)
from pdslab.randkit import Seed, as_seed
from pdslab.reduction import KernelTable, _split_parents, block_pairs, block_routes, regime_classify
from pdslab.theorychecks import CheckReport


def pdslab_modules():
    """The pdslab package and every module in it, imported."""
    yield pdslab
    for info in pkgutil.walk_packages(pdslab.__path__, prefix="pdslab."):
        yield importlib.import_module(info.name)


def recursive_scan_max(g, K: int):
    """Independent densest-K oracle: plain DFS over vertex choices."""
    n = g.num_vertices
    adj = [set() for _ in range(n)]
    for u, v in g.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    best_value = -1
    best_set = None

    def rec(start, chosen, count):
        nonlocal best_value, best_set
        if len(chosen) == K:
            if count > best_value:
                best_value, best_set = count, tuple(chosen)
            return
        for v in range(start, n - (K - len(chosen)) + 1):
            gained = sum(1 for u in chosen if v in adj[u])
            chosen.append(v)
            rec(v + 1, chosen, count + gained)
            chosen.pop()

    if K == 0:
        return 0, ()
    rec(0, [], 0)
    return best_value, best_set


def has_edges(g, u, v) -> np.ndarray:
    """Elementwise edge lookup over broadcast arrays of endpoints, as
    membership among the graph's keys; undirected ends in either order.
    The reference for `row_marks`."""
    u, v = g._orient(np.asarray(u), np.asarray(v))
    height, width = g._dims[0], g._dims[-1]
    # an end out of range would alias another row's key: it queries -1
    inside = (u >= 0) & (u < height) & (v >= 0) & (v < width)
    query = np.where(inside, u * width + v, -1)
    return np.isin(query, g._keys)


def graph_law_tv(law_by_mask: np.ndarray, other: np.ndarray) -> float:
    return 0.5 * float(np.abs(law_by_mask - other).sum())


def all_pair_masks(n: int):
    pairs = list(combinations(range(n), 2))
    return pairs, np.arange(1 << len(pairs), dtype=np.int64)


def same_parent_planted_law(n: int, N: int, p: float, q: float) -> np.ndarray:
    """Law of the full-clique reduction's output with an exact kernel.

    A uniform mixture over the n^N parent assignments of product Bernoulli
    laws over all edge masks: rate q on pairs whose endpoints share a parent
    (the reduction draws those diagonal blocks from Binom(C(l,2), q)) and
    rate p on every other pair (with k = n every parent pair is a clique
    edge).  Its TV to the reduced law is the gap the P' kernel controls.
    """
    pairs, masks = all_pair_masks(N)
    present = ((masks[:, None] >> np.arange(len(pairs))) & 1).astype(bool)
    law = np.zeros(masks.size)
    for assignment in product(range(n), repeat=N):
        rate = np.array([q if assignment[u] == assignment[v] else p for u, v in pairs])
        law += np.where(present, rate, 1.0 - rate).prod(axis=1)
    return law / n**N


def _per_block_laws(g, params, seed):
    """The reduction's parent blocks with at least one slot, from a plain
    loop in draw order (rows s, then columns t >= s, or every t when
    bipartite): (s, t, vs, vt, diagonal, slots, law) for each, vs and vt
    its parts' vertices in ascending order.  Parents come from stream 0 as
    the reduction draws them; walk, routing and slot counts are written out
    here, and only the kernel laws come from the library."""
    n = params.n
    parent_rng = as_seed(seed).child(0).rng()
    bipartite = isinstance(g, BipartiteGraph)
    sides = []
    for _ in range(2 if bipartite else 1):
        parents = parent_rng.integers(0, n, size=params.N)
        sides.append([np.nonzero(parents == s)[0].tolist() for s in range(n)])
    rows, cols = sides[0], sides[-1]
    present = set(map(tuple, g.edges.tolist()))
    table = KernelTable(params.q, params.gamma, params.ell)
    for s in range(n):
        for t in range(0 if bipartite else s, n):
            vs, vt = rows[s], cols[t]
            diagonal = not bipartite and s == t
            slots = math.comb(len(vs), 2) if diagonal else len(vs) * len(vt)
            if slots == 0:
                continue
            if diagonal or max(len(vs), len(vt)) > 2 * params.ell:
                law = table.plain(slots)
            else:
                p_prime, q_prime, _ = table.cell(len(vs) * len(vt))
                law = p_prime if (s, t) in present else q_prime
            yield s, t, vs, vt, diagonal, slots, law


def _count(law, u: float) -> int:
    """A block's count from its uniform: the law's CDF entries <= u."""
    return min(int(np.searchsorted(law.cdf(), u, side="right")), law.max_value)


def per_block_reduce_edges(g, params, seed) -> list:
    """The v1 reduce stream's output edges from a plain loop over parent
    blocks.

    One count draw per block with at least one slot, in draw order, and a
    Floyd placement right after each nonzero count, both from stream 1: a
    count inverts `rng.random()` through the law's CDF, and Floyd's
    algorithm takes `edge_rng.integers(0, i + 1)`, so the reference reads
    numpy's own generator.
    """
    edge_rng = as_seed(seed).child(1).rng()
    edges = []
    for _, _, vs, vt, diagonal, slots, law in _per_block_laws(g, params, seed):
        m = _count(law, edge_rng.random())
        if m == 0:
            continue
        chosen = set()
        for i in range(slots - m, slots):
            pick = int(edge_rng.integers(0, i + 1))
            chosen.add(i if pick in chosen else pick)
        for k in sorted(chosen):
            if diagonal:
                # colex: slot k is the pair (i, j), i < j, with k = C(j, 2) + i
                j = max(j for j in range(len(vs)) if math.comb(j, 2) <= k)
                edges.append((vs[k - math.comb(j, 2)], vs[j]))
            else:
                edges.append((vs[k // len(vt)], vt[k % len(vt)]))
    return edges


def per_block_counts(g, params, seed) -> list:
    """The v2 reduce stream's counts from a plain loop over parent blocks:
    (s, t, count) for every block with a nonzero count, in draw order.

    Stream 1 gives one `rng.random()` per block with at least one slot,
    inverted through the block's law with `np.searchsorted`.
    """
    count_rng = as_seed(seed).child(1).rng()
    counts = [(s, t, _count(law, count_rng.random())) for s, t, *_, law in _per_block_laws(g, params, seed)]
    return [block for block in counts if block[2]]


def block_counts(out, params, seed) -> list:
    """An output graph's edges counted per parent block: (s, t, count) for
    every block with an edge, in draw order.  Each side's parents come from
    stream 0 as the reduction draws them."""
    parent_rng = as_seed(seed).child(0).rng()
    bipartite = isinstance(out, BipartiteGraph)
    parents = [parent_rng.integers(0, params.n, size=params.N) for _ in range(2 if bipartite else 1)]
    u, v = out.edges.T
    s, t = parents[0][u], parents[-1][v]
    if not bipartite:
        s, t = np.minimum(s, t), np.maximum(s, t)
    return [(s, t, c) for (s, t), c in sorted(Counter(zip(s.tolist(), t.tolist())).items())]


def float_pairs_from_flat(n: int, t: np.ndarray) -> np.ndarray:
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


def dense_scan_heuristic(g: Graph, K: int, restarts: int, seed):
    """The restart heuristic scan as first written, over a dense matrix.

    Reference for `t_scan_heuristic`: every swap builds the K x (N-K) gain
    matrix d_v - d_u - A_uv and takes its row-major first argmax, so it
    pins the sparse closed-form swap's tie rules.
    """
    N = g.num_vertices
    if not (1 <= K <= N):
        raise InvalidParameterError(f"need 1 <= K <= N, got K={K}, N={N}")
    if K == 1:
        return 0, (0,)
    if restarts < 1:
        raise InvalidParameterError("need at least one restart")
    A = g.adjacency_matrix().astype(np.int64)
    root = as_seed(seed)
    best_count = -1
    best_set = None
    for r in range(restarts):
        rng = root.child(r).rng()
        in_s = np.zeros(N, dtype=bool)
        in_s[rng.permutation(N)[:K]] = True
        deg_s = A @ in_s
        count = int(deg_s[in_s].sum()) // 2
        while True:
            members = np.nonzero(in_s)[0]
            outside = np.nonzero(~in_s)[0]
            if outside.size == 0:
                break
            gains = deg_s[outside][None, :] - deg_s[members][:, None] - A[np.ix_(members, outside)]
            flat = int(np.argmax(gains))
            gain = int(gains.reshape(-1)[flat])
            if gain <= 0:
                break
            u = int(members[flat // outside.size])
            v = int(outside[flat % outside.size])
            in_s[u] = False
            in_s[v] = True
            deg_s += A[:, v] - A[:, u]
            count += gain
        cand = tuple(int(x) for x in np.nonzero(in_s)[0])
        if count > best_count or (count == best_count and cand < best_set):
            best_count, best_set = count, cand
    return best_count, best_set


def _rows(ptr: np.ndarray, nbrs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The CSR rows of the vertices `vs`, concatenated."""
    starts = ptr[vs]
    lens = ptr[vs + 1] - starts
    ends = lens.cumsum()
    return nbrs[np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)]


def sequential_scan_heuristic(g: Graph, K: int, restarts: int, seed):
    """The restart heuristic scan over CSR adjacency, one restart at a time.

    Reference for the lockstep `t_scan_heuristic`: each restart runs its
    own swap loop to the end before the next one starts.

    Best-of-restarts steepest-ascent 1-swap search for a dense K-subset.

    Always a lower bound on the exact scan statistic.  Restart r starts from
    the first K vertices of a permutation drawn from seed child r, then
    swaps a member u for an outside vertex v while the best gain
    d_v - d_u - A_uv is positive, d being the degree into the set.  Ties go
    to the first member, then to the first outside vertex, in vertex order;
    across restarts the larger count wins, then the smaller set.

    The best swap has a closed form.  With D the largest d outside the set
    and T the outside vertices at D, member u's best gain is D - d_u, less 1
    when u is adjacent to every vertex of T, and its partner is the first
    outside v that maximises d_v - A_uv.  The graph is held as CSR
    adjacency and a swap updates d on N(u) and N(v) only, so memory is
    O(N + M): no N x N or K x (N - K) array is built.
    """
    N = g.num_vertices
    if not (1 <= K <= N):
        raise InvalidParameterError(f"need 1 <= K <= N, got K={K}, N={N}")
    if restarts < 1:
        raise InvalidParameterError("need at least one restart")
    if K == 1:
        return 0, (0,)
    # both directions of every edge; row x is nbrs[ptr[x]:ptr[x + 1]]
    lo, hi = g.edges.T
    heads, nbrs = np.divmod(np.sort(np.concatenate([lo * N + hi, hi * N + lo])), N)
    ptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=N), out=ptr[1:])
    # key[x] is x's degree into the set, less `off` for members: members sit
    # at or below -2 and outside vertices at or above 0
    off = N + 1
    root = as_seed(seed)
    best_count = -1
    best_set = None
    for r in range(restarts):
        start = root.child(r).rng().permutation(N)[:K]
        key = np.bincount(_rows(ptr, nbrs, start), minlength=N)
        count = int(key[start].sum()) // 2
        key[start] -= off
        while True:
            D = key.max()
            u = key.argmin()  # the first member of least degree
            # no swap gains more than D - d_u; with K = N, D is a member's key
            # and this is negative
            gain = int(D - off - key[u])
            if gain <= 0:
                break
            top = key == D
            n_top = np.count_nonzero(top)
            if np.count_nonzero(top[nbrs[ptr[u]:ptr[u + 1]]]) == n_top:
                # u sees all of T, so its gain is one less and a later member
                # may reach more: take the first member of largest row maximum
                members = (key < 0).nonzero()[0]
                sees_top = np.bincount(_rows(ptr, nbrs, top.nonzero()[0]), minlength=N) == n_top
                row_max = (D - off) - key[members] - sees_top[members]
                i = row_max.argmax()
                gain = int(row_max[i])
                if gain <= 0:
                    break
                u = members[i]
            # with u's edges taken off, the first argmax of key is the first
            # outside v maximising d_v - A_uv, since members stay below -1
            key[nbrs[ptr[u]:ptr[u + 1]]] -= 1
            v = key.argmax()
            key[nbrs[ptr[v]:ptr[v + 1]]] += 1
            key[u] += off
            key[v] -= off
            count += gain
        cand = tuple((key < 0).nonzero()[0].tolist())
        if count > best_count or (count == best_count and cand < best_set):
            best_count, best_set = count, cand
    return best_count, best_set


def line_by_line_read_edge_list(path):
    """The edge-list reader as a per-line loop, before the array parse.

    Reference for `read_edge_list`: on any file it must return the same
    graph, or raise the same error at the same line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EdgeListParseError("empty file", 1)
    kinds = {len(cls._DIM_NAMES) + 1: cls for cls in (Graph, BipartiteGraph)}
    cls = kinds.get(len(lines[0].split()))
    if cls is None:
        raise EdgeListParseError("header must be 'N M' or 'Nt Nb M'", 1)
    *dims, m = _parse_ints(lines[0], 1, len(cls._DIM_NAMES) + 1)
    if m < 0:
        raise EdgeListParseError(f"negative edge count {m}", 1)
    if len(lines) - 1 != m:
        raise EdgeListParseError(f"expected {m} edge lines, found {len(lines) - 1}", len(lines) + 1)
    height, width = dims[0], dims[-1]
    rule = "need 0 <= u < v < N" if cls._UNORDERED else "endpoint out of range"
    rows = []
    fault = None
    for line_no, text in enumerate(lines[1:], start=2):
        try:
            u, v = _parse_ints(text, line_no, 2)
            if not (0 <= u < height and 0 <= v < width and (u < v or not cls._UNORDERED)):
                raise EdgeListParseError(f"{rule} in ({u}, {v})", line_no)
        except EdgeListParseError as exc:
            fault = exc
            break
        rows.append((u, v))
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


def format_write_edge_list(g, path) -> None:
    """The edge-list writer as one string format, before the array writer.

    Reference for `write_edge_list`: on any graph it must write the same
    bytes.
    """
    if not isinstance(g, _SortedKeyGraph):
        raise InvalidParameterError(f"cannot serialize {type(g).__name__}")
    header = " ".join(map(str, (*g._dims, g.num_edges)))
    body = ("%d %d\n" * g.num_edges) % tuple(g.edges.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header}\n{body}")


def _per_mask_block_factor(bits: np.ndarray, slot_ids: list, dist) -> np.ndarray:
    m = bits[slot_ids].sum(axis=0, dtype=np.uint8)
    n_slots = len(slot_ids)
    weights = np.array([dist[c] / math.comb(n_slots, c) for c in range(n_slots + 1)])
    return weights[m]


def per_mask_reduced_law(params, graph, bipartite: bool) -> np.ndarray:
    """The exact reduction oracle as first written, one full-width pass per
    block: a bit plane per slot, and every block factor gathered over all
    2^n_slots edge masks and multiplied into the running factor.

    Reference for `theorychecks._reduced_laws`, which must give the same
    floats, byte for byte.  The enumeration caps are left out.
    """
    n, N = params.n, params.N
    if bipartite:
        n_slots = N * N
        slot_of = [[u * N + v for v in range(N)] for u in range(N)]
    else:
        pairs = list(combinations(range(N), 2))
        n_slots = len(pairs)
        slot_of = [[0] * N for _ in range(N)]
        for i, (u, v) in enumerate(pairs):
            slot_of[u][v] = slot_of[v][u] = i
    splits = [_split_parents(np.array(assignment), n) for assignment in product(range(n), repeat=N)]
    sides = list(product(splits, splits)) if bipartite else [(split,) for split in splits]
    weight = 1.0 / len(sides)
    masks = np.arange(1 << n_slots, dtype=np.int64)
    bits = ((masks >> np.arange(n_slots)[:, None]) & 1).astype(np.uint8)
    table = KernelTable(params.q, params.gamma, params.ell)
    law = np.zeros(masks.size)
    for side in sides:
        factor = np.full(masks.size, weight)
        for s, t, slots, route in block_routes([size for _, _, size in side], table, graph):
            for i, count in enumerate(slots.tolist()):
                block = np.full(count, i)
                pairs = block_pairs(side, s[block], t[block], np.arange(count)).tolist()
                factor *= _per_mask_block_factor(
                    bits, [slot_of[u][v] for u, v in pairs], table.law(int(route[i]), count)
                )
        law += factor
    return law


def _per_mask_planted_given_set(masks, pairs, subset, p, q):
    inside = np.array([u in subset and v in subset for u, v in pairs])
    present = np.stack([(masks >> i) & 1 for i in range(len(pairs))], axis=1).astype(bool)
    probs = np.where(
        inside[None, :],
        np.where(present, p, 1.0 - p),
        np.where(present, q, 1.0 - q),
    )
    return probs.prod(axis=1)


def per_mask_planted_law(N: int, size: int, p: float, q: float, fixed: bool) -> np.ndarray:
    """The exact planted laws as first written, over per-mask bit planes:
    with `fixed`, the law given a uniform size-`size` planted set; without,
    the law with independent Bernoulli(size/N) memberships.

    Reference for `theorychecks.pds_fixed_law_exact` and `pds_law_exact`,
    which must give the same floats, byte for byte.  The enumeration cap
    and the domain checks are left out.  It needs N >= 2: with no pair to
    stack, the bit planes cannot be built.
    """
    pairs = list(combinations(range(N), 2))
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    law = np.zeros(masks.size)
    if fixed:
        subsets = list(combinations(range(N), size))
        for subset in subsets:
            law += _per_mask_planted_given_set(masks, pairs, set(subset), p, q)
        return law / len(subsets)
    rho = size / N
    for bits in range(1 << N):
        subset = {v for v in range(N) if bits >> v & 1}
        weight = rho ** len(subset) * (1.0 - rho) ** (N - len(subset))
        law += weight * _per_mask_planted_given_set(masks, pairs, subset, p, q)
    return law


def power_product_law(n_slots: int, rate: float) -> np.ndarray:
    """The product Bernoulli(rate) law as first written: an int64 popcount
    of every mask, grown one bit at a time, raised as two float powers.

    Reference for `theorychecks._product_law`, which must give the same
    floats, byte for byte.
    """
    pop = np.zeros(1, dtype=np.int64)
    for _ in range(n_slots):
        pop = np.concatenate((pop, pop + 1))
    return rate**pop * (1.0 - rate) ** (n_slots - pop)


_CUBE_NA_BATTERY = (
    ("identity", lambda x: x.astype(np.float64)),
    ("square", lambda x: x.astype(np.float64) ** 2),
    ("exp-quadratic", lambda x: np.exp(0.1 * x.astype(np.float64) ** 2)),
    ("threshold-at-2", lambda x: (x >= 2).astype(np.float64)),
)


def count_cube(k: int, S_size: int) -> np.ndarray:
    """The k^2 overlap counts of every pair of ball-in-bin assignments, as
    an (assignments, assignments, k^2) array in row-major pair order."""
    assignments = np.array(list(product(range(k), repeat=S_size)), dtype=np.int64)
    n_assign = assignments.shape[0]
    counts = np.zeros((n_assign, n_assign, k * k), dtype=np.int16)
    for ball in range(S_size):
        cell = assignments[:, ball][:, None] * k + assignments[None, :, ball]
        for c in range(k * k):
            counts[:, :, c] += cell == c
    return counts


def count_cube_negative_association(k: int, S_size: int) -> CheckReport:
    """The negative-association battery as first written: every battery
    function evaluated in float64 over the whole count cube.

    Reference for `check_negative_association`'s lhs and worst function.
    """
    counts = count_cube(k, S_size)
    worst = -math.inf
    worst_fn = None
    for fn_name, fn in _CUBE_NA_BATTERY:
        vals = fn(counts)
        lhs = float(vals.prod(axis=2).mean())
        rhs = float(vals.reshape(-1, k * k).mean(axis=0).prod())
        if lhs - rhs > worst:
            worst = lhs - rhs
            worst_fn = fn_name
    return CheckReport(
        name="negative-association-battery",
        params={"k": k, "S_size": S_size, "worst_fn": worst_fn},
        lhs=worst,
        rhs=0.0,
    )


def unique_key_multiplicities(k: int, S_size: int) -> tuple:
    """(count vectors, multiplicities) of the overlap counts of every pair of
    ball-in-bin assignments, by the pair-key step the negative-association
    battery first used: each pair's k^2 counts are the base-(S_size+1)
    digits of one integer key, and `np.unique` sorts and counts the keys.

    Reference for the enumerated count vectors, which must come out in the
    same order with the same multiplicities.
    """
    assignments = np.array(list(product(range(k), repeat=S_size)), dtype=np.int64)
    # a ball in cell (a, b) adds base^(a*k + b) = base^(a*k) * base^b to the key
    base = S_size + 1
    row_digit = base ** (k * np.arange(k, dtype=np.int64))
    col_digit = base ** np.arange(k, dtype=np.int64)
    keys = row_digit[assignments] @ col_digit[assignments].T
    distinct, mult = np.unique(keys, return_counts=True)
    return distinct[:, None] // base ** np.arange(k * k, dtype=np.int64) % base, mult


def per_graph_run_point(config, index: int, alpha: float, beta: float) -> dict:
    """One sweep row as first written: every trial graph is sampled, then
    decided by the configured rule before the next one is drawn, and each
    heuristic scan runs on its own.

    Reference for `sweep.run_point`, which must give the same row.
    """
    params = config.point_params(alpha, beta)
    point_seed = Seed(config.master_seed).child(17).child(index)
    t1 = tau_lin(params)
    t2 = tau_scan(params.K, params.p, params.q)
    scan_seed_root = point_seed.child(23)

    def scan_value(g):
        seed = scan_seed_root.child(g.fingerprint())
        return scan_statistic(g, params.K, config.scan_mode, config.restarts, seed)[0]

    if config.test == "lin":
        test = lambda g: H1 if t_lin(g) > t1 else H0  # noqa: E731
    elif config.test == "scan":
        test = lambda g: H1 if scan_value(g) > t2 else H0  # noqa: E731
    else:
        test = lambda g: H1 if (t_lin(g) > t1 or scan_value(g) > t2) else H0  # noqa: E731
    trials = config.trials
    null_root = point_seed.child(0)
    alt_root = point_seed.child(1)
    false_alarms = [test(gen_er(params.N, params.q, null_root.child(i))) == H1 for i in range(trials)]
    misses = [test(gen_pds_random_size(params, alt_root.child(i)).graph) == H0 for i in range(trials)]
    estimate = ErrorEstimate.from_rates(sum(false_alarms) / trials, sum(misses) / trials, trials)
    return {
        "alpha": alpha,
        "beta": beta,
        "N": params.N,
        "K": params.K,
        "q": params.q,
        "p": params.p,
        "test": config.test,
        "scan_mode": config.scan_mode,
        "type1": estimate.type1,
        "type2": estimate.type2,
        "trials": config.trials,
        "seed": point_seed.key(),
        "regime": regime_classify(alpha, beta),
    }


@pytest.fixture
def tmp_graph_file(tmp_path):
    def write(text, name: str = "g.txt"):
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        return str(path)

    return write
