"""Reference methods the cut-based GA is compared against.

* run_ega: a GA over edge masks (gene i set = edge i intercellular), run by
  the cut GA's engine (``ga.evolve``); only the encoding (``_EdgeEncoding``:
  a (pop, E) bool array, one-point crossover of a one-part chain, one bit
  flip, no canonical form) differs. Fitness is measured on the decoded
  partition, so values are comparable across methods even when a mask
  marks edges that do not actually separate anything.
* run_multikmeans: Lloyd's k-means on the traffic-matrix rows for every
  k in [ceil(m/N), m-1], keeping the best feasible clustering; the Lloyd
  loop runs in kernel form on a Gram matrix built once per call.
* exhaustive_oracle: exact minimum-traffic feasible partition by
  enumerating restricted-growth strings (guarded to m <= 12).
"""

from __future__ import annotations

import numpy as np

from .evaluation import Evaluation, PopulationEvaluator
from .ga import Encoding, GAParams, GAResult, compute_k, cut_points, \
    evolve, make_rng
from .instance import Instance

_ORACLE_GUARD = 12


class _EdgeEncoding(Encoding):
    """EGA: a bool row with column i set when edge i is intercellular."""

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.edges = self.evaluator.graph.edge_count

    def capacity(self, size: int) -> int:
        return 1 << self.edges

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(0, 2, (n, self.edges), dtype=bool)

    def crossover(self, a: np.ndarray, b: np.ndarray,
                  rng: np.random.Generator):
        """One-point crossover at any of the E - 1 gaps (a one-part chain):
        the first child takes the edges before the cut from a, the rest
        from b; the second child is its complement."""
        mask = np.arange(self.edges) < cut_points(rng, self.edges,
                                                  len(a))[:, None]
        diff = (a ^ b) & mask
        return b ^ diff, a ^ diff

    def mutate(self, rows: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Flip one uniformly chosen bit of each row."""
        n = len(rows)
        rows[np.arange(n), rng.integers(0, self.edges, n)] ^= True
        return rows

    def evaluate(self, population: np.ndarray):
        return self.evaluator.evaluate_keeps(~population)

    def public(self, row: np.ndarray) -> int:
        return int.from_bytes(np.packbits(row, bitorder="little"), "little")


def run_ega(inst: Instance, params: GAParams) -> GAResult:
    """Edge-encoding GA on the engine of run_ga (``ga.evolve``): one-point
    bit crossover, single bit-flip mutation, no canonical form.
    params.variant is ignored. Deterministic per seed.
    """
    return evolve(_EdgeEncoding, inst, params)


def _nearest(d2: np.ndarray, points: np.ndarray, sq_norms: np.ndarray,
             c_norms: np.ndarray, centroids) -> np.ndarray:
    """Nearest centroid per point, as the direct sum of (x - c)^2 picks it.

    ``d2`` holds the screened distances |c|^2 - 2 x.c, which leave out
    each row's |x|^2. A row whose best centroids lie within rounding error
    of each other is settled on exact differences against
    ``centroids(candidates)`` (first index on ties); its candidates always
    include its exact nearest centroid.
    """
    assign = d2.argmin(axis=1)
    # far above the rounding error of either form for any practical m
    slack = 1e-9 * (sq_norms + c_norms.max())
    close = d2 <= (d2[np.arange(len(d2)), assign] + slack)[:, None]
    for row in np.flatnonzero(close.sum(axis=1) > 1):
        tied = np.flatnonzero(close[row])
        exact = ((points[row] - centroids(tied)) ** 2).sum(axis=1)
        assign[row] = tied[exact.argmin()]
    return assign


def _lloyd(points: np.ndarray, gram: np.ndarray, sq_norms: np.ndarray,
           k: int, rng: np.random.Generator) -> np.ndarray:
    """Euclidean k-means to an assignment fixpoint (cap 100 iterations), in
    kernel form over ``gram`` = points . points^T and ``sq_norms`` = |x|^2.

    Centroids start on k distinct rows drawn by ``rng.choice``; an empty
    cluster is re-seeded on the row farthest from its assigned centroid.
    The loop multiplies no matrices: x . c_j is the mean of x's Gram
    entries with the members of cluster j, and |c_j|^2 the members' mean
    of x . c_j. Explicit centroids are built, bit-identical to per-cluster
    means, only when a row is settled on exact differences or a cluster is
    re-seeded. Memory is O(m * k) beyond ``gram``, and every choice is the
    one exact differences (x - c)^2 would make.
    """
    m = len(points)
    seeds = rng.choice(m, k, replace=False)
    # x . c_j, |c_j|^2 and c_j; a stale c_j is its members' mean, unbuilt
    cross, c_norms, centroids = gram[:, seeds], sq_norms[seeds], \
        points[seeds]
    stale = np.zeros(k, dtype=bool)
    rows = np.arange(m)
    bins = rows[:, None] * k
    assign = counts = None

    def built(clusters: np.ndarray) -> np.ndarray:
        if stale.any():
            # bincount adds each cluster's rows in index order, as mean()
            # does, so the centroids are bit-identical to per-cluster means
            sums = np.bincount((assign[:, None] * m + rows).ravel(),
                               weights=points.ravel(),
                               minlength=k * m).reshape(k, m)
            centroids[stale] = sums[stale] / counts[stale, None]
            stale[:] = False
        return centroids[clusters]

    for _ in range(100):
        d2 = c_norms - 2.0 * cross
        new_assign = _nearest(d2, points, sq_norms, c_norms, built)
        for _ in range(k):
            empty = np.flatnonzero(np.bincount(new_assign, minlength=k) == 0)
            if not len(empty):
                break
            dist = ((points - built(new_assign)) ** 2).sum(axis=1)
            j, far = empty[0], int(dist.argmax())
            centroids[j], cross[:, j], c_norms[j] = \
                points[far], gram[:, far], sq_norms[far]
            d2[:, j] = c_norms[j] - 2.0 * cross[:, j]
            new_assign = _nearest(d2, points, sq_norms, c_norms, built)
        if assign is not None and (new_assign == assign).all():
            break
        # a cluster left unfilled keeps its centroid: re-seeding, which
        # ran, built every stale one
        assign, counts = new_assign, np.bincount(new_assign, minlength=k)
        filled = counts > 0
        # each cluster's Gram entries are summed in its members' index order
        sums = np.bincount((bins + assign).ravel(),
                           weights=gram.ravel(),
                           minlength=m * k).reshape(m, k)
        cross[:, filled] = sums[:, filled] / counts[filled]
        c_norms[filled] = np.bincount(
            assign, weights=cross[rows, assign],
            minlength=k)[filled] / counts[filled]
        stale |= filled
    return assign


def run_multikmeans(inst: Instance, restarts: int = 1,
                    seed: int = 0) -> Evaluation | None:
    """Cluster traffic-matrix rows for every k in [ceil(m/N), m-1].

    Returns the best feasible clustering over all k values and restarts (the
    first one met, restarts outer and k ascending, among those with the
    least traffic), or None when every clustering violates a constraint
    (UF). Clusterings are scored as cell labels
    (``PopulationEvaluator.evaluate_labels``), so a cluster that is
    disconnected in the flow graph counts as its connected pieces. Each
    restart's clusterings are scored as one batch as soon as they are
    drawn, in the narrowest unsigned type that holds every label (k < m).
    The batch's top ``EvalBatch.rank`` is its first least-traffic feasible
    row when it has one; it is kept only when feasible and of a rank above
    the best so far, so memory does not grow with ``restarts``. The Gram
    matrix of the traffic rows is the call's one matrix product: it is
    built once and every k and restart runs ``_lloyd`` on it. Every draw
    comes from ``ga.make_rng(seed)``, as in the GAs, so a negative seed
    has its own stream.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    m = inst.machine_count
    ks = range(compute_k(m, inst.max_cell_size), m)
    if not ks:
        return None
    evaluator = PopulationEvaluator(inst)
    # traffic-matrix rows, read off the graph (its other edges weigh 0);
    # int true division rounds each exact weight once, as float() does
    g = evaluator.graph
    points = np.zeros((m, m))
    points[g.u, g.v] = points[g.v, g.u] = [w / g.scale for w in g.units]
    # scaled by a power of two, exactly, so no clustering changes and no
    # squared flow overflows
    points = np.ldexp(points, -np.frexp(points.max())[1])
    gram = points @ points.T
    sq_norms = (points ** 2).sum(axis=1)
    rng = make_rng(seed)
    best = None
    for _ in range(restarts):
        batch = evaluator.evaluate_labels(np.array(
            [_lloyd(points, gram, sq_norms, k, rng) for k in ks],
            dtype=np.min_scalar_type(m - 1)))
        i = batch.rank.argmax()
        if batch.violations[i] == 0 and (
                best is None or batch.rank[i] > best[0].rank[best[1]]):
            best = batch, i
    return None if best is None else evaluator.result(*best)


def exhaustive_oracle(inst: Instance) -> Evaluation | None:
    """Exact optimum by enumerating set partitions (restricted-growth form).

    Branches that would oversize a cell or break a cohabit/separate pair are
    pruned (this never removes a feasible partition), as are branches whose
    accumulated traffic already exceeds the best found. Returns None when no
    feasible partition exists. Guarded to m <= 12. The optimum's labels are
    scored by ``PopulationEvaluator.evaluate_labels``.
    """
    m = inst.machine_count
    if m > _ORACLE_GUARD:
        raise ValueError(
            f"machine count {m} exceeds the exhaustive-search guard "
            f"({_ORACLE_GUARD})")
    evaluator = PopulationEvaluator(inst)
    max_size = inst.max_cell_size

    # branch sums run on the evaluator's exact integer weight units
    prior_weighted: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    g = evaluator.graph
    for a, b, w in zip(g.u, g.v, g.units):
        if w:
            prior_weighted[b].append((a, w))
    sc_before: list[list[int]] = [[] for _ in range(m)]
    sn_before: list[list[int]] = [[] for _ in range(m)]
    for a, b in inst.cohabit:
        sc_before[b].append(a)
    for a, b in inst.separate:
        sn_before[b].append(a)

    labels = [0] * m
    counts = [0] * m
    best_traffic: int | None = None
    best_labels: list[int] | None = None

    def assign(v: int, used: int, partial: int):
        nonlocal best_traffic, best_labels
        if best_traffic is not None and partial > best_traffic:
            return
        if v == m:
            if best_traffic is None or partial < best_traffic:
                best_traffic = partial
                best_labels = labels.copy()
            return
        forced = {labels[a] for a in sc_before[v]}
        if len(forced) > 1:
            return
        banned = {labels[a] for a in sn_before[v]}
        candidates = range(used + 1) if not forced else sorted(forced)
        for lab in candidates:
            if lab in banned:
                continue
            new = lab == used
            if not new and counts[lab] >= max_size:
                continue
            delta = sum(w for a, w in prior_weighted[v] if labels[a] != lab)
            labels[v] = lab
            counts[lab] += 1
            assign(v + 1, used + 1 if new else used, partial + delta)
            counts[lab] -= 1

    assign(0, 0, 0)
    if best_labels is None:
        return None
    batch = evaluator.evaluate_labels(np.array([best_labels]))
    return evaluator.result(batch, 0)
