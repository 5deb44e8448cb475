"""Reference methods the cut-based GA is compared against.

* run_ega: a GA over raw edge bit strings (1 = intercellular). Same
  selection, elitism and penalty fitness as the cut GA; only the encoding
  differs. Fitness is measured on the decoded partition, so values are
  comparable across methods even when a mask marks edges that do not
  actually separate anything.
* run_multikmeans: Lloyd's k-means on the traffic-matrix rows for every
  k in [ceil(m/N), m-1], keeping the best feasible clustering.
* exhaustive_oracle: exact minimum-traffic feasible partition by
  enumerating restricted-growth strings (guarded to m <= 12).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cuts import bits_from_mask, decode_partition, partition_from_labels
from .evaluation import Evaluation, PopulationEvaluator, evaluate_partition, \
    make_fitness_config
from .flowgraph import build_graph, compute_traffic
from .ga import GAParams, GAResult, compute_k, roulette_select
from .instance import Instance

_ORACLE_GUARD = 12


@dataclass(frozen=True)
class EdgeChromosome:
    """Edge mask individual: bit i marks edge i as intercellular."""

    edge_mask: int
    edge_count: int

    def bits(self) -> tuple[int, ...]:
        return bits_from_mask(self.edge_mask, self.edge_count)


def _random_mask_row(rng: random.Random, ecount: int) -> np.ndarray:
    """Uniform 0/1 row of length ecount from one getrandbits draw."""
    raw = rng.getrandbits(ecount).to_bytes((ecount + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")
    return bits[:ecount]


def run_ega(inst: Instance, params: GAParams) -> GAResult:
    """Edge-encoding GA: one-point bit crossover, single bit-flip mutation.

    Shares the generational scheme of run_ga (roulette mating share, random
    top-up, mutation, elite reinserted over the worst). Deterministic per
    seed.
    """
    t0 = time.perf_counter()
    g = build_graph(inst)
    cfg = make_fitness_config(g, inst, params.tuning, params.gamma)
    rng = random.Random(params.seed)
    evaluator = PopulationEvaluator(g, inst, cfg)
    ecount = g.edge_count
    size = params.population_size
    if size > 2 ** ecount:
        raise ValueError(
            f"population size {size} exceeds the {2 ** ecount} distinct "
            f"edge masks")

    population: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(population) < size:
        if attempts >= 1000 * size:
            raise RuntimeError(
                f"could not draw {size} distinct edge masks; the graph is "
                f"too small for this population size")
        attempts += 1
        row = _random_mask_row(rng, ecount)
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        population.append(row)

    def eval_population(pop: list[np.ndarray]):
        matrix = np.stack(pop)
        return evaluator.evaluate_keeps(matrix == 0)

    batch = eval_population(population)
    best_idx = int(batch.fitness_units.argmax())
    best_units = batch.fitness_units[best_idx]
    best_row = population[best_idx]

    n_mate = round(params.crossover_rate * size)
    if n_mate % 2:
        n_mate -= 1
    n_mutate = round(params.mutation_rate * size)
    history = []

    for _ in range(params.generations):
        elite_idx = int(batch.fitness_units.argmax())
        elite = population[elite_idx]
        elite_units = batch.fitness_units[elite_idx]

        weights = evaluator.selection_weights(batch.fitness_units)
        parents = roulette_select(population, weights.tolist(), n_mate, rng)
        nxt: list[np.ndarray] = []
        for i in range(0, n_mate, 2):
            a, b = parents[i], parents[i + 1]
            if ecount < 2:
                nxt.extend((a.copy(), b.copy()))
                continue
            cut = rng.randrange(1, ecount)
            nxt.append(np.concatenate((a[:cut], b[cut:])))
            nxt.append(np.concatenate((b[:cut], a[cut:])))
        while len(nxt) < size:
            nxt.append(_random_mask_row(rng, ecount))
        for idx in rng.sample(range(size), n_mutate):
            row = nxt[idx].copy()
            row[rng.randrange(ecount)] ^= 1
            nxt[idx] = row

        population = nxt
        batch = eval_population(population)
        worst = int(batch.fitness_units.argmin())
        population[worst] = elite
        batch.fitness_units[worst] = elite_units

        gen_best = int(batch.fitness_units.argmax())
        if batch.fitness_units[gen_best] > best_units:
            best_units = batch.fitness_units[gen_best]
            best_row = population[gen_best]
        history.append(evaluator.to_fraction(best_units))

    mask = int(sum(1 << i for i, b in enumerate(best_row) if b))
    partition = decode_partition(g, mask)
    best_eval = evaluate_partition(g, inst, partition, cfg)
    return GAResult(EdgeChromosome(mask, ecount), best_eval, history,
                    time.perf_counter() - t0, best_eval.feasible)


def _sq_distances(points: np.ndarray, sq_norms: np.ndarray,
                  centroids: np.ndarray) -> np.ndarray:
    """(m, k) squared distances screened as |x|^2 - 2 x.c + |c|^2."""
    return sq_norms[:, None] - 2.0 * (points @ centroids.T) \
        + (centroids ** 2).sum(axis=1)


def _nearest(d2: np.ndarray, points: np.ndarray, sq_norms: np.ndarray,
             centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per point, as the direct sum of (x - c)^2 picks it.

    ``d2`` holds the screened distances. A row whose best centroids lie
    within rounding error of each other is settled on exact differences
    (first index on ties); its candidates always include its exact
    nearest centroid.
    """
    # far above the rounding error of either form for any practical m
    slack = 1e-9 * (sq_norms + (centroids ** 2).sum(axis=1).max())
    close = d2 <= (d2.min(axis=1) + slack)[:, None]
    assign = close.argmax(axis=1)
    for row in np.flatnonzero(close.sum(axis=1) > 1):
        tied = np.flatnonzero(close[row])
        exact = ((points[row] - centroids[tied]) ** 2).sum(axis=1)
        assign[row] = tied[exact.argmin()]
    return assign


def _lloyd(points: np.ndarray, k: int, rng: random.Random) -> np.ndarray:
    """Euclidean k-means to an assignment fixpoint (cap 100 iterations).

    Centroids start on k distinct rows; an empty cluster is re-seeded on the
    row farthest from its assigned centroid. Memory is O(m * k), and every
    choice is the one exact differences (x - c)^2 would make.
    """
    m = len(points)
    sq_norms = (points ** 2).sum(axis=1)
    columns = np.arange(m)
    centroids = points[rng.sample(range(m), k)].copy()
    assign = None
    for _ in range(100):
        d2 = _sq_distances(points, sq_norms, centroids)
        new_assign = _nearest(d2, points, sq_norms, centroids)
        for _ in range(k):
            counts = np.bincount(new_assign, minlength=k)
            empty = np.flatnonzero(counts == 0)
            if not len(empty):
                break
            dist = ((points - centroids[new_assign]) ** 2).sum(axis=1)
            centroids[empty[0]] = points[int(dist.argmax())]
            d2[:, empty[0]] = _sq_distances(
                points, sq_norms, centroids[empty[0]][None, :])[:, 0]
            new_assign = _nearest(d2, points, sq_norms, centroids)
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        # bincount adds each cluster's rows in index order, as mean() does,
        # so the centroids are bit-identical to per-cluster means
        sums = np.bincount((assign[:, None] * m + columns).ravel(),
                           weights=points.ravel(),
                           minlength=k * m).reshape(k, m)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
    return assign


def run_multikmeans(inst: Instance, restarts: int = 1,
                    seed: int = 0) -> Evaluation | None:
    """Cluster traffic-matrix rows for every k in [ceil(m/N), m-1].

    Returns the best feasible clustering over all k values and restarts (the
    first one met, restarts outer and k ascending, among those with the
    least traffic), or None when every clustering violates a constraint
    (UF). A clustering is scored as ``evaluate_partition`` scores it: its
    boundary edges are removed and the cells are read off the remaining
    graph, so a cluster that is disconnected in the flow graph counts as
    its connected pieces. All clusterings are scored in one batch.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    traffic = compute_traffic(inst)
    g = build_graph(inst, traffic)
    cfg = make_fitness_config(g, inst)
    m = inst.machine_count
    points = np.array([[float(x) for x in row] for row in traffic.as_dense()])
    rng = random.Random(seed)
    labels = np.array([_lloyd(points, k, rng)
                       for _ in range(restarts)
                       for k in range(compute_k(m, inst.max_cell_size), m)],
                      dtype=np.int64).reshape(-1, m)
    evaluator = PopulationEvaluator(g, inst, cfg)
    batch = evaluator.evaluate_keeps(
        labels[:, evaluator.edge_u] == labels[:, evaluator.edge_v])
    feasible = np.flatnonzero(batch.violations == 0)
    if not len(feasible):
        return None
    best = feasible[np.argmin(batch.traffic_units[feasible])]
    return evaluate_partition(g, inst, partition_from_labels(labels[best]),
                              cfg)


def exhaustive_oracle(inst: Instance) -> Evaluation | None:
    """Exact optimum by enumerating set partitions (restricted-growth form).

    Branches that would oversize a cell or break a cohabit/separate pair are
    pruned (this never removes a feasible partition), as are branches whose
    accumulated traffic already exceeds the best found. Returns None when no
    feasible partition exists. Guarded to m <= 12.
    """
    m = inst.machine_count
    if m > _ORACLE_GUARD:
        raise ValueError(
            f"machine count {m} exceeds the exhaustive-search guard "
            f"({_ORACLE_GUARD})")
    g = build_graph(inst)
    cfg = make_fitness_config(g, inst)
    max_size = inst.max_cell_size

    prior_weighted: list[list[tuple[int, Fraction]]] = [[] for _ in range(m)]
    for e in g.edges:
        if e.weight:
            prior_weighted[e.v].append((e.u, e.weight))
    sc_before: list[list[int]] = [[] for _ in range(m)]
    sn_before: list[list[int]] = [[] for _ in range(m)]
    for a, b in inst.cohabit:
        sc_before[b].append(a)
    for a, b in inst.separate:
        sn_before[b].append(a)

    labels = [0] * m
    counts = [0] * m
    best_traffic: Fraction | None = None
    best_labels: list[int] | None = None

    def assign(v: int, used: int, partial: Fraction):
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
            delta = sum((w for a, w in prior_weighted[v]
                         if labels[a] != lab), Fraction(0))
            labels[v] = lab
            counts[lab] += 1
            assign(v + 1, used + 1 if new else used, partial + delta)
            counts[lab] -= 1

    assign(0, 0, Fraction(0))
    if best_labels is None:
        return None
    return evaluate_partition(g, inst, partition_from_labels(best_labels),
                              cfg)
