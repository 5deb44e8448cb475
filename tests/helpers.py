"""Shared test utilities: independent oracles and random-instance builders.

Everything here recomputes results straight from first principles (part
routings, vertex subsets, set-partition enumeration) so the package code is
checked against genuinely independent implementations.
"""

from __future__ import annotations

import random
import warnings
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np
from hypothesis import strategies as st

from cellform import Evaluation, Instance, InstanceWarning, Part, \
    Partition, PopulationEvaluator, build_graph, compute_k, \
    compute_traffic, decode_partition, fitness, violation_breakdown
from cellform.ga import make_rng
from cellform.instance import vertex_groups


def make_instance(machine_count, max_cell_size, routings,
                  cohabit=(), separate=()):
    """Instance from (volume, routing) pairs with 1-based machine indices."""
    parts = tuple(Part(Fraction(vol), tuple(i - 1 for i in routing))
                  for vol, routing in routings)
    norm = lambda pairs: frozenset(
        (min(a, b) - 1, max(a, b) - 1) for a, b in pairs)
    return Instance(machine_count, max_cell_size, parts,
                    norm(cohabit), norm(separate))


def random_instance(rng: random.Random, machine_count=None, *,
                    max_parts=12, max_cell_size=None, constraints=True):
    """Random valid instance; optionally with disjoint SC/SN pairs."""
    m = machine_count if machine_count is not None else rng.randint(3, 9)
    n = max_cell_size if max_cell_size is not None else rng.randint(1, m)
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        length = rng.randint(2, 6)
        routing = [rng.randrange(m)]
        while len(routing) < length:
            step = rng.randrange(m - 1)
            if step >= routing[-1]:
                step += 1
            routing.append(step)
        volume = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        parts.append(Part(volume, tuple(routing)))
    cohabit: set[tuple[int, int]] = set()
    separate: set[tuple[int, int]] = set()
    if constraints:
        all_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        rng.shuffle(all_pairs)
        for pair in all_pairs[:rng.randint(0, 3)]:
            (separate if rng.random() < 0.5 else cohabit).add(pair)
    return Instance(m, n, tuple(parts), frozenset(cohabit),
                    frozenset(separate))


@st.composite
def instances(draw, min_machines=2, max_machines=12):
    """Hypothesis strategy: valid instances with fractional volumes, routings
    of 1-6 steps and disjoint SC/SN pairs. A cohabitation group may exceed
    N; its InstanceWarning is silenced."""
    m = draw(st.integers(min_machines, max_machines))
    n = draw(st.integers(1, m))
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        routing = [draw(st.integers(0, m - 1))]
        for _ in range(draw(st.integers(0, 5))):
            routing.append((routing[-1] + draw(st.integers(1, m - 1))) % m)
        volume = Fraction(draw(st.integers(0, 10 ** 6)),
                          draw(st.integers(1, 10 ** 6)))
        parts.append(Part(volume, tuple(routing)))
    all_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), max_size=4,
                          unique=True))
    cohabit = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstanceWarning)
        return Instance(
            m, n, tuple(parts),
            frozenset(p for p, sc in zip(pairs, cohabit) if sc),
            frozenset(p for p, sc in zip(pairs, cohabit) if not sc))


def bits_from_mask(mask: int, width: int) -> tuple[int, ...]:
    """Unpack an int mask into a tuple of 0/1 flags of the given width."""
    return tuple((mask >> i) & 1 for i in range(width))


def boundary_mask(g, partition: Partition) -> int:
    """Mask of the edges whose endpoints lie in different cells."""
    labels = partition.labels(g.machine_count)
    mask = 0
    for i, e in enumerate(g.edges):
        if labels[e.u] != labels[e.v]:
            mask |= 1 << i
    return mask


def partition_from_labels(labels) -> Partition:
    """Partition from any per-machine label sequence (labels need not be
    canonical; the cells come out in canonical order)."""
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(v)
    # vertices ascending: each cell is sorted, cells come by lowest vertex
    return Partition(tuple(map(tuple, groups.values())))


def total_weight(g) -> Fraction:
    """Sum of a flow graph's edge weights, in Fractions."""
    return sum((e.weight for e in g.edges), Fraction(0))


def vertex_cut_mask(graph, vertex_set) -> int:
    """Edges with exactly one endpoint in vertex_set, as an int mask."""
    inside = set(vertex_set)
    mask = 0
    for i, e in enumerate(graph.edges):
        if (e.u in inside) != (e.v in inside):
            mask |= 1 << i
    return mask


def iter_set_partitions(m: int):
    """All set partitions of range(m), as tuples of sorted tuples."""
    labels = [0] * m
    out = []

    def rec(v: int, used: int):
        if v == m:
            groups: dict[int, list[int]] = {}
            for vertex, lab in enumerate(labels):
                groups.setdefault(lab, []).append(vertex)
            out.append(tuple(tuple(g) for g in groups.values()))
            return
        for lab in range(used + 1):
            labels[v] = lab
            rec(v + 1, used + (lab == used))

    rec(0, 0)
    return out


def partition_traffic(inst: Instance, cells) -> Fraction:
    """Intercell traffic recomputed directly from routings (no graph)."""
    label = {}
    for ci, cell in enumerate(cells):
        for v in cell:
            label[v] = ci
    total = Fraction(0)
    for part in inst.parts:
        for a, b in zip(part.routing, part.routing[1:]):
            if label[a] != label[b]:
                total += part.volume
    return total


def reference_evaluation(inst: Instance, partition, cfg) -> Evaluation:
    """Reference for ``PopulationEvaluator.result``: traffic recounted from
    the routings, violations from ``violation_breakdown``, Y from
    ``fitness``. The caller decodes the partition (``decode_chromosome`` or
    ``decode_partition``)."""
    traffic = partition_traffic(inst, partition.cells)
    violations = sum(violation_breakdown(partition, inst))
    return Evaluation(partition, traffic, violations, violations == 0,
                      fitness(traffic, violations, cfg))


def reference_label_evaluation(inst: Instance, labels, cfg) -> Evaluation:
    """Reference for one row of ``PopulationEvaluator.evaluate_labels``:
    the connected pieces that the flow-graph edges between equal labels
    leave (``vertex_groups``), scored by ``reference_evaluation``. Labels
    are compared as given."""
    g = build_graph(inst)
    pieces = vertex_groups(inst.machine_count, [
        (e.u, e.v) for e in g.edges if labels[e.u] == labels[e.v]])
    return reference_evaluation(inst, Partition(tuple(map(tuple, pieces))),
                                cfg)


def partition_feasible(inst: Instance, cells) -> bool:
    label = {}
    for ci, cell in enumerate(cells):
        if len(cell) > inst.max_cell_size:
            return False
        for v in cell:
            label[v] = ci
    if any(label[a] != label[b] for a, b in inst.cohabit):
        return False
    if any(label[a] == label[b] for a, b in inst.separate):
        return False
    return True


def brute_force_optimum(inst: Instance):
    """(best traffic, one optimal cell tuple) or (None, None) if infeasible.

    Full enumeration with no pruning; usable up to m ~ 8.
    """
    best = None
    best_cells = None
    for cells in iter_set_partitions(inst.machine_count):
        if not partition_feasible(inst, cells):
            continue
        t = partition_traffic(inst, cells)
        if best is None or t < best:
            best, best_cells = t, cells
    return best, best_cells


def dense_traffic(inst: Instance) -> np.ndarray:
    """The (m, m) float traffic matrix, from ``compute_traffic``."""
    m = inst.machine_count
    points = np.zeros((m, m))
    for (a, b), t in compute_traffic(inst).items():
        points[a, b] = points[b, a] = float(t)
    return points


def reference_lloyd(points: np.ndarray, k: int, rng: np.random.Generator,
                    events: Counter | None = None) -> np.ndarray:
    """Reference for ``_lloyd``: exact differences in an (m, k, m) tensor
    and a per-cluster mean() loop.

    Same draws, same re-seeding rule and same stopping rule as the
    library's ``_lloyd``; only the arithmetic layout differs. ``events``,
    when given, counts the rows whose nearest centroids tie exactly
    (``"tie"``), the empty clusters re-seeded (``"reseed"``) and the
    clusters left without members at a centroid update (``"unfilled"``).
    """
    events = Counter() if events is None else events
    m = len(points)
    centroids = points[rng.choice(m, k, replace=False)]
    assign = None
    for _ in range(100):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for _ in range(k):
            events["tie"] += int(
                ((d2 == d2.min(axis=1)[:, None]).sum(axis=1) > 1).sum())
            counts = np.bincount(new_assign, minlength=k)
            empty = np.flatnonzero(counts == 0)
            if not len(empty):
                break
            events["reseed"] += 1
            farthest = int(d2[np.arange(m), new_assign].argmax())
            centroids[empty[0]] = points[farthest]
            d2[:, empty[0]] = ((points - centroids[empty[0]]) ** 2).sum(axis=1)
            new_assign = d2.argmin(axis=1)
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                events["unfilled"] += 1
    return assign


def reference_kmeans_labels(inst: Instance, restarts: int, seed: int,
                            events: Counter | None = None) -> list:
    """The clusterings ``reference_multikmeans`` scores: per restart, the
    ``reference_lloyd`` assignment of every k ascending, all drawn from one
    ``make_rng(seed)`` stream, as ``run_multikmeans`` draws its own.
    ``events``, when given, counts the events of the first restart."""
    m = inst.machine_count
    points = dense_traffic(inst)
    rng = make_rng(seed)
    return [[reference_lloyd(points, k, rng, events if not r else None)
             for k in range(compute_k(m, inst.max_cell_size), m)]
            for r in range(restarts)]


def reference_multikmeans(inst: Instance, labels: list):
    """Reference for ``run_multikmeans``, on the clusterings of
    ``reference_kmeans_labels``: one ``reference_evaluation`` per
    clustering, on the connected pieces its boundary leaves, the best kept
    as the clusterings arrive."""
    evaluator = PopulationEvaluator(inst)
    g, cfg = evaluator.graph, evaluator.cfg
    best = None
    for restart in labels:
        for assign in restart:
            mask = boundary_mask(g, partition_from_labels(assign))
            ev = reference_evaluation(inst, decode_partition(g, mask), cfg)
            if ev.feasible and (best is None or ev.traffic < best.traffic):
                best = ev
    return best


# ----- per-individual reference operators of the GA ---------------------
# The engine (``cellform.ga``) runs each operator once per generation on a
# whole population array; these are the same operators on one individual
# (a tuple of Python int parts) or one pair, driven by ``random.Random``.
# They are the oracles its vector forms are checked against.


def reference_init_population(size: int, capacity: int, draw) -> list:
    """``size`` pairwise distinct (hashable) individuals from ``draw()``.

    Raises ValueError when ``size`` exceeds the ``capacity`` of distinct
    individuals (pigeonhole) and RuntimeError when 1000 * size draws fail to
    fill the population.
    """
    if size > capacity:
        raise ValueError(
            f"population size {size} exceeds the {capacity} distinct "
            f"individuals this encoding admits")
    population = []
    seen = set()
    max_attempts = 1000 * size
    for _ in range(max_attempts):
        individual = draw()
        if individual not in seen:
            seen.add(individual)
            population.append(individual)
            if len(population) == size:
                return population
    raise RuntimeError(
        f"could not draw {size} distinct individuals in {max_attempts} "
        f"attempts; the instance is too small for this population size")


def reference_roulette_select(population, fitnesses, count: int,
                              rng: random.Random) -> list:
    """Fitness-proportional sampling with replacement, one rng.random() per
    draw.

    Fitnesses must be positive, as every fitness Y >= B > 0 that
    ``ga.roulette_select`` draws on is.
    """
    weights = [float(f) for f in fitnesses]
    if len(weights) != len(population):
        raise ValueError("one fitness per individual required")
    if any(w <= 0 for w in weights):
        raise ValueError("fitnesses must be positive")
    n = len(population)
    total = sum(weights)
    cumulative = list(accumulate(weights))
    chosen = []
    for _ in range(count):
        r = rng.random() * total
        idx = min(bisect_right(cumulative, r), n - 1)
        chosen.append(population[idx])
    return chosen


def reference_crossover_any(a: tuple, b: tuple, bits: int,
                            rng: random.Random) -> tuple[tuple, tuple]:
    """One-point crossover at any position of the K*bits bit chain (bits =
    m - 1, the part width).

    The cut position is uniform over the L-1 interior gaps, so it may fall
    inside a part and recombine its bits. Degenerate chains (length 1)
    return the parents unchanged.
    """
    if len(a) != len(b):
        raise ValueError("parents must share shape")
    length = len(a) * bits
    if length < 2:
        return a, b
    cut = rng.randrange(1, length)
    # parts before j come whole from one parent, part j is split at bit r
    j, r = divmod(cut, bits)
    low = (1 << r) - 1
    part_mask = (1 << bits) - 1
    return (a[:j] + ((a[j] & low) | (b[j] & part_mask & ~low),) + b[j + 1:],
            b[:j] + ((b[j] & low) | (a[j] & part_mask & ~low),) + a[j + 1:])


def reference_crossover_boundary(a: tuple, b: tuple,
                                 rng: random.Random) -> tuple[tuple, tuple]:
    """One-point crossover restricted to the K-1 part boundaries.

    With K = 1 there is no boundary; the parents are returned unchanged.
    """
    if len(a) != len(b):
        raise ValueError("parents must share shape")
    k = len(a)
    if k < 2:
        return a, b
    j = rng.randrange(1, k)
    return a[:j] + b[j:], b[:j] + a[j:]


def reference_mutate(ch: tuple, bits: int, rng: random.Random) -> tuple:
    """Replace one uniformly chosen part with a uniform value in
    [0, 2^bits - 1]."""
    idx = rng.randrange(len(ch))
    return ch[:idx] + (rng.randrange(1 << bits),) + ch[idx + 1:]


class ScriptedGenerator:
    """Plays back fixed arrays for the numpy Generator calls of the vector
    operators, checking each against the bounds it was asked for."""

    def __init__(self, integers=(), random=()):
        self._integers = [np.asarray(v) for v in integers]
        self._random = [np.asarray(v, dtype=float) for v in random]

    def integers(self, low, high, size, dtype=np.int64, endpoint=False):
        out = self._integers.pop(0).astype(dtype)
        assert out.shape == np.empty(size).shape
        assert (out >= low).all()
        assert ((out <= high) if endpoint else (out < high)).all()
        return out

    def random(self, size):
        out = self._random.pop(0)
        assert out.shape == (size,)
        return out
