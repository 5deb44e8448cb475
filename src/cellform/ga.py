"""Cut-based genetic algorithms over the flow graph.

A chromosome is a plain tuple of K = ceil(m / N) int parts, each in
[0, 2^(m-1) - 1] and naming a cut of the flow graph (0 = no cut); the part
width m - 1 belongs to the encoding, not to the chromosome. Decoding ORs the
named cuts together and reads off the resulting cells, so every individual
is a valid partition by construction; cell-size and cohabitation
constraints are handled by the penalty fitness. The operators keep parts in
range by construction; parts from outside are checked where they are
evaluated (``PopulationEvaluator.evaluate_parts``).

Three encodings run on one generational engine, ``evolve``, which owns the
distinct-draw initial population (``init_population``), roulette selection,
random top-up, mutation, elitism and the best-so-far history:

* CGA keeps chromosomes as raw part chains.
* SCGA canonicalizes every chromosome with a sorting procedure (parts in
  descending order, duplicates zeroed, zeros last), which collapses the many
  chains that decode to the same cut set and so removes phantom diversity.
* EGA (``baselines.run_ega``) writes one int edge mask instead, bit i set
  = edge i intercellular.

Each encoding (``Encoding``) is the only place that tells CGA, SCGA and EGA
apart. It supplies the hooks ``capacity`` (how many distinct individuals
exist), ``draw``, ``crossover``, ``mutate``, ``canonical`` and ``evaluate``
(a whole population at once); the engine reports the best individual as it
was evolved, with its exact evaluation from the same population evaluator
that ranked it.

The bit chain seen by the any-position crossover lays parts end to end,
alleles within a part ordered by basis vertex (vertex 0 first = bit 0 of the
part integer).
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .cuts import CutBasis, Partition, cut_from_index, decode_partition, \
    union_cuts
from .evaluation import Evaluation, PopulationEvaluator
from .flowgraph import FlowGraph
from .instance import Instance


def compute_k(machine_count: int, max_cell_size: int) -> int:
    """Number of chromosome parts: ceil(m / N)."""
    if machine_count < 1 or max_cell_size < 1:
        raise ValueError("machine count and max cell size must be positive")
    return (machine_count + max_cell_size - 1) // max_cell_size


# 20x the largest population (500) any test, demo, CLI default or workload
# uses: the first population is drawn as distinct Python values, so an
# unbounded size would build them until memory runs out
MAX_POPULATION = 10_000


@dataclass(frozen=True)
class GAParams:
    """Settings of one GA run; no other module declares them."""

    population_size: int  # 2 .. MAX_POPULATION
    generations: int
    crossover_rate: float = 0.7  # share of the population crossed
    mutation_rate: float = 0.03  # share of the population mutated
    variant: str = "scga"  # or "cga"; run_ega ignores it
    seed: int = 0
    gamma: float | None = None  # roulette on Y if None, else (Y/Y_max)^gamma

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if self.population_size > MAX_POPULATION:
            raise ValueError(f"population size {self.population_size} "
                             f"exceeds the limit {MAX_POPULATION}")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover rate must be in [0, 1]")
        if not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation rate must be in [0, 1]")
        if self.variant not in ("cga", "scga"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass
class GAResult:
    """Outcome of a run: best individual, its evaluation, and the trace.

    The best individual is a tuple of parts (CGA, SCGA) or an int edge
    mask, bit i set = edge i intercellular (EGA).
    """

    best_chromosome: object
    best_evaluation: Evaluation
    best_history: list
    wall_time: float
    feasible_found: bool


def chromosome_mask(parts: tuple[int, ...], basis: CutBasis) -> int:
    """OR-union of the cuts named by the nonzero parts."""
    return union_cuts(cut_from_index(basis, p) for p in parts if p)


def decode_chromosome(parts: tuple[int, ...], basis: CutBasis,
                      g: FlowGraph) -> Partition:
    """Partition encoded by the parts (cells after removing their cuts)."""
    return decode_partition(g, chromosome_mask(parts, basis))


def sort_chromosome(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form: distinct parts descending, duplicates zeroed, zeros
    gathered at the tail. Decodes to the same partition (OR is idempotent
    and order-blind)."""
    distinct = sorted({p for p in parts if p}, reverse=True)
    return tuple(distinct) + (0,) * (len(parts) - len(distinct))


def init_population(size: int, capacity: int, draw) -> list:
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


def roulette_select(population: Sequence, fitnesses: Sequence, count: int,
                    rng: random.Random) -> list:
    """Fitness-proportional sampling with replacement.

    Fitnesses must be non-negative; if they are all zero the draw falls back
    to uniform. One rng.random() is consumed per draw either way.
    """
    weights = [float(f) for f in fitnesses]
    if len(weights) != len(population):
        raise ValueError("one fitness per individual required")
    if any(w < 0 for w in weights):
        raise ValueError("fitnesses must be non-negative")
    n = len(population)
    if not any(weights):
        weights = [1.0] * n
    total = sum(weights)
    cumulative = list(accumulate(weights))
    chosen = []
    for _ in range(count):
        r = rng.random() * total
        idx = min(bisect_right(cumulative, r), n - 1)
        chosen.append(population[idx])
    return chosen


def crossover_any(a: tuple[int, ...], b: tuple[int, ...], bits: int,
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


def crossover_boundary(a: tuple[int, ...], b: tuple[int, ...],
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


def mutate(ch: tuple[int, ...], bits: int,
           rng: random.Random) -> tuple[int, ...]:
    """Replace one uniformly chosen part with a uniform value in
    [0, 2^bits - 1]."""
    idx = rng.randrange(len(ch))
    return ch[:idx] + (rng.randrange(1 << bits),) + ch[idx + 1:]


class Encoding:
    """One way of writing individuals, as the generational engine uses it.

    Built from the instance, it holds the ``evaluator``, which owns the flow
    graph and the fitness arithmetic. Subclasses supply ``capacity(size)``
    (the number of distinct canonical individuals, or any count of them that
    reaches ``size``), ``draw`` (one random individual), ``crossover`` (a
    pair into two children), ``mutate`` (one individual) and ``evaluate`` (a
    population into an EvalBatch). ``canonical`` returns an individual
    unchanged unless the encoding has a canonical form.
    """

    def __init__(self, inst: Instance):
        self.evaluator = PopulationEvaluator(inst)

    def canonical(self, individual):
        return individual


class _CutEncoding(Encoding):
    """CGA: K cut-index parts of m - 1 bits per chromosome, kept as raw
    chains."""

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.k = compute_k(inst.machine_count, inst.max_cell_size)
        self.bits = inst.machine_count - 1

    def capacity(self, size: int) -> int:
        return (1 << self.bits) ** self.k

    def draw(self, rng: random.Random) -> tuple[int, ...]:
        """K uniform parts in [0, 2^bits - 1]."""
        return tuple(rng.randrange(1 << self.bits) for _ in range(self.k))

    def crossover(self, a: tuple, b: tuple, rng: random.Random):
        if rng.random() < 0.5:
            return crossover_any(a, b, self.bits, rng)
        return crossover_boundary(a, b, rng)

    def mutate(self, ch: tuple, rng: random.Random) -> tuple[int, ...]:
        return mutate(ch, self.bits, rng)

    def evaluate(self, population: list[tuple]):
        return self.evaluator.evaluate_parts(population)


class _SortedCutEncoding(_CutEncoding):
    """SCGA: the cut encoding with every chromosome in sorted form."""

    def capacity(self, size: int) -> int:
        # canonical forms: sets of at most k nonzero parts; the sum stops
        # once it admits the population, so it is exact whenever too small
        nonzero = (1 << self.bits) - 1
        capacity = 0
        for j in range(self.k + 1):
            capacity += math.comb(nonzero, j)
            if capacity >= size:
                break
        return capacity

    def canonical(self, ch: tuple[int, ...]) -> tuple[int, ...]:
        return sort_chromosome(ch)


def evolve(encoding: type[Encoding], inst: Instance,
           params: GAParams) -> GAResult:
    """Run the generational GA on an instance in the given encoding.

    Per generation: save the elite, roulette-select a crossover_rate share
    of parents, cross each pair, top the population up with fresh random
    individuals, mutate a mutation_rate share (one gene each), put everyone
    in canonical form, evaluate, and reinsert the elite over the worst
    individual. best_history holds the exact Y of the best individual so
    far after each generation, whatever the gamma. Same seed, same
    best_history. The best individual is evaluated once more on its own
    for its exact Evaluation.
    """
    t0 = time.perf_counter()
    enc = encoding(inst)
    evaluator = enc.evaluator
    rng = random.Random(params.seed)
    size = params.population_size

    population = init_population(size, enc.capacity(size),
                                 lambda: enc.canonical(enc.draw(rng)))
    batch = enc.evaluate(population)
    best_idx = int(batch.fitness_units.argmax())
    best_units = batch.fitness_units[best_idx]
    best = population[best_idx]

    n_mate = round(params.crossover_rate * size)
    if n_mate % 2:
        n_mate -= 1
    n_mutate = round(params.mutation_rate * size)
    history = []

    for _ in range(params.generations):
        elite_idx = int(batch.fitness_units.argmax())
        elite = population[elite_idx]
        elite_units = batch.fitness_units[elite_idx]

        weights = evaluator.selection_weights(batch.fitness_units,
                                              params.gamma)
        parents = roulette_select(population, weights.tolist(), n_mate, rng)
        nxt = []
        for i in range(0, n_mate, 2):
            nxt.extend(enc.crossover(parents[i], parents[i + 1], rng))
        while len(nxt) < size:
            nxt.append(enc.draw(rng))
        for idx in rng.sample(range(size), n_mutate):
            nxt[idx] = enc.mutate(nxt[idx], rng)

        population = [enc.canonical(ch) for ch in nxt]
        batch = enc.evaluate(population)
        worst = int(batch.fitness_units.argmin())
        population[worst] = elite
        batch.fitness_units[worst] = elite_units

        gen_best = int(batch.fitness_units.argmax())
        if batch.fitness_units[gen_best] > best_units:
            best_units = batch.fitness_units[gen_best]
            best = population[gen_best]
        history.append(evaluator.to_fraction(best_units))

    best_eval = evaluator.result(enc.evaluate([best]), 0)
    return GAResult(best, best_eval, history,
                    time.perf_counter() - t0, best_eval.feasible)


def run_ga(inst: Instance, params: GAParams) -> GAResult:
    """Run the cut-based GA, CGA or SCGA per params.variant (see evolve)."""
    return evolve(_SortedCutEncoding if params.variant == "scga"
                  else _CutEncoding, inst, params)
