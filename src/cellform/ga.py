"""Cut-based genetic algorithms over the flow graph.

A chromosome is K = ceil(m / N) parts, each in [0, 2^(m-1) - 1] and naming
a cut of the flow graph (0 = no cut). Decoding ORs the named cuts together
and reads off the cells, so every individual is a valid partition; cell-size
and cohabitation constraints are handled by the penalty fitness.

Three encodings (``Encoding``) run on one generational engine, ``evolve``,
which holds the population in one array, runs each operator once per
generation on all of it, and takes every draw from one
``numpy.random.Generator`` seeded by ``GAParams.seed``:

* CGA: a (pop, K * W) uint64 array of raw part chains, W =
  ``PopulationEvaluator.part_words``, part j in words j*W .. j*W+W-1,
  least significant first; bit v of a part selects basis vertex v.
* SCGA: the same with every chromosome sorted (``sort_chromosome``), which
  collapses the chains that decode to the same cut set.
* EGA (``baselines.run_ega``): a (pop, E) bool array, column i set = edge
  i intercellular.

Only the best individual is converted back, to a tuple of Python int parts
or an int edge mask, and reported with its exact evaluation from the same
population evaluator that ranked it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# uses: the population is an array of pop rows, so an unbounded size would
# allocate it until memory runs out
MAX_POPULATION = 10_000

_ALL_ONES = np.uint64(2 ** 64 - 1)
# _LOW_BITS[n]: a word with its n lowest bits set, n = 0 .. 64, so no mask
# needs a shift by 64
_LOW_BITS = np.array([(1 << n) - 1 for n in range(65)], dtype=np.uint64)


@dataclass(frozen=True)
class GAParams:
    """Settings of one GA run; no other module declares them."""

    population_size: int  # 2 .. MAX_POPULATION
    generations: int
    crossover_rate: float = 0.7  # share of the population crossed
    mutation_rate: float = 0.03  # share of the population mutated
    variant: str = "scga"  # or "cga"; run_ega ignores it
    seed: int = 0  # any int, negative ones included
    gamma: float | None = None  # roulette on (Y/Y_max)^gamma, 1 if None

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

    The best individual is a tuple of Python int parts (CGA, SCGA) or an
    int edge mask, bit i set = edge i intercellular (EGA).
    """

    best_chromosome: object
    best_evaluation: Evaluation
    best_history: list
    feasible_found: bool


def decode_chromosome(parts: tuple[int, ...], basis: CutBasis,
                      g: FlowGraph) -> Partition:
    """Partition encoded by the parts: the cells left after removing the
    OR-union of the cuts the nonzero parts name."""
    return decode_partition(
        g, union_cuts(cut_from_index(basis, p) for p in parts if p))


def sort_chromosome(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form: distinct parts descending, duplicates zeroed, zeros
    gathered at the tail. Decodes to the same partition (OR is idempotent
    and order-blind)."""
    distinct = sorted({p for p in parts if p}, reverse=True)
    return tuple(distinct) + (0,) * (len(parts) - len(distinct))


def make_rng(seed: int) -> np.random.Generator:
    """The generator of a run; the sign of the seed is an entropy word of
    its own, as SeedSequence takes no negative entropy."""
    return np.random.default_rng([int(seed < 0), abs(seed)])


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row identity of a 2-D array: the index of the first occurrence of
    every distinct row, in the byte order of the rows, and the position of
    each row's bytes in that order. Each row is one raw-bytes item, so one
    stable ``np.unique`` sort serves any row width."""
    rows = np.ascontiguousarray(rows)
    items = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    return np.unique(items, return_index=True, return_inverse=True)[1:]


def init_population(size: int, capacity: int, draw) -> np.ndarray:
    """The first ``size`` distinct rows drawn, in draw order, from batches
    ``draw(n)`` of the rows still missing. Raises ValueError when ``size``
    exceeds the ``capacity`` of distinct individuals and RuntimeError when
    1000 * size draws fail to fill the population."""
    if size > capacity:
        raise ValueError(
            f"population size {size} exceeds the {capacity} distinct "
            f"individuals this encoding admits")
    max_attempts = 1000 * size
    population = draw(size)
    drawn = size
    while True:
        population = population[np.sort(distinct_rows(population)[0])]
        if len(population) == size:
            return population
        if drawn == max_attempts:
            raise RuntimeError(
                f"could not draw {size} distinct individuals in "
                f"{max_attempts} attempts; the instance is too small for "
                f"this population size")
        more = min(size - len(population), max_attempts - drawn)
        population = np.concatenate([population, draw(more)])
        drawn += more


def roulette_select(fitness_units: np.ndarray, gamma: float | None,
                    count: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of ``count`` draws with replacement, each in proportion to
    the weight (Y / Y_max)^gamma of its row, gamma = 1 when None. The
    weights keep Y's order and stay finite whatever the size of Y, since
    each ratio is taken from the exact fitness units (roulette is blind to
    their common scale); Y_max > 0 as every Y is at least B."""
    ratio = np.asarray(fitness_units / fitness_units.max(), dtype=np.float64)
    weights = ratio if gamma is None else ratio ** gamma
    cumulative = np.cumsum(weights)
    picks = np.searchsorted(cumulative, rng.random(count) * cumulative[-1],
                            side="right")
    return np.minimum(picks, len(weights) - 1)


def cut_points(rng: np.random.Generator, length: int, n: int) -> np.ndarray:
    """``n`` cuts uniform over the gaps 1 .. length - 1 of a chain; a chain
    without gaps gets ``length`` (no cut)."""
    return rng.integers(1, max(length, 2), n)


class Encoding:
    """One way of writing individuals, as the generational engine uses it.

    It holds the instance's ``evaluator``. Subclasses supply, each on a
    whole population array: ``capacity(size)`` (the number of distinct
    canonical individuals, or any count of them that reaches ``size``),
    ``draw(rng, n)``, ``crossover(a, b, rng)`` (row pairs into two
    children), ``mutate(rows, rng)`` (one gene per row), ``evaluate`` and,
    for one row, ``public`` (the reported form). ``canonical`` is the
    identity unless the encoding has a canonical form.
    """

    def __init__(self, inst: Instance):
        self.evaluator = PopulationEvaluator(inst)

    def canonical(self, population: np.ndarray) -> np.ndarray:
        return population


class _CutEncoding(Encoding):
    """CGA: K cut-index parts of m - 1 bits per chromosome, kept as raw
    chains of W words each."""

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.k = compute_k(inst.machine_count, inst.max_cell_size)
        self.bits = inst.machine_count - 1
        self.words = self.evaluator.part_words
        self.row_mask = np.tile(self.evaluator.part_mask, self.k)
        # chain position of bit 0 of each word of a row
        self.word_start = (np.arange(self.k)[:, None] * self.bits
                           + 64 * np.arange(self.words)).ravel()

    def capacity(self, size: int) -> int:
        return (1 << self.bits) ** self.k

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` chromosomes of K uniform parts in [0, 2^bits - 1]."""
        return rng.integers(0, _ALL_ONES, (n, len(self.row_mask)),
                            dtype=np.uint64, endpoint=True) & self.row_mask

    def crossover(self, a: np.ndarray, b: np.ndarray,
                  rng: np.random.Generator):
        """A fair coin per pair: one-point cut anywhere in the K * (m - 1)
        bit chain, or at one of the K - 1 part boundaries. The first child
        takes the chain bits before the cut from a, the rest from b; the
        second child is its complement."""
        n = len(a)
        anywhere = cut_points(rng, self.k * self.bits, n)
        boundary = rng.random(n) < 0.5
        cut = np.where(boundary, cut_points(rng, self.k, n) * self.bits,
                       anywhere)
        # the bits of each word that lie before the cut; a word's bits above
        # the part width are zero in both parents, whatever the mask says
        mask = _LOW_BITS[(cut[:, None] - self.word_start).clip(0, 64)]
        diff = (a ^ b) & mask
        return b ^ diff, a ^ diff

    def mutate(self, rows: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Replace one uniformly chosen part of each row with a uniform
        value in [0, 2^bits - 1]."""
        n = len(rows)
        cols = rng.integers(0, self.k, (n, 1)) * self.words \
            + np.arange(self.words)
        rows[np.arange(n)[:, None], cols] = self.draw(rng, n)[:, :self.words]
        return rows

    def evaluate(self, population: np.ndarray):
        return self.evaluator.evaluate_parts(population)

    def public(self, row: np.ndarray) -> tuple[int, ...]:
        return self.evaluator.unpack_parts(row)


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

    def canonical(self, population: np.ndarray) -> np.ndarray:
        """``sort_chromosome`` of every row, on keys that order as the parts
        do: a one-word part is its own key (ranking it would cost several
        times the rest of the sort). Wider parts are ranked by
        ``distinct_rows`` on their big-endian words, most significant
        first, whose byte order is their numeric order; key = rank + 1,
        and key 0 maps to the zero part."""
        pop, w = len(population), self.words
        if w == 1:
            return _sort_keys(population)
        parts = population.reshape(-1, w)
        first, rank = distinct_rows(parts[:, ::-1].astype(">u8"))
        values = np.zeros((len(first) + 1, w), dtype=np.uint64)
        values[1:] = parts[first]
        keys = _sort_keys(rank.reshape(pop, self.k) + 1)
        return values[keys].reshape(pop, -1)


def _sort_keys(keys: np.ndarray) -> np.ndarray:
    """Each row of non-negative keys (0 for the zero part) in sorted form:
    distinct keys descending, repeats zeroed and moved last."""
    keys = np.sort(keys, axis=1)[:, ::-1]
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = 0
    return np.ascontiguousarray(np.sort(keys, axis=1)[:, ::-1])


def evolve(encoding: type[Encoding], inst: Instance,
           params: GAParams) -> GAResult:
    """Run the generational GA on an instance in the given encoding.

    Per generation: save the elite, roulette-select a crossover_rate share
    of parents, cross each pair, top the population up with fresh random
    individuals, mutate a mutation_rate share (one gene each), put everyone
    in canonical form, evaluate, and reinsert the elite, with its whole
    batch row (the last axis of every batch field), over the worst
    individual. Best and worst are by ``EvalBatch.rank`` (fewest
    violations, then least traffic); the roulette alone weighs Y.
    best_history holds the exact Y of the best individual so far after
    each generation (the top rank has the top Y); the one reported is the
    first row, in generation and row order, whose rank beats every earlier
    rank. Same seed, same best_history.
    """
    enc = encoding(inst)
    evaluator = enc.evaluator
    rng = make_rng(params.seed)
    size = params.population_size

    population = init_population(
        size, enc.capacity(size), lambda n: enc.canonical(enc.draw(rng, n)))
    batch = enc.evaluate(population)
    top = int(batch.rank.argmax())
    best = population[top]

    n_mate = round(params.crossover_rate * size) // 2 * 2
    n_mutate = round(params.mutation_rate * size)
    history = []

    for _ in range(params.generations):
        elite = population[top]
        elite_row = [a[..., top] for a in vars(batch).values()]

        parents = population[roulette_select(batch.fitness_units,
                                             params.gamma, n_mate, rng)]
        nxt = np.empty_like(population)
        nxt[0:n_mate:2], nxt[1:n_mate:2] = enc.crossover(
            parents[0::2], parents[1::2], rng)
        nxt[n_mate:] = enc.draw(rng, size - n_mate)
        mutants = rng.choice(size, n_mutate, replace=False)
        nxt[mutants] = enc.mutate(nxt[mutants], rng)

        population = enc.canonical(nxt)
        batch = enc.evaluate(population)
        worst = int(batch.rank.argmin())
        population[worst] = elite
        for a, value in zip(vars(batch).values(), elite_row):
            a[..., worst] = value

        # the elite, now at worst, holds the best rank so far
        rank = batch.rank
        top = int(rank.argmax())
        if rank[top] > rank[worst]:
            best = population[top]
        history.append(evaluator.to_fraction(batch.fitness_units[top]))

    best_eval = evaluator.result(enc.evaluate(best[None, :]), 0)
    return GAResult(enc.public(best), best_eval, history, best_eval.feasible)


def run_ga(inst: Instance, params: GAParams) -> GAResult:
    """Run the cut-based GA, CGA or SCGA per params.variant (see evolve)."""
    return evolve(_SortedCutEncoding if params.variant == "scga"
                  else _CutEncoding, inst, params)
