"""Chromosome encoding, genetic operators, and the generational loop."""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellform import (GAParams, Instance, InstanceWarning, Part,
                      PopulationEvaluator, compute_k, cut_from_index,
                      decode_chromosome, generate_instance, mask_from_bits,
                      run_ga, sort_chromosome, union_cuts)
from cellform import ga
from cellform.baselines import _EdgeEncoding, exhaustive_oracle, run_ega
from cellform.ga import MAX_POPULATION
from helpers import (ScriptedGenerator, instances, make_instance,
                     reference_crossover_any, reference_crossover_boundary,
                     reference_init_population, reference_mutate,
                     reference_roulette_select)


class ScriptedRng:
    """Plays back fixed values for randrange/random/sample calls."""

    def __init__(self, randrange_values=(), random_values=(),
                 sample_values=()):
        self._randrange = list(randrange_values)
        self._random = list(random_values)
        self._sample = list(sample_values)

    def randrange(self, *args):
        return self._randrange.pop(0)

    def random(self):
        return self._random.pop(0)

    def sample(self, population, k):
        return self._sample.pop(0)


class TestComputeK:
    def test_examples(self):
        assert compute_k(8, 5) == 2
        assert compute_k(50, 7) == 8
        assert compute_k(10, 5) == 2
        assert compute_k(5, 2) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_k(0, 3)
        with pytest.raises(ValueError):
            compute_k(5, 0)


class TestChromosome:
    def test_mask_and_decode_golden(self, five_machine_graph,
                                    five_machine_basis):
        ch = (5, 7, 0)
        mask = union_cuts(cut_from_index(five_machine_basis, p) for p in ch)
        assert mask == mask_from_bits((0, 1, 1, 1, 1, 1, 1, 0))
        p = decode_chromosome(ch, five_machine_basis, five_machine_graph)
        assert p.cells == ((0, 2), (1,), (3, 4))

    def test_decode_two_cut_union_golden(self, five_machine_graph,
                                         five_machine_basis):
        # cuts 10 and 14 OR to (1,1,0,1,0,1,1,1): only the machine-1/5 and
        # machine-2/4 edges survive
        p = decode_chromosome((10, 14, 0),
                              five_machine_basis, five_machine_graph)
        assert p.cells == ((0, 4), (1, 3), (2,))

    def test_all_zero_decodes_to_one_cell(self, five_machine_graph,
                                          five_machine_basis):
        p = decode_chromosome((0, 0, 0),
                              five_machine_basis, five_machine_graph)
        assert p.cell_count == 1

    def test_duplicate_parts_idempotent(self, five_machine_graph,
                                        five_machine_basis):
        a = decode_chromosome((9, 9, 0),
                              five_machine_basis, five_machine_graph)
        b = decode_chromosome((9, 0, 0),
                              five_machine_basis, five_machine_graph)
        assert a == b

    def test_decode_out_of_range(self, five_machine_graph,
                                 five_machine_basis):
        # m = 5: parts name cuts 0..15
        with pytest.raises(ValueError, match="out of range 0..15"):
            decode_chromosome((3, 16), five_machine_basis,
                              five_machine_graph)


class TestGAParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="population"):
            GAParams(1, 10)
        with pytest.raises(ValueError, match="generations"):
            GAParams(10, -1)
        with pytest.raises(ValueError, match="crossover"):
            GAParams(10, 10, crossover_rate=1.5)
        with pytest.raises(ValueError, match="mutation"):
            GAParams(10, 10, mutation_rate=-0.1)
        with pytest.raises(ValueError, match="variant"):
            GAParams(10, 10, variant="ega")
        for gamma in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="gamma must be positive"):
                GAParams(10, 10, gamma=gamma)

    def test_population_cap(self):
        assert GAParams(MAX_POPULATION, 1).population_size == MAX_POPULATION
        with pytest.raises(ValueError, match="exceeds the limit 10000"):
            GAParams(MAX_POPULATION + 1, 1)


class TestSortChromosome:
    def test_golden(self):
        assert sort_chromosome((10, 14, 0)) == (14, 10, 0)

    def test_duplicates_zeroed(self):
        assert sort_chromosome((7, 7, 3)) == (7, 3, 0)

    def test_all_zero_fixed_point(self):
        assert sort_chromosome((0, 0, 0)) == (0, 0, 0)

    def test_idempotent_and_decode_invariant_fuzz(self, five_machine_graph,
                                                  five_machine_basis):
        rng = random.Random(17)
        for _ in range(300):
            k = rng.randint(1, 5)
            ch = tuple(rng.randint(0, 15) for _ in range(k))
            s = sort_chromosome(ch)
            # descending distinct prefix, zeros tail
            nonzero = [p for p in s if p]
            assert nonzero == sorted(set(nonzero), reverse=True)
            assert s[len(nonzero):] == (0,) * (k - len(nonzero))
            assert sort_chromosome(s) == s
            assert decode_chromosome(s, five_machine_basis,
                                     five_machine_graph) == \
                decode_chromosome(ch, five_machine_basis, five_machine_graph)

    def test_equal_multisets_share_canonical_form(self):
        rng = random.Random(18)
        for _ in range(100):
            parts = [rng.randint(0, 15) for _ in range(4)]
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert sort_chromosome(tuple(parts)) == \
                sort_chromosome(tuple(shuffled))


@given(instances(), st.data())
def test_sort_chromosome_idempotent_and_evaluation_invariant(inst, data):
    # parts drawn from a small pool, so repeats and zeros are common
    top = (1 << (inst.machine_count - 1)) - 1
    pool = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    parts = data.draw(st.lists(st.sampled_from(pool + [0]), min_size=1,
                               max_size=6))
    ch = tuple(parts)
    s = sort_chromosome(ch)
    assert sort_chromosome(s) == s
    ev = PopulationEvaluator(inst)
    raw = ev.evaluate_parts(ev.pack_parts([ch]))
    canonical = ev.evaluate_parts(ev.pack_parts([s]))
    assert ev.result(raw, 0).partition == ev.result(canonical, 0).partition
    assert raw.traffic_units[0] == canonical.traffic_units[0]
    assert raw.violations[0] == canonical.violations[0]


def first_population(inst, params, monkeypatch, method=run_ga):
    """The first population evolve draws for a run (generations unused)."""
    drawn = []
    vector_init = ga.init_population

    def spy(*args):
        drawn.append(vector_init(*args))
        return drawn[-1]

    monkeypatch.setattr(ga, "init_population", spy)
    method(inst, dataclasses.replace(params, generations=0))
    assert len(drawn) == 1
    return drawn[0]


def rows_as_parts(enc, population) -> list:
    """The rows of a population array in their public form."""
    return [enc.public(row) for row in population]


class TestInitPopulation:
    def test_distinct_and_reproducible(self, monkeypatch):
        # m = 8, N = 4: K = 2 parts of 7 bits, one word each
        inst = make_instance(8, 4, [(1, (1, 2, 3, 4, 5, 6, 7, 8))])
        params = GAParams(100, 1, variant="cga", seed=9)
        pop = first_population(inst, params, monkeypatch)
        assert pop.shape == (100, 2) and pop.dtype == np.uint64
        chains = rows_as_parts(ga._CutEncoding(inst), pop)
        assert len(set(chains)) == 100
        assert all(0 <= p < 1 << 7 for c in chains for p in c)
        assert np.array_equal(pop, first_population(inst, params,
                                                    monkeypatch))

    def test_scga_population_canonical(self, monkeypatch):
        inst = make_instance(8, 4, [(1, (1, 2, 3, 4, 5, 6, 7, 8))])
        pop = first_population(inst, GAParams(60, 1, variant="scga",
                                              seed=10), monkeypatch)
        chains = rows_as_parts(ga._SortedCutEncoding(inst), pop)
        assert len(set(chains)) == 60
        assert all(sort_chromosome(c) == c for c in chains)

    def test_cga_pigeonhole(self):
        # m = 2, K = 1: the raw chains are the 2 values 0..1
        inst = make_instance(2, 2, [(1, (1, 2))])
        with pytest.raises(ValueError, match="exceeds the 2 distinct"):
            run_ga(inst, GAParams(3, 1, variant="cga"))

    def test_scga_pigeonhole(self):
        # m=3, k=1: canonical forms are the 4 values 0..3
        inst = make_instance(3, 3, [(1, (1, 2, 3))])
        with pytest.raises(ValueError, match="exceeds the 4 distinct"):
            run_ga(inst, GAParams(5, 1, variant="scga"))

    def test_scga_capacity_counts_canonical_forms(self, monkeypatch):
        # m=3, k=2: {nonzero subsets of size <= 2 of 3 values} + zero chain
        inst = make_instance(3, 2, [(1, (1, 2, 3))])
        pop = first_population(inst, GAParams(7, 1, variant="scga", seed=11),
                               monkeypatch)
        assert len(pop) == 7  # C(3,0)+C(3,1)+C(3,2) = 1+3+3 = 7
        with pytest.raises(ValueError, match="exceeds the 7 distinct"):
            run_ga(inst, GAParams(8, 1, variant="scga"))

    def test_ega_pigeonhole(self, monkeypatch):
        # every one of the 2^E edge masks is admitted, and no more
        inst = make_instance(3, 2, [(1, (1, 2, 3))])
        edges = PopulationEvaluator(inst).graph.edge_count
        pop = first_population(inst, GAParams(1 << edges, 1, seed=12),
                               monkeypatch, method=run_ega)
        assert pop.shape == (1 << edges, edges) and pop.dtype == bool
        assert sorted(rows_as_parts(_EdgeEncoding(inst), pop)) == \
            list(range(1 << edges))
        with pytest.raises(ValueError,
                           match=f"exceeds the {1 << edges} distinct"):
            run_ega(inst, GAParams((1 << edges) + 1, 1))

    def test_scga_capacity_sum_stops_at_population(self, monkeypatch):
        # m = 1024, K = 1024: summing C(2^1023 - 1, j) over all j <= 1024
        # takes tens of seconds, yet the terms j = 0, 1 already admit 4
        terms = []
        comb = math.comb

        def counting_comb(n, j):
            terms.append(j)
            return comb(n, j)

        monkeypatch.setattr(math, "comb", counting_comb)
        enc = ga._SortedCutEncoding(make_instance(1024, 1, [(1, (1, 2))]))
        assert enc.k == 1024
        assert enc.capacity(4) == 1 + ((1 << 1023) - 1)
        assert terms == [0, 1]
        rng = ga.make_rng(0)
        pop = ga.init_population(4, enc.capacity(4),
                                 lambda n: enc.canonical(enc.draw(rng, n)))
        chains = rows_as_parts(enc, pop)
        assert len(set(chains)) == 4
        assert all(len(c) == 1024 and sort_chromosome(c) == c
                   for c in chains)

    def test_scga_rejects_duplicate_canonical_forms(self):
        # raw chains (5,7) and (7,5) sort identically; only one admitted,
        # and the next batch draws just the one row still missing
        enc = ga._SortedCutEncoding(make_instance(5, 3, [(1, (1, 2))]))
        batches = [np.array(rows, dtype=np.uint64)
                   for rows in ([[5, 7], [7, 5]], [[3, 1]])]

        def draw(n):
            assert n == len(batches[0])
            return enc.canonical(batches.pop(0))

        pop = ga.init_population(2, enc.capacity(2), draw)
        assert rows_as_parts(enc, pop) == [(7, 5), (3, 1)]

    def test_first_rows_match_a_lexsort(self):
        # the distinct rows, in draw order, are the first occurrences a
        # stable lexsort of the columns finds; uint64 words repeat from a
        # small pool, with high bits set, and bool rows are short or wide
        rng = np.random.default_rng(31)
        for trial in range(300):
            n, w = rng.integers(1, 60, 2)
            if trial % 2:
                pool = rng.integers(0, np.iinfo(np.uint64).max, 4,
                                    dtype=np.uint64, endpoint=True)
                rows = pool[rng.integers(0, 4, (n, w))]
            else:
                rows = rng.integers(0, 2, (n, w % 6 + 1), dtype=bool)
            order = np.lexsort(rows.T)
            ranked = rows[order]
            new = np.ones(n, dtype=bool)
            new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
            expected = rows[np.sort(order[new])]
            size = len(expected)
            pop = ga.init_population(size, size, lambda k: rows)
            assert pop.dtype == rows.dtype
            assert np.array_equal(pop, expected)

    def test_wide_rows_need_no_per_column_memory(self):
        # 20 EGA rows at E = 131,923, the edge count of
        # generate_instance(1024, 3000, 50, 100, seed=1); a lexsort of the
        # columns took about 2.6 KB each, 347 MB in all. Three repeats in
        # the first batch make init_population draw a second one.
        rng = np.random.default_rng(8)
        stream = rng.integers(0, 2, (23, 131_923), dtype=bool)
        stream[[4, 9, 17]] = stream[[1, 1, 3]]
        drawn = []

        def draw(n):
            start = sum(drawn)
            drawn.append(n)
            return stream[start:start + n]

        tracemalloc.start()
        try:
            pop = ga.init_population(20, 1 << 20, draw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn == [20, 3]
        assert np.array_equal(pop, np.delete(stream, [4, 9, 17], axis=0))
        # the population and one copy are 2.6 MB each
        assert peak < 32 * 2 ** 20

    def test_draw_exhaustion(self):
        with pytest.raises(RuntimeError, match="could not draw 2 distinct "
                                               "individuals in 2000"):
            ga.init_population(2, 16,
                               lambda n: np.zeros((n, 2), dtype=np.uint64))


class TestRouletteSelect:
    def test_boundary_draws(self):
        pop = ["a", "b"]
        assert reference_roulette_select(pop, (1, 3), 1,
                               ScriptedRng(random_values=[0.20])) == ["a"]
        assert reference_roulette_select(pop, (1, 3), 1,
                               ScriptedRng(random_values=[0.90])) == ["b"]
        # draws at 0.25 * total land exactly on the first boundary: second
        assert reference_roulette_select(pop, (1, 3), 1,
                               ScriptedRng(random_values=[0.25])) == ["b"]

    def test_statistical_proportions(self):
        rng = random.Random(12)
        draws = reference_roulette_select(["a", "b"], (1, 3), 100_000, rng)
        share_b = draws.count("b") / len(draws)
        assert abs(share_b - 0.75) < 0.01

    @pytest.mark.parametrize("fitnesses", [(0, 0), (0, 3), (2, -1)])
    def test_non_positive_fitness_refused(self, fitnesses):
        # every Y is at least B > 0, so no draw has a zero or negative
        # weight to fall back from
        with pytest.raises(ValueError, match="must be positive"):
            reference_roulette_select(["a", "b"], fitnesses, 1,
                                      random.Random(0))

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            reference_roulette_select(["a"], (-1,), 1, random.Random(0))
        with pytest.raises(ValueError, match="one fitness per individual"):
            reference_roulette_select(["a", "b"], (1,), 1, random.Random(0))

    def test_fraction_fitnesses_accepted(self):
        out = reference_roulette_select(
            ["a", "b"], (Fraction(1), Fraction(3)), 5, random.Random(14))
        assert set(out) <= {"a", "b"}


def chain_bits(ch: tuple, bits: int) -> list:
    """Flatten a chromosome to its bit chain, part 0 first, LSB first."""
    return [(p >> i) & 1 for p in ch for i in range(bits)]


class TestCrossoverAny:
    def test_every_cut_position_matches_chain_oracle(self):
        rng = random.Random(15)
        # bits = 70: parts wider than one machine word
        for k, bits in ((3, 4), (2, 70)):
            for _ in range(40):
                a = tuple(rng.getrandbits(bits) for _ in range(k))
                b = tuple(rng.getrandbits(bits) for _ in range(k))
                ca, cb = chain_bits(a, bits), chain_bits(b, bits)
                for cut in range(1, k * bits):
                    c1, c2 = reference_crossover_any(
                        a, b, bits, ScriptedRng(randrange_values=[cut]))
                    assert chain_bits(c1, bits) == ca[:cut] + cb[cut:]
                    assert chain_bits(c2, bits) == cb[:cut] + ca[cut:]

    def test_identical_parents_fixed_point(self):
        a = (9, 2, 14)
        c1, c2 = reference_crossover_any(a, a, 4, random.Random(16))
        assert c1 == a and c2 == a

    def test_locus_multiset_preserved(self):
        rng = random.Random(17)
        for _ in range(100):
            a = tuple(rng.randint(0, 127) for _ in range(2))
            b = tuple(rng.randint(0, 127) for _ in range(2))
            c1, c2 = reference_crossover_any(a, b, 7, rng)
            for x, y, p, q in zip(chain_bits(a, 7), chain_bits(b, 7),
                                  chain_bits(c1, 7), chain_bits(c2, 7)):
                assert sorted((x, y)) == sorted((p, q))

    def test_degenerate_single_bit_chain(self):
        a, b = (1,), (0,)
        assert reference_crossover_any(a, b, 1, random.Random(0)) == (a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="share shape"):
            reference_crossover_any((1,), (1, 2), 2, random.Random(0))


class TestCrossoverBoundary:
    def test_single_boundary(self):
        a = (3, 9)
        b = (12, 6)
        c1, c2 = reference_crossover_boundary(
            a, b, ScriptedRng(randrange_values=[1]))
        assert c1 == (3, 6) and c2 == (12, 9)

    def test_parts_never_split(self):
        rng = random.Random(19)
        for _ in range(200):
            k = rng.randint(2, 5)
            a = tuple(rng.randint(0, 63) for _ in range(k))
            b = tuple(rng.randint(0, 63) for _ in range(k))
            c1, c2 = reference_crossover_boundary(a, b, rng)
            for i in range(k):
                assert {c1[i], c2[i]} == {a[i], b[i]}
            # some interior boundary j splits both children prefix/suffix
            assert any(c1 == a[:j] + b[j:] and
                       c2 == b[:j] + a[j:]
                       for j in range(1, k))

    def test_k1_degenerate(self):
        a, b = (5,), (9,)
        assert reference_crossover_boundary(a, b, random.Random(0)) == (a, b)


class TestMutate:
    def test_scripted(self):
        ch = (3, 9, 12)
        out = reference_mutate(ch, 4, ScriptedRng(randrange_values=[1, 6]))
        assert out == (3, 6, 12)

    def test_changes_at_most_one_part(self):
        rng = random.Random(20)
        for _ in range(300):
            ch = tuple(rng.randint(0, 15) for _ in range(4))
            out = reference_mutate(ch, 4, rng)
            diffs = [i for i in range(4) if out[i] != ch[i]]
            assert len(diffs) <= 1

    def test_replacement_value_uniform_chi_square(self):
        # mutating the all-zero chromosome exposes the drawn value as the
        # single nonzero part (a draw of 0 leaves the chromosome unchanged)
        rng = random.Random(21)
        ch = (0, 0, 0)
        trials = 96_000
        value_counts = [0] * 16
        for _ in range(trials):
            out = reference_mutate(ch, 4, rng)
            nonzero = [p for p in out if p]
            value_counts[nonzero[0] if nonzero else 0] += 1
        expected = trials / 16
        chi2 = sum((c - expected) ** 2 / expected for c in value_counts)
        # 99.9th percentile of chi-square with 15 degrees of freedom ~ 37.7
        assert chi2 < 37.7


def pack(enc, chains) -> np.ndarray:
    """Tuples of Python int parts as the encoding's word rows."""
    raw = b"".join(p.to_bytes(8 * enc.words, "little")
                   for ch in chains for p in ch)
    return np.frombuffer(raw, dtype="<u8").reshape(len(chains), -1).copy()


def cut_encoding(m: int, k: int, sorted_form: bool = False):
    """Cut encoding of a chain shop with m machines and K = k parts."""
    inst = make_instance(m, -(-m // k), [(1, tuple(range(1, m + 1)))])
    enc = (ga._SortedCutEncoding if sorted_form else ga._CutEncoding)(inst)
    assert enc.k == k and enc.words == (m - 2) // 64 + 1
    return enc


# m = 5 and 50 hold a part in one word, m = 65 a part of one full word,
# m = 96 in two (W = 2), m = 129 two full words and m = 130 three, whose
# high and low words order parts differently
WIDTHS = [5, 50, 65, 96, 129, 130]


class TestVectorOperatorsMatchReferences:
    """Each vector operator of the engine against its per-individual
    reference in ``helpers``, fed the same scripted draws."""

    @pytest.mark.parametrize("m", WIDTHS)
    def test_crossover_at_every_cut(self, m):
        enc = cut_encoding(m, 3)
        rng = random.Random(m)
        chain = enc.k * enc.bits
        # every any-position cut, then every part boundary
        anywhere = list(range(1, chain))
        boundary = list(range(1, enc.k))
        n = len(anywhere) + len(boundary)
        a = [tuple(rng.getrandbits(enc.bits) for _ in range(enc.k))
             for _ in range(n)]
        b = [tuple(rng.getrandbits(enc.bits) for _ in range(enc.k))
             for _ in range(n)]
        coin = [0.9] * len(anywhere) + [0.1] * len(boundary)
        scripted = ScriptedGenerator(
            integers=[anywhere + [1] * len(boundary),
                      [1] * len(anywhere) + boundary],
            random=[coin])
        c1, c2 = enc.crossover(pack(enc, a), pack(enc, b), scripted)
        for i, cut in enumerate(anywhere):
            assert (enc.public(c1[i]), enc.public(c2[i])) == \
                reference_crossover_any(a[i], b[i], enc.bits,
                                        ScriptedRng(randrange_values=[cut]))
        for i, j in enumerate(boundary, start=len(anywhere)):
            assert (enc.public(c1[i]), enc.public(c2[i])) == \
                reference_crossover_boundary(
                    a[i], b[i], ScriptedRng(randrange_values=[j]))

    def test_crossover_without_cut_copies_parents(self):
        # m = 2, K = 1: a one-bit chain has no gap, one part no boundary
        enc = cut_encoding(2, 1)
        a, b = pack(enc, [(1,), (1,)]), pack(enc, [(0,), (0,)])
        c1, c2 = enc.crossover(a, b, ga.make_rng(0))
        assert np.array_equal(c1, a) and np.array_equal(c2, b)

    @pytest.mark.parametrize("edges", [1, 2, 9, 70])
    def test_edge_crossover_is_one_part_chain(self, edges):
        rng = random.Random(edges)
        inst = make_instance(
            edges + 1, 1, [(1, (v, v + 1)) for v in range(1, edges + 1)])
        enc = _EdgeEncoding(inst)
        assert enc.edges == edges
        cuts = list(range(1, edges)) or [edges]
        a = [rng.getrandbits(edges) for _ in cuts]
        b = [rng.getrandbits(edges) for _ in cuts]
        rows = lambda masks: np.array(
            [[(x >> i) & 1 for i in range(edges)] for x in masks], dtype=bool)
        scripted = ScriptedGenerator(integers=[cuts])
        c1, c2 = enc.crossover(rows(a), rows(b), scripted)
        for i, cut in enumerate(cuts):
            (r1,), (r2,) = reference_crossover_any(
                (a[i],), (b[i],), edges, ScriptedRng(randrange_values=[cut]))
            assert (enc.public(c1[i]), enc.public(c2[i])) == (r1, r2)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_mutate(self, m):
        enc = cut_encoding(m, 5)
        rng = random.Random(m)
        n = 40
        chains = [tuple(rng.getrandbits(enc.bits) for _ in range(enc.k))
                  for _ in range(n)]
        where = [rng.randrange(enc.k) for _ in range(n)]
        values = [rng.getrandbits(enc.bits) for _ in range(n)]
        # mutate draws a whole chromosome of words and takes the first
        # part; the draw may carry bits above the part width, masked away
        full = 64 * enc.words
        words = pack(enc, [(v | rng.getrandbits(full) >> enc.bits << enc.bits,)
                           + tuple(rng.getrandbits(full)
                                   for _ in range(enc.k - 1))
                           for v in values])
        scripted = ScriptedGenerator(
            integers=[np.array(where)[:, None], words])
        out = enc.mutate(pack(enc, chains), scripted)
        for i in range(n):
            assert enc.public(out[i]) == reference_mutate(
                chains[i], enc.bits,
                ScriptedRng(randrange_values=[where[i], values[i]]))

    @pytest.mark.parametrize("m", WIDTHS)
    def test_canonical_equals_sort_chromosome(self, m):
        enc = cut_encoding(m, 5, sorted_form=True)
        rng = random.Random(m)
        # parts from a small pool, so repeats, zeros and pool values shared
        # across rows (equal ranks) are common
        pool = [0, 1, (1 << enc.bits) - 1, 1 << 63 & ((1 << enc.bits) - 1)]
        pool += [rng.getrandbits(enc.bits) for _ in range(6)]
        chains = [tuple(rng.choice(pool) for _ in range(enc.k))
                  for _ in range(300)]
        chains += [(0,) * enc.k, (pool[2],) * enc.k]
        out = enc.canonical(pack(enc, chains))
        assert out.dtype == np.uint64 and out.shape == (len(chains),
                                                        enc.k * enc.words)
        assert [enc.public(row) for row in out] == \
            [sort_chromosome(ch) for ch in chains]

    def test_roulette_matches_reference(self):
        # the reference draws on the weights (Y / Y_max)^gamma; 0.25
        # lands on the boundary of rows 1 and 2 when gamma is None
        units = np.array([1, 3, 4, 1, 3, 4], dtype=np.int64)
        draws = [0.0, 0.1, 0.15, 0.5, 0.7, 0.93, 0.999, 0.25]
        for gamma in (None, 2.5):
            weights = [(u / 4) ** (gamma or 1) for u in units.tolist()]
            picks = ga.roulette_select(units, gamma, len(draws),
                                       ScriptedGenerator(random=[draws]))
            assert picks.tolist() == reference_roulette_select(
                list(range(len(units))), weights, len(draws),
                ScriptedRng(random_values=draws))

    def test_roulette_proportions(self):
        rng = ga.make_rng(12)
        picks = ga.roulette_select(np.array([1, 3]), None, 100_000, rng)
        assert abs(picks.mean() - 0.75) < 0.01

    @pytest.mark.parametrize("size", [1, 5, 40])
    def test_init_population_matches_reference(self, size):
        # a stream with many repeats: both keep its first distinct rows
        rng = random.Random(size)
        stream = [(rng.randrange(3), rng.randrange(2 * size))
                  for _ in range(1000 * size)]
        rows = np.array(stream, dtype=np.uint64)
        drawn = []

        def draw(n):
            start = sum(drawn)
            drawn.append(n)
            return rows[start:start + n]

        pop = ga.init_population(size, 6 * size, draw)
        it = iter(stream)
        expected = reference_init_population(size, 6 * size,
                                             lambda: next(it))
        assert [tuple(map(int, row)) for row in pop] == expected
        # no draw beyond the one that completed the population
        assert sum(drawn) == stream.index(expected[-1]) + 1


class TestRunGA:
    def _params(self, **kw):
        base = dict(population_size=30, generations=20, seed=1,
                    variant="scga")
        base.update(kw)
        return GAParams(**base)

    def test_deterministic(self, five_machine_instance):
        a = run_ga(five_machine_instance, self._params())
        b = run_ga(five_machine_instance, self._params())
        assert a.best_history == b.best_history
        assert a.best_chromosome == b.best_chromosome
        assert a.best_evaluation == b.best_evaluation

    def test_seed_changes_trajectory(self):
        inst = generate_instance(8, 24, 3, 8, seed=3)
        a = run_ga(inst, GAParams(40, 15, seed=1, variant="scga"))
        c = run_ga(inst, GAParams(40, 15, seed=2, variant="scga"))
        assert a.best_history != c.best_history or \
            a.best_chromosome != c.best_chromosome

    def test_history_monotone_and_sized(self, five_machine_instance):
        res = run_ga(five_machine_instance, self._params(generations=40))
        assert len(res.best_history) == 40
        assert all(b >= a for a, b in
                   zip(res.best_history, res.best_history[1:]))

    def test_zero_generations(self, five_machine_instance):
        res = run_ga(five_machine_instance, self._params(generations=0))
        assert res.best_history == []
        assert res.best_evaluation.traffic >= 0

    def test_finds_five_machine_optimum(self, five_machine_instance):
        res = run_ga(five_machine_instance,
                     self._params(population_size=40, generations=40))
        assert res.feasible_found
        assert res.best_evaluation.traffic == 6

    def test_scga_best_is_canonical(self, five_machine_instance):
        res = run_ga(five_machine_instance, self._params())
        assert sort_chromosome(res.best_chromosome) == res.best_chromosome

    def test_trivially_optimal_instance_immediate(self):
        # N >= m and no separation pairs: the all-in-one-cell chromosome is
        # in every full-capacity initial population
        inst = make_instance(4, 4, [(2, (1, 2, 3, 4, 1))])
        res = run_ga(inst, GAParams(8, 1, variant="scga", seed=3))
        assert res.best_evaluation.traffic == 0
        assert res.best_evaluation.feasible

    def test_matches_oracle_on_m6(self):
        inst = generate_instance(6, 18, 3, 8, seed=7)
        oracle = exhaustive_oracle(inst)
        res = run_ga(inst, GAParams(200, 200, seed=5, variant="scga"))
        assert res.feasible_found
        assert res.best_evaluation.traffic == oracle.traffic

    def test_cga_variant_runs(self, five_machine_instance):
        res = run_ga(five_machine_instance,
                     self._params(variant="cga", population_size=40,
                                  generations=40))
        assert res.best_evaluation.traffic == 6

    def test_power_tuning_run(self, five_machine_instance):
        res = run_ga(five_machine_instance,
                     self._params(gamma=2.0))
        # the history is the exact Y of the best so far, as with identity
        assert all(isinstance(h, Fraction) for h in res.best_history)
        assert res.best_history[-1] == res.best_evaluation.fitness
        assert res.best_evaluation.traffic == 6

    def test_uf_reported_when_infeasible(self):
        with pytest.warns(InstanceWarning):
            inst = make_instance(4, 2, [(1, (1, 2)), (1, (3, 4))],
                                 cohabit=[(1, 2), (2, 3)])
        res = run_ga(inst, GAParams(20, 10, seed=4, variant="scga"))
        assert not res.feasible_found
        assert not res.best_evaluation.feasible

    def test_extreme_rates(self, five_machine_instance):
        res = run_ga(five_machine_instance,
                     self._params(crossover_rate=1.0, mutation_rate=1.0,
                                  generations=15))
        assert len(res.best_history) == 15
        assert all(b >= a for a, b in
                   zip(res.best_history, res.best_history[1:]))
        res = run_ga(five_machine_instance,
                     self._params(crossover_rate=0.0, mutation_rate=0.0,
                                  generations=10))
        assert len(res.best_history) == 10


class TestEliteReinsertion:
    """The elite replaces the worst individual with its whole batch row:
    after every generation the loop's batch equals a fresh evaluation of
    the population it holds."""

    @pytest.mark.parametrize("encoding", [ga._CutEncoding,
                                          ga._SortedCutEncoding,
                                          _EdgeEncoding])
    def test_batch_matches_population(self, monkeypatch, encoding):
        inst = generate_instance(9, 27, 3, 8, seed=11)
        calls = []
        original = encoding.evaluate

        def spy(self, population):
            batch = original(self, population)
            calls.append((self, population, batch,
                          [a.copy() for a in vars(batch).values()]))
            return batch

        monkeypatch.setattr(encoding, "evaluate", spy)
        ga.evolve(encoding, inst, GAParams(30, 25, seed=3))
        # the first population, one per generation, then the best row
        assert len(calls) == 27
        reinserted = 0
        for enc, population, batch, as_returned in calls:
            fresh = original(enc, population)
            for name, value in vars(fresh).items():
                assert np.array_equal(getattr(batch, name), value), name
            reinserted += any(not np.array_equal(a, b) for a, b in
                              zip(vars(batch).values(), as_returned))
        assert reinserted > 0


class _CappedCutEncoding(ga._CutEncoding):
    """CGA whose fitness stops at (u + 1) * B - 3B / 4, so that every
    feasible row with traffic at most 3B / 4 ties; it records each
    population and batch it evaluates."""

    calls = []

    def evaluate(self, population):
        batch = super().evaluate(population)
        ev = self.evaluator
        cap = (ev.u + 1) * ev.bound_units - 3 * ev.bound_units // 4
        batch.fitness_units = np.minimum(batch.fitness_units, cap)
        self.calls.append((population, batch))
        return batch


class TestReportedRow:
    """evolve reports the first row, in generation and row order, whose
    rank beats every earlier rank: a later row of equal rank does not
    replace it. best_history holds that row's Y."""

    def test_first_of_equal_rows(self, monkeypatch):
        monkeypatch.setattr(_CappedCutEncoding, "calls", [])
        inst = generate_instance(9, 27, 3, 8, seed=11)
        res = ga.evolve(_CappedCutEncoding, inst, GAParams(30, 25, seed=1))
        enc = _CappedCutEncoding(inst)
        # the first population and one per generation, as the elite
        # reinsertion left them; the last call evaluates the reported row
        calls = _CappedCutEncoding.calls[:-1]
        assert len(calls) == 26
        top, history = None, []
        for population, batch in calls:
            for row, rank, y in zip(population, batch.rank,
                                    batch.fitness_units):
                if top is None or rank > top:
                    top, top_y, expected = rank, y, enc.public(row)
            history.append(enc.evaluator.to_fraction(top_y))
        assert res.best_chromosome == expected
        assert res.best_history == history[1:]
        # ties at the top: several rows of the last batch share its rank,
        # and the first of them is not the reported row
        population, batch = calls[-1]
        assert (batch.rank == top).sum() > 1
        assert enc.public(population[batch.rank.argmax()]) != expected


class TestFeasibleRowsRankFirst:
    """Y ties v violations at traffic Z = B with v + 1 at Z = 0; every
    pick of the engine goes by rank, so a run that scored a feasible row
    reports a feasible best."""

    @pytest.mark.parametrize("method", ["cga", "scga", "ega"])
    def test_two_machine_shop(self, method):
        # cut apart, Z = B and feasible; together, Z = 0 and one oversize
        # cell. Every first population of two distinct rows holds the cut
        inst = Instance(2, 1, (Part(1, (0, 1)),))
        run = run_ega if method == "ega" else run_ga
        variant = "scga" if method == "ega" else method
        for seed in range(20):
            for generations in (0, 3):
                res = run(inst, GAParams(2, generations, variant=variant,
                                         seed=seed))
                assert res.best_evaluation.feasible, (seed, generations)

    def test_elite_replaces_a_row_of_least_rank(self, monkeypatch):
        # on the two-machine shop every CGA row has the same Y, and only
        # the row that cuts nothing is infeasible
        inst = Instance(2, 1, (Part(1, (0, 1)),))
        calls = []
        original = ga._CutEncoding.evaluate

        def spy(self, population):
            batch = original(self, population)
            calls.append((population, population.copy(), batch.rank.copy(),
                          batch.fitness_units.copy()))
            return batch

        monkeypatch.setattr(ga._CutEncoding, "evaluate", spy)
        unlike_y = 0
        for seed in range(20):
            calls.clear()
            ga.evolve(ga._CutEncoding, inst, GAParams(3, 5, seed=seed))
            # each generation's population, as the reinsertion left it
            for population, drawn, rank, y in calls[1:-1]:
                replaced = np.flatnonzero((population != drawn).any(axis=1))
                assert len(replaced) <= 1
                if len(replaced):
                    assert rank[replaced[0]] == rank.min()
                    unlike_y += replaced[0] != y.argmin()
        assert unlike_y

    def test_ega_on_unit_cell_chain(self, monkeypatch):
        # N = 1: the one feasible row cuts every edge, Z = B, and ties the
        # row that cuts none
        inst = make_instance(5, 1, [(1, (1, 2, 3, 4, 5))])
        scored_feasible = []
        original = _EdgeEncoding.evaluate

        def spy(self, population):
            batch = original(self, population)
            scored_feasible[-1] |= bool((batch.violations == 0).any())
            return batch

        monkeypatch.setattr(_EdgeEncoding, "evaluate", spy)
        for seed in range(30):
            scored_feasible.append(False)
            res = run_ega(inst, GAParams(6, 10, seed=seed))
            assert res.best_evaluation.feasible == scored_feasible[-1], seed
        assert sum(scored_feasible) >= 10
